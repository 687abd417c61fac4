"""Power-iteration norm computations against dense linear-algebra oracles."""

import numpy as np
import pytest

from operator_helpers import (
    ContractError,
    LinearOperatorHandle,
    dense_handle,
    norm_via_symmetrization,
    operator_norm_self_adjoint,
    validate_handle,
)


def test_identity_norm():
    h = dense_handle(np.eye(5), self_adjoint=True, nonnegative=True)
    res = operator_norm_self_adjoint(h, tol=1e-12, seed=1)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_zero_operator_detected_at_first_step():
    h = dense_handle(np.zeros((4, 4)), self_adjoint=True, nonnegative=True)
    res = operator_norm_self_adjoint(h, tol=1e-10, seed=2)
    assert res.value == 0.0
    assert res.iterations == 1


def test_diagonal_top_eigenvalue():
    h = dense_handle(np.diag([0.2, 0.9, 0.5]), self_adjoint=True, nonnegative=True)
    res = operator_norm_self_adjoint(h, tol=1e-10, seed=3)
    assert res.value == pytest.approx(0.9, abs=1e-9)


def test_deterministic_given_seed():
    m = np.diag([0.3, 1.7, 1.1])
    h = dense_handle(m, self_adjoint=True, nonnegative=True)
    a = operator_norm_self_adjoint(h, tol=1e-10, seed=11)
    b = operator_norm_self_adjoint(h, tol=1e-10, seed=11)
    assert a.value == b.value
    assert a.iterations == b.iterations


def test_scale_equivariance():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((6, 6))
    m = m @ m.T  # symmetric nonnegative
    base = operator_norm_self_adjoint(
        dense_handle(m, self_adjoint=True, nonnegative=True), tol=1e-11, seed=5
    ).value
    for c in (0.5, 2.0, 10.0):
        scaled = operator_norm_self_adjoint(
            dense_handle(c * m, self_adjoint=True, nonnegative=True),
            tol=1e-11, seed=5,
        ).value
        assert scaled == pytest.approx(c * base, rel=1e-8)


def test_dimension_mismatch_is_contract_error():
    bad = LinearOperatorHandle(
        dimension=4, apply=lambda x: x[:3], self_adjoint=True, nonnegative=True
    )
    with pytest.raises(ContractError):
        operator_norm_self_adjoint(bad, tol=1e-8, seed=0)


def test_missing_flags_rejected():
    h = dense_handle(np.eye(3), self_adjoint=True, nonnegative=False)
    with pytest.raises(ContractError):
        operator_norm_self_adjoint(h)


def test_validate_handle_catches_lies():
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    h = dense_handle(skew, self_adjoint=True, nonnegative=False)
    with pytest.raises(ContractError):
        validate_handle(h, seed=6)
    ok = dense_handle(np.diag([0.5, 2.0]), self_adjoint=True, nonnegative=True)
    validate_handle(ok, seed=6)


class TestSymmetrizationRoute:
    def test_identity_pair(self):
        h = dense_handle(np.eye(7), self_adjoint=True)
        res = norm_via_symmetrization(h, h, tol=1e-12, seed=7)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_zero_pair(self):
        h = dense_handle(np.zeros((3, 3)))
        res = norm_via_symmetrization(h, h, tol=1e-10, seed=8)
        assert res.value == 0.0

    def test_random_matrix_matches_svd(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((6, 6))
        # oracle: independent dense singular value decomposition
        sigma_max = float(np.linalg.svd(m, compute_uv=False)[0])
        res = norm_via_symmetrization(
            dense_handle(m), dense_handle(m.T), tol=1e-12, seed=10
        )
        assert res.value == pytest.approx(sigma_max, abs=1e-8)

    def test_adjoint_mismatch_detected(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((5, 5))
        with pytest.raises(ContractError):
            norm_via_symmetrization(dense_handle(m), dense_handle(m), seed=13)
