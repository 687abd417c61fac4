"""Test-only helpers around ``gaplab.operators``: dense matrices as operator
handles, a spot check of a handle's declared flags, and the operator norm
of a non-self-adjoint T through T T*."""

import numpy as np

from gaplab import (
    ContractError,
    LinearOperatorHandle,
    NormResult,
    operator_norm_self_adjoint,
)


def dense_handle(matrix: np.ndarray, **flags) -> LinearOperatorHandle:
    """Wrap a dense matrix as an operator handle."""
    m = np.asarray(matrix, dtype=float)
    return LinearOperatorHandle(dimension=m.shape[1], apply=lambda x: m @ x, **flags)


def validate_handle(
    handle: LinearOperatorHandle, seed: int = 0, trials: int = 3, tol: float = 1e-8
) -> None:
    """Spot-check the declared self-adjointness / nonnegativity flags."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        x = rng.standard_normal(handle.dimension)
        y = rng.standard_normal(handle.dimension)
        tx = handle(x)
        scale = max(np.linalg.norm(tx) * np.linalg.norm(y), 1e-30)
        if handle.self_adjoint:
            gap = abs(np.dot(tx, y) - np.dot(x, handle(y)))
            if gap > tol * scale:
                raise ContractError(
                    f"handle declared self-adjoint but <Tx,y> - <x,Ty> = {gap:.3e}"
                )
        if handle.nonnegative:
            quad = np.dot(tx, x)
            if quad < -tol * np.dot(x, x):
                raise ContractError(
                    f"handle declared nonnegative but <Tx,x> = {quad:.3e} < 0"
                )


def norm_via_symmetrization(
    apply_op: LinearOperatorHandle,
    apply_adjoint: LinearOperatorHandle,
    tol: float = 1e-8,
    max_iter: int = 100_000,
    seed: int = 0,
    check_adjoint: bool = True,
) -> NormResult:
    """Operator norm of T as sqrt of the top eigenvalue of T T*.

    The two handles must be adjoint to one another; this is spot-checked
    on seeded random vector pairs unless ``check_adjoint`` is disabled.
    """
    if apply_op.dimension != apply_adjoint.dimension:
        raise ContractError("operator and adjoint handles disagree on dimension")
    if check_adjoint:
        rng = np.random.default_rng(seed + 1)
        for _ in range(2):
            x = rng.standard_normal(apply_op.dimension)
            y = rng.standard_normal(apply_op.dimension)
            lhs = float(np.dot(apply_op(x), y))
            rhs = float(np.dot(x, apply_adjoint(y)))
            scale = max(abs(lhs), abs(rhs), 1.0)
            if abs(lhs - rhs) > 1e-8 * scale:
                raise ContractError(
                    f"handles are not adjoint: <Tx,y>={lhs!r} vs <x,T*y>={rhs!r}"
                )
    composed = LinearOperatorHandle(
        dimension=apply_op.dimension,
        apply=lambda x: apply_op(apply_adjoint(x)),
        self_adjoint=True,
        nonnegative=True,
    )
    # the residual of T T* controls the squared norm; tighten accordingly
    res = operator_norm_self_adjoint(composed, tol=tol, max_iter=max_iter, seed=seed)
    return NormResult(
        value=float(np.sqrt(max(res.value, 0.0))),
        residual=res.residual,
        iterations=res.iterations,
    )
