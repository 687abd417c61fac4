"""Operator norms of self-adjoint nonnegative operators via power iteration.

Operators are passed around as apply-to-vector handles, so the callers can
back them by dense matrices or permutation gathers without changing this
module.  Discrepancies are computed exactly elsewhere (``gaplab.koopman``);
power iteration is the independent oracle they are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractError, ConvergenceError


@dataclass(frozen=True)
class LinearOperatorHandle:
    """An apply-to-vector view of a bounded operator on R^dimension."""

    dimension: int
    apply: Callable[[np.ndarray], np.ndarray]
    self_adjoint: bool = False
    nonnegative: bool = False

    def __call__(self, x: np.ndarray) -> np.ndarray:
        y = self.apply(x)
        if y.shape != x.shape:
            raise ContractError(
                f"operator returned shape {y.shape} for input shape {x.shape}"
            )
        return y


@dataclass(frozen=True)
class NormResult:
    """A norm estimate with its residual-based error bound."""

    value: float
    residual: float
    iterations: int


def operator_norm_self_adjoint(
    handle: LinearOperatorHandle,
    tol: float = 1e-8,
    max_iter: int = 100_000,
    seed: int = 0,
) -> NormResult:
    """Largest eigenvalue of a self-adjoint nonnegative operator.

    Power iteration from a seeded random start vector.  Convergence is
    declared when the residual ||Tv - lam*v|| of the unit iterate drops
    below ``tol`` (residual, not eigenvalue stagnation: clustered spectra
    near the top stagnate early).  A zero operator is detected at the
    first step and reported as exactly 0.0.
    """
    if not (handle.self_adjoint and handle.nonnegative):
        raise ContractError("operator_norm_self_adjoint needs both contract flags set")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(handle.dimension)
    v /= np.linalg.norm(v)
    w = handle(v)
    wnorm = float(np.linalg.norm(w))
    if wnorm < tol:
        return NormResult(value=0.0, residual=wnorm, iterations=1)
    lam = float(np.dot(v, w))
    for it in range(1, max_iter + 1):
        residual = float(np.linalg.norm(w - lam * v))
        if residual <= tol:
            return NormResult(value=lam, residual=residual, iterations=it)
        v = w / wnorm
        w = handle(v)
        wnorm = float(np.linalg.norm(w))
        if wnorm == 0.0:
            return NormResult(value=0.0, residual=0.0, iterations=it)
        lam = float(np.dot(v, w))
    raise ConvergenceError(
        f"power iteration did not reach tol={tol} within {max_iter} iterations "
        f"(last residual {residual:.3e})",
        last_residual=residual,
    )
