"""Test-only oracles: power iteration on apply-to-vector operator handles,
dense matrices as handles, a spot check of a handle's declared flags, the
operator norm of a non-self-adjoint T through T T*, and the averaging
operator of an action applied atom by atom through cell gathers.

The exact discrepancies of ``gaplab.koopman`` are tested against these.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from gaplab import DescriptorMismatchError, GaplabError


def slot_cells(space) -> np.ndarray:
    """The cells of ``space`` in slot order: the inverse of its cycle
    table's ``slot``, by one scatter."""
    slot = space.cycles.slot
    cells = np.empty_like(slot)
    cells[slot] = np.arange(slot.size)
    return cells


def segment_mask(space, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The cells of the slot segments [lo, hi) of ``space`` as a mask over
    its cells: a slot is in a segment iff more segments start than end at
    or before it."""
    depth = np.zeros(space.n_cells + 1, dtype=np.int64)
    np.add.at(depth, lo, 1)
    np.add.at(depth, hi, -1)
    mask = np.zeros(space.n_cells, dtype=bool)
    mask[slot_cells(space)[np.cumsum(depth[:-1]) > 0]] = True
    return mask


def act_indices(space, steps: int, idx: np.ndarray) -> np.ndarray:
    """Forward action of sigma^steps on the cell indices idx of ``space``,
    through its cycle table."""
    slot = space.cycles.slot[idx]
    first, length = space.cycles.locate(slot)
    return slot_cells(space)[first + (slot - first + steps) % length]


class ConvergenceError(GaplabError):
    """An iterative solver did not reach its tolerance within its budget."""

    def __init__(self, message: str, last_residual: float | None = None):
        super().__init__(message)
        self.last_residual = last_residual


class ContractError(GaplabError):
    """An operator handle violated its declared contract (shape, adjointness)."""


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


class KoopmanAveragingOperator:
    """The operator phi -> integral of phi(g^{-1} x) d mu(g) on the cell
    space, applied atom by atom through cell gathers.

    ``apply_l2`` is the raw averaging in the natural cell coordinates,
    without the projection onto zero-mean functions.
    """

    def __init__(self, space, measure):
        if measure.group != space.group:
            raise DescriptorMismatchError(
                "measure and action space live on different groups"
            )
        self.space = space
        self.measure = measure
        # (pi(g) phi)[i] = phi[P[i]] with P[i] the index of g^{-1} cell_i,
        # and g^{-1} is the step -c
        cells = np.arange(space.n_cells)
        steps = space.steps(measure.cells)
        order = np.argsort(steps)  # support order
        self._perms = [
            (act_indices(space, -c, cells), w)
            for c, w in zip(steps[order].tolist(), measure.weights[order].tolist())
        ]

    def apply_l2(self, phi: np.ndarray) -> np.ndarray:
        """Averaging without the zero-mean projection (natural coordinates)."""
        phi = np.asarray(phi, dtype=float)
        out = np.zeros_like(phi)
        for perm, w in self._perms:
            out += w * phi[perm]
        return out

    def mean_of(self, phi: np.ndarray) -> float:
        return float(np.dot(self.space.weights, phi))


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
