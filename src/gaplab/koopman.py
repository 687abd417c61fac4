"""Averaging operators of discretized actions and their discrepancies.

The discrepancy of a measure mu under a measure-preserving action is the
operator norm of the averaging operator on zero-mean square-summable
functions.  Every action here is c -> sigma^c for one cell permutation
sigma, and the cell weights are constant on the cycles of sigma, so the
averaging operator is a direct sum of circulants, one per cycle, and the
discrepancy is read off their eigenvalues exactly (circulant
diagonalization; P. J. Davis, *Circulant Matrices*, 1979).  For a
space with a ``grid_shape`` (a translation action) the character oracle
diagonalizes the whole cell grid instead, over every frequency of its
dual, and serves as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .actions import ActionSpace
from .errors import DescriptorMismatchError, PreconditionError, UnsupportedKindError
from .groups import TORUS_GRID
from .measures import GroupMeasure
from .regular_norm import amenable_norm

#: a cell at or above this mass fails the atomless surrogate
ATOM_THRESHOLD = 0.05


@dataclass(frozen=True)
class DiscrepancyResult:
    """The exact discrepancy and the cycle structure it was read from.

    ``witness`` is (L, k): an eigenvalue of largest modulus sits at
    frequency k on a cycle of length L.  It is None on a one-cell space,
    which has no nonzero zero-mean function.
    """

    value: float
    n_cycles: int
    witness: tuple[int, int] | None

    @property
    def invariant_dim(self) -> int:
        """Dimension of the invariant zero-mean functions (constant on cycles)."""
        return self.n_cycles - 1

    @property
    def trivial_note(self) -> str | None:
        """Why delta >= lambda holds without evidence, when it does."""
        if self.invariant_dim == 0:
            return None
        return ("delta = total mass, so delta >= lambda holds trivially "
                f"(non-ergodic discretization: {self.invariant_dim} invariant "
                "zero-mean functions)")


def discrepancy(space: ActionSpace, mu: GroupMeasure) -> DiscrepancyResult:
    """Norm of the averaging operator on zero-mean functions, exactly.

    On a cycle of length L, sigma acts as the cyclic shift, so pi(mu)
    has the eigenvalues sum_c w_c exp(-2 pi i c k / L), k = 0..L-1: one
    length-L FFT of the weights folded to c mod L.  Restricting to
    zero-mean functions removes one k = 0 eigenvalue, the one of the
    constants.  With two or more cycles another k = 0 eigenvalue, the
    total mass, survives, and no eigenvalue of a positive measure exceeds
    it, so the value is exactly ``mu.total_mass``.
    """
    if mu.group != space.group:
        raise DescriptorMismatchError(
            "measure and action space live on different groups"
        )
    cycles = space.cycle_lengths()
    n_cycles = sum(cycles.values())
    if n_cycles >= 2:
        return DiscrepancyResult(mu.total_mass, n_cycles, (min(cycles), 0))
    (length,) = cycles
    folded = np.bincount(space.steps(mu.cells) % length, weights=mu.weights,
                         minlength=length)
    # the full transform, not the half spectrum: the moduli at k and L - k
    # agree only up to rounding, and the value and witness reported are
    # the full transform's
    mags = np.abs(np.fft.fft(folded))[1:]
    if not mags.size:
        return DiscrepancyResult(0.0, 1, None)
    k = int(np.argmax(mags))
    return DiscrepancyResult(float(mags[k]), 1, (length, k + 1))


def character_norm(space: ActionSpace, mu: GroupMeasure) -> float:
    """Exact diagonalization bound for translation actions.

    The eigenvalue of the averaging operator at the character m of the
    cell grid is mu-hat evaluated along the translation vectors; the
    returned value is the max of |eigenvalue| over every nonzero
    character of the grid, which equals the discrepancy of the
    discretized action exactly.  The value is clamped at the total mass,
    which bounds every |mu-hat| exactly.
    """
    if space.grid_shape is None:
        raise UnsupportedKindError(
            f"character oracle needs a translation action, got {space.kind}"
        )
    if mu.group != space.group:
        raise DescriptorMismatchError("measure and action space group mismatch")
    # np.add.at adds the weights one by one in support (step) order, so
    # atoms that land on one cell always sum in the same order
    steps = space.steps(mu.cells)
    order = np.argsort(steps)
    vectors = space.translations(steps[order])
    mass_grid = np.zeros(space.grid_shape)
    np.add.at(mass_grid, tuple(vectors.T), mu.weights[order])
    # the grid is real, so the character -m has the conjugate value of m,
    # and the half spectrum of the real transform along the last axis
    # holds every modulus; its first entry is the trivial character
    mags = np.abs(np.fft.rfftn(mass_grid).ravel()[1:])
    # |mu^(chi)| <= mu(G) exactly; the FFT can round a hair above it
    return min(float(mags.max()), mu.total_mass)


def character_line_scan(
    mu: GroupMeasure, slope: float, freq_cutoff: int
) -> tuple[float, tuple[int, int]]:
    """Continuum character scan along the line of the given slope.

    For the flow t -> (t, slope * t) the character (m1, m2) sees the
    1-d transform of the time measure at theta = m1 + slope * m2; the
    best frequency pair minimizes |theta|.  The scan trusts the
    discretized time measure only below its Nyquist frequency (half the
    grid resolution), since beyond it the transform aliases back to 1.
    Returns (value, (m1, m2)).

    The atoms sit at integer coordinates c over the group's scale s, so
    the transform at theta is the polynomial sum_c w_c z^c in the one
    phase z = exp(-2 pi i theta / s), evaluated by Horner's rule over the
    atoms in coordinate order.  Each candidate costs one ``exp`` per
    distinct gap between neighbouring coordinates (one on an interval),
    whatever their span.
    """
    if mu.group.dimension != 1 or not mu.group.is_abelian:
        raise PreconditionError("line scan needs a 1-d time measure")
    scale, coords = mu.group.scale, mu.cells[:, 0]
    if mu.group.kind == TORUS_GRID:  # the representatives in [-N/2, N/2)
        coords = np.where(coords >= (scale + 1) // 2, coords - scale, coords)
    spacings = np.diff(np.unique(coords / scale))
    nyquist = 0.5 / spacings.min() if spacings.size else math.inf

    # the candidates in scan order: m1 = 1..8 on m2 = 0, then the three
    # m1 nearest -slope * m2 for each m2 >= 1
    m2 = np.arange(1, freq_cutoff + 1)
    centers = -np.round(slope * m2).astype(np.int64)
    m1 = np.concatenate([np.arange(1, min(freq_cutoff, 8) + 1),
                         (centers[:, None] + np.arange(-1, 2)).ravel()])
    m2 = np.concatenate([np.zeros(min(freq_cutoff, 8), dtype=np.int64),
                         np.repeat(m2, 3)])
    theta = m1 + slope * m2
    keep = (np.abs(m1) <= freq_cutoff) & (np.abs(theta) <= nyquist)
    m1, m2, theta = m1[keep], m2[keep], theta[keep]
    if not theta.size:
        return 0.0, (0, 0)
    # |sum_j w_j z^c_j| = |sum_j w_j z^(c_j - c_0)|, nested from the top;
    # each z^g is its own exp, since raising the rounded z to the g-th
    # power multiplies its modulus error by g (1e-11 at g = 10^6)
    order = np.argsort(coords, kind="stable")
    gaps = np.diff(coords[order]).tolist()
    weights = mu.weights[order]
    powers = {g: np.exp(-2j * np.pi * (g / scale) * theta) for g in set(gaps)}
    acc = np.full(theta.size, weights[-1], dtype=complex)
    for g, w in zip(reversed(gaps), weights[-2::-1]):
        acc *= powers[g]
        acc += w
    values = np.abs(acc)
    best = int(np.argmax(values))
    if values[best] <= 0:
        return 0.0, (0, 0)
    return float(values[best]), (int(m1[best]), int(m2[best]))


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one lower-bound verification run."""

    spectrum: DiscrepancyResult
    regular_norm: float
    regular_method: str
    tol: float
    hypothesis_ok: bool
    violations: tuple[str, ...]
    passed: bool | None  # None when the hypotheses fail: nothing is asserted
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def delta(self) -> float:
        return self.spectrum.value

    @property
    def asserted(self) -> bool:
        return self.passed is not None


def check_hypotheses(space: ActionSpace, mu: GroupMeasure) -> list[str]:
    """Discrete surrogates for the hypotheses under which the lower bound
    is proved.

    Every space must pass the atomless surrogate (no cell at/above the
    atom threshold).  For actions of grid-kind groups the free-orbit
    surrogate is additionally required: no non-identity support atom may
    fix a cell, and the support orbit of the base cell must have mass
    below 1/2.  Discrete group kinds need no orbit condition (their
    specialization of the bound holds without it).
    """
    violations = []
    wmax = space.cell_weight
    if wmax is None:
        wmax = float(space.weights.max())
    if wmax >= ATOM_THRESHOLD:
        violations.append(
            f"atomless surrogate fails: a cell carries mass {wmax:.6g} "
            f">= threshold {ATOM_THRESHOLD}"
        )
    if mu.group.is_grid:
        # in support order, the order the offenders are named in
        steps = np.sort(space.steps(mu.cells))
        # the identity is the step 0, which fixes every cell
        fixing = (steps != 0) & space.has_fixed_cell(steps)
        if fixing.any():
            offenders = [(c,) for c in steps[fixing][:3].tolist()]
            violations.append(
                f"free-orbit surrogate fails: support atoms {offenders} fix cells"
            )
        mass = space.base_orbit_mass(steps)
        if mass > 0.5 - 1e-12:
            if mass >= 1.0 - 1e-12:
                violations.append("orbit covers the space")
            else:
                violations.append(
                    f"support orbit of the base cell has mass {mass:.6g} >= 1/2"
                )
    return violations


def verify_lower_bound(space: ActionSpace, mu: GroupMeasure,
                       tol: float = 1e-3) -> VerifyReport:
    """Compute both sides of the universal bound and compare them.

    The report carries the exact discrepancy with its cycle structure, the
    exact regular-representation norm, and the boolean
    delta >= lambda - tol.  Every group an action space is built on is
    abelian, so lambda is the total mass (``amenable_norm``).
    When the hypothesis surrogates fail the inequality is NOT asserted
    (it can genuinely fail, e.g. for orbit-covering measures) and
    ``passed`` is None.
    """
    if mu.total_mass <= 0:
        raise PreconditionError("measure must be positive")
    violations = check_hypotheses(space, mu)
    disc = discrepancy(space, mu)
    est = amenable_norm(mu)
    notes = [disc.trivial_note] if disc.trivial_note else []
    if violations:
        passed = None
        notes.append("inequality not asserted (hypothesis violation: %s)"
                     % "; ".join(violations))
    else:
        passed = bool(disc.value >= est.value - tol)
    return VerifyReport(
        spectrum=disc,
        regular_norm=est.value,
        regular_method=est.method,
        tol=tol,
        hypothesis_ok=not violations,
        violations=tuple(violations),
        passed=passed,
        notes=tuple(notes),
    )
