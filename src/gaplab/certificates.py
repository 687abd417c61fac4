"""Constructive norm certificates from moderate-growth set sequences.

Given a symmetric set S of group atoms and a sequence of cell sets B_n,
three conditions make the sequence usable as a certificate: every B_n has
positive mass, S^n B_n stays below mass 1/2, and the n-th roots of the
F-overlap ratios inf_{g in F} nu(gB_n & B_n)/nu(B_n) approach 1.  For
such sequences the test vectors (1_{B_n} - 1_{B_n^-}) built from
equal-mass companion sets disjoint from S^n B_n give Rayleigh quotients
whose 1/(2n)-th roots certify lower bounds on the discrepancy.

The companion construction is exact here: on equal-weight grids the
intermediate-value argument for atomless spaces degenerates to counting
cells, with deterministic lexicographic fill.

Every action is one-parameter, so past the ``ModerateGrowthSequence``
boundary S, F and the powers S^k are sorted int64 arrays of steps, and
S^k is built only by ``_step_powers``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .actions import ActionSpace, GridTranslationSpace
from .errors import (
    GridResolutionError,
    InternalConsistencyError,
    PreconditionError,
)
from .groups import GroupDescriptor, _sum_set, is_symmetric_set
from .measures import (
    DEFAULT_SUPPORT_CAP,
    GroupMeasure,
    convolution_power,
    convolve,
    symmetrize,
)

CHAIN_TOL = 1e-10


@dataclass(frozen=True)
class ModerateGrowthSequence:
    """A candidate certificate: sets B_1..B_max_n plus the atom sets S, F.

    S and F are given as group elements, or as 1-d integer arrays of
    steps; once validated they are held as sorted int64 arrays of their
    steps, which validate again, so ``dataclasses.replace`` works.
    """

    space: ActionSpace
    S: np.ndarray
    F: np.ndarray
    sets: tuple  # sets[i] is the cell-index array of B_{i+1}
    max_n: int

    def __post_init__(self):
        object.__setattr__(self, "S", _symmetric_steps(self.space, self.S, "S"))
        object.__setattr__(self, "F", _symmetric_steps(self.space, self.F, "F"))
        if len(self.sets) != self.max_n:
            raise PreconditionError("need one cell set per n = 1..max_n")
        n_cells = self.space.n_cells
        for i, b in enumerate(self.sets):
            if len(b) == 0:
                raise PreconditionError(f"B_{i + 1} is empty (condition (1) fails)")
            b = np.asarray(b)
            if b.dtype.kind not in "iu" or b.min() < 0 or b.max() >= n_cells:
                raise PreconditionError(
                    f"B_{i + 1} must hold cell indices in 0..{n_cells - 1}")
            covered = np.zeros(n_cells, dtype=bool)
            covered[b] = True
            if np.count_nonzero(covered) != b.size:
                raise PreconditionError(f"B_{i + 1} lists a cell more than once")

    def B(self, n: int) -> np.ndarray:
        if not 1 <= n <= self.max_n:
            raise PreconditionError(f"n={n} outside 1..{self.max_n}")
        return np.asarray(self.sets[n - 1], dtype=np.int64)


@dataclass
class CertificateRow:
    n: int
    nu_B: float
    nu_SnB: float
    cond1: bool
    cond2: bool
    ratio: float
    ratio_root: float
    rayleigh: float | None = None
    chain_bound: float | None = None
    chain_asserted: bool | None = None
    rayleigh_root: float | None = None
    chain_root: float | None = None


@dataclass
class CertificateReport:
    rows: list[CertificateRow]
    slack: float
    cond1_all: bool
    cond2_all: bool
    cond3_flag: bool
    max_ratio_root: float
    norm_lower_bound: float | None = None


@dataclass(frozen=True)
class RayleighChainResult:
    rayleigh: float
    chain_bound: float
    chain_asserted: bool
    nu_B: float
    companion: np.ndarray


# -- set machinery -----------------------------------------------------------


def _symmetric_steps(space: ActionSpace, atoms, name: str) -> np.ndarray:
    """The sorted steps of an atom set that must be symmetric and hold the
    identity; a 1-d array holds the steps themselves."""
    group = space.group
    if isinstance(atoms, np.ndarray) and atoms.ndim == 1:
        atoms = atoms[:, None]
    atoms = {tuple(g) for g in atoms}
    if not is_symmetric_set(group, atoms) or group.identity() not in atoms:
        raise PreconditionError(f"{name} must be symmetric and contain the identity")
    return np.unique(space.steps(atoms))


def _step_powers(group: GroupDescriptor, S: np.ndarray, k: int) -> list[np.ndarray]:
    """S^0..S^k of a step array S, each sorted: the steps add as the
    elements compose (mod N on ``torus-grid``)."""
    powers = [np.zeros(1, dtype=np.int64)]
    for _ in range(k):
        powers.append(_sum_set(group, powers[-1], S, DEFAULT_SUPPORT_CAP,
                               "step power").ravel())
    return powers


def _integer_counts(spectrum: np.ndarray, length: int) -> np.ndarray:
    """Inverse real FFT along the cycle axis of sums that must be integers,
    rounded back exactly (the overlap counts of ``_pair_correlations``)."""
    values = np.fft.irfft(spectrum, n=length, axis=-1)
    counts = np.rint(values)
    if np.abs(values - counts).max() > 1e-5:
        raise InternalConsistencyError("FFT counts drifted off integers")
    return counts


def _arc_segments(space: ActionSpace, steps,
                  idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The union of sigma^c cells over the step counts c, as disjoint
    half-open slot segments [lo, hi) of the cycle table, sorted by lo.

    On a cycle of length L a run of consecutive steps [a, b] carries the
    cell at offset o onto the arc [o + a, o + b + 1) mod L, at most L
    wide; an arc that wraps splits in two.  One sort of the arcs by start
    and a running maximum of their ends merge them (the 1-d case of
    Klee's measure problem), in integers only.  Arcs that merely touch
    stay apart, so no segment leaves its cycle.
    """
    steps = np.unique(np.asarray(steps, dtype=np.int64))
    idx = np.asarray(idx, dtype=np.int64)
    if steps.size == 0 or idx.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    breaks = np.flatnonzero(np.diff(steps) > 1)
    run_lo = steps[np.r_[0, breaks + 1]]
    run_width = steps[np.r_[breaks, steps.size - 1]] + 1 - run_lo
    slot = space.cycles.slot[idx]
    first, length = space.cycles.locate(slot)
    first, length = first[:, None], length[:, None]
    start = (slot[:, None] - first + run_lo) % length
    end = start + np.minimum(run_width, length)
    wraps = end > length
    lo = np.concatenate([(first + start).ravel(),
                         np.broadcast_to(first, wraps.shape)[wraps]])
    hi = np.concatenate([(first + np.minimum(end, length)).ravel(),
                         (first + end - length)[wraps]])
    # one sort of the arcs packed as (start, width); a width is at most L
    shift = space.n_cells.bit_length()
    arcs = np.sort((lo << shift) | (hi - lo))
    lo = arcs >> shift
    reach = np.maximum.accumulate(lo + (arcs & ((1 << shift) - 1)))
    heads = np.flatnonzero(np.r_[True, lo[1:] >= reach[:-1]])
    return lo[heads], reach[np.r_[heads[1:] - 1, lo.size - 1]]


def _act_union(space: ActionSpace, steps, idx: np.ndarray) -> np.ndarray:
    """Sorted indices of the union of sigma^c cells over the step counts c."""
    lo, hi = _arc_segments(space, steps, idx)
    sizes = hi - lo
    slots = np.repeat(lo - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
    covered = np.zeros(space.n_cells, dtype=bool)
    covered[space.cycles.order[slots]] = True
    return np.flatnonzero(covered)


def _union_mass(space: ActionSpace, steps, idx: np.ndarray) -> float:
    """Mass of the union of sigma^c cells over the step counts c; the
    weights are constant on cycles, so each segment weighs its first cell
    times its size."""
    lo, hi = _arc_segments(space, steps, idx)
    return float((space.weights[space.cycles.order[lo]] * (hi - lo)).sum())


def _pair_correlations(space: ActionSpace, steps, a: np.ndarray,
                       b: np.ndarray) -> np.ndarray:
    """<pi(g) a, b> = sum_x nu_x a(g^{-1} x) b(x) for the element g of
    each step count, as an array aligned with ``steps``.

    ``a`` and ``b`` are integer-valued cell vectors; for indicators of A
    and B this is nu(gA & B), which serves the F-overlap ratios.  On each
    cycle the sum over x is a circular cross-correlation; the weights are
    constant on cycles, so the integer counts of the cycles of one weight
    are summed, rounded back exactly, and weighted once.  When ``b is a``
    the spectrum is |a^|^2, from one transform.
    """
    steps = np.asarray(steps, dtype=np.int64)
    totals = np.zeros(steps.size)
    for length, cells in space.cycles.rows():
        a_hat = np.fft.rfft(a[cells])
        if b is a:
            spectra = _squared_modulus(a_hat)
        else:
            spectra = np.conj(a_hat) * np.fft.rfft(b[cells])
        for weight, block in _weight_blocks(space, cells, spectra):
            counts = _integer_counts(block.sum(axis=0), length)
            totals += weight * counts[steps % length]
    return totals


def _squared_modulus(spectrum: np.ndarray) -> np.ndarray:
    """|spectrum|^2, squaring the parts of ``spectrum`` in place."""
    np.square(spectrum.real, out=spectrum.real)
    np.square(spectrum.imag, out=spectrum.imag)
    return np.add(spectrum.real, spectrum.imag)


def _weight_blocks(space: ActionSpace, cells: np.ndarray, values: np.ndarray):
    """(weight, rows of ``values``) per distinct weight of the cycles in
    ``cells``, one row per cycle; a single weight takes no copy."""
    weights = space.weights[cells[:, 0]]
    distinct = np.unique(weights)
    if distinct.size == 1:
        yield distinct[0], values
        return
    for weight in distinct:
        yield weight, values[weights == weight]


def _measure_spectra(space: ActionSpace, eta: GroupMeasure) -> dict[int, np.ndarray]:
    """eta^_L(k) = sum_c eta(c) e^{2 pi i k c / L} on the real-FFT bins
    k = 0..L//2 of each cycle length L, from the weights folded mod L."""
    steps = space.steps(eta.atoms)
    weights = np.fromiter(eta.atoms.values(), float, len(eta))
    return {
        int(length): np.conj(np.fft.rfft(
            np.bincount(steps % length, weights, minlength=length)))
        for length in space.cycles.lengths
    }


def _rayleigh_numerator(space: ActionSpace, phi: np.ndarray,
                        spectra: dict[int, np.ndarray]) -> float:
    """<pi(eta) phi, phi> for the measure eta with ``_measure_spectra``
    ``spectra``, as one sum over the spectrum of phi.

    On a cycle of length L, sum_c eta(c) sum_j phi_{j-c} phi_j is
    (1/L) sum_k |phi^(k)|^2 Re eta^_L(k); the real-FFT bins count the
    pairs k, L - k twice, except k = 0 and, for even L, the Nyquist bin.
    The terms of the cycles of one weight are summed before weighting.
    """
    total = 0.0
    for length, cells in space.cycles.rows():
        power = _squared_modulus(np.fft.rfft(phi[cells]))
        gain = np.full(power.shape[1], 2.0 / length)
        gain[0] = 1.0 / length
        if length % 2 == 0:
            gain[-1] = 1.0 / length
        gain *= spectra[length].real
        power *= gain
        for weight, block in _weight_blocks(space, cells, power):
            # one pairwise sum: its rounding grows with log(cells), not cells
            total += weight * float(block.sum())
    return total


# -- the per-n step -------------------------------------------------------------


def _growth_row(seq: ModerateGrowthSequence, n: int,
                snb: np.ndarray) -> CertificateRow:
    """Row n of the moderate-growth conditions, given S^n B_n.

    The overlap ratio is clamped to [0, 1]; it serves condition (3) and
    the chain bound alike.
    """
    space = seq.space
    b = seq.B(n)
    nu_b = space.mass_of(b)
    nu_snb = space.mass_of(snb)
    # int8 cell vectors: the cycle-order gathers of the correlations read
    # an eighth of the memory of int64 ones
    ind = np.zeros(space.n_cells, dtype=np.int8)
    ind[b] = 1
    overlaps = _pair_correlations(space, seq.F, ind, ind)
    ratio = min(max(float(overlaps.min()) / nu_b, 0.0), 1.0)
    return CertificateRow(
        n=n,
        nu_B=nu_b,
        nu_SnB=nu_snb,
        cond1=nu_b > 0,
        cond2=nu_snb < 0.5,
        ratio=ratio,
        ratio_root=ratio ** (1.0 / n),
    )


def _rayleigh_part(seq: ModerateGrowthSequence, eta: GroupMeasure,
                   eta_n: GroupMeasure, eta_hat: dict[int, np.ndarray],
                   row: CertificateRow, snb: np.ndarray) -> np.ndarray:
    """Fill the Rayleigh and chain columns of ``row`` from eta^{*n}, the
    spectra ``eta_hat`` of eta and S^n B_n; returns the companion set."""
    space = seq.space
    n = row.n
    b = seq.B(n)
    companion = build_companion_set(space, b, snb)
    phi = np.zeros(space.n_cells, dtype=np.int8)
    phi[b] = 1
    phi[companion] = -1
    spectra = {length: values ** n for length, values in eta_hat.items()}
    row.rayleigh = _rayleigh_numerator(space, phi, spectra) / (2.0 * row.nu_B)
    # a plain Python sum over the atoms in dict order: the reported digits
    # depend on the summation order
    in_f = np.isin(space.steps(eta_n.atoms), seq.F).tolist()
    f_mass = sum(w for w, keep in zip(eta_n.atoms.values(), in_f) if keep)
    row.chain_bound = 0.5 * f_mass * row.ratio
    row.chain_asserted = bool(np.isin(space.steps(eta.atoms), seq.S).all())
    if row.chain_asserted and row.rayleigh < row.chain_bound - CHAIN_TOL:
        raise InternalConsistencyError(
            f"chain inequality violated at n={n}: rayleigh={row.rayleigh!r} < "
            f"bound={row.chain_bound!r}; the companion set must intersect the "
            "support translates"
        )
    row.rayleigh_root = max(row.rayleigh, 0.0) ** (1.0 / (2 * n))
    row.chain_root = max(row.chain_bound, 0.0) ** (1.0 / (2 * n))
    return companion


def _walk(seq: ModerateGrowthSequence, slack: float,
          eta: GroupMeasure | None = None) -> CertificateReport:
    """One pass over n = 1..max_n carrying S^n (and eta^{*n}) forward.

    Without ``eta`` only the moderate-growth columns are filled.  On a
    sequence from ``orbit_neighborhood_sequence``, S^n B_n is dilated as
    S^{2n} V_n from the few cells of the ball V_n instead of all of B_n.
    """
    space = seq.space
    group = space.group
    cores = getattr(seq, "_cores", None)
    if cores is None:
        s_pow = _step_powers(group, seq.S, seq.max_n)
    else:
        balls, s_pow = cores
    if eta is not None:
        eta_hat = _measure_spectra(space, eta)
    eta_n = GroupMeasure.point_mass(group, group.identity())
    rows = []
    for n in range(1, seq.max_n + 1):
        if cores is None:
            snb = _act_union(space, s_pow[n], seq.B(n))
        else:
            snb = _act_union(space, s_pow[2 * n], balls[n - 1])
        row = _growth_row(seq, n, snb)
        if eta is not None:
            # eta^{*n} serves only the F-mass of the chain bound
            eta_n = convolve(eta_n, eta)
            _rayleigh_part(seq, eta, eta_n, eta_hat, row, snb)
        rows.append(row)
    max_root = max(r.ratio_root for r in rows)
    return CertificateReport(
        rows=rows,
        slack=slack,
        cond1_all=all(r.cond1 for r in rows),
        cond2_all=all(r.cond2 for r in rows),
        cond3_flag=max_root >= 1.0 - slack,
        max_ratio_root=max_root,
    )


# -- the certificate operations ----------------------------------------------


def check_moderate_growth(
    seq: ModerateGrowthSequence, slack: float = 0.02
) -> CertificateReport:
    """Evaluate the three moderate-growth conditions on a finite horizon.

    Condition (2) uses nu(S^n B_n) itself: on a finite space every set is
    measurable, so the infimum over measurable supersets is attained
    there.  Condition (3) is reported as the full sequence ratio_n^{1/n}
    together with the finite-horizon flag max_n ratio_n^{1/n} >= 1 - slack.
    """
    return _walk(seq, slack)


def build_companion_set(
    space: ActionSpace, b: np.ndarray, forbidden: np.ndarray
) -> np.ndarray:
    """A set of the same measure as b, disjoint from ``forbidden``.

    Equal-weight cells make exact mass matching a counting problem; the
    fill is greedy in deterministic cell order, so certificates are
    reproducible.
    """
    weights = space.weights
    # np.allclose(weights, weights[0]), without a cell-sized temporary
    w0 = weights[0]
    if max(weights.max() - w0, w0 - weights.min()) > 1e-8 + 1e-5 * w0:
        raise PreconditionError("companion sets need an equal-weight cell grid")
    blocked = np.zeros(space.n_cells, dtype=bool)
    blocked[forbidden] = True
    free = np.flatnonzero(~blocked)
    if len(free) < len(b):
        raise PreconditionError(
            "not enough mass outside the forbidden set (condition (2) gives "
            f"room only when nu(S^n B_n) < 1/2; need {len(b)} cells, "
            f"have {len(free)})"
        )
    return free[: len(b)].astype(np.int64)


def rayleigh_chain(
    space: ActionSpace,
    mu: GroupMeasure,
    seq: ModerateGrowthSequence,
    n: int,
) -> RayleighChainResult:
    """Rayleigh quotient of the n-th convolution power against the n-th
    test vector, plus the analytic chain bound.

    ``mu`` must be symmetric (callers symmetrize first).  The test vector
    is phi = 1_B - 1_{B^-}, with the companion B^- disjoint from S^n B,
    and the quotient is <pi(mu^{*n}) phi, phi> / (2 nu(B)).  When supp(mu)
    is contained in S the cross terms vanish on the support of mu^{*n}
    and the chain inequality

        rayleigh >= (1/2) mu^{*n}(F) inf_{g in F} nu(gB & B)/nu(B)

    is asserted; a violation raises, since it can only mean a
    disjointness bug.  If supp(mu) exceeds S the bound is still reported
    but not asserted.
    """
    if not mu.is_symmetric(tol=1e-12):
        raise PreconditionError("rayleigh_chain needs a symmetric measure")
    snb = _act_union(space, _step_powers(space.group, seq.S, n)[n], seq.B(n))
    row = _growth_row(seq, n, snb)
    companion = _rayleigh_part(seq, mu, convolution_power(mu, n),
                               _measure_spectra(space, mu), row, snb)
    return RayleighChainResult(
        rayleigh=row.rayleigh,
        chain_bound=row.chain_bound,
        chain_asserted=row.chain_asserted,
        nu_B=row.nu_B,
        companion=companion,
    )


def orbit_neighborhood_sequence(
    space: ActionSpace,
    x0: int,
    S,
    n_max: int,
) -> ModerateGrowthSequence:
    """Build B_n = S^n V_n from maximal admissible base-cell neighborhoods.

    V_n is the largest cell ball around x0 such that (a) gV_n and V_n are
    disjoint for every g in S^{2n-2} outside S (the thickened-stabilizer
    exemption under the free-orbit surrogate), and (b) the orbit
    thickening S^{2n} V_n keeps mass below 1/2.  Condition (b) plays the
    role of the small open superset: with it, S^n B_n = S^{2n} V_n stays
    below mass 1/2 by construction.  The balls V_n and the powers
    S^0..S^{2 n_max} ride along on the sequence as ``_cores``, outside its
    fields, so that the walk can dilate S^n B_n as S^{2n} V_n;
    ``dataclasses.replace`` drops them.
    """
    S = tuple(S)
    steps = _symmetric_steps(space, S, "S")
    x0 = int(x0)
    if not 0 <= x0 < space.n_cells:
        raise PreconditionError(
            f"base cell x0 = {x0} is outside the {space.n_cells} cells of the space"
        )
    powers = _step_powers(space.group, steps, 2 * n_max)
    thickest = powers[2 * n_max]
    # the identity, the step 0, fixes every cell and is exempt
    fixing = thickest[(thickest != 0) & (thickest % space.period(x0) == 0)]
    if fixing.size:
        raise GridResolutionError(
            f"free-orbit surrogate fails at the base cell: atom {(int(fixing[0]),)} "
            f"of S^{2 * n_max} fixes it; refine the grid or shorten the horizon"
        )
    orbit_mass = _union_mass(space, thickest, np.array([x0]))
    if orbit_mass >= 0.5:
        raise GridResolutionError(
            f"the S^{2 * n_max}-orbit of the base cell has mass "
            f"{orbit_mass:.6g} >= 1/2; refine the grid"
        )

    balls, sets = [], []
    # S^{2n} only grows with n, so the admissible radius cannot grow
    radius = math.inf
    for n in range(1, n_max + 1):
        separators = np.setdiff1d(powers[2 * n - 2], steps, assume_unique=True)
        r_cap = _separation_radius(space, separators)
        radius = _largest_mass_admissible_radius(
            space, powers[2 * n], x0, min(r_cap, radius)
        )
        if radius is None:
            raise GridResolutionError(
                f"no admissible neighborhood at n={n}: even the single base "
                "cell pushes the orbit thickening to mass >= 1/2; use a finer grid"
            )
        balls.append(space.cell_ball(x0, radius))
        sets.append(_act_union(space, powers[n], balls[-1]))
    seq = ModerateGrowthSequence(
        space=space, S=S, F=S, sets=tuple(sets), max_n=n_max
    )
    object.__setattr__(seq, "_cores", (balls, powers))
    return seq


def _separation_radius(space: ActionSpace, separators: np.ndarray) -> int:
    """Largest ball radius whose separator translates stay disjoint: below
    half the least separator displacement on a translation grid, single
    cells elsewhere.

    No separator displaces by zero: it would fix the base cell, and the
    separators lie in S^{2 n_max}, which the caller has checked for atoms
    that do.
    """
    if not isinstance(space, GridTranslationSpace):
        return 0
    if len(separators) == 0:
        return min(space.grid_shape) // 2
    dmin = space.min_displacement(separators).min()
    return max(int(math.ceil(dmin / 2.0)) - 1, 0)


def _largest_mass_admissible_radius(
    space: ActionSpace, thickening: np.ndarray, x0: int, r_cap: int
) -> int | None:
    def mass_at(radius: int) -> float:
        return _union_mass(space, thickening, space.cell_ball(x0, radius))

    if mass_at(0) >= 0.5:
        return None
    lo, hi = 0, r_cap
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mass_at(mid) < 0.5:
            lo = mid
        else:
            hi = mid - 1
    return lo


def run_certificate(
    space: ActionSpace,
    mu: GroupMeasure,
    x0: int | None = None,
    seq: ModerateGrowthSequence | None = None,
    n_max: int | None = None,
    slack: float = 0.02,
) -> CertificateReport:
    """Full pipeline: orbit-neighborhood sets for eta = mu * mu^, the three
    moderate-growth conditions, per-n Rayleigh/chain values, and the final
    certified lower bound max_n (<pi(eta^{*n}) phi_n, phi_n> /
    ||phi_n||^2)^{1/(2n)}.

    Each Rayleigh quotient lower-bounds the norm of the nonnegative
    operator pi(eta)^n on zero-mean functions, so the max is a certified
    lower bound for the discrepancy of mu.  The sets come either from
    ``seq`` or from the base cell ``x0`` (default: the space's base cell)
    and the horizon ``n_max`` (default 10), not from both.
    """
    eta = symmetrize(mu)
    if seq is None:
        base = space.base_cell if x0 is None else int(x0)
        seq = orbit_neighborhood_sequence(
            space, base, list(eta.atoms), 10 if n_max is None else n_max)
    elif x0 is not None or n_max is not None:
        raise PreconditionError(
            "run_certificate takes either seq or x0/n_max; seq fixes the "
            "base cell and the horizon")
    report = _walk(seq, slack, eta)
    report.norm_lower_bound = max(row.rayleigh_root for row in report.rows)
    return report
