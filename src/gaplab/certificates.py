"""Constructive norm certificates from moderate-growth set sequences.

``run_certificate`` builds cell sets B_n around the orbit of a base cell
for S = F = supp(eta), eta = mu * mu^, a symmetric set that holds the
identity.  Three conditions make the sequence usable as a certificate:
every B_n has positive mass, S^n B_n stays below mass 1/2, and the n-th
roots of the F-overlap ratios inf_{g in F} nu(gB_n & B_n)/nu(B_n)
approach 1.  For such sequences the test vectors (1_{B_n} - 1_{B_n^-})
built from equal-mass companion sets disjoint from S^n B_n give Rayleigh
quotients whose 1/(2n)-th roots certify lower bounds on the discrepancy.

The companion construction is exact here: on a grid whose cells all
weigh exactly the same, the intermediate-value argument for atomless
spaces degenerates to counting cells, with deterministic lexicographic
fill.  ``run_certificate`` therefore runs only on such grids, and checks
that before it builds anything.

Every action is one-parameter, so S and F are sorted int64 arrays of
steps.  Step sets and cell sets are both ``Intervals``, sorted disjoint
half-open integer intervals [lo, hi): each power S^k as the runs of its
consecutive steps, formed only by ``_step_powers``, and each cell set as
segments of slots in the cycle table.  One sweep, ``_sweep``, forms
every dilation, the intervals moved by every step of a run list: S^j as
S^{j-1} swept by S on the line, or on the one circle Z/N of
``torus-grid``, and S B as the segments of B swept by S on their cycles.
Only ``separation_radius`` reads steps of a power one by one.

Each cell set is swept once.  The walk takes the segments of B_n and of
S^n B_n from the radius search and reads everything off them: the masses
are the cell weight times a segment count, the F-overlaps are integer
sums over pairs of segments, and the test vector phi is written in slot
order, the order in which its FFT reads it.  phi first marks the slots of
S^n B_n, and the companion is the first cells in index order whose slots
it leaves unmarked, read through the cycle table's ``slot``: no cell mask
is formed.  Every comparison with mass 1/2 compares counts: a set has
mass below 1/2 iff it holds fewer than half the cells, where a product of
the rounded cell weight and a count could land on either side.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .actions import ActionSpace
from .errors import DescriptorMismatchError, GridResolutionError, PreconditionError
from .groups import (
    _INT64_MAX,
    _INT64_MIN,
    TORUS_GRID,
    GroupDescriptor,
    _check_pairs,
    _contains,
    _distinct,
)
from .measures import (
    DEFAULT_SUPPORT_CAP,
    GroupMeasure,
    _convolve_keys,
    _pairing,
    _walk_box,
    symmetrize,
)

CHAIN_TOL = 1e-10

#: sorted, disjoint half-open intervals [lo, hi) of integers, as the int64
#: arrays (lo, hi): runs of consecutive steps, or segments of slots
Intervals = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class CertificateRow:
    n: int
    nu_B: float
    nu_SnB: float
    cond1: bool
    cond2: bool
    ratio: float
    ratio_root: float
    rayleigh: float
    chain_bound: float
    rayleigh_root: float
    chain_root: float


@dataclass(frozen=True)
class CertificateReport:
    rows: tuple[CertificateRow, ...]
    chain_holds: bool  # every row has rayleigh >= chain_bound - CHAIN_TOL
    cond1_all: bool
    cond2_all: bool
    cond3_flag: bool
    max_ratio_root: float
    norm_lower_bound: float


# -- set machinery -----------------------------------------------------------


def _cell_weight(space: ActionSpace) -> float:
    """The weight of every cell; raises unless all cells weigh exactly the
    same, the one case in which counting cells matches their mass."""
    if space.cell_weight is None:
        raise PreconditionError(
            "certificates need an equal-weight cell grid: companion sets "
            "match masses by counting cells")
    return space.cell_weight


def _sweep(intervals: Intervals, runs: Intervals,
           circles: tuple[np.ndarray, np.ndarray] | None, what: str,
           apart: bool = False) -> Intervals:
    """The union of the intervals ``intervals`` moved by every step of the
    step runs ``runs``, as sorted, disjoint intervals [lo, hi).

    ``circles`` is None for the line, or the arrays (first, length) of the
    circle [first, first + length) of each interval.  A run [a, b) carries
    [lo, hi) onto [lo + a, hi + b - 1), which on a circle of length L is
    the arc at most L wide from lo + a, taken mod L from the circle's
    first point; an arc that wraps splits in two.  The pairs of intervals
    and runs are checked against memory as ``what`` before they exist.
    The moved intervals, all nonempty, merge in integers only, from one
    sort of their starts and one of their ends (the 1-d case of Klee's
    measure problem): the j smallest ends close a piece of the union iff
    the (j+1)-th smallest start lies past them.  Touching intervals
    merge, unless ``apart``: the touching arcs of a cycle table stay
    apart, so that no segment leaves its cycle.
    """
    (lo, hi), (a, b) = intervals, runs
    _check_pairs(len(lo) * len(a), what)
    if circles is None:
        lo, hi = np.add.outer(lo, a), np.add.outer(hi - 1, b)
    else:
        first, length = circles[0][:, None], circles[1][:, None]
        # an offset and a step reduced mod L add up to less than 2L
        start = (lo[:, None] - first + a % length) % length
        end = start + np.minimum((hi - lo - 1)[:, None] + (b - a), length)
        wraps = end > length
        lo = np.concatenate([(first + start).ravel(),
                             np.broadcast_to(first, wraps.shape)[wraps]])
        hi = np.concatenate([(first + np.minimum(end, length)).ravel(),
                             (first + end - length)[wraps]])
    lo, hi = np.sort(lo, axis=None), np.sort(hi, axis=None)
    head, tail = _runs((np.greater_equal if apart else np.greater)(lo[1:], hi[:-1]))
    return lo[head], hi[tail]


def _step_powers(group: GroupDescriptor, S: np.ndarray, k: int) -> list[Intervals]:
    """S^0..S^k of a sorted array S of distinct steps, each as the runs
    [lo, hi) of its consecutive steps, sorted, disjoint and non-adjacent:
    the steps add as the elements compose.

    S^0 is the run [0, 1) of the identity, and S^j is S^{j-1} swept by
    the steps of S, by the runs of S^1 from j = 2 on.  On ``torus-grid``
    the sweep runs on the one circle Z/N: a run of N or more steps covers
    the group, and a run that wraps splits in two.  Elsewhere it runs on
    the line, and the least and the greatest step of S^k must lie in
    int64, with the end of the last run, one past the greatest, or
    ``DescriptorMismatchError`` names the one that does not.
    """
    circle = ((np.zeros(1, dtype=np.int64), np.full(1, group.size))
              if group.kind == TORUS_GRID else None)
    if circle is None:
        for c in (k * int(S[0]), k * int(S[-1])):
            if not _INT64_MIN <= c < _INT64_MAX:
                raise DescriptorMismatchError(f"step power leaves int64 at coordinate {c}")
    powers = [(np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))]
    runs = S, S + 1
    for j in range(1, k + 1):
        powers.append(_sweep(powers[-1], runs, circle, f"step power S^{j}"))
        runs = powers[1]
    return powers


def _arc_segments(space: ActionSpace, runs: Intervals, segments: Intervals) -> Intervals:
    """The union of sigma^c cells over the steps c of the runs [a, b), of
    the cells of the slot segments [lo, hi), as disjoint slot segments of
    the cycle table, sorted by lo: one sweep on the cycles of the
    segments, which keeps touching arcs apart.  The runs are those of
    ``_step_powers``, the segments those of ``_slot_segments`` or of an
    earlier sweep."""
    return _sweep(segments, runs, space.cycles.locate(segments[0]), "arc sweep", True)


def _slot_segments(space: ActionSpace, idx: np.ndarray) -> Intervals:
    """Cells as slot segments [lo, hi), sorted by lo: the runs of
    consecutive slots, split where a cycle starts.  The segments of
    distinct cells are disjoint; a repeated cell starts a segment that
    overlaps the one before."""
    slots = np.sort(space.cycles.slot[idx])
    rest = slots[1:]
    breaks = (rest - slots[:-1] != 1) | (space.cycles.locate(rest)[0] == rest)
    head, tail = _runs(breaks)
    return slots[head], slots[tail] + 1


def _runs(breaks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the first and the last element of each run, given for
    every element but the first whether a run starts there."""
    head = np.empty(breaks.size + 1, dtype=bool)
    tail = np.empty_like(head)
    head[0] = tail[-1] = True
    head[1:] = tail[:-1] = breaks
    return head, tail


def _mark(phi: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """phi, an int8 array in slot order, rewritten as 1 on the disjoint
    nonempty slot segments [lo, hi) and 0 elsewhere: a toggle at each start
    and each end, then one running xor in place, on phi read as bool (about
    twice as fast as a running int8 sum, numpy 2.4)."""
    phi.fill(0)
    phi[lo] = 1
    phi[hi[hi < len(phi)]] ^= 1
    np.logical_xor.accumulate(phi.view(bool), out=phi.view(bool))
    return phi


def _count(lo: np.ndarray, hi: np.ndarray) -> int:
    """The number of cells of the disjoint slot segments [lo, hi)."""
    return int((hi - lo).sum())


def _pair_correlations(space: ActionSpace, steps, lo: np.ndarray,
                       hi: np.ndarray, weight: float) -> np.ndarray:
    """nu(gB & B) for the element g of each step count, as an array aligned
    with ``steps``, from the disjoint slot segments [lo, hi) of B, sorted
    by lo, none leaving its cycle (as ``_arc_segments`` and
    ``_slot_segments`` give them), on a grid whose cells all weigh
    ``weight``.

    The counts |sigma^c B & B| are exact integers.  On a cycle of length L
    they depend only on s = min(c mod L, L - c mod L), since sigma^-c
    gives the same count.  The counts of the cycles of one length are
    added and weighted once, lengths in increasing order.
    """
    steps = np.asarray(steps, dtype=np.int64)
    totals = np.zeros(steps.size)
    first, length = space.cycles.locate(lo)
    for cycle_length in _distinct(length):
        rest = steps % cycle_length
        folded = np.minimum(rest, cycle_length - rest)
        shifts = _distinct(folded)
        at = np.searchsorted(shifts, folded)
        block = length == cycle_length
        counts = _overlap_counts(first[block], lo[block], hi[block],
                                 cycle_length, shifts)
        totals += weight * counts[at]
    return totals


def _overlap_counts(first: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                    length: int, shifts: np.ndarray) -> np.ndarray:
    """|sigma^s B & B| for the increasing shifts s <= length/2, from the
    segments [lo, hi) of B on cycles of one length with first slots
    ``first``.

    A segment [a_i, b_i) moved by s meets the segment [a_j, b_j) of its
    cycle, or that segment's copy one turn on (o = L), in

        max(0, min(b_i + s, b_j + o) - max(a_i + s, a_j + o))

    cells.  With s_max the largest shift, only the pairs with
    a_j + o < b_i + s_max can meet, and no segment before i, which ends by
    a_i: so the segments from i on that start before b_i + s_max, and the
    copies of those starting within s_max of their cycle's first slot.
    """
    s_max = shifts[-1]
    # positions first + slot (+ L for a copy) increase along each cycle and
    # from one cycle to the next, whose first slot is at least L further
    copy = lo - first < s_max
    start = np.concatenate([first + lo, (first + lo + length)[copy]])
    end = np.concatenate([first + hi, (first + hi + length)[copy]])
    order = np.argsort(start)
    start, end = start[order], end[order]
    own = np.flatnonzero(order < lo.size)
    pairs = np.searchsorted(start, end[own] + s_max) - own
    i = np.repeat(own, pairs)
    j = np.arange(pairs.sum()) + np.repeat(own - np.cumsum(pairs) + pairs, pairs)
    met = np.minimum(end[i, None] + shifts, end[j, None]) - np.maximum(
        start[i, None] + shifts, start[j, None])
    return np.maximum(met, 0).sum(axis=0)


def _squared_modulus(spectrum: np.ndarray) -> np.ndarray:
    """|spectrum|^2, squaring the parts of ``spectrum`` in place."""
    np.square(spectrum.real, out=spectrum.real)
    np.square(spectrum.imag, out=spectrum.imag)
    return np.add(spectrum.real, spectrum.imag)


def _measure_spectra(space: ActionSpace, steps: np.ndarray,
                     weights: np.ndarray) -> dict[int, np.ndarray]:
    """eta^_L(k) = sum_c eta(c) e^{2 pi i k c / L} on the real-FFT bins
    k = 0..L//2 of each cycle length L, from the weights of the measure
    eta, atom by atom at ``steps``, folded mod L."""
    return {
        int(length): np.conj(np.fft.rfft(
            np.bincount(steps % length, weights, minlength=length)))
        for length in space.cycles.lengths
    }


def _rayleigh_numerator(space: ActionSpace, phi: np.ndarray,
                        spectra: dict[int, np.ndarray], weight: float) -> float:
    """<pi(eta) phi, phi> for the measure eta with ``_measure_spectra``
    ``spectra``, as one sum over the spectrum of phi, given in slot order
    (phi[s] is the value at the cell of slot s), on a grid whose cells all
    weigh ``weight``.

    On a cycle of length L, sum_c eta(c) sum_j phi_{j-c} phi_j is
    (1/L) sum_k |phi^(k)|^2 Re eta^_L(k); the real-FFT bins count the
    pairs k, L - k twice, except k = 0 and, for even L, the Nyquist bin.
    The sums run in this order: per cycle length, in increasing L, one
    ``np.sum`` adds the terms of all its cycles and bins (pairwise, in
    C order of the (cycles, bins) block); that sum times ``weight`` is
    added to the total, from 0.0, one length after the other.  Each block
    of rows is cast to float64 before its FFT: the transform gives the
    same bits as on the int8 rows and reads float64 about twice as fast.
    """
    total = 0.0
    for length, values in space.cycles.rows(phi):
        power = _squared_modulus(np.fft.rfft(values.astype(np.float64)))
        gain = np.full(power.shape[1], 2.0 / length)
        gain[0] = 1.0 / length
        if length % 2 == 0:
            gain[-1] = 1.0 / length
        gain *= spectra[length].real
        power *= gain
        # one pairwise sum: its rounding grows with log(cells), not cells
        total += weight * float(power.sum())
    return total


# -- the walk -------------------------------------------------------------------


def _row(n: int, weight: float, size: int, thickened: int, n_cells: int,
         overlap: float, numerator: float, f_mass: float) -> CertificateRow:
    """Row n on a grid of ``n_cells`` cells that all weigh ``weight``,
    from the cell counts of B_n and S^n B_n, the least F-overlap
    inf_{g in F} nu(gB_n & B_n), <pi(eta^{*n}) phi_n, phi_n> and
    eta^{*n}(F).

    Conditions (1) and (2) compare the exact counts: S^n B_n has mass
    below 1/2 iff it holds fewer than half the cells.  The overlap ratio
    is clamped to [0, 1]; it serves condition (3) and the chain bound
    alike.
    """
    nu_b = float(weight * size)
    ratio = min(max(overlap / nu_b, 0.0), 1.0)
    rayleigh = numerator / (2.0 * nu_b)
    chain_bound = 0.5 * f_mass * ratio
    return CertificateRow(
        n=n,
        nu_B=nu_b,
        nu_SnB=float(weight * thickened),
        cond1=size > 0,
        cond2=2 * thickened < n_cells,
        ratio=ratio,
        ratio_root=ratio ** (1.0 / n),
        rayleigh=rayleigh,
        chain_bound=chain_bound,
        rayleigh_root=max(rayleigh, 0.0) ** (1.0 / (2 * n)),
        chain_root=max(chain_bound, 0.0) ** (1.0 / (2 * n)),
    )


def _walk(space: ActionSpace, F: np.ndarray, segments: list, slack: float,
          eta: GroupMeasure, weight: float) -> CertificateReport:
    """One pass over n = 1..len(segments) carrying eta^{*n} forward, on a
    grid whose cells all weigh ``weight``, for the sorted step array F.

    ``segments[n - 1]`` holds the disjoint slot segments of B_n and of
    S^n B_n, each a (lo, hi) pair sorted by lo, none leaving its cycle.
    Each n reads everything off them: the masses are ``weight`` times the
    segment sizes, the F-overlaps are sums over pairs of B_n's segments,
    and phi is written in slot order, the order the Rayleigh numerator
    transforms it in.  phi is the walk's one cell-sized array: it first
    marks the slots of S^n B_n, and the companion is the first |B_n|
    cells whose slots it leaves unmarked.  eta = mu * mu^ is a measure;
    eta^{*n} is carried as (keys, weights) arrays of one key box that
    holds eta^{*n_max} and F, in first-formed order, and eta^{*n}(F) is
    read by ``measures._pairing``, as Berg-Christensen reads it.
    """
    eta_hat = _measure_spectra(space, eta.cells[:, 0], eta.weights)
    box = _walk_box(space.group, eta.cells, F[:, None], len(segments), 0,
                    "certificate walk")
    # eta^{*0} is the point mass at 0; key(x) + key(y) - key(0) keys x + y
    keys = box.keys(np.zeros((1, space.group.dimension), dtype=np.int64))
    weights = np.ones(1)
    step = box.keys(eta.cells) - keys
    indicator = (box.keys(F[:, None]), np.ones(len(F)))
    # one phi, rewritten at every n
    phi = np.empty(space.n_cells, dtype=np.int8)
    rows = []
    for n, ((lo, hi), thickened) in enumerate(segments, 1):
        size, thick_size = _count(lo, hi), _count(*thickened)
        overlaps = _pair_correlations(space, F, lo, hi, weight)
        with np.errstate(over="ignore"):  # an overflow is reported by atom
            keys, weights = _convolve_keys(box, keys, weights, step, eta.weights,
                                           DEFAULT_SUPPORT_CAP)
        # phi marks S^n B_n, outside which the companion is read, then B_n,
        # and takes the companion as -1; its slots go before the numerator
        companion = _companion_set(space, size, _mark(phi, *thickened), thick_size)
        _mark(phi, lo, hi)[companion] = -1
        del companion
        spectra = {length: values ** n for length, values in eta_hat.items()}
        rows.append(_row(n, weight, size, thick_size, space.n_cells,
                         float(overlaps.min()),
                         _rayleigh_numerator(space, phi, spectra, weight),
                         _pairing(box, (keys, weights), indicator, len(step))))
    max_root = max(r.ratio_root for r in rows)
    return CertificateReport(
        rows=tuple(rows),
        chain_holds=all(r.rayleigh >= r.chain_bound - CHAIN_TOL for r in rows),
        cond1_all=all(r.cond1 for r in rows),
        cond2_all=all(r.cond2 for r in rows),
        cond3_flag=max_root >= 1.0 - slack,
        max_ratio_root=max_root,
        norm_lower_bound=max(r.rayleigh_root for r in rows),
    )


# -- the certificate operations ----------------------------------------------


def _companion_set(space: ActionSpace, size: int, marks: np.ndarray,
                   forbidden: int) -> np.ndarray:
    """The slots of a set of ``size`` cells disjoint from the ``forbidden``
    cells whose slots are nonzero in ``marks``, a cell-sized array in slot
    order, on a grid whose cells all weigh the same, so that it matches
    the mass of any set of ``size`` cells.

    Equal-weight cells make exact mass matching a counting problem; the
    fill is greedy in cell order, so certificates are reproducible: the
    first ``size`` unmarked cells, which lie among the first
    ``size`` + ``forbidden`` cells, read through ``slot``."""
    head = space.cycles.slot[:size + forbidden]
    free = head[marks[head] == 0]
    if len(free) < size:
        raise PreconditionError(
            "not enough mass outside the forbidden set (condition (2) gives "
            f"room only when nu(S^n B_n) < 1/2; need {size} cells, "
            f"have {len(free)})"
        )
    return free[:size]


def _orbit_segments(space: ActionSpace, x0: int, steps: np.ndarray,
                    n_max: int) -> list:
    """The slot segments of B_n = S^n V_n and of S^n B_n = S^{2n} V_n for
    n = 1..n_max and the sorted steps of a symmetric S that holds the
    identity.

    V_n is the largest cell ball around x0 such that (a) gV_n and V_n are
    disjoint for every g in S^{2n-2} outside S (the thickened-stabilizer
    exemption under the free-orbit surrogate), and (b) the orbit
    thickening S^{2n} V_n holds fewer than half the cells, so it has mass
    below 1/2.  Condition (b) plays the role of the small open superset:
    with it, S^n B_n = S^{2n} V_n stays below mass 1/2 by construction.
    Each ball is swept into slot segments once, at its first probe: the
    radius search shares them across n, with the base cell as the ball of
    radius 0.  It keeps the segments of S^{2n} V_n from its accepted
    probe, and one arc sweep of V_n gives those of B_n."""
    if n_max < 1:
        raise PreconditionError(f"the horizon n_max must be >= 1, got {n_max}")
    try:
        x0 = operator.index(x0)
    except TypeError:
        raise PreconditionError(f"base cell x0 must be an integer, got {x0!r}") from None
    if not 0 <= x0 < space.n_cells:
        raise PreconditionError(
            f"base cell x0 = {x0} is outside the {space.n_cells} cells of the space"
        )
    powers = _step_powers(space.group, steps, 2 * n_max)
    lo, hi = thickest = powers[2 * n_max]
    # the least nonzero multiple of the period from the start of each run;
    # the identity, the step 0, fixes every cell and is exempt
    period = space.period(x0)
    fixing = -(-lo // period) * period
    fixing[fixing == 0] = period
    fixing = fixing[fixing < hi]
    if fixing.size:
        raise GridResolutionError(
            f"free-orbit surrogate fails at the base cell: atom {(int(fixing[0]),)} "
            f"of S^{2 * n_max} fixes it; refine the grid or shorten the horizon"
        )
    balls = {0: _slot_segments(space, np.array([x0]))}
    orbit = _count(*_arc_segments(space, thickest, balls[0]))
    if 2 * orbit >= space.n_cells:
        raise GridResolutionError(
            f"the S^{2 * n_max}-orbit of the base cell has mass "
            f"{space.cell_weight * orbit:.6g} >= 1/2; refine the grid"
        )

    segments, radius = [], None
    for n in range(1, n_max + 1):
        lo, hi = powers[2 * n - 2]
        sizes = hi - lo
        _check_pairs(int(sizes.sum()), f"separators in S^{2 * n - 2}")
        # the steps of S^{2n-2}, run by run
        inner = np.repeat(lo - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
        separators = inner[~_contains(steps, inner)]
        r_cap = space.separation_radius(separators)
        # S^{2n} only grows with n, so the admissible radius cannot grow
        if radius is not None:
            r_cap = min(r_cap, radius)
        accepted = _largest_mass_admissible_radius(
            space, powers[2 * n], x0, r_cap, 0 if radius is None else r_cap, balls
        )
        if accepted is None:
            raise GridResolutionError(
                f"no admissible neighborhood at n={n}: even the single base "
                "cell pushes the orbit thickening to mass >= 1/2; use a finer grid"
            )
        radius, ball, swept = accepted
        segments.append((_arc_segments(space, powers[n], ball), swept))
    return segments


def _largest_mass_admissible_radius(
    space: ActionSpace, thickening: Intervals, x0: int, r_cap: int, start: int, balls: dict
) -> tuple[int, Intervals, Intervals] | None:
    """The largest radius r <= r_cap whose ball around x0 keeps its
    thickening, by the step runs ``thickening``, below half the cells,
    with the slot segments of that ball and of its thickening, or None if
    even r = 0 does not.

    ``balls`` maps a radius to the slot segments of its ball; a probe
    sweeps a ball that is not there yet and adds it, so each radius is
    swept once per ``_orbit_segments`` call.  The count only grows with
    r, so one loop keeps the largest admissible probe ``good`` and the
    least inadmissible one ``bad``.  It probes ``start`` first and
    gallops from there, by steps that double, until the radius is
    bracketed, then bisects.  ``start`` is 0 at n = 1 and r_cap after
    that, where r_cap is the previous radius or the separation cap below
    it, which the answer usually equals or nearly equals.  Admissible
    probes only rise, so the last one is the answer.
    """
    good, bad, accepted = -1, r_cap + 1, None
    radius, step = start, 1
    while bad - good > 1:
        ball = balls.get(radius)
        if ball is None:
            ball = balls[radius] = _slot_segments(space, space.cell_ball(x0, radius))
        swept = _arc_segments(space, thickening, ball)
        if 2 * _count(*swept) < space.n_cells:
            good, accepted, radius = radius, (radius, ball, swept), radius + step
        else:
            bad, radius = radius, radius - step
        step *= 2
        bracketed = good >= 0 and bad <= r_cap
        radius = (good + bad) // 2 if bracketed else min(max(radius, good + 1), bad - 1)
    return accepted


def run_certificate(
    space: ActionSpace,
    mu: GroupMeasure,
    x0: int,
    n_max: int,
    slack: float = 0.02,
) -> CertificateReport:
    """Full pipeline: orbit-neighborhood sets B_1..B_{n_max} around the base
    cell x0 for eta = mu * mu^ and S = F = supp(eta), the three
    moderate-growth conditions, per-n Rayleigh/chain values, and the final
    certified lower bound max_n (<pi(eta^{*n}) phi_n, phi_n> /
    ||phi_n||^2)^{1/(2n)}.

    Each Rayleigh quotient lower-bounds the norm of the nonnegative
    operator pi(eta)^n on zero-mean functions, so the max is a certified
    lower bound for the discrepancy of mu.  The test vector is
    phi = 1_B - 1_{B^-}, with the companion B^- disjoint from S^n B.  As
    supp(eta) is S, the cross terms vanish on the support of eta^{*n}, and
    every row asserts the chain inequality

        rayleigh >= (1/2) eta^{*n}(F) inf_{g in F} nu(gB & B)/nu(B):

    ``chain_holds`` records whether every row meets it, and a row that
    does not can only mean a disjointness bug.

    Condition (2) uses nu(S^n B_n) itself: on a finite space every set is
    measurable, so the infimum over measurable supersets is attained
    there.  Condition (3) is reported as the full sequence ratio_n^{1/n}
    together with the finite-horizon flag max_n ratio_n^{1/n} >= 1 - slack.
    The walk takes the segments of the radius search and lists no cells
    of B_n.  mu must live on the space's group, and every cell must weigh
    exactly the same; both are checked before anything is built.
    """
    if mu.group != space.group:
        raise DescriptorMismatchError("measure and action space live on "
                                      "different groups")
    weight = _cell_weight(space)
    eta = symmetrize(mu)
    # eta is symmetric and holds the identity, so S is too
    S = _distinct(space.steps(eta.cells))
    segments = _orbit_segments(space, x0, S, n_max)
    return _walk(space, S, segments, slack, eta, weight)
