"""Separated nets and volume-counting checks on discretized groups.

An A-separated net of a finite set is a subset whose A-translates are
pairwise disjoint.  Maximal nets sandwich Haar volumes: |N| mu(A) <=
mu(BA) and, for maximal nets, mu(B) <= |N| mu(AA^{-1}).  Everything here
is exact set arithmetic in Haar cell weights; the checks are theorems,
so a reported failure means an implementation bug, never bad luck.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError
from .groups import (
    Element,
    GroupDescriptor,
    KeyBox,
    TORUS_GRID,
    _bounds,
    _coordinates,
    _distinct,
    _powers,
    _word_box,
)
from .measures import DEFAULT_SUPPORT_CAP


def _as_set(group: GroupDescriptor, xs) -> set[Element]:
    """The elements of xs, a list or a cell array, as a set of canonical tuples."""
    return {group.canonical(x) for x in (xs.tolist() if isinstance(xs, np.ndarray) else xs)}


@dataclass(frozen=True, eq=False)
class NetInstance:
    """A separated net together with the data it was built from.

    Each set is in sort order: an (m, d) int64 cell array on the abelian
    kinds, a tuple of words on the free group.
    """

    group: GroupDescriptor
    A: np.ndarray | tuple
    net: np.ndarray | tuple
    span: np.ndarray | tuple  # the set the net lives in
    diffs: np.ndarray | tuple  # A A^{-1}, the set each net point blocks around itself
    span_a_cells: int  # |span A|, counted where the net is built


def greedy_maximal_net(group: GroupDescriptor, span, A) -> NetInstance:
    """Greedy maximal A-separated net of ``span`` in deterministic order.

    Points are visited in the group's lexicographic order and accepted
    iff their A-translate is disjoint from all accepted translates pA,
    that is, iff they lie in no p A A^{-1}.  The result is maximal (no
    remaining point can be added), hence the span is covered by
    net * A * A^{-1}.  The sets may be lists of elements or, on the
    abelian kinds, (m, d) integer arrays of cells.
    """
    if group.is_abelian:
        return _abelian_net(group, span, A)
    return _free_net(group, span, A)


def _free_net(group: GroupDescriptor, span, A) -> NetInstance:
    """``greedy_maximal_net`` on the free group: the span, A and A A^{-1}
    as sorted word keys, which sort as the words do, and the net of
    ``_greedy`` in the ``WordBox``, where the keys of the span are the
    points and the products p d are keyed in the same frame."""
    box = _word_box(group, "net")
    a_keys, span_keys = _distinct(box.keys(A)), _distinct(box.keys(span))
    A = box.cells(a_keys)
    if group.identity() not in A:
        raise PreconditionError("A must contain the identity")
    diff_keys = _distinct(box.add(a_keys, box.inverse(a_keys)))
    net = _greedy(box, span_keys, span_keys, diff_keys)
    return NetInstance(
        group=group,
        A=tuple(A),
        net=tuple(box.cells(span_keys[net])),
        span=tuple(box.cells(span_keys)),
        diffs=tuple(box.cells(diff_keys)),
        span_a_cells=len(_distinct(box.add(span_keys, a_keys))),
    )


#: sums span + A A^{-1} keyed at once by ``_greedy``, which bounds its memory
_NET_PAIRS = 1 << 20


def _abelian_net(group: GroupDescriptor, span, A) -> NetInstance:
    """``greedy_maximal_net`` on an abelian kind: the span S, A and
    A A^{-1} are keyed once, in one box, and canonicalized by their
    distinct keys, which sort as the cells do.

    The box has least corner 0, where keys add as the cells do, and each
    set is shifted into it: S as S - lo(S), and A A^{-1} as
    (A - lo(A)) + (hi(A) - A), that is A A^{-1} + w with w = hi(A) -
    lo(A).  A is keyed in that frame, as A + w, and the points of S as
    S - lo(S) + w, in the frame of the sums S + A A^{-1}.  On the torus
    the box is the whole torus and every shift is 0.  No mask over the
    box is built: ``_greedy`` locates the sums among the points by binary
    search.
    """
    what = "net"
    s, a = _coordinates(group, span, what), _coordinates(group, A, what)
    if not (a == 0).all(axis=1).any():
        raise PreconditionError("A must contain the identity")
    bounds = [_bounds(group, x) for x in (s, a)]
    (s_lo, _), (a_lo, a_hi) = bounds
    if group.kind == TORUS_GRID:
        box = KeyBox.torus(group, what)
    else:  # in Python ints: a width may leave int64
        s_w, a_w = ([h - l for l, h in zip(lo.tolist(), hi.tolist())] for lo, hi in bounds)
        box = KeyBox(group, [0] * group.dimension,
                     [x + 2 * y for x, y in zip(s_w, a_w)], what)
    w, strides = a_hi - a_lo, box.strides  # the box's least corner is 0
    span_keys = _distinct((s - s_lo) @ strides)
    a_keys = _distinct((a + w) @ strides)
    neg = _coordinates(group, a_hi - a, what)  # reduced mod N on the torus
    diff_keys = _distinct(box.add((a - a_lo) @ strides, neg @ strides))
    span = box.cells(span_keys) + s_lo
    zero = w @ strides  # the identity in the frame of A A^{-1}
    # off the torus p + d follows p in key order iff d > 0 does, and an
    # accepted point blocks only points at or after it
    ahead = diff_keys if box.modulus else diff_keys[diff_keys >= zero]
    net = _greedy(box, span_keys, span_keys + zero, ahead)
    return NetInstance(
        group=group,
        A=box.cells(a_keys) - w,
        net=span[net],
        span=span,
        diffs=box.cells(diff_keys) - w,
        span_a_cells=len(_distinct(box.add(span_keys, a_keys))),
    )


def _greedy(box, span_keys, points, diff_keys) -> list[int]:
    """The span rows the greedy net accepts, in order, in a ``KeyBox`` or
    the ``WordBox``.  ``box.add(span_keys, diff_keys)`` keys the sums of S
    and the differences a point blocks, in the frame of ``points``, the
    increasing keys of S; the sums are keyed about ``_NET_PAIRS`` at a
    time, located among the points by binary search, and each accepted
    point marks the points of its row in a boolean array over the span."""
    blocked = np.zeros(len(points) + 1, dtype=bool)  # the last slot: sums off the span
    rows = max(1, _NET_PAIRS // len(diff_keys))
    net = []
    for start in range(0, len(points), rows):
        sums = box.add(span_keys[start:start + rows], diff_keys)
        at = np.searchsorted(points, sums)
        at[points.take(at, mode="clip") != sums] = len(points)
        block = at.reshape(-1, len(diff_keys))
        for i in range(start, start + len(block)):
            if not blocked[i]:
                net.append(i)
                blocked[block[i - start]] = True
    return net


@dataclass(frozen=True)
class NetBoundsReport:
    net_size: int
    mu_A: float
    mu_spanA: float
    mu_span: float
    mu_AAinv: float
    packing_ok: bool  # |N| mu(A) <= mu(span A)
    covering_ok: bool  # mu(span) <= |N| mu(A A^{-1}); the net is maximal

    @property
    def all_ok(self) -> bool:
        return self.packing_ok and self.covering_ok


def verify_net_bounds(inst: NetInstance) -> NetBoundsReport:
    """Check both counting inequalities exactly.  Every Haar volume is a
    count of distinct cells times the one cell volume, so each inequality
    is compared in integer cell counts, |N| |A| <= |span A| and |span| <=
    |N| |A A^{-1}|; the reported volumes are those counts times the cell
    volume."""
    volume = inst.group.cell_volume
    n = len(inst.net)
    return NetBoundsReport(
        net_size=n,
        mu_A=len(inst.A) * volume,
        mu_spanA=inst.span_a_cells * volume,
        mu_span=len(inst.span) * volume,
        mu_AAinv=len(inst.diffs) * volume,
        packing_ok=n * len(inst.A) <= inst.span_a_cells,
        covering_ok=len(inst.span) <= n * len(inst.diffs),
    )


@dataclass(frozen=True)
class NetRatioStudy:
    ratios: dict[int, float]
    c1: float
    c2: float
    k1: float
    k2: float
    k3: float
    within_bounds: bool


def net_ratio_study(
    group: GroupDescriptor,
    A1,
    A2,
    B,
    n_range,
) -> NetRatioStudy:
    """Cardinality ratios |N2|/|N1| of maximal nets at consecutive powers.

    For each n in the range, N1 is a maximal A1-net of B^n and N2 a
    maximal A2-net of B^{n-2}.  The growth constants k1, k2, k3 are
    measured on the same range (k1: mu(B^n A1)/mu(B^n), k2:
    mu(B^{n-2} A2)/mu(B^n), k3: mu(B^n)/mu(B^{n-2})), and the resulting
    window [c1, c2] must contain every measured ratio.

    B^0..B^{max n} are built once, and each net of a power for a given A
    once: when A1 and A2 are the same set, in any order, N2 at n is N1 at
    n - 2, so n = 3..10 builds 10 nets, not 16.
    """
    n_range = sorted(n_range)
    if not n_range or n_range[0] < 3:
        raise PreconditionError("the ratio study needs n >= 3 throughout")
    powers = _powers(group, B, n_range[-1], DEFAULT_SUPPORT_CAP, "product set")
    volume = group.cell_volume
    second = 1 if _as_set(group, A1) == _as_set(group, A2) else 2
    built: dict[tuple[int, int], NetInstance] = {}  # (1 or 2, k) -> the A1- or A2-net of B^k

    def net(a: int, k: int) -> NetInstance:
        if (a, k) not in built:
            built[a, k] = greedy_maximal_net(group, powers[k], A1 if a == 1 else A2)
        return built[a, k]

    k1 = k2 = k3 = 0.0
    exact_k1 = exact_k2 = exact_k3 = Fraction(0)
    ratios, exact_ratios = {}, []
    for n in n_range:
        n1, n2 = net(1, n), net(second, n - 2)
        mu_bn, mu_bn2 = len(n1.span) * volume, len(n2.span) * volume
        k1 = max(k1, n1.span_a_cells * volume / mu_bn)
        k2 = max(k2, n2.span_a_cells * volume / mu_bn)
        k3 = max(k3, mu_bn / mu_bn2)
        ratios[n] = len(n2.net) / len(n1.net)
        # the same terms as ratios of cell counts, the volume cancelled
        exact_k1 = max(exact_k1, Fraction(n1.span_a_cells, len(n1.span)))
        exact_k2 = max(exact_k2, Fraction(n2.span_a_cells, len(n1.span)))
        exact_k3 = max(exact_k3, Fraction(len(n1.span), len(n2.span)))
        exact_ratios.append(Fraction(len(n2.net), len(n1.net)))

    mu_a1 = len(n1.A) * volume
    mu_a2 = len(n2.A) * volume
    mu_a1a1 = len(n1.diffs) * volume
    mu_a2a2 = len(n2.diffs) * volume
    c1 = mu_a1 / (k3 * k1 * mu_a2a2)
    c2 = k2 * mu_a1a1 / mu_a2
    # the window is checked exactly; c1, c2 and the ratios report it
    low = Fraction(len(n1.A), len(n2.diffs)) / (exact_k3 * exact_k1)
    high = exact_k2 * Fraction(len(n1.diffs), len(n2.A))
    within = all(low <= r <= high for r in exact_ratios)
    return NetRatioStudy(
        ratios=ratios, c1=c1, c2=c2, k1=k1, k2=k2, k3=k3, within_bounds=within
    )
