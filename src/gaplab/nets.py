"""Separated nets and volume-counting checks on discretized groups.

An A-separated net of a finite set is a subset whose A-translates are
pairwise disjoint.  Maximal nets sandwich Haar volumes: |N| mu(A) <=
mu(BA) and, for maximal nets, mu(B) <= |N| mu(AA^{-1}).  Everything here
is exact set arithmetic in Haar cell weights; the checks are theorems,
so a reported failure means an implementation bug, never bad luck.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .groups import (
    Element,
    GroupDescriptor,
    _factor_keys,
    inverse_set,
    product_set,
)


def haar(group: GroupDescriptor, cells) -> float:
    """Haar measure of a finite cell set: cardinality times cell volume."""
    return len(set(cells)) * group.cell_volume


def _canonical_set(group: GroupDescriptor, xs) -> list[Element]:
    """The distinct elements of xs (torus coordinates mod N) in sort order."""
    return sorted({group.canonical(x) for x in xs}, key=group.sort_key)


@dataclass(frozen=True)
class NetInstance:
    """A separated net together with the data it was built from."""

    group: GroupDescriptor
    A: tuple
    B: tuple  # the base set whose power was netted (may equal span)
    n: int
    net: tuple
    span: tuple  # the set the net lives in (B^n)
    diffs: tuple  # A A^{-1}, the set each net point blocks around itself


def greedy_maximal_net(
    group: GroupDescriptor,
    span,
    A,
    B=None,
    n: int = 1,
) -> NetInstance:
    """Greedy maximal A-separated net of ``span`` in deterministic order.

    Points are visited in the group's lexicographic order and accepted
    iff their A-translate is disjoint from all accepted translates pA,
    that is, iff they lie in no p A A^{-1}.  The result is maximal (no
    remaining point can be added), hence the span is covered by
    net * A * A^{-1}.
    """
    A = _canonical_set(group, A)
    if group.identity() not in A:
        raise PreconditionError("A must contain the identity")
    span = _canonical_set(group, span)
    diffs = product_set(group, A, inverse_set(group, A))
    if group.is_abelian:
        net = _abelian_greedy(group, span, diffs)
    else:
        blocked: set[Element] = set()
        net = []
        for point in span:
            if point not in blocked:
                net.append(point)
                blocked.update(product_set(group, [point], diffs))
    return NetInstance(
        group=group,
        A=tuple(A),
        B=tuple(_canonical_set(group, B)) if B else tuple(),
        n=n,
        net=tuple(net),
        span=tuple(span),
        diffs=tuple(diffs),
    )


#: sums span + A A^{-1} keyed at once by ``_abelian_greedy``, which bounds its memory
_NET_PAIRS = 1 << 20


def _abelian_greedy(group: GroupDescriptor, span: list, diffs: list) -> list:
    """The greedy net of ``greedy_maximal_net`` on an abelian kind: the sums
    span + A A^{-1} are keyed a block of rows at a time, located in the
    span by binary search, and each accepted point marks the span points of
    its row in a boolean array over the span."""
    if not span:
        return []
    box, span_keys, diff_keys = _factor_keys(group, span, diffs, "net")
    zero = diffs.index(group.identity())
    points = box.add(span_keys, diff_keys[zero:zero + 1])  # increasing, as span
    blocked = np.zeros(len(span) + 1, dtype=bool)  # the last slot: sums off the span
    rows = max(1, _NET_PAIRS // len(diffs))
    net = []
    for start in range(0, len(span), rows):
        sums = box.add(span_keys[start:start + rows], diff_keys)
        at = np.searchsorted(points, sums).clip(max=len(span) - 1)
        at[points[at] != sums] = len(span)
        block = at.reshape(-1, len(diffs))
        for i in range(start, start + len(block)):
            if not blocked[i]:
                net.append(span[i])
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
    """Check both counting inequalities exactly in Haar cell weights."""
    group = inst.group
    span_a = product_set(group, inst.span, inst.A)
    mu_a = haar(group, inst.A)
    mu_span_a = haar(group, span_a)
    mu_span = haar(group, inst.span)
    mu_aainv = haar(group, inst.diffs)
    packing = len(inst.net) * mu_a <= mu_span_a + 1e-12
    covering = mu_span <= len(inst.net) * mu_aainv + 1e-12
    return NetBoundsReport(
        net_size=len(inst.net),
        mu_A=mu_a,
        mu_spanA=mu_span_a,
        mu_span=mu_span,
        mu_AAinv=mu_aainv,
        packing_ok=packing,
        covering_ok=covering,
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
    """
    n_range = sorted(n_range)
    if not n_range or n_range[0] < 3:
        raise PreconditionError("the ratio study needs n >= 3 throughout")
    A1, A2, B = (_canonical_set(group, xs) for xs in (A1, A2, B))

    powers = {0: [group.identity()]}
    for m in range(1, max(n_range) + 1):
        powers[m] = product_set(group, powers[m - 1], B)

    k1 = k2 = k3 = 0.0
    ratios = {}
    for n in n_range:
        bn, bn2 = powers[n], powers[n - 2]
        k1 = max(k1, haar(group, product_set(group, bn, A1)) / haar(group, bn))
        k2 = max(k2, haar(group, product_set(group, bn2, A2)) / haar(group, bn))
        k3 = max(k3, haar(group, bn) / haar(group, bn2))
        n1 = greedy_maximal_net(group, bn, A1, B=B, n=n)
        n2 = greedy_maximal_net(group, bn2, A2, B=B, n=n - 2)
        ratios[n] = len(n2.net) / len(n1.net)

    mu_a1 = haar(group, A1)
    mu_a2 = haar(group, A2)
    mu_a1a1 = haar(group, n1.diffs)
    mu_a2a2 = haar(group, n2.diffs)
    c1 = mu_a1 / (k3 * k1 * mu_a2a2)
    c2 = k2 * mu_a1a1 / mu_a2
    within = all(c1 - 1e-12 <= r <= c2 + 1e-12 for r in ratios.values())
    return NetRatioStudy(
        ratios=ratios, c1=c1, c2=c2, k1=k1, k2=k2, k3=k3, within_bounds=within
    )
