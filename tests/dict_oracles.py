"""Dict-based reference implementations, kept as bit-for-bit test oracles.

``dict_berg_christensen_sequence`` is the convolution-power walk on
``{element: weight}`` maps, as gaplab ran it on every kind before the
abelian kinds moved to integer arrays; its convolution is the plain pair
loop through ``GroupDescriptor.compose``.  ``translate_greedy_net`` is the
greedy net that tests each candidate's whole A-translate against the
accepted ones.  ``unique_rows`` is the lexicographic row sort that
deduplicated the abelian pair sums before they were keyed in a box.
"""

from __future__ import annotations

import math

import numpy as np

from gaplab import PreconditionError


def _clean(atoms: dict) -> dict:
    """What ``GroupMeasure`` keeps of a weight map: finite, positive weights."""
    for g, w in atoms.items():
        if not math.isfinite(w):
            raise PreconditionError(f"non-finite weight {w} at atom {g}")
    return {g: w for g, w in atoms.items() if w > 0}


def dict_convolve(group, a: dict, b: dict) -> dict:
    """The pair loop, h-major in atom order; atoms in first-formed order."""
    out: dict = {}
    for h, wa in a.items():
        for k, wb in b.items():
            g = group.compose(h, k)
            out[g] = out.get(g, 0.0) + wa * wb
    return _clean(out)


def dict_involute(group, a: dict) -> dict:
    return {group.inverse(g): w for g, w in a.items()}


def dict_berg_christensen_sequence(mu, F, n_max: int) -> list[tuple[int, float]]:
    """[(n, (eta^{*n}(F))^{1/(2n)})] by the half-depth walk on dicts."""
    group = mu.group
    eta = dict_convolve(group, mu.atoms, dict_involute(group, mu.atoms))
    indicator = dict.fromkeys((tuple(x) for x in F), 1.0)
    high, reach = eta, indicator
    seq = []
    for n in range(1, n_max + 1):
        if n % 2 == 0:
            reach = dict_convolve(group, indicator, dict_involute(group, high))
        elif n > 1:
            high = dict_convolve(group, high, eta)
        mass = sum(w * reach.get(g, 0.0) for g, w in high.items())
        seq.append((n, mass ** (1.0 / (2 * n))))
    return seq


def translate_greedy_net(group, span, A) -> tuple:
    """Greedy maximal A-separated net: a point is accepted iff its whole
    A-translate misses every accepted translate."""
    A = sorted({tuple(a) for a in A}, key=group.sort_key)
    span = sorted({tuple(x) for x in span}, key=group.sort_key)
    covered: set = set()
    net = []
    for point in span:
        translate = [group.compose(point, a) for a in A]
        if any(t in covered for t in translate):
            continue
        net.append(point)
        covered.update(translate)
    return tuple(net)


def unique_rows(rows: np.ndarray):
    """The distinct rows of a 2-d array in lexicographic order, the position
    of each row among them, and the first row equal to each."""
    perm = np.lexsort(rows.T[::-1])  # stable: equal rows keep their order
    ordered = rows[perm]
    starts = np.ones(len(perm), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    index = np.empty_like(perm)
    index[perm] = np.cumsum(starts) - 1
    return ordered[starts], index, perm[starts]
