"""Reference implementations, kept as test oracles.

``compose`` is the product of two elements, one at a time.
``dict_berg_christensen_sequence`` is the convolution-power walk on
``{element: weight}`` maps, as gaplab ran it on every kind before every
kind moved to int64 keys; its convolution is the plain pair loop through
``compose``.  ``translate_greedy_net`` is the
greedy net that tests each candidate's whole A-translate against the
accepted ones.  ``unique_rows`` is the lexicographic row sort that
deduplicated the abelian pair sums before they were keyed in a box.
``convolution_power`` and ``mass_on_set`` give eta^{*n}(F) at full depth,
``net_is_separated`` and ``net_is_maximal`` re-check a net exhaustively,
and ``sampled_fourier_sup`` is sup |mu-hat| over sampled frequencies.
``rows`` reads an (m, d) int64 cell array as tuples, and ``elements`` a
set given as such an array or as a list of words.
``physical`` and ``scaled`` give an element's physical coordinates and a
measure times a factor.
"""

from __future__ import annotations

import math

import numpy as np

from gaplab import GroupMeasure, PreconditionError, UnsupportedKindError, convolve


def compose(group, a, b) -> tuple:
    """The product a b: words concatenated and reduced where they meet,
    cells added, mod N on the torus."""
    if group.kind == "free":
        out = list(a)
        for letter in b:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)
    if group.kind == "torus-grid":
        return tuple((x + y) % group.size for x, y in zip(a, b))
    return tuple(x + y for x, y in zip(a, b))


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
            g = compose(group, h, k)
            out[g] = out.get(g, 0.0) + wa * wb
    return _clean(out)


def torus_rep(x: int, n: int) -> int:
    """Representative of x mod n in [-n/2, n/2)."""
    r = x % n
    return r - n if r >= (n + 1) // 2 else r


def physical(group, g) -> tuple[float, ...]:
    """Physical coordinates of an element: its cell coordinates over the
    scale, torus residues by their representatives in [-N/2, N/2) (the
    word length for free groups)."""
    if group.kind == "free":
        return (float(len(g)),)
    if group.kind == "torus-grid":
        g = [torus_rep(x, group.size) for x in g]
    return tuple(c / group.scale for c in g)


def scaled(mu: GroupMeasure, factor: float) -> GroupMeasure:
    return GroupMeasure.from_atoms(mu.group, ((g, w * factor) for g, w in mu.atoms.items()))


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
        translate = [compose(group, point, a) for a in A]
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


def convolution_power(a: GroupMeasure, n: int, cap: int = 10_000_000) -> GroupMeasure:
    """The n-fold convolution a * a * ... * a (n = 0 gives the point mass at e)."""
    result = GroupMeasure.point_mass(a.group, a.group.identity())
    for _ in range(n):
        result = convolve(result, a, cap=cap)
    return result


def mass_on_set(a: GroupMeasure, cells) -> float:
    """Total mass carried by the atoms lying in the given finite set."""
    wanted = {tuple(c) for c in cells}
    return float(sum(w for g, w in a.atoms.items() if g in wanted))


def rows(cells: np.ndarray) -> list[tuple]:
    """The rows of an (m, d) int64 cell array as tuples of ints, in order;
    anything else fails."""
    assert isinstance(cells, np.ndarray), type(cells)
    assert cells.dtype == np.int64 and cells.ndim == 2, (cells.dtype, cells.shape)
    return list(map(tuple, cells.tolist()))


def elements(xs) -> list[tuple]:
    """A set as a list of tuples: the rows of a cell array, or the words."""
    return rows(xs) if isinstance(xs, np.ndarray) else list(xs)


def net_is_separated(inst) -> bool:
    """No two A-translates of net points meet."""
    group = inst.group
    seen: set = set()
    A = elements(inst.A)
    for point in elements(inst.net):
        translate = {compose(group, point, a) for a in A}
        if translate & seen:
            return False
        seen |= translate
    return True


def net_is_maximal(inst) -> bool:
    """No point of the span can be added."""
    group = inst.group
    covered: set = set()
    A, net = elements(inst.A), elements(inst.net)
    for point in net:
        covered.update(compose(group, point, a) for a in A)
    for point in elements(inst.span):
        if point in net:
            continue
        translate = {compose(group, point, a) for a in A}
        if not (translate & covered):
            return False
    return True


def sampled_fourier_sup(mu: GroupMeasure, xi) -> float:
    """max |sum_g mu(g) exp(-2 pi i <xi, physical(g)>)| over the rows of xi."""
    if not mu.group.is_abelian:
        raise UnsupportedKindError(f"no characters on {mu.group.kind}")
    values = np.array([physical(mu.group, g) for g in mu.atoms], dtype=float)
    weights = np.array(list(mu.atoms.values()))
    phases = np.exp(-2j * np.pi * (np.atleast_2d(xi) @ values.T))
    return float(np.abs(phases @ weights).max())
