"""Computational group descriptors.

Four kinds of groups are supported, all unimodular:

* ``lattice``    -- the integer lattice Z^d with counting measure,
* ``free``       -- the free group F_k, elements stored as reduced words,
* ``real-grid``  -- R^d discretized as (1/q)Z^d, cell volume q^{-d},
* ``torus-grid`` -- (R/Z)^d discretized as (Z/N)^d, cell weight N^{-d}.

Elements are plain tuples of ints: lattice/grid coordinates, torus
residues in [0, N), or reduced words over the alphabet {+-1, ..., +-k}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DescriptorMismatchError, ResourceLimitError, UnsupportedKindError

Element = tuple[int, ...]

LATTICE = "lattice"
FREE = "free"
REAL_GRID = "real-grid"
TORUS_GRID = "torus-grid"

_KINDS = (LATTICE, FREE, REAL_GRID, TORUS_GRID)

#: kinds whose elements are grid cells with a genuine Haar density
GRID_KINDS = (REAL_GRID, TORUS_GRID)
#: kinds that are discrete groups in the usual sense
DISCRETE_KINDS = (LATTICE, FREE)
#: kinds on which the regular-representation norm oracles for amenable
#: groups apply (all abelian here)
ABELIAN_KINDS = (LATTICE, REAL_GRID, TORUS_GRID)


@dataclass(frozen=True)
class GroupDescriptor:
    """A computational group: kind, size parameters, Haar cell weight.

    ``dimension`` is d for the lattice kinds and the rank k for ``free``.
    ``resolution`` is the grid parameter q of ``real-grid`` (cell spacing
    1/q); ``size`` is the torus parameter N.
    """

    kind: str
    dimension: int = 1
    resolution: int = 1
    size: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UnsupportedKindError(f"unknown group kind {self.kind!r}")
        if self.dimension < 1:
            raise ValueError("dimension/rank must be >= 1")
        if self.kind == REAL_GRID and self.resolution < 1:
            raise ValueError("real-grid resolution q must be >= 1")
        if self.kind == TORUS_GRID and self.size < 1:
            raise ValueError("torus-grid size N must be >= 1")

    # -- basic structure ------------------------------------------------

    def identity(self) -> Element:
        if self.kind == FREE:
            return ()
        return (0,) * self.dimension

    def compose(self, a: Element, b: Element) -> Element:
        if self.kind == FREE:
            return _reduce_word(a + b)
        if self.kind == TORUS_GRID:
            return tuple((x + y) % self.size for x, y in zip(a, b))
        return tuple(x + y for x, y in zip(a, b))

    def inverse(self, a: Element) -> Element:
        if self.kind == FREE:
            return tuple(-letter for letter in reversed(a))
        if self.kind == TORUS_GRID:
            return tuple((-x) % self.size for x in a)
        return tuple(-x for x in a)

    @property
    def scale(self) -> int:
        """Cells per unit length: ``value`` is ``coordinates`` / scale."""
        if self.kind == REAL_GRID:
            return self.resolution
        if self.kind == TORUS_GRID:
            return self.size
        return 1

    @property
    def cell_volume(self) -> float:
        """Haar weight of a single atom/cell."""
        return float(self.scale) ** (-self.dimension)

    @property
    def is_grid(self) -> bool:
        return self.kind in GRID_KINDS

    @property
    def is_discrete(self) -> bool:
        return self.kind in DISCRETE_KINDS

    @property
    def is_abelian(self) -> bool:
        return self.kind in ABELIAN_KINDS

    # -- geometry -------------------------------------------------------

    def coordinates(self, a: Element) -> Element:
        """Integer coordinates of an element in cells: torus residues as
        their representatives in [-N/2, N/2), words as their length."""
        if self.kind == TORUS_GRID:
            return tuple(_torus_rep(x, self.size) for x in a)
        if self.kind == FREE:
            return (len(a),)
        return a

    def value(self, a: Element) -> tuple[float, ...]:
        """Physical coordinates of an element (word length for free groups)."""
        return tuple(c / self.scale for c in self.coordinates(a))

    def norm(self, a: Element) -> float:
        """Euclidean norm of the value; word length on the free group."""
        if self.kind == FREE:
            return float(len(a))
        return math.sqrt(sum(v * v for v in self.value(a)))

    def ball(self, radius: float) -> list[Element]:
        """All elements of norm <= radius, in deterministic order."""
        if radius < 0:
            return []
        if self.kind == FREE:
            return _free_ball(self.dimension, int(radius))
        if self.kind == LATTICE:
            return _euclid_ball(self.dimension, radius, 1)
        if self.kind == REAL_GRID:
            return _euclid_ball(self.dimension, radius, self.resolution)
        # torus: residues whose representative lies in the ball
        reach = min(radius, 0.5)
        coords = [
            r % self.size
            for r in range(-self.size // 2, self.size // 2 + 1)
            if abs(r) / self.size <= reach
        ]
        cells = []
        for tup in itertools.product(sorted(set(coords)), repeat=self.dimension):
            if math.sqrt(sum((_torus_rep(x, self.size) / self.size) ** 2 for x in tup)) <= radius:
                cells.append(tup)
        return sorted(cells)

    def sort_key(self, a: Element):
        """Deterministic ordering key: lexicographic, words by length first."""
        if self.kind == FREE:
            return (len(a), a)
        return a


def _torus_rep(x: int, n: int) -> int:
    """Representative of x mod n in [-n/2, n/2)."""
    r = x % n
    return r - n if r >= (n + 1) // 2 else r


def _reduce_word(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for letter in word:
        if letter == 0:
            raise ValueError("free-group letters must be nonzero")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _free_ball(rank: int, radius: int) -> list[Element]:
    letters = [i for i in range(-rank, rank + 1) if i != 0]
    words: list[Element] = [()]
    frontier: list[Element] = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for letter in letters:
                if w and w[-1] == -letter:
                    continue
                nxt.append(w + (letter,))
        words.extend(nxt)
        frontier = nxt
    return sorted(words, key=lambda w: (len(w), w))


def _euclid_ball(dim: int, radius: float, scale: int) -> list[Element]:
    reach = int(math.floor(radius * scale + 1e-12))
    cells = []
    for tup in itertools.product(range(-reach, reach + 1), repeat=dim):
        if math.sqrt(sum((x / scale) ** 2 for x in tup)) <= radius + 1e-12:
            cells.append(tup)
    return sorted(cells)


# -- finite set arithmetic ---------------------------------------------


def product_set(
    group: GroupDescriptor,
    xs: list[Element] | tuple[Element, ...],
    ys: list[Element] | tuple[Element, ...],
    cap: int = 10_000_000,
) -> list[Element]:
    """The product set {x*y}, deduplicated, in deterministic order."""
    if group.is_abelian:
        cells, _, _ = _pair_sums(group, xs, ys, cap, "product set")
        return [tuple(c) for c in cells.tolist()]
    out = set()
    for x in xs:
        for y in ys:
            out.add(group.compose(x, y))
            if len(out) > cap:
                raise ResourceLimitError(
                    f"product set exceeded the support cap of {cap} elements"
                )
    return sorted(out, key=group.sort_key)


def _pair_sums(group: GroupDescriptor, xs, ys, cap: int, what: str):
    """All sums x + y of an abelian kind at once, deduplicated.

    The pairs are taken x-major (pair p is xs[p // len(ys)] + ys[p % len(ys)])
    as int64 coordinates, reduced mod N on the torus.  Returns the distinct
    sums in lexicographic order, which is ``sort_key`` order on these kinds,
    the position of each pair's sum among them, and the first pair that
    forms each sum.  More than ``cap`` distinct sums raise
    ``ResourceLimitError``, and non-integer coordinates
    ``DescriptorMismatchError``.
    """
    d = group.dimension
    x, y = np.asarray(xs), np.asarray(ys)
    for factor in (x, y):
        if factor.size and factor.dtype.kind not in "iu":
            raise DescriptorMismatchError(
                f"{what} needs integer coordinates on {group.kind}; got "
                f"{factor.reshape(-1)[:3].tolist()}"
            )
    x = x.astype(np.int64).reshape(len(xs), d)
    y = y.astype(np.int64).reshape(len(ys), d)
    sums = (x[:, None, :] + y[None, :, :]).reshape(-1, d)
    if group.kind == TORUS_GRID:
        sums %= group.size
    cells, index, first = _unique_rows(sums)
    if len(cells) > cap:
        raise ResourceLimitError(f"{what} exceeded the support cap of {cap} elements")
    return cells, index, first


def _unique_rows(rows: np.ndarray):
    """The distinct rows of a 2-d array in lexicographic order, the position
    of each row among them, and the first row equal to each."""
    # a stable lexicographic sort: ``np.unique(axis=0)`` gives the same
    # result, but sorts the rows as structured records, several times slower
    perm = np.lexsort(rows.T[::-1])
    ordered = rows[perm]
    starts = np.ones(len(perm), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    index = np.empty_like(perm)
    index[perm] = np.cumsum(starts) - 1
    return ordered[starts], index, perm[starts]


def inverse_set(group: GroupDescriptor, xs) -> list[Element]:
    return sorted({group.inverse(x) for x in xs}, key=group.sort_key)


def power_set(
    group: GroupDescriptor, base, n: int, cap: int = 10_000_000
) -> list[Element]:
    """The n-fold product set base^n (base^0 = {e})."""
    if n < 0:
        raise ValueError("power must be >= 0")
    acc: list[Element] = [group.identity()]
    for _ in range(n):
        acc = product_set(group, acc, base, cap=cap)
    return acc


def is_symmetric_set(group: GroupDescriptor, xs) -> bool:
    s = set(xs)
    return all(group.inverse(x) in s for x in s)
