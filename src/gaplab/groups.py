"""Computational group descriptors.

Four kinds of groups are supported, all unimodular:

* ``lattice``    -- the integer lattice Z^d with counting measure,
* ``free``       -- the free group F_k, elements stored as reduced words,
* ``real-grid``  -- R^d discretized as (1/q)Z^d, cell volume q^{-d},
* ``torus-grid`` -- (R/Z)^d discretized as (Z/N)^d, cell weight N^{-d}.

Elements are plain tuples of ints: lattice/grid coordinates, torus
residues in [0, N), or reduced words over the alphabet {+-1, ..., +-k}.
The finite set functions ``product_set``, ``inverse_set`` and
``power_set`` return (m, d) int64 cell arrays on the abelian kinds, one
row per element in sort order, and lists of words on the free group.

Inside, every kind computes on one int64 key per element: a ``KeyBox``
keys the cells of an abelian kind by their offset in a box, a
``words.WordBox`` keys a word of F_k by its letters,
b = (2k - 1).bit_length() bits each, most significant first, under a
sentinel bit.  On both, key order is ``sort_key`` order, and a product
of two sets, or of two measures, is formed as one array of pair keys,
whose size is checked against the memory the process may use before it
is allocated.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import resource
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

    def canonical(self, a) -> Element:
        """The element as a tuple, torus coordinates reduced to [0, N)."""
        if self.kind == TORUS_GRID:
            return tuple(x % self.size for x in a)
        return tuple(a)

    def element(self, a) -> Element:
        """``canonical(a)``, checked to be an element of this group: integer
        coordinates, ``d`` of them on the abelian kinds, and on ``free`` a
        reduced word over the letters +-1, ..., +-k.  For elements that
        come from outside; raises ``DescriptorMismatchError``."""
        a = self.canonical(a)
        if not all(isinstance(x, (int, np.integer)) for x in a):
            raise DescriptorMismatchError(
                f"the {self.kind} takes integer coordinates, got {list(a)}")
        if self.kind == FREE:
            for i, letter in enumerate(a):
                if not 1 <= abs(letter) <= self.dimension:
                    raise DescriptorMismatchError(
                        f"the letters of F_{self.dimension} are +-1..+-{self.dimension}, "
                        f"got {letter}")
                if i and a[i - 1] == -letter:
                    raise DescriptorMismatchError(
                        f"word {list(a)} is not reduced: {a[i - 1]} is followed by "
                        f"its inverse")
        elif len(a) != self.dimension:
            raise DescriptorMismatchError(
                f"the {self.dimension}-dimensional {self.kind} takes elements of "
                f"length {self.dimension}, got {list(a)}")
        elif not all(_INT64_MIN <= x <= _INT64_MAX for x in a):
            # every set and walk computes on int64 keys
            raise DescriptorMismatchError(
                f"the {self.kind} takes int64 coordinates, got {list(a)}")
        return a

    def inverse(self, a: Element) -> Element:
        if self.kind == FREE:
            return tuple(-letter for letter in reversed(a))
        if self.kind == TORUS_GRID:
            return tuple((-x) % self.size for x in a)
        return tuple(-x for x in a)

    @property
    def scale(self) -> int:
        """Cells per unit length: an element's physical coordinates are its
        ``coordinates`` / scale."""
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
    def is_abelian(self) -> bool:
        return self.kind in ABELIAN_KINDS

    # -- geometry -------------------------------------------------------

    def ball(self, radius: float) -> np.ndarray | list[Element]:
        """All elements of norm <= radius, in ``sort_key`` order: an (m, d)
        int64 cell array on the abelian kinds, a list of words on ``free``.
        On the abelian kinds the box around the ball is counted first and
        refused beyond ``DEFAULT_SUPPORT_CAP`` or the memory at ``PAIR_BYTES``
        a cell (so a ball under the cap whose box is over it is refused),
        and then tested at once: per cell the squares of its coordinates
        over the scale (torus residues by their representatives in
        [-N/2, N/2)), added axis by axis, have a root <= radius + 1e-12
        (<= radius on the torus)."""
        if radius < 0:
            return [] if self.kind == FREE else np.empty((0, self.dimension), dtype=np.int64)
        if self.kind == FREE:
            letters = [(i,) for i in range(-self.dimension, self.dimension + 1) if i]
            return power_set(self, [(), *letters], int(radius))
        if self.kind == TORUS_GRID:
            # residues whose representative r, |r| <= reach, lies in the ball
            n = self.size
            reach = min(int(min(radius, 0.5) * n) + 1, n // 2)
            while reach and reach / n > min(radius, 0.5):
                reach -= 1
            side, bound = min(2 * reach + 1, n), radius
        else:
            # the box of the cells within radius + 1e-12 on one axis
            reach = int(math.floor((radius + 1e-12) * self.scale))
            side, bound = 2 * reach + 1, radius + 1e-12
        box, what = side ** self.dimension, f"the box around the ball of radius {radius}"
        _check_cap(box, DEFAULT_SUPPORT_CAP, f"{what} of {box} cells")
        _check_pairs(box, what, "cells")
        values = coords = np.arange(-reach, reach + 1)
        if self.kind == TORUS_GRID:
            values = _distinct(values % n)
            coords = np.where(values >= (n + 1) // 2, values - n, values)
        # ``x ** 2`` of a float is C ``pow``, as ``np.float_power`` is;
        # ``np.square`` rounds about one square in 2,000 the other way
        squares = np.float_power(coords / self.scale, 2)
        # the sums over the box in C order, kept flat: no axis per dimension
        total = functools.reduce(lambda t, s: np.add.outer(t, s).ravel(),
                                 [squares] * self.dimension)
        inside = np.flatnonzero(np.sqrt(total, out=total) <= bound)
        digits = len(values) ** np.arange(self.dimension - 1, -1, -1)
        return values[inside[:, None] // digits % len(values)]

    def sort_key(self, a: Element):
        """Deterministic ordering key: lexicographic, words by length first."""
        if self.kind == FREE:
            return (len(a), a)
        return a


# -- finite set arithmetic ---------------------------------------------
#
# On the abelian kinds a finite set of cells is handled as one int64 key per
# cell: the offset of the cell in a box, most significant axis first.  Key
# order is then lexicographic (``sort_key``) order, and keys add as cells do.

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)

#: ``_unique_keys`` deduplicates keys within a range of at most this many
#: times their count through a table over the range, wider ones by a sort;
#: the Berg-Christensen walk pairs through a table over its key box while
#: the box holds at most this many cells per pair of the step
_DENSE_RANGE = 4


class KeyBox:
    """The cells lo <= c <= hi of an abelian kind, keyed (c - lo) . strides
    with the last axis fastest, so key(a) + key(b) = key(a + b - lo).

    On ``torus-grid`` the box is the whole torus (lo = 0), and ``add``
    reduces mod N axis by axis.  Bounds, or a cell count, that
    leave int64 raise ``DescriptorMismatchError`` naming ``what``.

    Every key lies in range(``size``).  ``zero`` is the key of 0: in a box
    that holds 0, ``add(key(x), key(y) - zero)`` is the key of x + y, and
    ``inverse`` maps key(x) to key(-x) where both lie in the box.
    """

    def __init__(self, group: GroupDescriptor, lo, hi, what: str):
        for c in (*lo, *hi):
            if not _INT64_MIN <= c <= _INT64_MAX:
                raise DescriptorMismatchError(f"{what} leaves int64 at coordinate {c}")
        widths = [h - l + 1 for l, h in zip(lo, hi)]
        if math.prod(widths) > _INT64_MAX:
            raise DescriptorMismatchError(
                f"{what} needs a key box of {math.prod(widths)} cells, "
                f"more than int64 holds"
            )
        strides = [1] * len(widths)
        for axis in range(len(widths) - 1, 0, -1):
            strides[axis - 1] = strides[axis] * widths[axis]
        self.modulus = group.size if group.kind == TORUS_GRID else 0
        self.lo = np.array(lo, dtype=np.int64)
        self.widths = np.array(widths, dtype=np.int64)
        self.strides = np.array(strides, dtype=np.int64)
        self.size = math.prod(widths)
        self.zero = -sum(c * s for c, s in zip(lo, strides))

    @classmethod
    def torus(cls, group: GroupDescriptor, what: str) -> "KeyBox":
        return cls(group, [0] * group.dimension, [group.size - 1] * group.dimension, what)

    def keys(self, cells: np.ndarray) -> np.ndarray:
        return (cells - self.lo) @ self.strides

    def cells(self, keys: np.ndarray) -> np.ndarray:
        return keys[:, None] // self.strides % self.widths + self.lo

    def elements(self, keys: np.ndarray) -> list[Element]:
        """The cells of the keys as tuples of ints."""
        return list(map(tuple, self.cells(keys).tolist()))

    def inverse(self, keys: np.ndarray) -> np.ndarray:
        """The keys of -x for the keys of x, in a box that holds 0 and both."""
        if self.modulus:
            return self.keys(-self.cells(keys) % self.modulus)
        return 2 * self.zero - keys

    def add(self, xk: np.ndarray, yk: np.ndarray) -> np.ndarray:
        """The keys xk[i] + yk[j], x-major; on the torus the residues add
        mod N axis by axis, so that a sum that wraps carries into no other
        axis."""
        if not self.modulus:
            return np.add.outer(xk, yk).ravel()
        x, y, n = self.cells(xk), self.cells(yk), self.modulus
        keys = np.zeros((len(x), len(y)), dtype=np.int64)
        for axis, stride in enumerate(self.strides.tolist()):
            s = np.subtract.outer(x[:, axis], n - y[:, axis])  # x + y - N, in int64
            s[s < 0] += n
            keys += s * stride
        return keys.ravel()


def _word_box(group: GroupDescriptor, what: str):
    """The ``words.WordBox`` of a free group, loaded on first use, so that
    a run on the abelian kinds loads no word code."""
    from .words import WordBox

    return WordBox(group, what)


def _coordinates(group: GroupDescriptor, xs, what: str) -> np.ndarray:
    """The cells of a finite set as an (n, d) int64 array, reduced mod N on
    ``torus-grid``; elements of another length than d, or coordinates that
    are not integers or leave int64, raise ``DescriptorMismatchError``."""
    if isinstance(xs, np.ndarray):
        cells = xs
    elif any(len(x) != group.dimension for x in xs):
        raise DescriptorMismatchError(f"{what} takes cells of {group.dimension} coordinates")
    else:  # a flat list converts faster than a list of tuples
        cells = np.array(list(itertools.chain.from_iterable(xs)))
    if cells.size and (cells.dtype.kind not in "iu"
                       or cells.dtype.kind == "u" and cells.max() > _INT64_MAX):
        flat = np.asarray(xs, dtype=object).ravel().tolist()
        wide = [c for c in flat if type(c) is int and not _INT64_MIN <= c <= _INT64_MAX]
        if wide:
            raise DescriptorMismatchError(f"{what} leaves int64 at coordinate {wide[0]}")
        raise DescriptorMismatchError(
            f"{what} needs integer coordinates on {group.kind}; got {flat[:3]}"
        )
    cells = cells.astype(np.int64).reshape(len(xs), group.dimension)
    return cells % group.size if group.kind == TORUS_GRID else cells


def _factor_keys(group: GroupDescriptor, xs, ys, what: str):
    """A box that holds every sum x + y (the bounding box of the sums, or
    the torus), and keys of xs and ys whose ``box.add`` is the key of each
    sum; on the free group the ``WordBox`` and the keys of the words."""
    if group.kind == FREE:
        box = _word_box(group, what)
        return box, box.keys(xs), box.keys(ys)
    x, y = _coordinates(group, xs, what), _coordinates(group, ys, what)
    if group.kind == TORUS_GRID:
        box = KeyBox.torus(group, what)
        return box, box.keys(x), box.keys(y)
    if not (len(x) and len(y)):
        box = KeyBox(group, [0] * group.dimension, [0] * group.dimension, what)
        return box, box.keys(x), box.keys(y)
    x_lo, y_lo = x.min(axis=0), y.min(axis=0)
    # in Python ints: a sum of bounds may leave int64
    lo = [a + b for a, b in zip(x_lo.tolist(), y_lo.tolist())]
    hi = [a + b for a, b in zip(x.max(axis=0).tolist(), y.max(axis=0).tolist())]
    box = KeyBox(group, lo, hi, what)
    # x + y_lo and y + x_lo lie in the box and add to x + y + lo
    return box, box.keys(x + y_lo), box.keys(y + x_lo)


def _unique_keys(keys: np.ndarray, weights: np.ndarray, cap: int, what: str):
    """The distinct keys in first-formed order (ordered by the first
    position holding each) and the sum of the weights at each key, added
    in position order by ``np.bincount``.

    Keys within a range of at most ``_DENSE_RANGE`` times their count go
    through a table over that range: ``np.minimum.at`` writes the first
    position of each key, and the positions that find themselves there are
    the distinct keys, already in first-formed order.  Wider keys are
    sorted, and the distinct ones reordered by their least position; that
    route writes over ``keys``.  Both give the same arrays.  More than
    ``cap`` distinct keys raise ``ResourceLimitError``.
    """
    n = len(keys)
    if not n:
        return keys, weights
    lo = keys.min()
    span = int(keys.max()) - int(lo) + 1
    if span <= _DENSE_RANGE * n:
        offsets = keys - lo
        positions = np.arange(n)
        table = np.full(span, n)
        np.minimum.at(table, offsets, positions)
        first = table[offsets] == positions
        distinct = keys[first]
        _check_cap(len(distinct), cap, what)
        return distinct, np.bincount(offsets, weights)[distinct - lo]
    perm = np.argsort(keys)
    ordered = keys[perm]
    starts = _run_starts(ordered)
    at = np.flatnonzero(starts)
    _check_cap(len(at), cap, what)
    distinct = ordered[at]
    # the rank of each key among the distinct ones, in the buffer of keys,
    # which nothing reads again
    ranks = np.cumsum(starts, out=ordered)
    ranks -= 1
    index = keys
    index[perm] = ranks
    del ordered, ranks, starts
    # the sort is not stable: the first position is the least in each run
    order = np.argsort(np.minimum.reduceat(perm, at))
    del perm, at
    return distinct[order], np.bincount(index, weights)[order]


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal keys begins in an increasing key array."""
    starts = np.empty(len(ordered), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys in increasing order, by a sort and its run starts
    (``np.unique`` hashes first: 2 to 8 times slower on these arrays,
    numpy 2.4)."""
    keys = np.sort(keys)
    return keys[_run_starts(keys)]


def _contains(ordered: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per value, whether the nondecreasing array ``ordered`` holds it, by
    one binary search (``np.isin`` and ``np.setdiff1d`` hash or sort both
    sides first: 2 to 3 times slower on short step arrays, numpy 2.4)."""
    if not len(ordered):
        return np.zeros(np.shape(values), dtype=bool)
    at = np.searchsorted(ordered, values)
    return ordered[np.minimum(at, len(ordered) - 1)] == values


def _check_cap(size: int, cap: int, what: str) -> None:
    if size > cap:
        raise ResourceLimitError(f"{what} exceeded the support cap of {cap} elements")


#: bytes per pair while a product of two measures is formed and deduplicated:
#: the pair keys and weights, the sort's permutation, sorted keys and ranks,
#: and the words' cancellation arrays (traced peaks of 46 to 72 bytes per
#: pair, numpy 2.4); also per listed cell of an interval or of the box around
#: a ball (19 to 25 and 33 to 35 bytes; tests/test_measures.py pins both)
PAIR_BYTES = 80


@functools.cache
def _memory_bytes() -> int:
    """The bytes this process may allocate: the machine's physical memory,
    or the soft ``RLIMIT_AS`` where that is lower; read once per process."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    return memory if soft == resource.RLIM_INFINITY else min(memory, soft)


#: default cap on the support size of a measure, listed or convolved
DEFAULT_SUPPORT_CAP = 10_000_000


def _check_pairs(pairs: int, what: str, items: str = "pairs") -> None:
    """Refuse ``pairs`` pairs, or ``items``, at ``PAIR_BYTES`` each beyond
    ``_memory_bytes``, before any such array exists."""
    if pairs * PAIR_BYTES > _memory_bytes():
        raise ResourceLimitError(
            f"{what} would form {pairs} {items} of {PAIR_BYTES} bytes each, more than "
            f"the {_memory_bytes()} bytes this process may use")


def product_set(
    group: GroupDescriptor,
    xs: list[Element] | tuple[Element, ...],
    ys: list[Element] | tuple[Element, ...],
    cap: int = 10_000_000,
) -> np.ndarray | list[Element]:
    """The product set {x*y}, deduplicated, in deterministic order: an
    (m, d) int64 cell array on the abelian kinds, a list of words on the
    free group.

    The products are keyed in one box, that of ``_factor_keys`` (reduced
    mod N on the torus).  Coordinates that are not integers, sums that
    leave int64, or words that are not reduced or outgrow the letter limit
    raise ``DescriptorMismatchError``.  More pairs than memory holds, or
    more than ``cap`` elements, raise ``ResourceLimitError``.
    """
    return _product(group, xs, ys, cap, "product set")


def _product(group: GroupDescriptor, xs, ys, cap: int, what: str):
    """``product_set``, naming ``what`` in its errors."""
    box, xk, yk = _factor_keys(group, xs, ys, what)
    _check_pairs(len(xk) * len(yk), what)
    keys = _distinct(box.add(xk, yk))
    _check_cap(len(keys), cap, what)
    return box.cells(keys)


def inverse_set(group: GroupDescriptor, xs) -> np.ndarray | list[Element]:
    """The inverses {x^{-1}}, deduplicated, in deterministic order, as
    ``product_set`` returns them, from the negated cells or the inverted
    ``WordBox`` keys; an inverse beyond int64 raises ``DescriptorMismatchError``."""
    what = "inverse set"
    cells = (_word_box(group, what).keys(xs) if group.kind == FREE
             else _coordinates(group, xs, what))
    return _product(group, _inverse(group, cells, what), [group.identity()], len(xs), what)


def _inverse(group: GroupDescriptor, cells: np.ndarray, what: str) -> np.ndarray:
    """The cells of x^{-1} for the cells x, as a measure holds them: the
    inverted ``WordBox`` keys, or -x, mod N on the torus; -(-2^63) raises."""
    if group.kind == FREE:
        return _word_box(group, what).inverse(cells)
    if (cells == _INT64_MIN).any():
        raise DescriptorMismatchError(f"{what} leaves int64 at coordinate {-_INT64_MIN}")
    return -cells % group.size if group.kind == TORUS_GRID else -cells


def power_set(
    group: GroupDescriptor, base, n: int, cap: int = 10_000_000
) -> np.ndarray | list[Element]:
    """The n-fold product set base^n (base^0 = {e}), as ``product_set``
    returns it."""
    if n < 0:
        raise ValueError("power must be >= 0")
    box, _, keys = _power_keys(group, base, n, cap, "product set")
    return box.cells(keys[n])


def _powers(group: GroupDescriptor, base, n: int, cap: int, what: str) -> list:
    """B^0..B^n for B = base, each in ``sort_key`` order, as ``product_set``
    returns them, from ``_power_keys``."""
    box, lo, keys = _power_keys(group, base, n, cap, what)
    if group.kind == FREE:
        return [box.cells(k) for k in keys]
    return [box.cells(k) - (n - i) * lo for i, k in enumerate(keys)]


def _power_keys(group: GroupDescriptor, base, n: int, cap: int, what: str):
    """B^0..B^n as increasing key arrays of one box: the box, the least
    corner lo of B (0 on the torus, None on the free group) and the keys.

    On the free group the box is the ``WordBox``.  On an abelian kind it is
    that of B^n, and B^k is keyed as B^k + (n - k) lo, so that the keys of
    B^k and of B - lo add to those of B^{k+1}, and the cells of B^k are
    ``box.cells(keys[k]) - (n - k) lo``.  More pairs than memory holds, or
    more than ``cap`` elements in a power, raise ``ResourceLimitError``, a
    B^n that leaves int64 ``DescriptorMismatchError``.
    """
    if group.kind == FREE:
        box, lo = _word_box(group, what), None
        keys, step = [box.keys([group.identity()])], box.keys(base)
    else:
        b = _coordinates(group, base, what)
        lo, hi = _bounds(group, b)
        if group.kind == TORUS_GRID:
            box = KeyBox.torus(group, what)
        else:  # in Python ints: n times a corner may leave int64
            box = KeyBox(group, [n * c for c in lo.tolist()], [n * c for c in hi.tolist()],
                         what)
        keys, step = [np.zeros(1, dtype=np.int64)], (b - lo) @ box.strides
    for k in range(1, n + 1):
        _check_pairs(len(keys[-1]) * len(step), f"{what} B^{k}")
        keys.append(_distinct(box.add(keys[-1], step)))
        _check_cap(len(keys[-1]), cap, what)
    return box, lo, keys


def _bounds(group: GroupDescriptor, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least and greatest coordinate of a cell array on each axis: the
    corners of its bounding box, or 0 for no cells and on the torus, whose
    box is the whole torus."""
    if group.kind == TORUS_GRID or not len(cells):
        zero = np.zeros(group.dimension, dtype=np.int64)
        return zero, zero
    return cells.min(axis=0), cells.max(axis=0)
