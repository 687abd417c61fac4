"""Finite positive measures on computational groups.

A measure is two arrays in one order: ``cells``, its atoms, and
``weights``, their masses.  On the abelian kinds ``cells`` is an (m, d)
int64 cell array, torus cells reduced mod N; on the free group it holds
the ``words.WordBox`` keys of reduced words.  On grid kinds the mass of a
cell is the mass of the continuous measure on that cell.  All operations
are pure: they return new measures and never mutate their inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DescriptorMismatchError, PreconditionError
from .groups import (
    _DENSE_RANGE,
    DEFAULT_SUPPORT_CAP,
    FREE,
    TORUS_GRID,
    Element,
    GroupDescriptor,
    KeyBox,
    _check_cap,
    _check_pairs,
    _coordinates,
    _factor_keys,
    _inverse,
    _unique_keys,
    _word_box,
)

@dataclass(frozen=True, eq=False)
class GroupMeasure:
    """A finite positive measure with finite support on a group: distinct
    atoms ``cells`` and their ``weights``, in one order.

    The constructor takes arrays that are already canonical and checks
    them in one pass: int64 cells of the group's shape, torus cells
    reduced mod N, and float64 weights, finite and positive.
    ``from_atoms`` is the boundary that checks elements and merges the
    atoms on one cell.  ``==`` is identity, as on arrays it is ambiguous.
    """

    group: GroupDescriptor
    cells: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        cells, weights = np.asarray(self.cells), np.asarray(self.weights, dtype=float)
        shape = (len(weights),) + ((self.group.dimension,) if self.group.is_abelian else ())
        if cells.dtype != np.int64 or cells.shape != shape:
            raise DescriptorMismatchError(
                f"a measure on the {self.group.kind} takes int64 cells of shape {shape}, "
                f"got {cells.dtype} cells of shape {cells.shape}")
        positive = (weights > 0) & (weights < math.inf)  # NaN fails both
        if not positive.all():
            raise PreconditionError(f"weights must be finite and positive, "
                                    f"got {weights[~positive][0]}")
        if self.group.kind == TORUS_GRID:
            cells = cells % self.group.size
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "weights", weights)

    # -- constructors ----------------------------------------------------

    @classmethod
    def point_mass(cls, group: GroupDescriptor, g: Element, mass: float = 1.0):
        return cls.from_atoms(group, [(g, mass)])

    @classmethod
    def from_atoms(cls, group: GroupDescriptor, pairs):
        """The measure with the given (element, weight) pairs: the one
        boundary that checks elements.  Each element is checked once, by
        ``group.element``, which refuses an unreduced word and reduces a
        torus cell mod N, and each weight, finite and nonnegative, before
        it is added to those already on its element, in pair order.  The
        atoms keep the order of their first pair; those of weight 0 are
        dropped."""
        element = group.element
        atoms: dict[Element, float] = {}
        for g, w in pairs:
            g = element(g)
            w = atoms.get(g, 0.0) + _checked_weight(w, g)
            if w == math.inf:
                raise PreconditionError(f"non-finite weight {w} at atom {g}")
            atoms[g] = w
        atoms = {g: w for g, w in atoms.items() if w > 0}
        if group.kind == FREE:
            cells = _word_box(group, "a measure").keys(atoms)
        else:
            cells = np.array(list(atoms), dtype=np.int64).reshape(len(atoms), group.dimension)
        return cls(group, cells, np.fromiter(atoms.values(), float, len(atoms)))

    @classmethod
    def uniform_on(cls, group: GroupDescriptor, elements, total: float = 1.0):
        elements = list(elements)
        if not elements:
            raise PreconditionError("uniform measure needs a nonempty support")
        w = total / len(elements)
        return cls.from_atoms(group, ((g, w) for g in elements))

    @classmethod
    def uniform_interval(
        cls, group: GroupDescriptor, lo: float, hi: float, total: float = 1.0,
        closed: bool = True,
    ):
        """Grid-uniform probability mass on the interval [lo, hi] of a 1-d grid.

        With ``closed=False`` the right endpoint cell is excluded, which is
        the grid-exact discretization of the uniform density on [lo, hi).
        The cells are counted, N at most on the torus, and refused beyond
        ``DEFAULT_SUPPORT_CAP`` or the memory before they are formed, as
        one int64 array in increasing order.
        """
        if group.dimension != 1 or group.kind == "free":
            raise PreconditionError("uniform_interval needs a 1-d grid-like group")
        q = group.scale
        a = math.ceil(lo * q - 1e-9)
        b = math.floor(hi * q + 1e-9)
        if not closed:
            b -= 1
        if group.kind == "torus-grid" and b - a >= group.size:
            a, b = 0, group.size - 1  # every residue
        what = f"the interval [{lo}, {hi}]"
        _check_cap(b - a + 1, DEFAULT_SUPPORT_CAP, f"{what} of {b - a + 1} cells")
        _check_pairs(b - a + 1, what, items="cells")
        if b < a:
            raise PreconditionError("uniform measure needs a nonempty support")
        if group.kind == "torus-grid":  # the residues of a..b, each once, in order
            n, s, m = group.size, a % group.size, b - a + 1
            cells = np.r_[0:max(s + m - n, 0), s:min(s + m, n)]
        else:  # the ends, checked as ``from_atoms`` checks them
            group.element((a,)), group.element((b,))
            cells = np.arange(a, b + 1, dtype=np.int64)
        w = _checked_weight(total / len(cells), (int(cells[0]),))
        if not w:  # a total of 0 leaves no atom
            cells = cells[:0]
        return cls(group, cells[:, None], np.full(len(cells), w))

    @classmethod
    def uniform_ball(cls, group: GroupDescriptor, radius: float):
        """Uniform probability on ``group.ball(radius)``, whose cells, words
        by their keys, are the measure's as they stand."""
        ball = group.ball(radius)
        if not len(ball):
            raise PreconditionError("uniform measure needs a nonempty support")
        if group.kind == FREE:
            ball = _word_box(group, "a ball").keys(ball)
        return cls(group, ball, np.full(len(ball), 1.0 / len(ball)))

    @classmethod
    def simple_random_walk(cls, group: GroupDescriptor, step: int = 1):
        """Uniform measure on the +-step generators of a lattice-like group,
        or on the letters and their inverses of a free group (step 1 only)."""
        k = group.dimension
        if group.kind == "free":
            if step != 1:
                raise PreconditionError(f"the free-group walk has step 1, got step {step}")
            return cls.uniform_on(group, [(s * i,) for s in (1, -1) for i in range(1, k + 1)])
        return cls.uniform_on(group, [tuple(sign * step * (i == axis) for i in range(k))
                                      for axis in range(k) for sign in (1, -1)])

    # -- queries ----------------------------------------------------------

    @property
    def total_mass(self) -> float:
        return _fold_sum(self.weights)

    @functools.cached_property
    def atoms(self) -> dict[Element, float]:
        """The measure as a map element -> mass, in atom order: a view for
        reports and tests, formed once."""
        if self.group.kind == FREE:
            elements = _word_box(self.group, "a measure").cells(self.cells)
        else:
            elements = map(tuple, self.cells.tolist())
        return dict(zip(elements, self.weights.tolist()))

    def support(self) -> list[Element]:
        return sorted(self.atoms, key=self.group.sort_key)

    def __len__(self) -> int:
        return len(self.weights)


def _checked_weight(w, g) -> float:
    """The weight ``w`` of the atom ``g`` as a float, which must be finite
    and nonnegative; the error names the atom."""
    w = float(w)
    if not math.isfinite(w):
        raise PreconditionError(f"non-finite weight {w} at atom {g}")
    if w < 0:
        raise PreconditionError(f"negative weight {w} at atom {g}")
    return w


# -- operations -----------------------------------------------------------


def convolve(
    a: GroupMeasure, b: GroupMeasure, cap: int = DEFAULT_SUPPORT_CAP
) -> GroupMeasure:
    """Convolution: mass of g is the sum of a(h)*b(k) over h*k = g.

    Exact direct summation over all pairs (h, k), h-major in atom order,
    on every kind by ``_convolve_keys``: the products are formed at once
    as keys of one box, a ``KeyBox`` on the abelian kinds and a ``WordBox``
    on the free group, with each weight, and the order of the atoms
    (first formed first), those of the pair loop one element at a time.  A
    non-finite weight raises and weights that underflow to 0 are dropped.
    """
    if a.group != b.group:
        raise DescriptorMismatchError(
            f"cannot convolve measures on {a.group.kind} and {b.group.kind} groups"
        )
    box, keys_a, keys_b = _factor_keys(a.group, a.cells, b.cells, "convolution")
    with np.errstate(over="ignore"):  # an overflow is reported by atom
        keys, weights = _convolve_keys(box, keys_a, a.weights, keys_b, b.weights, cap)
    return GroupMeasure(a.group, keys if a.group.kind == FREE else box.cells(keys), weights)


def _convolve_keys(box, keys_a, w_a, keys_b, w_b, cap: int):
    """``convolve`` on (keys, weights) arrays whose ``box.add`` keys the
    products, in first-formed order; the keys on each side are distinct.

    The pairs are taken x-major, and ``_unique_keys`` hands back the
    distinct products in first-formed order with their weights added in
    pair order, as the pair loop does.  More pairs than memory holds raise
    ``ResourceLimitError`` before any is formed.  As in ``GroupMeasure``,
    the first non-finite weight raises, naming its element, and weights
    that underflow to 0 are dropped.  The caller holds
    ``np.errstate(over="ignore")`` around it, so that a product that
    overflows is reported here, by atom.
    """
    _check_pairs(len(keys_a) * len(keys_b), "convolution")
    products = np.multiply.outer(w_a, w_b).ravel()
    keys, weights = _unique_keys(box.add(keys_a, keys_b), products, cap, "convolution")
    # sums of products of finite weights >= 0 are never NaN: one reduction
    # each finds an overflow and an underflow
    if not weights.max(initial=0.0) < np.inf:
        bad = ~np.isfinite(weights)
        g = box.elements(keys[bad][:1])[0]
        raise PreconditionError(f"non-finite weight {weights[bad][0]} at atom {g}")
    if weights.min(initial=1.0) > 0:
        return keys, weights
    keep = weights > 0
    return keys[keep], weights[keep]


def _walk_box(group: GroupDescriptor, eta, f, high: int, low: int,
              what: str):
    """One key box for every measure of a walk by eta: on the free group
    the ``WordBox``; on the torus the whole torus; otherwise the cells
    within max(high e, |F| + low e) of 0 on each axis, e the reach of the
    cells ``eta`` and |F| that of the cells ``f`` on that axis, so that
    eta^{*high} and 1_F * (eta^{*low})^ fit.  Its size grows with the depth
    times the spread of eta, not with where eta lies.  In the box,
    ``add(key(x), key(y) - box.zero)`` is the key of x * y."""
    if group.kind == FREE:
        return _word_box(group, what)
    if group.kind == TORUS_GRID:
        return KeyBox.torus(group, what)
    eta, f = _coordinates(group, eta, what), _coordinates(group, f, what)
    # in Python ints: a reach times the depth may leave int64
    far = [max(-lo, hi) for lo, hi in zip(eta.min(axis=0, initial=0).tolist(),
                                          eta.max(axis=0, initial=0).tolist())]
    f_far = [max(-lo, hi) for lo, hi in zip(f.min(axis=0, initial=0).tolist(),
                                            f.max(axis=0, initial=0).tolist())]
    radius = [max(high * e, f + low * e) for e, f in zip(far, f_far)]
    return KeyBox(group, [-r for r in radius], radius, what)


def _fold_sum(values) -> float:
    """The sum of ``values`` added one by one from the left, 0.0 for none.
    ``sum()`` of floats compensates since Python 3.12 and ``np.sum`` adds
    pairwise; both move the last digit of a sum whose order is fixed."""
    values = np.asarray(values, dtype=float)
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


def _pairing(box, high, reach, step: int) -> float:
    """sum_g high(g) reach(g) for two (keys, weights) pairs of ``box``,
    whose keys are distinct on each side: the products, in the key order
    of ``high``, added one by one from the left by ``_fold_sum``, so that
    ((p_1 + p_2) + p_3) + ... has the same digits on every Python.

    It reads reach at the keys of high from a float table over the box
    while the box holds at most ``_DENSE_RANGE`` cells per pair of the
    walk's next step, |high| times the ``step`` atoms of eta; in a wider
    box, the ``WordBox`` always, it finds each key of high among reach's
    by binary search.  A key absent from reach reads 0."""
    (keys, weights), (reach_keys, reach_weights) = high, reach
    if not len(reach_keys):
        return 0.0
    if box.size <= _DENSE_RANGE * len(keys) * step:
        table = np.zeros(box.size)
        table[reach_keys] = reach_weights
        found = table[keys]
    else:
        order = np.argsort(reach_keys)
        at = order[np.searchsorted(reach_keys, keys, sorter=order).clip(max=len(order) - 1)]
        found = np.where(reach_keys[at] == keys, reach_weights[at], 0.0)
    return _fold_sum(weights * found)


def involute(a: GroupMeasure) -> GroupMeasure:
    """The adjoint measure g -> a(g^{-1}), with the weights of ``a``;
    total mass is preserved exactly.  A cell whose inverse leaves int64
    raises ``DescriptorMismatchError``."""
    return GroupMeasure(a.group, _inverse(a.group, a.cells, "involute"), a.weights)


def symmetrize(a: GroupMeasure, cap: int = DEFAULT_SUPPORT_CAP) -> GroupMeasure:
    """The positive-type measure a * a^.  Always symmetric."""
    return convolve(a, involute(a), cap=cap)
