"""Finite positive measures on computational groups.

A measure is stored as a finite map ``element -> mass``; on grid kinds
the mass of a cell is the mass of the continuous measure on that cell.
All operations are pure: they return new measures and never mutate their
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DescriptorMismatchError, PreconditionError
from .groups import (
    _DENSE_RANGE,
    ATOM_BYTES,
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
    _reduce_word,
    _unique_keys,
    _word_box,
)

@dataclass(frozen=True)
class GroupMeasure:
    """A finite positive measure with finite support on a group.  Its atoms
    are canonical elements of the group: torus cells reduced mod N,
    free-group words reduced, each checked by ``group.element``."""

    group: GroupDescriptor
    atoms: dict[Element, float] = field(default_factory=dict)

    def __post_init__(self):
        # free-group words are reduced first; ``element`` then reduces torus
        # cells mod N and checks every atom against the group
        reduce = _reduce_word if self.group.kind == FREE else tuple
        element = self.group.element
        object.__setattr__(self, "atoms",
                           _checked_atoms(self.atoms, lambda g: element(reduce(g))))

    # -- constructors ----------------------------------------------------

    @classmethod
    def point_mass(cls, group: GroupDescriptor, g: Element, mass: float = 1.0):
        return cls.from_atoms(group, [(g, mass)])

    @classmethod
    def from_atoms(cls, group: GroupDescriptor, pairs):
        """The measure with the given (element, weight) pairs, weights on
        one element added.  Each element is checked once, by
        ``group.element``, which rejects an unreduced word where the
        constructor would reduce it; the merged weights are then checked
        as the constructor checks them."""
        element = group.element
        atoms: dict[Element, float] = {}
        for g, w in pairs:
            g = element(g)
            atoms[g] = atoms.get(g, 0.0) + float(w)
        return _measure(group, _checked_atoms(atoms))

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
        ``DEFAULT_SUPPORT_CAP`` or the memory before they are listed.
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
        _check_pairs(b - a + 1, what, ATOM_BYTES, "cells")
        cells = [(c,) for c in range(a, b + 1)]
        if group.kind == "torus-grid":
            cells = sorted({(c % group.size,) for (c,) in cells})
        return cls.uniform_on(group, cells, total=total)

    @classmethod
    def simple_random_walk(cls, group: GroupDescriptor, step: int = 1):
        """Uniform measure on the +-step generators of a lattice-like group,
        or on the letters and their inverses of a free group (step 1 only)."""
        if group.kind == "free":
            if step != 1:
                raise PreconditionError(f"the free-group walk has step 1, got step {step}")
            letters = [(i,) for i in range(1, group.dimension + 1)]
            gens = letters + [group.inverse(w) for w in letters]
            return cls.uniform_on(group, gens)
        gens = []
        for axis in range(group.dimension):
            e = [0] * group.dimension
            e[axis] = step
            gens.append(tuple(e))
            gens.append(group.inverse(tuple(e)))
        return cls.uniform_on(group, gens)

    # -- queries ----------------------------------------------------------

    @property
    def total_mass(self) -> float:
        return float(sum(self.atoms.values()))

    def support(self) -> list[Element]:
        return sorted(self.atoms, key=self.group.sort_key)

    def __len__(self) -> int:
        return len(self.atoms)


def _checked_atoms(atoms: dict, canonical=None) -> dict:
    """The atoms with finite nonnegative weights as floats, zero weights
    dropped; a non-finite or negative weight raises, naming its atom.
    ``canonical`` maps each kept atom to its element, and atoms on one
    element merge, in atom order; without it the atoms are already
    distinct canonical elements."""
    clean = {}
    for g, w in atoms.items():
        if not math.isfinite(w):
            raise PreconditionError(f"non-finite weight {w} at atom {g}")
        if w < 0:
            raise PreconditionError(f"negative weight {w} at atom {g}")
        if w > 0:
            if canonical is not None:
                g = canonical(g)
            if g in clean:
                w = clean[g] + float(w)
                if not math.isfinite(w):
                    raise PreconditionError(f"non-finite weight {w} at atom {g}")
            clean[g] = float(w)
    return clean


# -- operations -----------------------------------------------------------


def convolve(
    a: GroupMeasure, b: GroupMeasure, cap: int = DEFAULT_SUPPORT_CAP
) -> GroupMeasure:
    """Convolution: mass of g is the sum of a(h)*b(k) over h*k = g.

    Exact direct summation over all pairs (h, k), h-major in atom order,
    on every kind by ``_convolve_keys``: the products are formed at once
    as keys of one box, a ``KeyBox`` on the abelian kinds and a ``WordBox``
    on the free group, with each weight, and the order of the atoms
    (first formed first), those of the pair loop one element at a time.  As
    in ``GroupMeasure``, a non-finite weight raises and weights that
    underflow to 0 are dropped.
    """
    if a.group != b.group:
        raise DescriptorMismatchError(
            f"cannot convolve measures on {a.group.kind} and {b.group.kind} groups"
        )
    box, keys_a, keys_b = _factor_keys(a.group, list(a.atoms), list(b.atoms), "convolution")
    with np.errstate(over="ignore"):  # an overflow is reported by atom
        keys, weights = _convolve_keys(box, keys_a, _weights(a), keys_b, _weights(b), cap)
    return _measure(a.group, dict(zip(box.elements(keys), weights.tolist())))


def _measure(group: GroupDescriptor, atoms: dict) -> GroupMeasure:
    """A ``GroupMeasure`` of atoms that are already canonical, with finite
    positive weights: no pass through ``__post_init__``."""
    out = object.__new__(GroupMeasure)
    object.__setattr__(out, "group", group)
    object.__setattr__(out, "atoms", atoms)
    return out


def _weights(a: GroupMeasure) -> np.ndarray:
    """The weights of a measure as an array, in atom order."""
    return np.fromiter(a.atoms.values(), float, len(a))


def _symmetrized(mu: GroupMeasure, cap: int = DEFAULT_SUPPORT_CAP):
    """eta = mu * mu^, the measure both lower estimates walk, as the
    cells of its atoms, an (m, d) int64 array (a list of words on the free
    group), and their weights, in ``convolve``'s first-formed order."""
    atoms, weights = list(mu.atoms), _weights(mu)
    box, keys, inverse_keys = _factor_keys(mu.group, atoms,
                                           [mu.group.inverse(g) for g in atoms], "convolution")
    with np.errstate(over="ignore"):  # an overflow is reported by atom
        keys, weights = _convolve_keys(box, keys, weights, inverse_keys, weights, cap)
    return box.cells(keys), weights


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
    """The adjoint measure g -> a(g^{-1}); total mass is preserved exactly.
    Inversion is a bijection of the canonical atoms that keeps each
    weight, so the atoms need no further check."""
    inv = a.group.inverse
    return _measure(a.group, {inv(g): w for g, w in a.atoms.items()})


def symmetrize(a: GroupMeasure, cap: int = DEFAULT_SUPPORT_CAP) -> GroupMeasure:
    """The positive-type measure a * a^.  Always symmetric."""
    return convolve(a, involute(a), cap=cap)

