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

from .errors import DescriptorMismatchError, PreconditionError, ResourceLimitError
from .groups import (
    FREE,
    TORUS_GRID,
    Element,
    GroupDescriptor,
    KeyBox,
    _check_cap,
    _factor_keys,
    _reduce_word,
    _unique_keys,
)

#: default cap on the support size produced by convolutions
DEFAULT_SUPPORT_CAP = 10_000_000


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
        """
        if group.dimension != 1 or group.kind == "free":
            raise PreconditionError("uniform_interval needs a 1-d grid-like group")
        q = group.scale
        a = math.ceil(lo * q - 1e-9)
        b = math.floor(hi * q + 1e-9)
        if not closed:
            b -= 1
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

    def items(self):
        for g in self.support():
            yield g, self.atoms[g]

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

    Exact direct summation over all pairs (h, k), h-major in atom order.
    On the abelian kinds ``_convolve_arrays`` forms the pair sums at once
    in numpy, with each weight, and the order of the atoms (first formed
    first), that of the pair loop the free group still runs.  On the free
    group every atom is a reduced word, so a pair cancels only where the
    words meet, and each product is ``compose(h, k)``.  As in
    ``GroupMeasure``, a non-finite weight raises and weights that underflow
    to 0 are dropped.
    """
    if a.group != b.group:
        raise DescriptorMismatchError(
            f"cannot convolve measures on {a.group.kind} and {b.group.kind} groups"
        )
    g = a.group
    if g.is_abelian:
        cells, weights = _convolve_arrays(g, *_arrays(a), *_arrays(b), cap)
        return _measure(g, dict(zip(map(tuple, cells.tolist()), weights.tolist())))
    out: dict[Element, float] = {}
    for h, wa in a.atoms.items():
        end = len(h)
        for k, wb in b.atoms.items():
            i, reach = 0, min(end, len(k))
            while i < reach and h[end - 1 - i] == -k[i]:
                i += 1
            key = h[:end - i] + k[i:]
            out[key] = out.get(key, 0.0) + wa * wb
        if len(out) > cap:
            raise ResourceLimitError(
                f"convolution exceeded the support cap of {cap} elements"
            )
    if not math.isfinite(sum(out.values())):  # the weights are >= 0
        for key, w in out.items():
            if not math.isfinite(w):
                raise PreconditionError(f"non-finite weight {w} at atom {key}")
    if 0.0 in out.values():
        out = {key: w for key, w in out.items() if w > 0}
    return _measure(g, out)


def _measure(group: GroupDescriptor, atoms: dict) -> GroupMeasure:
    """A ``GroupMeasure`` of atoms that are already canonical, with finite
    positive weights: no pass through ``__post_init__``."""
    out = object.__new__(GroupMeasure)
    object.__setattr__(out, "group", group)
    object.__setattr__(out, "atoms", atoms)
    return out


def _arrays(a: GroupMeasure):
    """The atoms of a measure as a (cells, weights) pair of arrays, in atom order."""
    cells = np.asarray(list(a.atoms)).reshape(len(a), a.group.dimension)
    return cells, np.fromiter(a.atoms.values(), float, len(a))


def _convolve_arrays(group: GroupDescriptor, cells_a, w_a, cells_b, w_b, cap: int):
    """Abelian ``convolve`` on (cells, weights) arrays, in first-formed order."""
    box, keys_a, keys_b = _factor_keys(group, cells_a, cells_b, "convolution")
    with np.errstate(over="ignore"):  # an overflow is reported by atom
        keys, weights = _convolve_keys(box, keys_a, w_a, keys_b, w_b, cap)
    return box.cells(keys), weights


def _convolve_keys(box: KeyBox, keys_a, w_a, keys_b, w_b, cap: int):
    """Abelian ``convolve`` on (keys, weights) arrays whose ``box.add`` keys
    the sums, in first-formed order; the keys on each side are distinct.

    The pairs are taken x-major, and ``_unique_keys`` hands back the
    distinct sums in first-formed order with their products added in pair
    order, as the pair loop does.  When one side is a single atom the
    product is a translate: its sums are distinct and in the other side's
    order, and each weight is one product.  As in ``GroupMeasure``, the
    first non-finite weight raises, naming its cell, and weights that
    underflow to 0 are dropped.  The caller holds ``np.errstate(over="ignore")``
    around it, so that a product that overflows is reported here, by atom.
    """
    products = np.multiply.outer(w_a, w_b).ravel()
    if min(len(keys_a), len(keys_b)) == 1:
        keys, weights = box.add(keys_a, keys_b), products
        _check_cap(len(keys), cap, "convolution")
    else:
        keys, weights = _unique_keys(box.add(keys_a, keys_b), products, cap, "convolution")
    bad = ~np.isfinite(weights)
    if bad.any():
        g = box.cells(keys[bad][:1])[0].tolist()
        raise PreconditionError(f"non-finite weight {weights[bad][0]} at atom {tuple(g)}")
    keep = weights > 0
    return keys[keep], weights[keep]


def _walk_box(group: GroupDescriptor, eta_cells, f_cells, high: int, low: int,
              what: str) -> KeyBox:
    """One key box for every measure of a walk by eta: the torus, or the
    cells within max(high e, |F| + low e) of 0 on each axis, e the reach
    of eta and |F| that of the cells ``f_cells`` on that axis, so that
    eta^{*high} and 1_F * (eta^{*low})^ fit.  Its size grows with the
    depth times the spread of eta, not with where eta lies.  In the box,
    key(x) + key(y) - key(0) is the key of x + y."""
    if group.kind == TORUS_GRID:
        return KeyBox.torus(group, what)
    # in Python ints: a reach times the depth may leave int64
    far = [max(-lo, hi) for lo, hi in zip(eta_cells.min(axis=0, initial=0).tolist(),
                                          eta_cells.max(axis=0, initial=0).tolist())]
    f_far = [max(-lo, hi) for lo, hi in zip(f_cells.min(axis=0, initial=0).tolist(),
                                            f_cells.max(axis=0, initial=0).tolist())]
    radius = [max(high * e, f + low * e) for e, f in zip(far, f_far)]
    return KeyBox(group, [-r for r in radius], radius, what)


def _fold_sum(values) -> float:
    """The sum of ``values`` added one by one from the left, 0.0 for none.
    ``sum()`` of floats compensates since Python 3.12 and ``np.sum`` adds
    pairwise; both move the last digit of a sum whose order is fixed."""
    values = np.asarray(values, dtype=float)
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


def involute(a: GroupMeasure) -> GroupMeasure:
    """The adjoint measure g -> a(g^{-1}); total mass is preserved exactly.
    Inversion is a bijection of the canonical atoms that keeps each
    weight, so the atoms need no further check."""
    inv = a.group.inverse
    return _measure(a.group, {inv(g): w for g, w in a.atoms.items()})


def symmetrize(a: GroupMeasure, cap: int = DEFAULT_SUPPORT_CAP) -> GroupMeasure:
    """The positive-type measure a * a^.  Always symmetric."""
    return convolve(a, involute(a), cap=cap)

