"""Discretized measure-preserving actions.

Every supported action is a one-parameter flow/shift: the acting group is
a 1-d lattice or a 1-d real grid, and the atom with grid coordinate c
acts by the c-th power of a fixed cell permutation sigma.  Each kind
supplies only sigma, as an index array; the cycles of sigma are the
coordinates in which the base class applies every power of it.  Four
kinds:

* ``circle-rotation``    -- N cells on R/Z, generator rotates by p cells,
* ``torus-translation``  -- N x N cells on (R/Z)^2, generator translates
                            by an integer step vector (usually a
                            continued-fraction convergent of the target
                            slope, so the discrete line mimics the
                            irrational flow until it closes up),
* ``bernoulli-window``   -- words of length 2w+1 over a finite alphabet
                            with the product marginal weights; the shift
                            rotates the window cyclically (the exiting
                            symbol refreshes the entering slot, which is
                            measure-exact under the product marginal),
* ``finite-permutation`` -- an explicit permutation and its powers.

All action maps are bijections, so the cell weights are preserved exactly.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import (
    ConstructionError,
    DescriptorMismatchError,
    GridResolutionError,
    PreconditionError,
)
from .groups import Element, GroupDescriptor


def continued_fraction_convergent(alpha: float, max_denominator: int) -> tuple[int, int]:
    """Best rational approximation p/q of alpha with q <= max_denominator."""
    frac = Fraction(alpha).limit_denominator(max_denominator)
    return frac.numerator, frac.denominator


class CycleTable:
    """The cycles of a cell permutation sigma as coordinates.

    ``order`` lists the cells cycle by cycle: the cycles of one length L
    fill one block of slots in the order of their least cells, and each
    cycle starts at its least cell and follows sigma, so sigma^c moves a
    cell at slot s of the cycle with first slot f to slot
    f + (s - f + c) mod L.  ``slot`` is the inverse of ``order``.
    ``lengths`` and ``counts`` give the cycle type, block by block in
    increasing L.
    """

    def __init__(self, sigma: np.ndarray):
        n = sigma.size
        # pointer doubling: after t rounds key[i] packs (m, d) for the least
        # cell m among sigma^-j(i), 0 <= j < 2^t, with sigma^d(m) = i; one
        # minimum merges two windows and keeps the nearer occurrence, and
        # the windows cover every cycle once m is constant along sigma
        shift = (2 * n).bit_length()
        cells = np.arange(n, dtype=np.int64)
        back = np.empty_like(cells)
        back[sigma] = cells
        key = cells << shift
        span = 1
        while ((key[sigma] ^ key) >> shift).any():
            np.minimum(key, key[back] + span, out=key)
            back = back[back]
            span *= 2
        least = key >> shift
        size = np.bincount(least, minlength=n)
        heads = np.flatnonzero(size)
        heads = heads[np.argsort(size[heads], kind="stable")]
        first = np.zeros_like(size)
        first[heads] = np.cumsum(size[heads]) - size[heads]
        self.slot = first[least] + (key & ((1 << shift) - 1))
        self.order = np.empty_like(self.slot)
        self.order[self.slot] = cells
        self.lengths, self.counts = np.unique(size[heads], return_counts=True)
        self._ends = np.cumsum(self.lengths * self.counts)

    def rows(self):
        """Per cycle length L, the cells as an array of shape (cycles, L),
        one cycle per row in sigma order."""
        for length, count, end in zip(self.lengths, self.counts, self._ends):
            yield int(length), self.order[end - length * count:end].reshape(count, length)

    def locate(self, slots):
        """First slot and length of the cycle through each slot (a block
        ends on a cycle boundary, so its end fixes the phase)."""
        k = np.searchsorted(self._ends, slots, side="right")
        length = self.lengths[k]
        return slots - (slots - self._ends[k]) % length, length


class ActionSpace:
    """Base class: finite cell list, probability weights, group action."""

    kind: str = "abstract"
    #: True when every atom acts by a global grid translation
    is_translation: bool = False

    def __init__(self, group: GroupDescriptor, n_cells: int,
                 weights: np.ndarray | None = None, atom_threshold: float = 0.05):
        self.group = group
        self.n_cells = int(n_cells)
        if weights is None:
            weights = np.full(self.n_cells, 1.0 / self.n_cells)
        self.weights = np.asarray(weights, dtype=float)
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ConstructionError("cell weights must sum to 1 within 1e-12")
        if (self.weights <= 0).any():
            raise ConstructionError("cell weights must be strictly positive")
        self.atom_threshold = atom_threshold
        self.base_cell = 0

    # -- the group action --------------------------------------------------

    def generator(self) -> np.ndarray:
        """sigma as an index array: cell i goes to cell sigma[i]."""
        raise NotImplementedError

    @functools.cached_property
    def cycles(self) -> CycleTable:
        return CycleTable(self.generator())

    def steps_of(self, g: Element) -> int:
        """Grid coordinate of a 1-parameter group element."""
        if len(g) != 1:
            raise DescriptorMismatchError(
                f"{self.kind} is a one-parameter action; got element {g}"
            )
        return int(g[0])

    def act_indices(self, g: Element, idx: np.ndarray) -> np.ndarray:
        """Forward action on cell indices: i -> index(g * cell_i)."""
        slot = self.cycles.slot[idx]
        first, length = self.cycles.locate(slot)
        return self.cycles.order[first + (slot - first + self.steps_of(g)) % length]

    def cycle_lengths(self) -> dict[int, int]:
        """Cycle type of sigma: {cycle length L: number of cycles}."""
        return {int(n): int(c) for n, c in zip(self.cycles.lengths, self.cycles.counts)}

    def period(self, cell: int) -> int:
        """Length L of the cycle through the cell: g fixes it iff L divides
        the steps of g."""
        return int(self.cycles.locate(self.cycles.slot[cell])[1])

    def has_fixed_cell(self, g: Element) -> bool:
        return bool((self.steps_of(g) % self.cycles.lengths == 0).any())

    def orbit(self, start: int, elements) -> np.ndarray:
        """Closure of a cell under repeated application of the given atoms:
        the cells of its cycle at multiples of gcd(L, steps) from it."""
        slot = int(self.cycles.slot[start])
        first, length = (int(v) for v in self.cycles.locate(slot))
        stride = math.gcd(length, *(self.steps_of(g) for g in elements))
        ring = (slot - first + np.arange(0, length, stride)) % length
        return np.sort(self.cycles.order[first + ring])

    # -- geometry ------------------------------------------------------------

    def cell_ball(self, center: int, radius: int) -> np.ndarray:
        """Cells within grid distance ``radius`` of the center cell."""
        if radius == 0:
            return np.array([center], dtype=np.int64)
        raise GridResolutionError(
            f"{self.kind} has no cell geometry beyond single cells"
        )

    def mass_of(self, idx: np.ndarray) -> float:
        return float(self.weights[idx].sum())


class CircleRotationSpace(ActionSpace):
    """N cells on the circle; the atom with coordinate c rotates by c*p cells."""

    kind = "circle-rotation"
    is_translation = True

    def __init__(self, group: GroupDescriptor, n: int, cells_per_step: int = 1,
                 **kw):
        if n < 2:
            raise ConstructionError("circle grid needs N >= 2")
        if cells_per_step != int(cells_per_step):
            raise ConstructionError(
                f"rotation step {cells_per_step!r} is not an integer cell count"
            )
        super().__init__(group, n, **kw)
        self.n = n
        self.cells_per_step = int(cells_per_step)

    def generator(self):
        return (np.arange(self.n, dtype=np.int64) + self.cells_per_step) % self.n

    def cell_ball(self, center, radius):
        if radius < 0:
            raise PreconditionError("radius must be >= 0")
        if 2 * radius + 1 >= self.n:
            return np.arange(self.n, dtype=np.int64)
        return np.sort((center + np.arange(-radius, radius + 1)) % self.n).astype(np.int64)

    def translation_vector(self, g: Element) -> tuple[int, ...]:
        return ((self.steps_of(g) * self.cells_per_step) % self.n,)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return (self.n,)

    def min_displacement(self, steps: int) -> float:
        shift = (steps * self.cells_per_step) % self.n
        return float(min(shift, self.n - shift))


class TorusTranslationSpace(ActionSpace):
    """N x N cells on the 2-torus; the generator translates by ``step`` cells.

    ``step`` is an integer lattice vector (q, p); p/q approximates the
    target slope (recorded as ``slope_target`` for continuum diagnostics).
    Cells are indexed row-major: cell (i, j) -> i * N + j.
    """

    kind = "torus-translation"
    is_translation = True

    def __init__(self, group: GroupDescriptor, n: int, step: tuple[int, int],
                 slope_target: float | None = None, **kw):
        if n < 2:
            raise ConstructionError("torus grid needs N >= 2")
        bad = [s for s in step if s != int(s)]
        if bad or len(step) != 2:
            raise ConstructionError(
                f"translation step {step!r} must be a pair of integer cell counts"
            )
        super().__init__(group, n * n, **kw)
        self.n = n
        self.step = (int(step[0]) % n, int(step[1]) % n)
        if self.step == (0, 0):
            raise ConstructionError("translation step is trivial on this grid")
        self.slope_target = slope_target

    def generator(self):
        rows = (np.arange(self.n, dtype=np.int64) + self.step[0]) % self.n
        cols = (np.arange(self.n, dtype=np.int64) + self.step[1]) % self.n
        return (rows[:, None] * self.n + cols).ravel()

    def cell_ball(self, center, radius):
        if radius < 0:
            raise PreconditionError("radius must be >= 0")
        ci, cj = divmod(int(center), self.n)
        offs = np.arange(-radius, radius + 1, dtype=np.int64)
        di, dj = offs[:, None], offs[None, :]
        inside = di * di + dj * dj <= radius * radius
        cells = np.sort((((ci + di) % self.n) * self.n + (cj + dj) % self.n)[inside])
        # a ball wider than the torus meets itself
        return cells[np.r_[True, cells[1:] != cells[:-1]]]

    def translation_vector(self, g: Element) -> tuple[int, ...]:
        c = self.steps_of(g)
        return ((c * self.step[0]) % self.n, (c * self.step[1]) % self.n)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return (self.n, self.n)

    def min_displacement(self, steps: int) -> float:
        a = (steps * self.step[0]) % self.n
        b = (steps * self.step[1]) % self.n
        a = min(a, self.n - a)
        b = min(b, self.n - b)
        return math.hypot(a, b)


class BernoulliWindowSpace(ActionSpace):
    """Windows of width 2w+1 of a Bernoulli sequence over a finite alphabet.

    Cells are the alphabet^(2w+1) words with the product marginal
    (uniform) weights, indexed by their digits, most significant first.
    The shift by one acts by a cyclic rotation of the window; under the
    product measure the wrapped-around symbol has exactly the marginal
    law of the refreshed boundary, so the rotation is a measure-exact
    bijective model of the shift compression.
    """

    kind = "bernoulli-window"

    def __init__(self, group: GroupDescriptor, alphabet: int, window_radius: int,
                 **kw):
        if alphabet < 2:
            raise ConstructionError("alphabet size must be >= 2")
        if window_radius < 1:
            raise ConstructionError("window radius must be >= 1")
        self.alphabet = alphabet
        self.window = 2 * window_radius + 1
        super().__init__(group, alphabet ** self.window, **kw)

    def generator(self):
        """The leading digit moves to the end: i -> (i mod a^(w-1)) a + i div a^(w-1)."""
        idx = np.arange(self.n_cells, dtype=np.int64)
        high = self.alphabet ** (self.window - 1)
        return (idx % high) * self.alphabet + idx // high


class FinitePermutationSpace(ActionSpace):
    """An explicit permutation sigma; the atom with coordinate c acts by sigma^c."""

    kind = "finite-permutation"

    def __init__(self, group: GroupDescriptor, permutation, weights=None, **kw):
        perm = np.asarray(permutation, dtype=np.int64)
        if sorted(perm.tolist()) != list(range(len(perm))):
            raise ConstructionError("permutation must be a bijection on 0..n-1")
        super().__init__(group, len(perm), weights=weights, **kw)
        pushed = np.zeros_like(self.weights)
        np.add.at(pushed, perm, self.weights)
        if not np.array_equal(pushed, self.weights):
            raise ConstructionError(
                "cell weights are not preserved by the permutation"
            )
        self._perm = perm

    def generator(self):
        return self._perm


def build_action(kind: str, **params) -> ActionSpace:
    """Construct an action space from keyword parameters.

    Common parameters: ``group`` (defaults to the integer lattice Z),
    ``atom_threshold``.  Kind-specific:

    * circle-rotation:   N, cells_per_step (or rotation_hint + the grid)
    * torus-translation: N, step=(q, p) or slope_hint + max_denominator
    * bernoulli-window:  alphabet, window_radius
    * finite-permutation: permutation
    """
    params = dict(params)
    group = params.pop("group", None) or GroupDescriptor(kind="lattice", dimension=1)
    if group.dimension != 1 or group.kind == "free":
        raise ConstructionError("actions are driven by 1-d lattice or grid groups")
    threshold = params.pop("atom_threshold", 0.05)
    if kind == "circle-rotation":
        n = int(params.pop("N"))
        if "cells_per_step" in params:
            p = params.pop("cells_per_step")
        elif "rotation_hint" in params:
            p = round(params.pop("rotation_hint") * n)
        else:
            p = 1
        _reject_extra(kind, params)
        return CircleRotationSpace(group, n, cells_per_step=p, atom_threshold=threshold)
    if kind == "torus-translation":
        n = int(params.pop("N"))
        slope_target = params.pop("slope_hint", None)
        if "step" in params:
            step = tuple(params.pop("step"))
        else:
            if slope_target is None:
                raise ConstructionError("torus-translation needs step=(q,p) or slope_hint")
            p, q = continued_fraction_convergent(
                slope_target, params.pop("max_denominator", 128)
            )
            step = (q, p)
        _reject_extra(kind, params)
        return TorusTranslationSpace(
            group, n, step=step, slope_target=slope_target, atom_threshold=threshold
        )
    if kind == "bernoulli-window":
        alphabet = int(params.pop("alphabet", 2))
        radius = int(params.pop("window_radius"))
        _reject_extra(kind, params)
        return BernoulliWindowSpace(
            group, alphabet=alphabet, window_radius=radius, atom_threshold=threshold
        )
    if kind == "finite-permutation":
        perm = params.pop("permutation")
        weights = params.pop("weights", None)
        _reject_extra(kind, params)
        return FinitePermutationSpace(
            group, perm, weights=weights, atom_threshold=threshold
        )
    raise ConstructionError(f"unknown action kind {kind!r}")


def _reject_extra(kind: str, params: dict) -> None:
    if params:
        raise ConstructionError(
            f"unknown parameters for {kind}: {sorted(params)}"
        )
