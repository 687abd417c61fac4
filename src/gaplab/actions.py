"""Discretized measure-preserving actions.

Every supported action is a one-parameter flow/shift: the acting group is
a 1-d lattice or a 1-d real grid, and the atom with grid coordinate c
acts by the c-th power of a fixed cell permutation.  Four kinds:

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


class ActionSpace:
    """Base class: finite cell list, probability weights, group action."""

    kind: str = "abstract"

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

    def steps_of(self, g: Element) -> int:
        """Grid coordinate of a 1-parameter group element."""
        if len(g) != 1:
            raise DescriptorMismatchError(
                f"{self.kind} is a one-parameter action; got element {g}"
            )
        return int(g[0])

    def act_indices(self, g: Element, idx: np.ndarray) -> np.ndarray:
        """Forward action on cell indices: i -> index(g * cell_i)."""
        raise NotImplementedError

    def koopman_permutation(self, g: Element) -> np.ndarray:
        """Index array P with (pi(g) phi)[i] = phi[P[i]], i.e. P[i] = idx(g^{-1} cell_i)."""
        return self.act_indices(self.group.inverse(g), np.arange(self.n_cells))

    def cycle_lengths(self) -> dict[int, int]:
        """Cycle type of the generator sigma: {cycle length L: number of cycles}.

        The generic rule walks the cycles of sigma = the action of the
        element with coordinate 1 once, in time linear in the cell count.
        """
        sigma = self.act_indices((1,), np.arange(self.n_cells)).tolist()
        seen = [False] * self.n_cells
        counts: dict[int, int] = {}
        for start in range(self.n_cells):
            if seen[start]:
                continue
            length, i = 0, start
            while not seen[i]:
                seen[i] = True
                i = sigma[i]
                length += 1
            counts[length] = counts.get(length, 0) + 1
        return counts

    def has_fixed_cell(self, g: Element) -> bool:
        idx = np.arange(self.n_cells)
        return bool((self.act_indices(g, idx) == idx).any())

    def orbit(self, start: int, elements) -> np.ndarray:
        """Closure of a cell under repeated application of the given atoms."""
        elements = list(elements)
        seen = {int(start)}
        frontier = np.array([int(start)], dtype=np.int64)
        while frontier.size:
            images = np.unique(
                np.concatenate([self.act_indices(g, frontier) for g in elements])
            )
            fresh = np.array([i for i in images.tolist() if i not in seen],
                             dtype=np.int64)
            seen.update(fresh.tolist())
            frontier = fresh
        return np.array(sorted(seen), dtype=np.int64)

    # -- geometry ------------------------------------------------------------

    def cell_ball(self, center: int, radius: int) -> np.ndarray:
        """Cells within grid distance ``radius`` of the center cell."""
        if radius == 0:
            return np.array([center], dtype=np.int64)
        raise GridResolutionError(
            f"{self.kind} has no cell geometry beyond single cells"
        )

    # -- fast-path hooks -------------------------------------------------------

    @property
    def is_translation(self) -> bool:
        """True when every atom acts by a global grid translation."""
        return False

    def mass_of(self, idx: np.ndarray) -> float:
        return float(self.weights[idx].sum())


class CircleRotationSpace(ActionSpace):
    """N cells on the circle; the atom with coordinate c rotates by c*p cells."""

    kind = "circle-rotation"

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

    def shift_of(self, g: Element) -> int:
        return (self.steps_of(g) * self.cells_per_step) % self.n

    def act_indices(self, g, idx):
        return (idx + self.shift_of(g)) % self.n

    def has_fixed_cell(self, g):
        return self.shift_of(g) == 0

    def cycle_lengths(self):
        cycles = math.gcd(self.n, self.cells_per_step)
        return {self.n // cycles: cycles}

    def cell_ball(self, center, radius):
        if radius < 0:
            raise PreconditionError("radius must be >= 0")
        if 2 * radius + 1 >= self.n:
            return np.arange(self.n, dtype=np.int64)
        return np.sort((center + np.arange(-radius, radius + 1)) % self.n).astype(np.int64)

    @property
    def is_translation(self):
        return True

    def translation_vector(self, g: Element) -> tuple[int, ...]:
        return (self.shift_of(g),)

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

    def vector_of(self, g: Element) -> tuple[int, int]:
        c = self.steps_of(g)
        return ((c * self.step[0]) % self.n, (c * self.step[1]) % self.n)

    def act_indices(self, g, idx):
        a, b = self.vector_of(g)
        rows = idx // self.n
        cols = idx % self.n
        return ((rows + a) % self.n) * self.n + (cols + b) % self.n

    def has_fixed_cell(self, g):
        return self.vector_of(g) == (0, 0)

    def cycle_lengths(self):
        length = self.n // math.gcd(self.n, *self.step)
        return {length: self.n_cells // length}

    def cell_ball(self, center, radius):
        if radius < 0:
            raise PreconditionError("radius must be >= 0")
        ci, cj = divmod(int(center), self.n)
        offs = range(-radius, radius + 1)
        cells = [
            ((ci + di) % self.n) * self.n + (cj + dj) % self.n
            for di in offs
            for dj in offs
            if di * di + dj * dj <= radius * radius
        ]
        return np.array(sorted(set(cells)), dtype=np.int64)

    @property
    def is_translation(self):
        return True

    def translation_vector(self, g: Element) -> tuple[int, ...]:
        return self.vector_of(g)

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
    (uniform) weights.  The shift by one acts by a cyclic rotation of the
    window; under the product measure the wrapped-around symbol has
    exactly the marginal law of the refreshed boundary, so the rotation
    is a measure-exact bijective model of the shift compression.
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
        n_cells = alphabet ** self.window
        super().__init__(group, n_cells, **kw)
        # digit decomposition of every cell index, most significant first
        idx = np.arange(n_cells)
        digits = np.empty((self.window, n_cells), dtype=np.int64)
        for pos in range(self.window - 1, -1, -1):
            digits[pos] = idx % alphabet
            idx = idx // alphabet
        self._digits = digits
        self._powers = alphabet ** np.arange(self.window - 1, -1, -1, dtype=np.int64)

    def rotation_of(self, g: Element) -> int:
        return self.steps_of(g) % self.window

    def act_indices(self, g, idx):
        r = self.rotation_of(g)
        if r == 0:
            return idx.copy()
        digits = self._digits[:, idx]
        rotated = np.roll(digits, -r, axis=0)
        return self._powers @ rotated

    def cycle_lengths(self):
        """sigma^window is the identity, so a cell's cycle length is the
        least r <= window with sigma^r(i) = i: one gather per r."""
        idx = np.arange(self.n_cells)
        sigma = self.act_indices((1,), idx)
        period = np.zeros(self.n_cells, dtype=np.int64)
        image = idx
        for r in range(1, self.window + 1):
            image = sigma[image]
            period[(period == 0) & (image == idx)] = r
        lengths, cells = np.unique(period, return_counts=True)
        return {int(n): int(c) // int(n) for n, c in zip(lengths, cells)}


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
        self._inv = np.argsort(perm)

    def act_indices(self, g, idx):
        c = self.steps_of(g)
        forward = self._perm if c >= 0 else self._inv
        out = idx.copy()
        for _ in range(abs(c)):
            out = forward[out]
        return out


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
