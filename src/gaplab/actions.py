"""Discretized measure-preserving actions.

Every supported action is a one-parameter flow/shift: the acting group is
a 1-d lattice or a 1-d real grid, and the atom with grid coordinate c
acts by the c-th power of a fixed cell permutation sigma.  An
``ActionSpace`` is built from sigma alone, as an index array, and applies
every power of it in the coordinates of its cycles.  Four kinds:

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

The first two are one ``GridTranslationSpace`` on (Z/N)^d, d = 1 or 2.
A space answers its own geometry: ``grid_shape`` (the grid sides, None
without translation geometry), ``cell_ball`` and
``separation_radius``, and a grid also its ``translations``.  The other
two kinds supply sigma only, and their answers are None, single cells
and radius 0.  Code outside this module asks a space, never its class.

All action maps are bijections, so the cell weights are preserved exactly.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    ConstructionError,
    DescriptorMismatchError,
    GridResolutionError,
    PreconditionError,
    ResourceLimitError,
)
from .groups import TORUS_GRID, GroupDescriptor, _memory_bytes, _run_starts


#: bytes per cell that an action needs: the cycle table's build holds
#: three words per cell, sigma's buffer one of them, and the first read of
#: its coordinates at most 3.5 words, the keys included (the budgets that
#: tests/test_actions.py pins)
CELL_BYTES = 28


def _check_cells(cells: int, count: str) -> None:
    """Refuse an action of ``cells`` cells (written ``count``) whose build
    needs more than ``groups._memory_bytes``, before any cell-sized array
    exists."""
    if cells * CELL_BYTES > _memory_bytes():
        raise ResourceLimitError(
            f"{count} cells need {CELL_BYTES} bytes each to build, more than "
            f"the {_memory_bytes()} bytes this process may use"
        )


def continued_fraction_convergent(alpha: float, max_denominator: int) -> tuple[int, int]:
    """Best rational approximation p/q of alpha with q <= max_denominator."""
    frac = Fraction(alpha).limit_denominator(max_denominator)
    return frac.numerator, frac.denominator


#: cells per block of ``_reaches``
_BLOCK = 1 << 14


def _reaches(key: np.ndarray, distance: int, out: np.ndarray) -> bool:
    """Whether some key packs ``distance`` = 2^t - 1, the largest distance
    a window of 2^t cells holds: the keys' low t bits, their distances, go
    to the first block of ``out``, block by block up to the first block
    that holds it."""
    for start in range(0, key.size, _BLOCK):
        part = np.bitwise_and(key[start:start + _BLOCK], distance,
                              out=out[:min(_BLOCK, key.size - start)])
        if part.max() == distance:
            return True
    return False


class CycleTable:
    """The cycles of a cell permutation sigma as coordinates.

    ``lengths`` and ``counts`` give the cycle type, block by block in
    increasing L, and ``first_length`` is the length of the cycle of
    cell 0, the least cell of its cycle; the constructor builds only
    these, from one histogram of the distances to the least cells.
    ``slot`` lays the cells out cycle by cycle: the cycles of one length
    L fill one block of slots in the order of their least cells, and each
    cycle starts at its least cell and follows sigma, so sigma^c moves a
    cell at slot s of the cycle with first slot f to slot
    f + (s - f + c) mod L.  It is built on first use, in the keys'
    buffer, and is the one cell-sized array the table then holds: code
    that needs cells in slot order reads them through it.
    """

    def __init__(self, sigma: np.ndarray):
        """Build the cycle type of sigma, an int64 array that the table
        takes: its buffer is a work array of the build and is written
        over."""
        n = sigma.size
        after_zero = int(sigma[0])
        # pointer doubling: after t rounds key[i] packs (m, d) for the least
        # cell m among sigma^j(i), 0 <= j < W = 2^t, with sigma^d(i) = m; one
        # minimum merges two windows and keeps the nearer occurrence.  A
        # cycle of length L >= W holds the distance W - 1 (at the cell W - 1
        # steps short of its least cell) and a shorter one, which its
        # windows cover, never does, so the loop ends on the first merge
        # that leaves no key at W - 1.  Three arrays take turns: sigma's
        # power, the keys gathered at it and the old keys, whose array
        # takes the test's distances.  From the second round on the keys
        # stay in sigma's buffer, so the build frees both arrays it made:
        # a table holding one of them leaves the others to coalesce with
        # it when it goes, and the heap then shrinks below what the next
        # build needs, which faults its pages back in.  Every index is a
        # cell, so the gathers clip, which writes ``out`` directly
        self._shift = (2 * n).bit_length()
        key = np.arange(0, n << self._shift, 1 << self._shift, dtype=np.int64)
        ahead, spare = sigma, np.empty_like(key)
        # the first round's gathered keys key[sigma] are sigma << shift
        np.left_shift(sigma, self._shift, out=spare)
        span = 1
        while True:
            spare += span
            if key is sigma:
                np.minimum(key, spare, out=key)
            else:
                np.minimum(key, spare, out=spare)
                key, spare = spare, key
            span *= 2
            # sigma(0)'s key is (0, L - 1) once cell 0's cycle is covered,
            # so it is below W - 1 only if that cycle is shorter than W
            if key[after_zero] < span - 1 and not _reaches(key, span - 1, spare):
                break
            np.take(ahead, ahead, out=spare, mode="clip")
            ahead, spare = spare, ahead
            np.take(key, ahead, out=spare, mode="clip")
        # a cycle of length L holds each distance 0..L-1 once, so with h[d]
        # cells at distance d there are h[L-1] - h[L] cycles of length L.
        # The distances go to a work array, sigma's if the keys are not in
        # it, and the other is freed before the histogram, which has a bin
        # per distance; the counts then go to the distances' buffer
        if ahead is sigma:
            ahead, spare = spare, ahead
        del ahead
        np.bitwise_and(key, (1 << self._shift) - 1, out=spare)
        hist = np.bincount(spare)
        count = spare[:hist.size]
        np.subtract(hist[:-1], hist[1:], out=count[:-1])
        count[-1] = hist[-1]
        del hist
        self.lengths = np.nonzero(count)[0] + 1
        self.counts = count[self.lengths - 1]
        del spare, count
        self.first_length = int(key[after_zero]) + 1
        self._ends = np.cumsum(self.lengths * self.counts)
        self._key = key

    @cached_property
    def slot(self) -> np.ndarray:
        """Slot of each cell, built from the packed keys, whose buffer
        becomes it: a cell d steps short of its least cell m sits L - d
        slots after m, that is d slots before the end of m's cycle."""
        slot, shift = self._key, self._shift
        del self._key
        distance = slot & ((1 << shift) - 1)
        slot >>= shift
        heads = np.flatnonzero(distance == 0)  # the least cells, in order
        if self.lengths.size == 1:
            # the k-th least cell ends its cycle's slots at L (k + 1)
            size = int(self.lengths[0])
            end = np.empty(slot.size, dtype=np.int64)  # read at heads only
            end[heads] = np.arange(size, slot.size + 1, size)
        else:
            # the cells per least cell, then, in the same buffer, the end of
            # each cycle's slots: the least cells sorted by length packed
            # above them as m is in the keys (a length is below n too),
            # least cell first within one length
            end = np.bincount(slot, minlength=slot.size)
            size = end[heads]
            size <<= shift
            heads |= size
            del size
            heads.sort()
            size = heads >> shift
            heads &= (1 << shift) - 1
            end[heads] = np.cumsum(size)
        # out may alias the indices: the gather reads index i before it
        # writes element i
        np.take(end, slot, out=slot, mode="clip")
        del end
        slot -= distance
        slot[heads] -= size
        return slot

    def rows(self, values: np.ndarray):
        """Per cycle length L, ``values``, one per slot, as an array of
        shape (cycles, L), one cycle per row in sigma order."""
        for length, count, end in zip(self.lengths, self.counts, self._ends):
            yield int(length), values[end - length * count:end].reshape(count, length)

    def locate(self, slots):
        """First slot and length of the cycle through each slot (a block
        ends on a cycle boundary, so its end fixes the phase)."""
        k = np.searchsorted(self._ends, slots, side="right")
        length = self.lengths[k]
        return slots - (slots - self._ends[k]) % length, length


class ActionSpace:
    """Finite cell list, probability weights, and the action c -> sigma^c
    of one cell permutation sigma, applied through its cycles.

    sigma is an int64 array that the space takes: the cycle table's build
    writes over its buffer, so the caller hands in an array it does not
    read again.  Explicit weights must be invariant under sigma.
    ``cell_weight`` is the weight every cell carries, None where explicit
    weights differ.
    """

    def __init__(self, group: GroupDescriptor, kind: str, sigma: np.ndarray,
                 weights: np.ndarray | None = None):
        self.group = group
        self.kind = kind
        self.n_cells = int(sigma.size)
        if weights is None:  # one read-only value, not a cell-sized array
            self.cell_weight = 1.0 / self.n_cells
            self.weights = np.broadcast_to(self.cell_weight, (self.n_cells,))
        else:
            self.weights = weights = np.asarray(weights, dtype=float)
            if weights.shape != (self.n_cells,):
                raise ConstructionError("cell weights must give one weight per cell")
            if not np.isfinite(weights).all():  # NaN passes both checks below
                raise ConstructionError("cell weights must be finite")
            if abs(weights.sum() - 1.0) > 1e-12:
                raise ConstructionError("cell weights must sum to 1 within 1e-12")
            if (weights <= 0).any():
                raise ConstructionError("cell weights must be strictly positive")
            if not np.array_equal(weights[sigma], weights):
                raise ConstructionError("cell weights are not preserved by the permutation")
            self.cell_weight = float(weights[0]) if (weights == weights[0]).all() else None
        self.cycles = CycleTable(sigma)

    # -- the group action --------------------------------------------------

    def steps(self, cells: np.ndarray) -> np.ndarray:
        """The int64 step counts of one-parameter group elements, given as
        the (m, 1) array of their grid coordinates, the cells of a measure:
        the element with coordinate c acts as sigma^c."""
        if cells.ndim != 2 or cells.shape[1] != 1:
            raise DescriptorMismatchError(
                f"{self.kind} is a one-parameter action; got cells of shape {cells.shape}")
        if cells.dtype.kind not in "iu":
            raise DescriptorMismatchError(
                f"{self.kind} acts by integer steps; got coordinates {cells[:3, 0].tolist()}")
        return cells[:, 0].astype(np.int64)

    def cycle_lengths(self) -> dict[int, int]:
        """Cycle type of sigma: {cycle length L: number of cycles}."""
        return {int(n): int(c) for n, c in zip(self.cycles.lengths, self.cycles.counts)}

    def period(self, cell: int) -> int:
        """Length L of the cycle through the cell: sigma^c fixes it iff L
        divides c."""
        return int(self.cycles.locate(self.cycles.slot[cell])[1])

    def has_fixed_cell(self, steps) -> np.ndarray:
        """Per step count c, whether sigma^c fixes a cell: whether some
        cycle length divides c."""
        steps = np.asarray(steps, dtype=np.int64)
        return (steps[..., None] % self.cycles.lengths == 0).any(axis=-1)

    def base_orbit_mass(self, steps) -> float:
        """Mass of the closure of the base cell 0 under sigma^c for the
        given step counts c: every gcd(L, steps)-th cell of its cycle of
        length L, all of one weight."""
        length = self.cycles.first_length
        stride = math.gcd(length, *np.asarray(steps, dtype=np.int64).tolist())
        return float(self.weights[0] * (length // stride))

    # -- geometry ------------------------------------------------------------

    #: the sides of the cell grid that the action translates, row-major;
    #: None on a space without translation geometry
    grid_shape: tuple[int, ...] | None = None

    def cell_ball(self, center: int, radius: int) -> np.ndarray:
        """Cells within grid distance ``radius`` of the center cell."""
        if radius == 0:
            return np.array([center], dtype=np.int64)
        raise GridResolutionError(
            f"{self.kind} has no cell geometry beyond single cells"
        )

    def separation_radius(self, separators: np.ndarray) -> int:
        """Largest ball radius whose translates by the separator step
        counts stay disjoint: single cells, on a space without geometry."""
        return 0


class GridTranslationSpace(ActionSpace):
    """The grid (Z/N)^d, d = len(step), of N^d equal cells on the d-torus,
    indexed row-major; the atom with coordinate c translates by c * step.

    d = 1 is the circle rotation by ``step[0]`` cells, d = 2 the torus
    translation by the lattice vector (q, p), where p/q approximates the
    target slope (recorded as ``slope_target`` for continuum diagnostics).
    """

    def __init__(self, group: GroupDescriptor, n: int, step,
                 slope_target: float | None = None):
        self.grid_shape = (n,) * len(step)
        self.step = tuple(int(s) % side for s, side in zip(step, self.grid_shape))
        if not any(self.step):
            raise ConstructionError("translation step is trivial on this grid")
        _check_cells(math.prod(self.grid_shape), " x ".join(map(str, self.grid_shape)))
        self.slope_target = slope_target
        sigma = np.zeros((), dtype=np.int64)
        for s, side in zip(self.step, self.grid_shape):
            sigma = sigma[..., None] * side + (np.arange(side, dtype=np.int64) + s) % side
        kind = "circle-rotation" if len(self.step) == 1 else "torus-translation"
        super().__init__(group, kind, sigma.ravel())

    def translations(self, steps) -> np.ndarray:
        """The translation vector c * step, reduced mod the grid sides, of
        each step count c: shape (len(steps), d)."""
        return np.multiply.outer(np.asarray(steps, dtype=np.int64), self.step) % self.grid_shape

    def cell_ball(self, center, radius):
        if radius < 0:
            raise PreconditionError("radius must be >= 0")
        offs = np.arange(-radius, radius + 1, dtype=np.int64)
        cells = dist = np.zeros((), dtype=np.int64)
        for c, side in zip(np.unravel_index(int(center), self.grid_shape), self.grid_shape):
            cells = cells[..., None] * side + (c + offs) % side
            dist = dist[..., None] + offs * offs
        cells = np.sort(cells[dist <= radius * radius])
        # a ball wider than the grid meets itself
        return cells[_run_starts(cells)]

    def separation_radius(self, separators):
        """Below half the least torus distance by which a separator moves
        every cell (none moves by 0: it would fix the base cell, which the
        certificate walk rules out), or half the least side with none."""
        if len(separators) == 0:
            return min(self.grid_shape) // 2
        shift = self.translations(separators)
        shift = np.minimum(shift, np.subtract(self.grid_shape, shift))
        dmin = np.sqrt(np.square(shift).sum(axis=-1)).min()
        return max(math.ceil(dmin / 2) - 1, 0)


def build_action(kind: str, group: GroupDescriptor | None = None, **params) -> ActionSpace:
    """Construct an action space from keyword parameters.

    ``group`` defaults to the integer lattice Z.  Kind-specific:

    * circle-rotation:   N, cells_per_step (default 1)
    * torus-translation: N, step=(q, p) or slope_hint + max_denominator
                         (default 128)
    * bernoulli-window:  alphabet (default 2), window_radius
    * finite-permutation: permutation, weights (default equal)

    The integer fields are taken through ``operator.index``, so a float,
    even a whole one, raises ``ConstructionError`` naming its field;
    numpy integers pass.  ``cli.ACTIONS`` declares the types and least
    values, which the CLI checks.  A ``torus-grid`` group of size M
    drives sigma^c only when every cycle length of sigma divides M.
    """
    group = group or GroupDescriptor(kind="lattice", dimension=1)
    if group.dimension != 1 or group.kind == "free":
        raise ConstructionError("actions are driven by 1-d lattice or grid groups")
    if kind == "circle-rotation":
        step = _integer(params.get("cells_per_step", 1), "cells_per_step")
        space = GridTranslationSpace(group, _integer(params["N"], "N"), (step,))
    elif kind == "torus-translation":
        slope_target = params.get("slope_hint")
        if "step" in params:
            if "max_denominator" in params:
                raise ConstructionError("max_denominator picks the convergent of "
                                        "slope_hint; it cannot come with step")
            step = tuple(_integer(s, "step") for s in params["step"])
        elif slope_target is None:
            raise ConstructionError("torus-translation needs step=(q,p) or slope_hint")
        else:
            cap = _integer(params.get("max_denominator", 128), "max_denominator")
            p, q = continued_fraction_convergent(slope_target, cap)
            step = (q, p)
        if len(step) != 2:
            raise ConstructionError(
                f"translation step {step!r} must be a pair of integer cell counts"
            )
        space = GridTranslationSpace(group, _integer(params["N"], "N"), step,
                                     slope_target=slope_target)
    elif kind == "bernoulli-window":
        alphabet = _integer(params.get("alphabet", 2), "alphabet")
        width = 2 * _integer(params["window_radius"], "window_radius") + 1
        # a window of 64 letters or more has at least 2^64 cells, beyond any
        # memory, and the capped power stays cheap for any width
        _check_cells(alphabet ** min(width, 64), f"{alphabet}^{width}")
        space = ActionSpace(group, kind, _window_rotation(alphabet, width))
    elif kind == "finite-permutation":
        cells = len(params["permutation"])
        _check_cells(cells, str(cells))
        perm = np.array(params["permutation"])  # a copy: the space takes it
        if not perm.size:
            raise ConstructionError("permutation must list at least one cell")
        if perm.dtype.kind not in "iu":
            raise ConstructionError(
                f"permutation must list integer cells, got dtype {perm.dtype}")
        perm = perm.astype(np.int64, copy=False)
        # n cells in range, all of them hit, are a bijection
        hit = np.zeros(perm.size, dtype=bool)
        if perm.min() >= 0 and perm.max() < perm.size:
            hit[perm] = True
        if not hit.all():
            raise ConstructionError("permutation must be a bijection on 0..n-1")
        space = ActionSpace(group, kind, perm, params.get("weights"))
    else:
        raise ConstructionError(f"unknown action kind {kind!r}")
    # Z/M acts through c -> sigma^c only if sigma^M is the identity; the
    # remainders avoid forming the lcm of the lengths, which can overflow
    if group.kind == TORUS_GRID and (group.size % space.cycles.lengths).any():
        raise ConstructionError(
            f"the torus-grid group of size {group.size} cannot drive this "
            f"action: its cycle lengths {sorted(space.cycle_lengths())} do not "
            f"all divide {group.size}"
        )
    return space


def _integer(value, field: str) -> int:
    """An integer field as a Python int, through ``operator.index``; a
    ``bool`` is not taken for 0 or 1."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConstructionError(f"{field} must be an integer, got {value!r}")


def _window_rotation(alphabet: int, width: int) -> np.ndarray:
    """sigma of the Bernoulli window: the words of ``width`` letters with
    their digits most significant first, the leading digit moved to the
    end: i -> (i mod a^(w-1)) a + i div a^(w-1)."""
    rest = np.arange(alphabet ** (width - 1), dtype=np.int64)
    rest *= alphabet
    return (rest + np.arange(alphabet, dtype=np.int64)[:, None]).ravel()

