"""The single action path: every power of sigma, cycle types, orbits,
dilations and correlations read off the cycle coordinates, checked
against sigma iterated step by step."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from operator_helpers import act_indices, segment_mask, slot_cells

from gaplab import (
    ConstructionError,
    DescriptorMismatchError,
    GroupDescriptor,
    GroupMeasure,
    PreconditionError,
    ResourceLimitError,
    build_action,
    power_set,
)
from gaplab.actions import (
    _BLOCK,
    CELL_BYTES,
    ActionSpace,
    CycleTable,
    _window_rotation,
)
from gaplab.certificates import (
    _arc_segments,
    _cell_weight,
    _count,
    _pair_correlations,
    _slot_segments,
    _step_powers,
)
from gaplab.koopman import check_hypotheses

Z = GroupDescriptor(kind="lattice", dimension=1)


def arc_segments(space, steps, idx):
    """The arc segments of the union of sigma^c cells over the step counts
    c, from the half-open runs of the distinct steps (those of S^1) and
    the slot segments of the cells."""
    runs = _step_powers(Z, np.unique(np.asarray(steps, dtype=np.int64)), 1)[1]
    return _arc_segments(space, runs, _slot_segments(space, np.asarray(idx)))


def arc_mask(space, steps, idx):
    """The union of sigma^c cells over the step counts c, as a mask over
    the cells, from its arc segments."""
    return segment_mask(space, *arc_segments(space, steps, idx))


def reference_sigma(kind, kw):
    """The generator of each kind, written out from its definition."""
    if kind == "circle-rotation":
        return [(i + kw["cells_per_step"]) % kw["N"] for i in range(kw["N"])]
    if kind == "torus-translation":
        n, (q, p) = kw["N"], kw["step"]
        return [((i // n + q) % n) * n + (i % n + p) % n for i in range(n * n)]
    if kind == "bernoulli-window":
        return rotated_words(kw["alphabet"], 2 * kw["window_radius"] + 1)
    return list(kw["permutation"])


def rotated_words(a, w):
    """The words of w letters over a letters, digits most significant
    first, each sent to the word with its leading digit moved to the end."""
    out = []
    for i in range(a ** w):
        digits = [(i // a ** (w - 1 - k)) % a for k in range(w)]
        rotated = digits[1:] + digits[:1]
        out.append(sum(d * a ** (w - 1 - k) for k, d in enumerate(rotated)))
    return out


def power(sigma, c):
    """sigma^c as a list, by |c| steps of sigma or of its inverse."""
    step = sigma if c >= 0 else [sigma.index(i) for i in range(len(sigma))]
    out = list(range(len(sigma)))
    for _ in range(abs(c)):
        out = [step[i] for i in out]
    return out


def bfs_orbit(sigma, start, steps):
    powers = [power(sigma, c) for c in steps]
    seen, frontier = {start}, [start]
    while frontier:
        frontier = [p[i] for i in frontier for p in powers if p[i] not in seen]
        seen.update(frontier)
    return sorted(seen)


# cycles of unequal lengths, weights constant on each cycle but not
# uniform, and two cycles of each of the lengths 1 and 3 that weigh
# differently
UNEVEN_CYCLES = [(0, 3, 7, 1, 9), (2, 5, 10), (4, 8, 6, 11), (12,),
                 (13, 16, 14), (15,)]


def uneven_space():
    perm = np.empty(17, dtype=np.int64)
    weights = np.empty(17)
    for cycle, mass in zip(UNEVEN_CYCLES, (0.3, 0.2, 0.2, 0.1, 0.15, 0.05)):
        perm[list(cycle)] = np.roll(cycle, -1)
        weights[list(cycle)] = mass / len(cycle)
    return build_action("finite-permutation", group=Z,
                        permutation=perm.tolist(), weights=weights)


SPACES = [
    ("circle-rotation", dict(N=24, cells_per_step=9)),
    ("circle-rotation", dict(N=15, cells_per_step=4)),
    ("torus-translation", dict(N=8, step=(2, 4))),
    ("torus-translation", dict(N=6, step=(1, 2))),
    ("bernoulli-window", dict(alphabet=2, window_radius=1)),
    ("bernoulli-window", dict(alphabet=3, window_radius=1)),
    ("finite-permutation", dict(permutation=[3, 0, 4, 1, 2, 6, 5, 7])),
]


@pytest.mark.parametrize("kind,kw", SPACES)
def test_act_indices_is_sigma_iterated(kind, kw):
    space = build_action(kind, group=Z, **kw)
    sigma = reference_sigma(kind, kw)
    assert act_indices(space, 1, np.arange(space.n_cells)).tolist() == sigma
    longest = max(space.cycle_lengths())
    idx = np.arange(space.n_cells)
    for c in range(-2 * longest, 2 * longest + 1):
        assert act_indices(space, c, idx).tolist() == power(sigma, c), c
    picked = idx[::3][::-1]
    assert act_indices(space, 5, picked).tolist() == [
        power(sigma, 5)[i] for i in picked]


def test_steps_of_elements():
    space = build_action("circle-rotation", group=Z, N=8)
    steps = space.steps(np.array([[3], [-2], [0]]))
    assert steps.dtype == np.int64 and steps.tolist() == [3, -2, 0]
    assert space.steps(GroupMeasure.simple_random_walk(Z).cells).tolist() == [1, -1]
    assert space.steps(np.empty((0, 1), dtype=np.int64)).dtype == np.int64
    with pytest.raises(DescriptorMismatchError, match="one-parameter action"):
        space.steps(np.array([[1, 2], [2, 3]]))
    with pytest.raises(DescriptorMismatchError, match="one-parameter action"):
        space.steps(np.array([1, 2]))
    with pytest.raises(DescriptorMismatchError, match="integer steps"):
        space.steps(np.array([[1], [1.5]]))


@pytest.mark.parametrize("kind,kw", SPACES)
def test_orbit_and_fixed_cells_match_bfs(kind, kw):
    space = build_action(kind, group=Z, **kw)
    sigma = reference_sigma(kind, kw)
    longest = max(space.cycle_lengths())
    assert space.cycles.first_length == len(bfs_orbit(sigma, 0, [1]))
    for steps in ([], [0], [1], [2], [-3], [2, 3], [4, -6], [longest]):
        want = space.weights[bfs_orbit(sigma, 0, steps)].sum()
        assert space.base_orbit_mass(steps) == pytest.approx(want, abs=1e-15), steps
    for c in range(-2 * longest, 2 * longest + 1):
        moved = power(sigma, c)
        fixed = any(moved[i] == i for i in range(space.n_cells))
        assert space.has_fixed_cell(c) == fixed, c
    for cell in range(space.n_cells):
        assert space.period(cell) == len(bfs_orbit(sigma, cell, [1]))


def test_cycle_table_of_uneven_permutation():
    space = uneven_space()
    assert space.cycle_lengths() == {1: 2, 3: 2, 4: 1, 5: 1}
    table = space.cycles
    assert sorted(table.slot.tolist()) == list(range(17))
    rows = [row.tolist() for _, cells in table.rows(slot_cells(space)) for row in cells]
    assert rows == [[12], [15], [2, 5, 10], [13, 16, 14], [4, 8, 6, 11],
                    [0, 3, 7, 1, 9]]
    for row in rows:
        assert act_indices(space, 1, np.array(row)).tolist() == row[1:] + row[:1]


def test_large_cycle_type():
    lengths = [1, 2, 2, 7, 64, 1000, 3000]
    labels = np.random.default_rng(3).permutation(sum(lengths))
    perm = np.empty(sum(lengths), dtype=np.int64)
    start = 0
    for length in lengths:
        cycle = labels[start:start + length]
        perm[cycle] = np.roll(cycle, -1)
        start += length
    space = build_action("finite-permutation", group=Z, permutation=perm.tolist())
    assert space.cycle_lengths() == {1: 1, 2: 2, 7: 1, 64: 1, 1000: 1, 3000: 1}
    idx = np.arange(space.n_cells)
    image = idx
    for _ in range(5):
        image = perm[image]
    assert np.array_equal(act_indices(space, 5, idx), image)
    assert np.array_equal(act_indices(space, -5, image), idx)


def walked_cycle_table(sigma):
    """(slot, lengths, counts, length of cell 0's cycle) by walking each
    cycle from its least cell; cycles sorted by length, least cell first
    within one length."""
    seen = [False] * len(sigma)
    cycles = []
    for start in range(len(sigma)):  # so every cycle starts at its least cell
        cycle = []
        cell = start
        while not seen[cell]:
            seen[cell] = True
            cycle.append(cell)
            cell = sigma[cell]
        if cycle:
            cycles.append(cycle)
    cycles.sort(key=len)  # stable: keeps least-cell order within a length
    order = [cell for cycle in cycles for cell in cycle]
    slot = [0] * len(order)
    for s, cell in enumerate(order):
        slot[cell] = s
    lengths = sorted({len(cycle) for cycle in cycles})
    counts = [sum(len(cycle) == n for cycle in cycles) for n in lengths]
    first_length = next(len(cycle) for cycle in cycles if cycle[0] == 0)
    return slot, lengths, counts, first_length


def consecutive_cycles(lengths):
    """A permutation whose cycles of the given lengths run over consecutive
    cells, in the order given."""
    starts = np.cumsum([0, *lengths[:-1]]).tolist()
    return [s + (j + 1) % n for s, n in zip(starts, lengths) for j in range(n)]


def assert_cycle_table_is_walk(sigma):
    """The cycle type and the length of cell 0's cycle before and after
    ``slot`` is built, and ``slot`` itself, against the walked cycles; the
    keys go once ``slot`` holds their buffer."""
    want = walked_cycle_table(sigma)
    table = CycleTable(np.array(sigma, dtype=np.int64))
    cycle_type = (table.lengths.tolist(), table.counts.tolist(), table.first_length)
    assert cycle_type == want[1:]
    assert "slot" not in table.__dict__
    got = (table.slot.tolist(), table.lengths.tolist(), table.counts.tolist(),
           table.first_length)
    assert got == want
    assert "_key" not in table.__dict__


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sigma=st.integers(1, 300).flatmap(lambda n: st.permutations(range(n))))
def test_cycle_table_matches_walk(sigma):
    assert_cycle_table_is_walk(list(sigma))


@pytest.mark.parametrize("sigma", [
    [0],  # n = 1
    list(range(12)),  # the identity
    list(range(1, 1025)) + [0],  # one cycle longer than a power of two
    [5, 6, 7, 4, 0, 2, 3, 1],  # one 8-cycle: 0 5 2 7 1 6 3 4
    [i ^ 1 for i in range(16)],  # all 2-cycles
    [1, 0, 2, 4, 5, 3, 7, 8, 9, 10, 6],  # lengths 2, 1, 3 and 5
    # the first merge reads sigma << shift, not a gather: the identity
    # ends the loop there, and a cycle of length 2^t is covered by the
    # window of round t
    list(range(1000)),
    [0, 2, 1, 3, 5, 4, 6, 9, 8, 7, 10],  # an involution with fixed points
    consecutive_cycles([1, 2, 4, 8, 16]),
    consecutive_cycles([16, 8, 4, 2, 1]),
    # one cycle on each side of a power of two: the loop ends on the merge
    # whose windows cover it, one round after it for a power of two
    *(consecutive_cycles([length]) for length in (7, 8, 9, 1023, 1024, 1025)),
    # the longest cycle not a power of two, and cell 0's cycle shorter than
    # it: sigma(0)'s key settles the rounds only while that cycle is open
    consecutive_cycles([3, 11, 1, 6, 11, 2]),
    consecutive_cycles([4, 9, 1, 9]),
], ids=["n1", "identity", "long-cycle", "shuffled-cycle", "two-cycles", "mixed",
        "identity-1000", "involution", "powers-of-two", "powers-of-two-down",
        "cycle-7", "cycle-8", "cycle-9", "cycle-1023", "cycle-1024", "cycle-1025",
        "mixed-longest-11",
        "first-4-longest-9"])
def test_cycle_table_special_permutations(sigma):
    assert_cycle_table_is_walk(sigma)


def test_identity_builds_without_a_gather(monkeypatch):
    """The first round gathers nothing; each later round gathers sigma's
    next power and the keys at it, and the loop ends on the merge that
    completes the windows: the 9-cycle stops at windows of 16 cells (6
    gathers; a test for unchanged keys took a round more, 8), the 8-cycle
    at 16 too, since the windows of 8 still hold the distance 7."""
    take, calls = np.take, []

    def spy(*args, **kwargs):
        calls.append(args[0].size)
        return take(*args, **kwargs)

    monkeypatch.setattr(np, "take", spy)
    CycleTable(np.arange(1000, dtype=np.int64))
    assert calls == []
    CycleTable(np.array([1, 0, 2], dtype=np.int64))  # distance 1 at W = 2: one round more
    assert calls == [3, 3]
    for length in (9, 8):
        calls.clear()
        CycleTable(np.array(consecutive_cycles([length]), dtype=np.int64))
        assert calls == [length] * 6


def test_cycle_table_beyond_one_block():
    """Permutations of more cells than one block of the distance test:
    one whose windows are still short after the first round only in the
    second block (cell 0 is fixed, so sigma(0)'s key settles nothing),
    and a random one."""
    assert _BLOCK < 70_000
    tail = np.random.default_rng(8).permutation(np.arange(_BLOCK, _BLOCK + 1000))
    sigma = np.arange(_BLOCK + 1000)
    sigma[tail] = np.roll(tail, -1)
    assert_cycle_table_is_walk(sigma.tolist())
    assert_cycle_table_is_walk(np.random.default_rng(9).permutation(70_000).tolist())


@pytest.mark.parametrize("alphabet,width", [
    (2, 1), (2, 2), (2, 5), (3, 1), (3, 3), (4, 4), (5, 2),
])
def test_window_rotation_is_digit_rotation(alphabet, width):
    sigma = _window_rotation(alphabet, width)
    assert sigma.dtype == np.int64
    assert sigma.tolist() == rotated_words(alphabet, width)


def torus_sigma(n, q, p):
    """The torus translation by (q, p) on n x n cells, one array of n^2
    cells built (the other arrays have n cells)."""
    row = (np.arange(n, dtype=np.int64) + q) % n * n
    return (row[:, None] + (np.arange(n, dtype=np.int64) + p) % n).ravel()


def traced_memory(build):
    """(bytes still held, peak bytes) of what numpy and Python allocate
    while ``build`` runs, its result dropped."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def traced_peak(build):
    """Peak bytes that numpy and Python allocate while ``build`` runs."""
    return traced_memory(build)[1]


@pytest.mark.parametrize("make_sigma,cells", [
    (lambda: _window_rotation(4, 9), 4**9),
    (lambda: torus_sigma(512, 3, 7), 512**2),
    (lambda: np.random.default_rng(5).permutation(10**5), 10**5),
], ids=["window-4^9", "torus-512", "permutation-1e5"])
def test_cycle_table_memory_budget(make_sigma, cells):
    """The build, sigma made inside it, holds three words per cell: the
    keys, sigma's buffer and one work array, and no cell-sized bool; the
    default weights add no array.  The first read of the coordinates turns
    the keys' buffer into ``slot`` and holds 3.5 words with the keys;
    after it the table holds no cell-sized array but ``slot``.
    ``CELL_BYTES`` charges the larger of the two."""
    word = 8 * cells
    build, first_read = 3.13, 3.5
    assert CELL_BYTES == 8 * max(build, first_read)
    assert traced_peak(lambda: CycleTable(make_sigma())) <= build * word
    assert traced_peak(lambda: ActionSpace(Z, "test", make_sigma())) <= build * word
    table = CycleTable(make_sigma())
    held, peak = traced_memory(lambda: table.slot)
    assert peak + word <= first_read * word
    assert held < 0.01 * word
    assert (np.bincount(table.slot, minlength=cells) == 1).all()


def test_finite_permutation_leaves_the_callers_array_unchanged():
    perm = np.random.default_rng(2).permutation(1000)
    kept = perm.copy()
    space = build_action("finite-permutation", group=Z, permutation=perm)
    assert np.array_equal(perm, kept)
    assert np.array_equal(act_indices(space, 1, np.arange(1000)), kept)


def test_default_weights_are_one_read_only_value():
    space = build_action("bernoulli-window", group=Z, alphabet=3, window_radius=1)
    assert not space.weights.flags.writeable
    assert space.weights.shape == (27,)
    assert np.all(space.weights == 1 / 27)


@pytest.mark.parametrize("kind,kw,count", [
    ("torus-translation", dict(N=200_000, step=(1, 3)), "200000 x 200000 cells"),
    ("circle-rotation", dict(N=10**15), "1000000000000000 cells"),
    ("bernoulli-window", dict(alphabet=16, window_radius=10), "16^21 cells"),
    ("bernoulli-window", dict(alphabet=2, window_radius=10**6), "2^2000001 cells"),
])
def test_oversized_action_is_refused_before_it_is_built(kind, kw, count):
    def refuse():
        with pytest.raises(ResourceLimitError, match=re.escape(count)):
            build_action(kind, group=Z, **kw)

    assert traced_peak(refuse) < 10**6


def test_permutation_must_be_a_bijection():
    for perm in ([0, 0, 1], [1, 2, 3], [0, -1], [2, 2, 2], [3, 0, 1]):
        with pytest.raises(ConstructionError, match="must be a bijection on 0..n-1"):
            build_action("finite-permutation", group=Z, permutation=perm)


def test_weights_must_be_invariant():
    # the first weights differ on every cell of the 3-cycle, the second
    # agree on the fixed cell and on two cells of the 3-cycle
    for weights in ([0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.3, 0.2]):
        with pytest.raises(ConstructionError,
                           match="^cell weights are not preserved by the permutation$"):
            build_action("finite-permutation", group=Z, permutation=[1, 2, 0, 3],
                         weights=weights)
    space = build_action("finite-permutation", group=Z, permutation=[1, 0, 2, 3],
                         weights=[0.25, 0.25, 0.3, 0.2])
    assert space.cycle_lengths() == {1: 2, 2: 1}


@pytest.mark.parametrize("weights,message", [
    ([0.5, 0.5, 0.5], "must give one weight per cell"),
    ([0.25, 0.25, 0.25, 0.3], "must sum to 1 within 1e-12"),
    ([0.5, 0.5, 0.0, 0.0], "must be strictly positive"),
    ([0.5, 0.5, 0.1, -0.1], "must be strictly positive"),
    # a NaN fails every comparison, so it passed the sum and sign checks
    # and was reported as not preserved by the permutation
    ([np.nan, np.nan, 0.5, 0.5], "must be finite"),
    ([0.5, 0.5, np.nan, 0.5], "must be finite"),
    ([np.inf, 0.5, 0.25, 0.25], "must be finite"),
])
def test_explicit_weights_are_checked(weights, message):
    with pytest.raises(ConstructionError, match=f"^cell weights {message}$"):
        build_action("finite-permutation", group=Z, permutation=[1, 0, 2, 3],
                     weights=weights)


class ReadRecorder(np.ndarray):
    """An array that records every index and every ufunc it meets: a
    gather, a comparison or a sum of it leaves an entry."""

    reads: list = []

    def __getitem__(self, index):
        ReadRecorder.reads.append(index)
        return super().__getitem__(index)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        ReadRecorder.reads.append(f"{ufunc.__name__}.{method}")
        inputs = [x.view(np.ndarray) if isinstance(x, ReadRecorder) else x
                  for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("build", [
    lambda: build_action("bernoulli-window", group=Z, alphabet=4, window_radius=2),
    lambda: build_action("torus-translation", group=Z, N=64, step=(3, 5)),
    lambda: build_action("finite-permutation", group=Z, permutation=[2, 0, 1, 3]),
    lambda: ActionSpace(Z, "test", np.arange(1, 101, dtype=np.int64) % 100),
], ids=["window", "torus", "permutation", "direct"])
def test_default_weights_are_not_checked(monkeypatch, build):
    """The default weights are correct by construction: the build reads
    them not once, so it forms no gather, compare or sum over the cells.
    Nor do the atom check of ``check_hypotheses`` and the certificate's
    weight check: they read the cell weight the build recorded."""
    broadcast, equal_calls = np.broadcast_to, []
    monkeypatch.setattr(ReadRecorder, "reads", [])
    monkeypatch.setattr(np, "broadcast_to",
                        lambda *a, **kw: broadcast(*a, **kw).view(ReadRecorder))
    monkeypatch.setattr(np, "array_equal", lambda *a, **kw: equal_calls.append(a))
    space = build()
    assert isinstance(space.weights, ReadRecorder)
    assert ReadRecorder.reads == []
    assert equal_calls == []
    assert not space.weights.flags.writeable
    assert space.weights.strides == (0,)
    assert space.cell_weight == _cell_weight(space) == 1 / space.n_cells
    # a cell of mass 1/n >= 0.05 is an atom
    violations = check_hypotheses(space, GroupMeasure.point_mass(Z, (0,)))
    assert bool(violations) == (space.n_cells <= 20)
    assert ReadRecorder.reads == []


def test_explicit_weights_record_a_common_weight():
    """Equal explicit weights record their weight; unequal ones record
    none, so the atom check takes their maximum and certificates refuse."""
    equal = build_action("finite-permutation", group=Z, permutation=[1, 0, 2, 3],
                         weights=[0.25] * 4)
    assert equal.cell_weight == _cell_weight(equal) == 0.25
    unequal = build_action("finite-permutation", group=Z, permutation=[1, 0, 2, 3],
                           weights=[0.25, 0.25, 0.3, 0.2])
    assert unequal.cell_weight is None
    assert check_hypotheses(unequal, GroupMeasure.point_mass(Z, (0,))) == [
        "atomless surrogate fails: a cell carries mass 0.3 >= threshold 0.05"]
    with pytest.raises(PreconditionError, match="equal-weight cell grid"):
        _cell_weight(unequal)


@pytest.mark.parametrize("kind,kw,field", [
    ("torus-translation", dict(N=16.5, step=(3, 5)), "N"),
    ("torus-translation", dict(N=16, step=(3.7, 5)), "step"),
    ("torus-translation", dict(N=16, slope_hint=0.6, max_denominator=8.5),
     "max_denominator"),
    ("circle-rotation", dict(N=16, cells_per_step=2.5), "cells_per_step"),
    ("bernoulli-window", dict(window_radius=1.5), "window_radius"),
    ("bernoulli-window", dict(alphabet=2.5, window_radius=1), "alphabet"),
    ("finite-permutation", dict(permutation=[1.7, 0.2, 2.9]), "permutation"),
])
def test_integer_fields_refuse_other_numbers(kind, kw, field):
    with pytest.raises(ConstructionError, match=f"^{field} must "):
        build_action(kind, group=Z, **kw)


@pytest.mark.parametrize("kind,kw,field", [
    ("circle-rotation", dict(N=16, cells_per_step=True), "cells_per_step"),
    ("circle-rotation", dict(N=True), "N"),
    ("torus-translation", dict(N=16, step=(True, 3)), "step"),
])
def test_integer_fields_refuse_bools(kind, kw, field):
    # operator.index(True) is 1, so a bool would pass for an integer
    with pytest.raises(ConstructionError, match=f"^{field} must be an integer, got True$"):
        build_action(kind, group=Z, **kw)


def test_integer_fields_take_numpy_integers():
    space = build_action("torus-translation", group=Z, N=np.int64(16),
                         step=(np.int32(-3), np.uint8(21)))
    assert space.grid_shape == (16, 16)
    assert space.step == (13, 5)
    assert all(type(s) is int for s in space.grid_shape + space.step)
    space = build_action("finite-permutation", group=Z,
                         permutation=np.array([1, 0, 2], dtype=np.uint8))
    assert space.cycle_lengths() == {1: 1, 2: 1}
    with pytest.raises(ConstructionError, match="at least one cell"):
        build_action("finite-permutation", group=Z, permutation=[])


def sigma_of(space):
    return act_indices(space, 1, np.arange(space.n_cells)).tolist()


def gathered_union(space, steps, idx):
    sigma = sigma_of(space)
    powers = {c: power(sigma, c) for c in set(steps)}
    cells = {powers[c][i] for c in steps for i in idx}
    return sorted(cells)


def powers_of(sigma, steps):
    """sigma^c as a list for each step count c, stepping up from the least."""
    out = {}
    wanted = sorted(set(steps))
    if wanted:
        at, current = wanted[0], power(sigma, wanted[0])
        for c in wanted:
            for _ in range(c - at):
                current = [sigma[i] for i in current]
            at, out[c] = c, current
    return out


def gathered_correlations(space, steps, a, b):
    """sum_x nu_x a(sigma^-c x) b(x) per step count c, by iterating sigma.

    The integer terms a(sigma^-c x) b(x) are added per block of cycles of
    one length and one weight, and each block total is weighted once,
    blocks in order of length, then weight: on a grid of one cell weight,
    the order of the lab's sums, so that the results compare with ==.
    """
    sigma = sigma_of(space)
    blocks = [(len(bfs_orbit(sigma, x, [1])), space.weights[x])
              for x in range(space.n_cells)]
    backs = powers_of(sigma, [-c for c in steps])  # (pi(g) a)(x) = a(g^{-1} x)
    out = []
    for c in steps:
        back = backs[-c]
        counts = {}
        for x, block in enumerate(blocks):
            counts[block] = counts.get(block, 0) + int(a[back[x]] * b[x])
        total = 0.0
        for block in sorted(counts):
            total += block[1] * counts[block]
        out.append(total)
    return out


def indicator(space, cells):
    ind = np.zeros(space.n_cells, dtype=np.int64)
    ind[cells] = 1
    return ind


CERTIFICATE_SPACES = [
    ("torus-translation", dict(N=8, step=(3, 2))),
    ("torus-translation", dict(N=8, step=(2, 4))),
    ("bernoulli-window", dict(alphabet=2, window_radius=2)),
    ("circle-rotation", dict(N=30, cells_per_step=12)),
]


@pytest.mark.parametrize("space", [
    build_action(kind, group=Z, **kw) for kind, kw in CERTIFICATE_SPACES
], ids=[kind for kind, _ in CERTIFICATE_SPACES])
def test_dilation_and_correlation_match_gathers(space):
    rng = np.random.default_rng(5)
    steps = [0, 1, -1, 2, -7, 11]
    for trial in range(4):
        idx = np.sort(rng.choice(space.n_cells, size=1 + trial * 3, replace=False))
        assert np.flatnonzero(arc_mask(space, steps, idx)).tolist() == (
            gathered_union(space, steps, idx))
        ind = indicator(space, idx)
        got = _pair_correlations(space, steps, *_slot_segments(space, idx),
                                 space.weights[0])
        assert got.shape == (len(steps),)
        assert got.tolist() == gathered_correlations(space, steps, ind, ind)


# one space of each kind with cycles of several lengths (the circle's
# single cycle of 15 is the longest), and the uneven permutation with its
# unequal cycle weights
ARC_SPACES = [
    ("circle-rotation", dict(N=15, cells_per_step=4)),
    ("circle-rotation", dict(N=24, cells_per_step=9)),
    ("torus-translation", dict(N=6, step=(1, 2))),
    ("bernoulli-window", dict(alphabet=3, window_radius=1)),
    ("finite-permutation", dict(permutation=[3, 0, 4, 1, 2, 6, 5, 7])),
]

# nonempty step sets with gaps, negative and duplicate steps, and runs of
# consecutive steps both shorter and longer than every cycle
step_lists = st.tuples(
    st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 20)), max_size=3),
    st.lists(st.integers(-40, 40), min_size=1, max_size=6),
).map(lambda parts: [s for lo, width in parts[0] for s in range(lo, lo + width)]
      + parts[1])
# nonempty cell sets, as indices taken mod the number of cells
cell_picks = st.lists(st.integers(0, 10**6), min_size=1, max_size=8)


@pytest.mark.parametrize("space", [
    *(build_action(kind, group=Z, **kw) for kind, kw in ARC_SPACES),
    uneven_space(),
], ids=[kind for kind, _ in ARC_SPACES] + ["uneven-permutation"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(steps=step_lists, picks=cell_picks)
def test_arc_union_matches_gathers(space, steps, picks):
    idx = np.array([i % space.n_cells for i in picks], dtype=np.int64)
    want = gathered_union(space, steps, idx)
    got = arc_mask(space, steps, idx)
    assert got.dtype == bool and got.shape == (space.n_cells,)
    assert np.flatnonzero(got).tolist() == want
    lo, hi = arc_segments(space, steps, idx)
    assert _count(lo, hi) == len(want)
    # sorted, disjoint and nonempty; none crosses the start of a cycle, so
    # arcs that touch across two neighbouring cycles stay apart
    assert (lo < hi).all() and (lo[1:] >= hi[:-1]).all()
    first, length = space.cycles.locate(lo)
    assert (hi <= first + length).all()


def test_touching_arcs_of_two_cycles_stay_apart():
    # two 3-cycles fill the slots [0, 3) and [3, 6); every cell moved by the
    # run [0, 2) gives one segment per cycle, not one across both
    space = build_action("finite-permutation", group=Z, permutation=[1, 2, 0, 4, 5, 3])
    lo, hi = _arc_segments(space, (np.array([0]), np.array([2])),
                           _slot_segments(space, np.arange(6)))
    assert (lo.tolist(), hi.tolist()) == ([0, 3], [3, 6])


@pytest.mark.parametrize("space", [
    build_action(kind, group=Z, **kw) for kind, kw in ARC_SPACES
], ids=[kind for kind, _ in ARC_SPACES])
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(steps=st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       k=st.integers(0, 3), picks=cell_picks)
def test_power_arcs_match_gathers(space, steps, k, picks):
    # the arcs of the step runs of S^k, against the gathers of the steps of
    # the element oracle power_set
    S = np.unique(np.array(steps, dtype=np.int64))
    idx = np.array([i % space.n_cells for i in picks], dtype=np.int64)
    power = power_set(Z, [(s,) for s in S.tolist()], k).ravel().tolist()
    want = gathered_union(space, power, idx)
    segments = _arc_segments(space, _step_powers(Z, S, k)[k], _slot_segments(space, idx))
    assert np.flatnonzero(segment_mask(space, *segments)).tolist() == want
    assert _count(*segments) == len(want)


@pytest.mark.parametrize("space", [
    build_action(kind, group=Z, **kw) for kind, kw in ARC_SPACES
], ids=[kind for kind, _ in ARC_SPACES])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(steps=step_lists, picks=cell_picks, dilation=step_lists)
def test_overlap_sweep_matches_gathers(space, steps, picks, dilation):
    # B as arbitrary cells, and as the arcs of a dilation of those cells
    idx = np.unique(np.array([i % space.n_cells for i in picks], dtype=np.int64))
    for cells, segments in (
        (idx, _slot_segments(space, idx)),
        (gathered_union(space, dilation, idx), arc_segments(space, dilation, idx)),
    ):
        ind = indicator(space, cells)
        got = _pair_correlations(space, steps, *segments, space.weights[0])
        assert got.tolist() == gathered_correlations(space, steps, ind, ind)


@pytest.mark.parametrize("steps,want", [
    ([0], [5]),
    ([2, 3], [7, 8]),  # one arc inside the cycle
    ([8, 9, 10], [13, 14, 0]),  # an arc that wraps
    ([-6, -5, 1, 2], [14, 0, 6, 7]),  # two runs, one wrapping backwards
    (list(range(-3, 12)), list(range(15))),  # a run exactly one cycle wide
    (list(range(-40, 0)), list(range(15))),  # a run wider than the cycle
])
def test_arcs_on_one_cycle(steps, want):
    # the rotation by one cell on 15 cells: slot = cell, one cycle
    space = build_action("circle-rotation", group=Z, N=15, cells_per_step=1)
    idx = np.array([5])
    assert np.flatnonzero(arc_mask(space, steps, idx)).tolist() == sorted(want)
    assert _count(*arc_segments(space, steps, idx)) == len(want)
