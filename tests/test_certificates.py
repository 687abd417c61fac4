"""Moderate-growth certificates: conditions, companions, Rayleigh chains."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaplab import certificates, cli, measures
from gaplab import (
    DescriptorMismatchError,
    GridResolutionError,
    GridTranslationSpace,
    GroupDescriptor,
    GroupMeasure,
    PreconditionError,
    build_action,
    discrepancy,
    power_set,
    run_certificate,
    symmetrize,
)
from dict_oracles import convolution_power
from operator_helpers import KoopmanAveragingOperator, act_indices, segment_mask, slot_cells

Z = GroupDescriptor(kind="lattice", dimension=1)
SQRT2 = math.sqrt(2.0)


def time_grid(q):
    return GroupDescriptor(kind="real-grid", dimension=1, resolution=q)


def cycle_space(size):
    return build_action("finite-permutation", group=Z,
                        permutation=[(i + 1) % size for i in range(size)])


def shuffled_cycles(lengths, seed):
    """A finite permutation whose cycles of the given lengths run over
    shuffled cells, so that its slot order is not index order."""
    labels = np.random.default_rng(seed).permutation(sum(lengths))
    perm = np.empty(sum(lengths), dtype=np.int64)
    for cycle in np.split(labels, np.cumsum(lengths)[:-1]):
        perm[cycle] = np.roll(cycle, -1)
    return build_action("finite-permutation", group=Z, permutation=perm.tolist())


def companion_cells(space, size, forbidden):
    """The walk's companion of ``size`` cells outside the cells
    ``forbidden``: their slots marked in a slot-ordered array, the slots it
    returns taken back to cells through the inverse of ``slot``."""
    forbidden = np.unique(np.asarray(forbidden, dtype=np.int64))
    marks = np.zeros(space.n_cells, dtype=np.int8)
    marks[space.cycles.slot[forbidden]] = 1
    slots = certificates._companion_set(space, size, marks, forbidden.size)
    assert slots.dtype == np.int64
    return slot_cells(space)[slots]


def arc_mask(space, runs, idx):
    """The union of sigma^c cells over the steps c of the step runs
    ``runs``, as a mask over the cells, from its arc segments."""
    return segment_mask(space, *certificates._arc_segments(
        space, runs, certificates._slot_segments(space, idx)))


def run_steps(runs):
    """The steps of the half-open runs (lo, hi), one by one."""
    return np.array([c for a, b in zip(*runs) for c in range(int(a), int(b))],
                    dtype=np.int64)


def step_runs(steps):
    """The half-open runs (lo, hi) of consecutive steps of a step array,
    by a scan of its distinct steps."""
    runs = []
    for c in sorted(set(np.asarray(steps).ravel().tolist())):
        if runs and runs[-1][1] == c:
            runs[-1][1] = c + 1
        else:
            runs.append([c, c + 1])
    lo, hi = zip(*runs)
    return np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)


def gathered_thickening(space, S, b, n):
    """S^n B, by moving the cells b with every step count of S^n in turn."""
    cells = set()
    for (c,) in power_set(space.group, [(s,) for s in S.tolist()], n):
        cells.update(act_indices(space, c, b).tolist())
    return np.array(sorted(cells), dtype=np.int64)


def support_steps(space, mu):
    """The sorted steps of supp(mu * mu^), the S and F of the walk."""
    return np.unique(space.steps(symmetrize(mu).cells))


def orbit_cells(space, x0, S, n_max):
    """The cells of B_1..B_{n_max} around x0 for the sorted step array S,
    each sorted, from the slot segments ``_orbit_segments`` gives."""
    return [np.flatnonzero(segment_mask(space, *core))
            for core, _ in certificates._orbit_segments(space, x0, S, n_max)]


def walk_sets(space, mu, F, sets, S):
    """The walk for eta = mu * mu^ over the cell sets B_1..B_len(sets),
    given as index arrays, and the step sets F and S: each B_n is swept
    into its slot segments, and those into the segments of S^n B_n by the
    step runs of S^n."""
    F, S = np.unique(F), np.unique(S)
    powers = certificates._step_powers(space.group, S, len(sets))
    segments = []
    for b, s_n in zip(sets, powers[1:]):
        core = certificates._slot_segments(space, b)
        segments.append((core, certificates._arc_segments(space, s_n, core)))
    return certificates._walk(space, F, segments, 0.02, symmetrize(mu),
                              certificates._cell_weight(space))


class TestSequenceValidation:
    @pytest.mark.parametrize("n_max", [0, -1])
    def test_run_certificate_rejects_horizon_below_one(self, n_max):
        mu = GroupMeasure.uniform_on(Z, [(-1,), (0,), (1,)])
        with pytest.raises(PreconditionError, match=f"n_max must be >= 1, got {n_max}"):
            run_certificate(cycle_space(64), mu, x0=0, n_max=n_max)

    def test_sequence_rejects_horizon_below_one(self):
        with pytest.raises(PreconditionError, match="n_max must be >= 1, got 0"):
            certificates._orbit_segments(cycle_space(64), 0, np.array([-1, 0, 1]), 0)

    def test_requires_symmetric_S_with_identity(self, monkeypatch):
        # mu is neither symmetric nor holds the identity; the S of the
        # radius search and the F of the walk are supp(mu * mu^), which is
        seen = []

        def search(space, x0, S, n_max, _fn=certificates._orbit_segments):
            seen.append(S)
            return _fn(space, x0, S, n_max)

        def walk(space, F, *args, _fn=certificates._walk):
            seen.append(F)
            return _fn(space, F, *args)
        monkeypatch.setattr(certificates, "_orbit_segments", search)
        monkeypatch.setattr(certificates, "_walk", walk)
        grid = time_grid(8)
        for space, mu in (
            (cycle_space(256), GroupMeasure.uniform_on(Z, [(1,), (3,)])),
            (build_action("circle-rotation", group=grid, N=1000, cells_per_step=7),
             GroupMeasure.from_atoms(grid, [((2,), 0.25), ((5,), 0.75)])),
        ):
            seen.clear()
            run_certificate(space, mu, x0=0, n_max=2)
            assert len(seen) == 2 and seen[0] is seen[1]
            S = seen[0].tolist()
            assert 0 in S
            assert S == sorted(-s for s in S)

    def test_step_arrays_validate_like_elements(self):
        # the steps of the walk come from space.steps, which refuses what
        # the group refuses: a second coordinate or a non-integer one
        space = cycle_space(8)
        assert space.steps(np.array([[1], [0], [-1]])).tolist() == [1, 0, -1]
        for bad, match in (((0, 1), "one-parameter"), ((1.5,), "integer steps")):
            with pytest.raises(DescriptorMismatchError):
                Z.element(bad)
            with pytest.raises(DescriptorMismatchError, match=match):
                space.steps(np.array([bad, bad]))

    def test_rejects_empty_sets(self):
        # every B_n holds the base cell, so condition (1) holds by
        # construction; where even the base cell's orbit thickening
        # reaches mass 1/2 the route refuses rather than shrink B_n
        space = build_action("torus-translation", group=time_grid(1),
                             N=128, step=(29, 41), slope_hint=SQRT2)
        for x0 in (0, 5000):
            sets = orbit_cells(space, x0, np.arange(-2, 3), 6)
            assert all(x0 in b.tolist() for b in sets)
        with pytest.raises(GridResolutionError, match=r"has mass .* >= 1/2"):
            certificates._orbit_segments(cycle_space(8), 0, np.array([-1, 0, 1]), 1)

    def test_max_n_is_the_number_of_sets(self):
        space = cycle_space(64)
        assert len(certificates._orbit_segments(space, 0, np.array([-1, 0, 1]), 3)) == 3
        report = run_certificate(space, GroupMeasure.uniform_on(Z, [(-1,), (1,)]),
                                 x0=0, n_max=3)
        assert [row.n for row in report.rows] == [1, 2, 3]


class TestGrowthConditions:
    def test_thickening_past_half_fails_condition_two(self):
        # S B_1 covers 9 of 16 cells and S^2 B_2 10 of them: condition (2)
        # fails at both n, yet the companions still fit
        space = cycle_space(16)
        report = walk_sets(space, GroupMeasure.point_mass(Z, (0,)), F=[0],
                           sets=(np.array([0, 5, 10]), np.array([0, 8])),
                           S=[-1, 0, 1])
        assert not report.cond2_all
        assert [row.nu_SnB for row in report.rows] == [9 / 16, 10 / 16]
        assert all(not row.cond2 for row in report.rows)

    def test_half_the_cells_fails_condition_two(self):
        # S B = B: 24 of 50 cells are below half of them, 25 are not
        space = cycle_space(50)
        for thick, cond2 in ((24, True), (25, False)):
            report = walk_sets(space, GroupMeasure.point_mass(Z, (0,)), F=[0],
                               sets=(np.arange(thick),), S=[0])
            assert report.rows[0].cond2 == cond2 == report.cond2_all

    def test_counts_decide_on_98_cells(self, tmp_path):
        # fl(1/98) * 49 rounds below 1/2: a mass comparison took 49 of the
        # 98 cells as S^2 V_1 and printed nu_SnB 0.5 next to a passing
        # condition (2); counts take 47
        assert (1 / 98) * 49 < 0.5
        space = build_action("circle-rotation", group=Z, N=98)
        mu = GroupMeasure.simple_random_walk(Z)
        S = support_steps(space, mu)
        [(_, thickened)] = certificates._orbit_segments(space, 49, S, 1)
        assert certificates._count(*thickened) == 47
        cfg = {"experiment": "certificate", "group": {"kind": "lattice", "dimension": 1},
               "measure": {"kind": "srw"}, "action": {"kind": "circle-rotation", "N": 98},
               "params": {"n_max": 1, "x0": 49}, "output": {"prefix": "n98_"}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        cli.main(["--config", str(path), "--out", str(tmp_path / "out")])
        head, row = (tmp_path / "out" / "n98_sequence.csv").read_text().splitlines()
        assert float(dict(zip(head.split(","), row.split(",")))["nu_SnB"]) == round(47 / 98, 12)
        assert "cond2_all,true" in (tmp_path / "out" / "n98_record.csv").read_text()

    def test_identity_F_gives_ratio_one(self):
        # with F = {e} the overlap ratio is identically 1 and all three
        # conditions hold for any small fixed positive-mass set
        space = cycle_space(64)
        b = np.arange(4)
        report = walk_sets(space, GroupMeasure.point_mass(Z, (0,)), F=[0],
                           sets=(b, b, b), S=[-1, 0, 1])
        assert report.cond1_all and report.cond2_all and report.cond3_flag
        assert all(row.ratio == 1.0 for row in report.rows)
        assert report.max_ratio_root == 1.0


#: spaces whose slot order is not index order, as (id, builder)
COMPANION_SPACES = [
    ("shuffled-permutation", lambda: shuffled_cycles([600, 400, 250, 250], 39)),
    ("circle-98", lambda: build_action("circle-rotation", group=Z, N=98,
                                       cells_per_step=10)),
    ("torus-64", lambda: build_action("torus-translation", group=time_grid(2),
                                      N=64, step=(29, 41))),
]


class TestCompanionSet:
    def test_single_cell(self):
        space = cycle_space(8)
        out = companion_cells(space, 1, [3])
        assert out.tolist() == [0]  # deterministic first free cell

    def test_counting(self):
        space = cycle_space(1024)
        forbidden = np.arange(410)  # mass 0.4
        out = companion_cells(space, 10, forbidden)
        assert len(out) == 10
        assert set(out) & set(forbidden) == set()
        assert out.tolist() == list(range(410, 420))

    def test_torus_instance_exhaustive_disjointness(self):
        space = build_action("torus-translation", group=time_grid(2),
                            N=64, step=(29, 41))
        mu = GroupMeasure.uniform_interval(time_grid(2), -1.0, 1.0)
        S = support_steps(space, mu)
        b = orbit_cells(space, 0, S, 5)[4]
        _, thickened = zip(*certificates._orbit_segments(space, 0, S, 5))
        # the walk's companion: the first cells outside S^5 B_5
        covered = np.flatnonzero(segment_mask(space, *thickened[4]))
        companion = companion_cells(space, len(b), covered)
        assert set(companion.tolist()).isdisjoint(
            gathered_thickening(space, S, b, 5).tolist())
        assert len(companion) == len(b)

    def test_insufficient_room(self):
        space = cycle_space(16)
        with pytest.raises(PreconditionError, match="condition"):
            companion_cells(space, 10, np.arange(10))

    @pytest.mark.parametrize("make_space", [make for _, make in COMPANION_SPACES],
                             ids=[name for name, _ in COMPANION_SPACES])
    def test_first_free_cells_in_index_order(self, make_space):
        # every size up to the room against a scan of the cells in index
        # order, on spaces whose slots run in another order; past the room
        # the message counts every free cell
        space = make_space()
        n = space.n_cells
        assert not np.array_equal(space.cycles.slot, np.arange(n))
        cells = slot_cells(space)
        rng = np.random.default_rng(39)
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            forbidden = np.flatnonzero(rng.random(n) < density)
            excluded = set(forbidden.tolist())
            free = np.array([c for c in range(n) if c not in excluded], dtype=np.int64)
            room = len(free)
            marks = np.zeros(n, dtype=np.int8)
            marks[space.cycles.slot[forbidden]] = 1
            for size in range(room + 1):
                got = certificates._companion_set(space, size, marks, len(forbidden))
                assert np.array_equal(cells[got], free[:size]), (density, size)
            for size in (room + 1, n + 1):
                with pytest.raises(PreconditionError,
                                   match=rf"need {size} cells, have {room}\)"):
                    certificates._companion_set(space, size, marks, len(forbidden))

    def test_first_free_cells_of_random_masks(self):
        # the companion is read from a prefix of the cells; the free cells
        # of all of them are the reference
        rng = np.random.default_rng(24)
        for _ in range(100):
            n = int(rng.integers(1, 300))
            space = build_action("finite-permutation", group=Z,
                                 permutation=rng.permutation(n).tolist())
            forbidden = np.flatnonzero(rng.random(n) < rng.random())
            free = np.setdiff1d(np.arange(n), forbidden)
            room = len(free)
            for size in sorted({0, min(1, room), room // 2, room}):
                assert companion_cells(space, size, forbidden).tolist() == \
                    free[:size].tolist()
            for size in (room + 1, n + 1):
                with pytest.raises(PreconditionError,
                                   match=rf"need {size} cells, have {room}\)"):
                    companion_cells(space, size, forbidden)


class TestSegmentMarks:
    """The walk writes a set of slot segments into phi's own buffer."""

    def test_marks_are_the_segments(self):
        # disjoint segments, some touching, the last at the end or not;
        # phi holds leftovers of an earlier n
        rng = np.random.default_rng(42)
        for n in (1, 2, 3, 10, 257):
            for _ in range(50):
                k = int(rng.integers(1, n // 2 + 2))
                cuts = np.unique(rng.integers(0, n + 1, size=2 * k))
                lo, hi = cuts[:-1], cuts[1:]
                keep = rng.random(len(lo)) < 0.6
                lo, hi = lo[keep], hi[keep]
                if not len(lo):
                    continue
                want = np.zeros(n, dtype=np.int8)
                for a, b in zip(lo.tolist(), hi.tolist()):
                    want[a:b] = 1
                phi = rng.integers(-1, 2, size=n).astype(np.int8)
                assert certificates._mark(phi, lo, hi) is phi
                assert phi.tolist() == want.tolist(), (n, lo, hi)

    def test_marks_list_no_slot(self):
        # 2,000 segments over half of 2^20 cells: no slot list, which
        # would take 4 MB, is formed
        n = 1 << 20
        lo = np.arange(0, n, n // 2000)[:2000]
        hi = lo + n // 4000
        phi = np.empty(n, dtype=np.int8)
        tracemalloc.start()
        try:
            certificates._mark(phi, lo, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert int(phi.sum()) == certificates._count(lo, hi)


class TestRayleighChain:
    def test_identity_measure_half_bound(self):
        space = cycle_space(32)
        mu = GroupMeasure.point_mass(Z, (0,))
        report = walk_sets(space, mu, F=[0], sets=(np.arange(5),), S=[0])
        (row,) = report.rows
        assert row.rayleigh == pytest.approx(1.0, abs=1e-12)
        assert row.chain_bound == pytest.approx(0.5, abs=1e-12)
        assert report.chain_holds

    def test_bernoulli_window_chain_holds(self):
        space = build_action("bernoulli-window", group=Z, alphabet=2,
                            window_radius=3)
        mu = GroupMeasure.simple_random_walk(Z)
        b = np.array([64])  # the window word 1000000
        n_max = 10
        report = walk_sets(space, mu, F=[0], sets=(b,) * n_max,
                           S=support_steps(space, mu))
        assert report.cond1_all and report.cond2_all
        assert report.chain_holds
        for row in report.rows:
            assert row.rayleigh >= row.chain_bound - certificates.CHAIN_TOL

    def test_torus_flow_chain_holds(self):
        space = build_action("torus-translation", group=time_grid(2),
                            N=128, step=(29, 41), slope_hint=SQRT2)
        mu = GroupMeasure.uniform_interval(time_grid(2), -1.0, 1.0)
        report = run_certificate(space, mu, x0=0, n_max=10)
        row = report.rows[9]
        assert report.chain_holds
        assert row.rayleigh >= row.chain_bound - certificates.CHAIN_TOL
        assert 0.0 < row.rayleigh <= symmetrize(mu).total_mass ** 10 + 1e-9


class TestRayleighOracle:
    """The signed correlation against a dense <pi(eta^{*n}) phi, phi>."""

    @staticmethod
    def dense_quotient(space, eta, b, companion, n):
        phi = np.zeros(space.n_cells)
        phi[b] = 1.0
        phi[companion] = -1.0
        averaged = KoopmanAveragingOperator(space, convolution_power(eta, n)).apply_l2(phi)
        return float(np.sum(space.weights * averaged * phi)) / (2.0 * space.weights[b].sum())

    def assert_rows_match_dense(self, space, mu, F, sets, S):
        """Each row of the walk over ``sets`` against the dense quotient,
        with the companion rebuilt from a gathered S^n B_n; returns the
        companions."""
        eta = symmetrize(mu)
        S = np.unique(S)
        companions = []
        for n, (row, b) in enumerate(zip(walk_sets(space, mu, F, sets, S).rows,
                                         sets), 1):
            companions.append(companion_cells(
                space, len(b), gathered_thickening(space, S, b, n)))
            want = self.dense_quotient(space, eta, b, companions[-1], n)
            assert row.rayleigh == pytest.approx(want, abs=1e-12), n
        return companions

    def test_torus_fft_path(self):
        space = build_action("torus-translation", group=time_grid(2),
                            N=64, step=(29, 41))
        assert isinstance(space, GridTranslationSpace)
        mu = GroupMeasure.uniform_interval(time_grid(2), -1.0, 1.0)
        S = support_steps(space, mu)
        self.assert_rows_match_dense(space, mu, S, orbit_cells(space, 0, S, 4), S)
        # with S = {e} the companion abuts B, so the cross terms are nonzero
        b = np.arange(64 * 4, 64 * 8)  # rows 4-7; the companion is rows 0-3
        self.assert_rows_match_dense(space, mu, [0], (b,) * 4, [0])

    def test_bernoulli_window_gather_path(self):
        space = build_action("bernoulli-window", group=Z, alphabet=2,
                            window_radius=3)
        assert not isinstance(space, GridTranslationSpace)
        mu = GroupMeasure.from_atoms(Z, [((1,), 0.3), ((-2,), 0.7)])
        b = np.array([3, 64, 97])
        self.assert_rows_match_dense(space, mu, [0], (b,) * 4,
                                     support_steps(space, mu))

    def test_odd_circle(self):
        space = build_action("circle-rotation", group=Z, N=127, cells_per_step=2)
        assert space.cycle_lengths() == {127: 1}
        mu = GroupMeasure.simple_random_walk(Z)
        S = support_steps(space, mu)
        self.assert_rows_match_dense(space, mu, S, orbit_cells(space, 0, S, 4), S)
        b = np.arange(10, 20)  # the companion is cells 0-9
        self.assert_rows_match_dense(space, mu, [0], (b,) * 4, [0])

    def test_permutation_with_short_cycles(self):
        # cycles of lengths 1, 2, 3 and 4: the L = 1 and L = 2 spectra and
        # the Nyquist bins of the even lengths
        space = build_action("finite-permutation", group=Z,
                             permutation=[0, 2, 1, 4, 5, 3, 7, 8, 9, 6])
        assert space.cycle_lengths() == {1: 1, 2: 1, 3: 1, 4: 1}
        mu = GroupMeasure.from_atoms(Z, [((1,), 0.3), ((-2,), 0.5), ((3,), 0.2)])
        b = np.array([4, 8])  # the companion is cells 0 and 1
        companions = self.assert_rows_match_dense(space, mu, [0], (b,) * 4, [0])
        assert [c.tolist() for c in companions] == [[0, 1]] * 4


class TestEqualWeightPrecondition:
    # cycles (0 1 2 3) and (4 5 6 7) of light cells, (8 .. 11) and
    # (12 .. 15) of heavy ones; the permutation preserves the weights
    PERMUTATION = [i - i % 4 + (i + 1) % 4 for i in range(16)]

    @pytest.mark.parametrize("light,heavy", [
        (1 / 32, 3 / 32),
        ((1 - 1e-7) / 16, (1 + 1e-7) / 16),  # one part in 10^7 apart
    ], ids=["two-weights", "near-equal"])
    def test_checked_before_the_walk(self, tmp_path, capsys, monkeypatch,
                                     light, heavy):
        cfg = {
            "experiment": "certificate",
            "group": {"kind": "lattice", "dimension": 1},
            "measure": {"kind": "point"},
            "action": {"kind": "finite-permutation",
                       "permutation": self.PERMUTATION,
                       "weights": [light] * 8 + [heavy] * 8},
            "params": {"n_max": 1},
        }
        calls = []
        for name in ("_pair_correlations", "_orbit_segments"):
            def spy(*args, _name=name, _fn=getattr(certificates, name), **kw):
                calls.append(_name)
                return _fn(*args, **kw)
            monkeypatch.setattr(certificates, name, spy)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert ("error: certificates need an equal-weight cell grid"
                in capsys.readouterr().err)
        assert calls == []

    def test_walk_checks_weights_once(self, monkeypatch):
        calls = []

        def spy(space, _fn=certificates._cell_weight):
            calls.append(space)
            return _fn(space)
        monkeypatch.setattr(certificates, "_cell_weight", spy)
        report = run_certificate(cycle_space(256), GroupMeasure.uniform_on(Z, [(-1,), (1,)]),
                                 x0=0, n_max=4)
        assert len(report.rows) == 4
        assert len(calls) == 1


class TestThickeningFromBalls:
    """S^n B_n of the x0 route, S^{2n} V_n, against the dilation of B_n."""

    @pytest.mark.parametrize("kind,kw,q,n_max", [
        ("torus-translation", dict(N=64, step=(29, 41)), 2, 5),
        ("circle-rotation", dict(N=101, cells_per_step=2), 1, 6),
    ])
    def test_matches_dilated_sets(self, monkeypatch, kind, kw, q, n_max):
        space = build_action(kind, group=time_grid(q), **kw)
        S = support_steps(space, GroupMeasure.uniform_interval(time_grid(q), -1.0, 1.0))
        radii = []
        search = certificates._largest_mass_admissible_radius

        def spy(*args):
            accepted = search(*args)
            radii.append(accepted[0])
            return accepted

        monkeypatch.setattr(certificates, "_largest_mass_admissible_radius", spy)
        sets = orbit_cells(space, 3, S, n_max)
        segments, thickened = zip(*certificates._orbit_segments(space, 3, S, n_max))
        powers = certificates._step_powers(space.group, S, n_max)
        for n, b in enumerate(sets, 1):
            ball = space.cell_ball(3, radii[n - 1])
            from_ball = segment_mask(space, *thickened[n - 1])
            from_set = arc_mask(space, powers[n], b)
            assert from_ball.tolist() == from_set.tolist()
            assert len(ball) < len(b)
            # the F-overlaps of B_n = S^n V_n from the arcs of V_n
            arcs = segments[n - 1]
            assert all(map(np.array_equal, arcs, certificates._arc_segments(
                space, powers[n], certificates._slot_segments(space, ball))))
            runs = certificates._slot_segments(space, b)
            weight = space.weights[0]
            assert np.array_equal(
                certificates._pair_correlations(space, S, *arcs, weight),
                certificates._pair_correlations(space, S, *runs, weight))


class TestCarriedSegments:
    """The walk of the x0 route reads B_n and S^n B_n off the segments
    of the radius search, and sweeps nothing itself."""

    @pytest.mark.parametrize("kind,kw,x0,n_max", [
        ("torus-translation", dict(N=256, step=(29, 41), slope_hint=SQRT2), 7001, 6),
        ("circle-rotation", dict(N=1000, cells_per_step=7), 3, 6),
    ])
    def test_rows_match_sweeping_the_sets(self, monkeypatch, kind, kw, x0, n_max):
        grid = time_grid(8)
        space = build_action(kind, group=grid, **kw)
        mu = GroupMeasure.uniform_interval(grid, -1.0, 1.0)
        S = support_steps(space, mu)
        sets = orbit_cells(space, x0, S, n_max)
        segments = certificates._orbit_segments(space, x0, S, n_max)
        sweeps = []
        arc_segments = certificates._arc_segments

        def spy(*args):
            sweeps.append(args)
            return arc_segments(*args)

        monkeypatch.setattr(certificates, "_arc_segments", spy)
        carried = certificates._walk(space, S, segments, 0.02, symmetrize(mu),
                                     space.weights[0])
        assert sweeps == []
        # listed cells carry no segments: the walk sweeps S^n B_n
        swept = walk_sets(space, mu, S, sets, S)
        assert len(sweeps) == n_max
        assert carried == swept


class TestCarriedPower:
    """eta^{*n} is carried as keys of one box, fixed for the walk, that
    holds eta^{*n_max}; its mass on F is the left fold of the weights of
    the dict walk's eta^{*n} on F, in atom order."""

    @pytest.mark.parametrize("kind,kw,x0,n_max", [
        ("torus-translation", dict(N=64, step=(5, 8)), 100, 5),
        ("circle-rotation", dict(N=1000, cells_per_step=7), 3, 6),
    ])
    def test_one_box_and_the_dict_walks_mass(self, monkeypatch, kind, kw, x0, n_max):
        grid = time_grid(4)
        space = build_action(kind, group=grid, **kw)
        mu = GroupMeasure.from_atoms(grid, [((-2,), 0.3), ((1,), 0.45), ((3,), 0.25)])
        eta, S = symmetrize(mu), support_steps(space, mu)
        segments = certificates._orbit_segments(space, x0, S, n_max)
        boxes = []
        walk_box = certificates._walk_box

        def spy(*args):
            boxes.append(walk_box(*args))
            return boxes[-1]

        def refuse(*args):
            raise AssertionError("the walk keys no convolution of its own")

        monkeypatch.setattr(certificates, "_walk_box", spy)
        monkeypatch.setattr(measures, "_factor_keys", refuse)
        report = certificates._walk(space, S, segments, 0.02, eta, space.weights[0])
        monkeypatch.undo()
        assert len(boxes) == 1
        far = n_max * int(np.abs(S).max())
        assert boxes[0].lo.tolist() == [-far] and boxes[0].widths.tolist() == [2 * far + 1]
        for n, row in enumerate(report.rows, 1):
            f_mass = 0.0
            for (c,), w in convolution_power(eta, n).atoms.items():
                if c in S:
                    f_mass += w
            assert row.chain_bound == 0.5 * f_mass * row.ratio


def torus_distance(a, b, n):
    d = abs(a - b) % n
    return min(d, n - d)


# step sets with gaps, negative and duplicate steps and runs of
# consecutive steps, the identity among them or alone
step_sets = st.tuples(
    st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 9)), max_size=2),
    st.lists(st.integers(-12, 12), min_size=1, max_size=4),
).map(lambda parts: [s for lo, width in parts[0] for s in range(lo, lo + width)]
      + parts[1])
STEP_GROUPS = [Z, time_grid(3),
               GroupDescriptor(kind="torus-grid", dimension=1, size=7),
               GroupDescriptor(kind="torus-grid", dimension=1, size=30)]


class TestStepRuns:
    """The run arithmetic of S^k against the element oracle power_set."""

    @pytest.mark.parametrize("group", STEP_GROUPS,
                             ids=["lattice", "real-grid", "torus-7", "torus-30"])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(steps=step_sets, k=st.integers(0, 4))
    @example(steps=[0], k=3)
    @example(steps=[-3, -2, -1, 0, 1, 2, 3, 4], k=1)  # a run of 8 > 7 steps
    @example(steps=[-5, 0, 9], k=4)
    @example(steps=list(range(-4, 5)), k=4)  # a run of 33 > 30 steps
    def test_powers_match_power_set(self, group, steps, k):
        S = np.unique(np.array(steps, dtype=np.int64))
        powers = certificates._step_powers(group, S, k)
        assert len(powers) == k + 1
        for j, (lo, hi) in enumerate(powers):
            assert lo.dtype == hi.dtype == np.int64
            # sorted, disjoint and non-adjacent half-open runs
            assert (lo < hi).all()
            assert (lo[1:] > hi[:-1]).all()
            want = power_set(group, [(s,) for s in S.tolist()], j)
            assert run_steps((lo, hi)).tolist() == want.ravel().tolist(), j

    def test_torus_runs_cover_the_group(self):
        # S^2 = {-2..2} is one run of 5 >= N = 4 steps: it covers Z/4
        group = GroupDescriptor(kind="torus-grid", dimension=1, size=4)
        powers = certificates._step_powers(group, np.array([-1, 0, 1]), 2)
        assert [(a.tolist(), b.tolist()) for a, b in powers] == [
            ([0], [1]), ([0, 3], [2, 4]), ([0], [4])]

    def test_step_runs_of_sorted_steps(self):
        lo, hi = certificates._step_powers(Z, np.array([-7, -3, -2, -1, 0, 4, 5, 9]), 1)[1]
        assert lo.tolist() == [-7, -3, 4, 9]
        assert hi.tolist() == [-6, 1, 6, 10]

    def test_power_outside_int64_raises(self):
        big = 2 ** 62 + 1
        with pytest.raises(DescriptorMismatchError,
                           match=f"step power leaves int64 at coordinate {-2 * big}"):
            certificates._step_powers(Z, np.array([-big, 0, big]), 2)
        assert run_steps(certificates._step_powers(Z, np.array([-big, 0]), 1)[1]).tolist() == [
            -big, 0]
        # the end of a run one past the greatest step lies in int64 too
        top = 2 ** 63 - 1
        with pytest.raises(DescriptorMismatchError,
                           match=f"step power leaves int64 at coordinate {top}"):
            certificates._step_powers(Z, np.array([0, top]), 1)

    def test_runs_are_checked_against_memory(self, monkeypatch):
        # the run sums of each power and the separators in S^{2n-2} are
        # checked before they exist
        checked = []
        monkeypatch.setattr(certificates, "_check_pairs",
                            lambda pairs, what: checked.append((pairs, what)))
        certificates._step_powers(Z, np.array([-4, 0, 1, 2, 7]), 3)
        assert checked == [(5, "step power S^1"), (9, "step power S^2"),
                           (15, "step power S^3")]
        checked.clear()
        certificates._orbit_segments(cycle_space(64), 0, np.array([-3, -2, -1, 0, 1, 2, 3]), 2)
        # S^0 = {0} and S^2 = {-6..6}, listed step by step
        assert [check for check in checked if check[1].startswith("separators")] == [
            (1, "separators in S^0"), (13, "separators in S^2")]


class TestTorusGridCertificate:
    """A circle rotation driven by Z/M, which every cycle length divides,
    against the same rotation driven by Z."""

    T = GroupDescriptor(kind="torus-grid", dimension=1, size=256)
    ATOMS = [((1,), 0.3), ((-3,), 0.45), ((2,), 0.25)]

    @pytest.mark.parametrize("n,cells_per_step,n_max", [
        (256, 3, 4), (256, 1, 6), (256, 4, 3)])
    def test_rows_match_the_lattice(self, n, cells_per_step, n_max):
        reports = []
        for group in (Z, self.T):
            space = build_action("circle-rotation", group=group, N=n,
                                 cells_per_step=cells_per_step)
            mu = GroupMeasure.from_atoms(
                group, [((c % group.size if group.size else c,), w)
                        for (c,), w in self.ATOMS])
            for x0 in (0, 77):
                reports.append(run_certificate(space, mu, x0=x0, n_max=n_max))
        assert reports[:2] == reports[2:]
        assert len(reports[0].rows) == n_max and reports[0].cond2_all

    def test_horizon_reaching_the_period_raises(self):
        # on the 16-cycle driven by Z/256, S^16 = {0..16, 240..255} holds
        # the residue 16, a multiple of the period, and S^14 does not
        space = build_action("circle-rotation", group=self.T, N=16, cells_per_step=3)
        S = np.array([0, 1, 255])
        with pytest.raises(GridResolutionError, match=(
                r"^free-orbit surrogate fails at the base cell: atom \(16,\) of "
                r"S\^16 fixes it; refine the grid or shorten the horizon$")):
            certificates._orbit_segments(space, 3, S, 8)
        with pytest.raises(GridResolutionError, match=r"S\^14-orbit of the base cell"):
            certificates._orbit_segments(space, 3, S, 7)


class TestCellBall:
    @pytest.mark.parametrize("n", [7, 10])
    def test_torus_ball_is_brute_force_disk(self, n):
        space = build_action("torus-translation", group=Z, N=n, step=(1, 2))
        # a center cell, a corner (every ball wraps) and the last cell;
        # radii past n/2 meet the ball with itself around the torus
        for center in (n * (n // 2) + n // 2, 0, n * n - 1):
            ci, cj = divmod(center, n)
            for radius in range(0, n + 2):
                want = [
                    cell for cell in range(n * n)
                    if torus_distance(cell // n, ci, n) ** 2
                    + torus_distance(cell % n, cj, n) ** 2 <= radius ** 2
                ]
                got = space.cell_ball(center, radius)
                assert got.dtype == np.int64
                assert got.tolist() == want, (center, radius)

    def test_circle_ball_is_brute_force_arc(self):
        n = 11
        space = build_action("circle-rotation", group=Z, N=n, cells_per_step=3)
        for center in (0, 5, 10):
            for radius in range(0, n):
                want = [c for c in range(n) if torus_distance(c, center, n) <= radius]
                assert space.cell_ball(center, radius).tolist() == want


class TestMinDisplacement:
    """The translation of each step count and the least distance it moves
    every cell, against a search over the lifts of c * step."""

    @staticmethod
    def least_distance(vector, n):
        """Least length of vector - n m over integer vectors m, by search."""
        reach = max(abs(v) for v in vector) // n + 2
        return min(
            math.sqrt(sum((v - n * m) ** 2 for v, m in zip(vector, ms)))
            for ms in itertools.product(range(-reach, reach + 1),
                                        repeat=len(vector))
        )

    # steps that are multiples of N, at or near N/2, and negative
    @pytest.mark.parametrize("n,step", [
        (10, (3,)), (10, (5,)), (10, (-4,)), (11, (6,)),
        (9, (4, 5)), (9, (9, 3)), (9, (2, -7)), (8, (4, 4)),
    ])
    def test_against_least_torus_distance(self, n, step):
        space = GridTranslationSpace(Z, n, step)
        counts = np.arange(-3 * n, 3 * n + 1)
        shift = space.translations(counts)
        assert shift.shape == (counts.size, len(step))
        assert ((0 <= shift) & (shift < n)).all()
        moved = []
        for c, vector in zip(counts.tolist(), shift.tolist()):
            assert all((v - c * s) % n == 0 for v, s in zip(vector, step)), c
            moved.append(self.least_distance([c * s for s in step], n))
            assert self.least_distance(vector, n) == moved[-1], c
        # the separators displace every cell: each is a step count that
        # fixes none
        moved = np.array(moved)
        separators = counts[moved > 0]
        radius = space.separation_radius(separators)
        assert radius == max(math.ceil(moved[moved > 0].min() / 2) - 1, 0)
        ball = set(space.cell_ball(0, radius).tolist())
        for c in separators[:n].tolist():
            assert ball.isdisjoint(act_indices(space, c, np.array(sorted(ball)))), c
        assert space.separation_radius(counts[:0]) == n // 2

    def test_no_geometry_separates_single_cells(self):
        space = build_action("bernoulli-window", group=Z, alphabet=2,
                             window_radius=1)
        assert space.grid_shape is None
        assert space.separation_radius(np.array([1, 2])) == 0

    # step components below 0 and at least N
    @pytest.mark.parametrize("n,step", [(16, (-3, 21)), (16, (35,)), (9, (-10, 22))])
    def test_steps_beyond_the_grid(self, n, step):
        space = GridTranslationSpace(Z, n, step)
        assert space.grid_shape == (n,) * len(step)
        assert space.step == tuple(s % n for s in step)
        cells = np.arange(space.n_cells)
        coords = np.stack(np.unravel_index(cells, space.grid_shape), axis=-1)
        for c in (1, -1, 5):
            moved = np.stack(np.unravel_index(act_indices(space, c, cells),
                                              space.grid_shape), axis=-1)
            want = self.least_distance([c * s for s in step], n)
            for x, y in zip(coords.tolist(), moved.tolist()):
                assert all((b - a - c * s) % n == 0 for a, b, s in zip(x, y, step))
                assert self.least_distance([b - a for a, b in zip(x, y)], n) == want
        center = space.n_cells // 2 + 1
        for radius in range(n + 1):
            want = [cell for cell, x in zip(cells.tolist(), coords.tolist())
                    if self.least_distance([a - b for a, b in zip(
                        x, coords[center].tolist())], n) <= radius]
            assert space.cell_ball(center, radius).tolist() == want, radius


def two_gallop_search(space, thickening, x0, r_cap, downward):
    """The radius search as it was written before the one bracketing loop:
    a gallop upward from 0, or downward from r_cap, then a bisection."""
    accepted = None

    def admissible(radius):
        nonlocal accepted
        swept = certificates._arc_segments(
            space, thickening,
            certificates._slot_segments(space, space.cell_ball(x0, radius)))
        if 2 * certificates._count(*swept) >= space.n_cells:
            return False
        accepted = radius, swept
        return True

    step = 1
    if downward:
        if admissible(r_cap):
            return accepted
        bad = r_cap
        while True:
            if bad == 0:
                return None
            probe = max(bad - step, 0)
            if admissible(probe):
                good = probe
                break
            bad, step = probe, 2 * step
    else:
        if not admissible(0):
            return None
        good = 0
        while True:
            if good == r_cap:
                return accepted
            probe = min(good + step, r_cap)
            if not admissible(probe):
                bad = probe
                break
            good, step = probe, 2 * step
    while bad - good > 1:
        mid = (good + bad) // 2
        if admissible(mid):
            good = mid
        else:
            bad = mid
    return accepted


class TestOrbitNeighborhoodSequence:
    @pytest.mark.parametrize("kind,kw,q,n_max", [
        ("torus-translation", dict(N=64, step=(29, 41)), 2, 4),
        ("torus-translation", dict(N=90, step=(12, 17)), 2, 5),
        ("circle-rotation", dict(N=101, cells_per_step=2), 1, 6),
    ])
    def test_bounded_radius_search_matches_scan(self, monkeypatch, kind, kw,
                                                q, n_max):
        # the search at n runs in [0, min(r_cap, r_{n-1})]; a scan of every
        # radius up to r_cap alone must pick the same one
        space = build_action(kind, group=time_grid(q), **kw)
        eta = symmetrize(GroupMeasure.uniform_interval(time_grid(q), -1.0, 1.0))
        S = np.sort(eta.cells, axis=0)
        x0 = 3
        picked = []
        search = certificates._largest_mass_admissible_radius

        def spy(*args):
            picked.append(search(*args))
            return picked[-1]

        monkeypatch.setattr(certificates, "_largest_mass_admissible_radius", spy)
        sets = orbit_cells(space, x0, np.unique(space.steps(S)), n_max)
        swept = [segments for *_, segments in picked]
        picked = [radius for radius, *_ in picked]
        bound_active = False
        for n in range(1, n_max + 1):
            separators = np.setdiff1d(space.steps(power_set(space.group, S, 2 * n - 2)),
                                      space.steps(S))
            r_cap = space.separation_radius(separators)
            thickening = step_runs(space.steps(power_set(space.group, S, 2 * n)))
            counts = [arc_mask(space, thickening, space.cell_ball(x0, r)).sum()
                      for r in range(r_cap + 1)]
            assert counts == sorted(counts)
            radius = max(r for r, m in enumerate(counts) if 2 * m < space.n_cells)
            assert picked[n - 1] == radius, n
            # the search hands over the thickening of the ball it picked
            assert np.array_equal(
                segment_mask(space, *swept[n - 1]),
                arc_mask(space, thickening, space.cell_ball(x0, radius)))
            bound_active |= n > 1 and picked[n - 2] < r_cap
            want = arc_mask(space, step_runs(space.steps(power_set(space.group, S, n))),
                            space.cell_ball(x0, radius))
            assert sets[n - 1].tolist() == np.flatnonzero(want).tolist()
        assert bound_active

    def test_anchored_search_on_benchmark_torus(self, monkeypatch):
        # the N=256 flow of the certificate benchmark: the gallops probe at
        # most 20 balls, where bisections from radius 0 took 27, and pick
        # the radii of a scan
        grid = time_grid(8)
        space = build_action("torus-translation", group=grid, N=256,
                            step=(29, 41), slope_hint=SQRT2)
        S = np.sort(symmetrize(GroupMeasure.uniform_interval(grid, -1.0, 1.0)).cells, axis=0)
        x0, n_max = 7001, 6
        probes, picked, balls = [], [], []
        segment_count = certificates._count
        search = certificates._largest_mass_admissible_radius
        cell_ball = space.cell_ball

        def count(*args):
            probes.append(args)
            return segment_count(*args)

        def ball(*args):
            balls.append(args)
            return cell_ball(*args)

        def spy(*args):
            accepted = search(*args)
            picked.append(accepted[0])
            return accepted

        monkeypatch.setattr(certificates, "_count", count)
        monkeypatch.setattr(certificates, "_largest_mass_admissible_radius", spy)
        monkeypatch.setattr(space, "cell_ball", ball)
        certificates._orbit_segments(space, x0, space.steps(S), n_max)
        # one call checks the orbit of the base cell, the rest are probes
        assert len(probes) - 1 == 16
        # one ball per probed radius, none for radius 0 (the base cell,
        # swept for the orbit check): a radius probed again at a later n,
        # or accepted for B_n, is not built again
        radii = [radius for _, radius in balls]
        assert len(radii) == len(set(radii)) == 10 and 0 not in radii
        monkeypatch.undo()
        powers = certificates._step_powers(space.group, space.steps(S), 2 * n_max)
        scanned = []
        for n in range(1, n_max + 1):
            separators = np.setdiff1d(run_steps(powers[2 * n - 2]), run_steps(powers[1]))
            r_cap = space.separation_radius(separators)
            radius = 0
            while radius < r_cap and 2 * arc_mask(
                    space, powers[2 * n], space.cell_ball(x0, radius + 1)).sum() < space.n_cells:
                radius += 1
            scanned.append(radius)
        assert picked == scanned

    def test_search_probes_as_the_two_gallops(self, monkeypatch):
        # the probes see a stub space: the ball of radius r is r itself,
        # and it is admissible up to a threshold radius
        threshold, probes = 0, []

        class Radii:
            n_cells = 2  # admissible: a thickening of no cell

            def cell_ball(self, x0, radius):
                return radius

        def probe(lo, hi):
            probes.append(lo)
            return 0 if lo <= threshold else 1

        monkeypatch.setattr(certificates, "_arc_segments",
                            lambda space, runs, ball: (ball, ball))
        monkeypatch.setattr(certificates, "_slot_segments", lambda space, idx: idx)
        monkeypatch.setattr(certificates, "_count", probe)
        space = Radii()
        for r_cap in range(301):
            for downward, threshold in itertools.product((False, True),
                                                         range(-1, r_cap + 1)):
                start = r_cap if downward else 0
                probes.clear()
                want = two_gallop_search(space, None, 0, r_cap, downward)
                want_probes = probes[:]
                probes.clear()
                got = certificates._largest_mass_admissible_radius(
                    space, None, 0, r_cap, start, {})
                assert probes == want_probes, (r_cap, start, threshold)
                # the stub ball of radius r is r itself
                assert got == (None if want is None else (want[0], *want)), (
                    r_cap, start, threshold)
                assert got == (None if threshold < 0 else
                               (threshold, threshold, (threshold, threshold)))

    def test_free_transitive_cycle(self):
        sets = orbit_cells(cycle_space(64), 0, np.array([-1, 0, 1]), 3)
        # single-cell neighborhoods and orbit balls of radius n
        for n, b in enumerate(sets, 1):
            expect = sorted((c % 64) for c in range(-n, n + 1))
            assert b.tolist() == expect

    def test_step_array_gives_the_tuple_sets(self):
        space = cycle_space(64)
        from_tuples = np.unique(space.steps(np.array([[1], [0], [-1]])))
        assert from_tuples.tolist() == [-1, 0, 1]
        for got, want in zip(orbit_cells(space, 0, from_tuples, 3),
                             orbit_cells(space, 0, np.array([-1, 0, 1]), 3)):
            assert got.tolist() == want.tolist()

    def test_torus_blue_rectangle_geometry(self):
        n_grid, smax, n_max = 128, 2, 6
        space = build_action("torus-translation", group=time_grid(1),
                            N=n_grid, step=(29, 41), slope_hint=SQRT2)
        S = np.arange(-smax, smax + 1)
        sets = orbit_cells(space, 0, S, n_max)
        report = walk_sets(space, GroupMeasure.point_mass(time_grid(1), (0,)),
                           S, sets, S)
        assert report.cond1_all and report.cond2_all
        # every cell of B_n hugs the discrete flow line: distance to the
        # nearest bead center k * (29, 41) stays bounded by a tube radius
        # (mass-limited at n=1, separation-limited at n=6, where the k=9
        # near-return (5, -15) caps the radius at 7)
        for n, tube in ((1, 18.0), (n_max, 8.0)):
            b = sets[n - 1]
            centers = {
                ((k * 29) % n_grid, (k * 41) % n_grid)
                for k in range(-n * smax, n * smax + 1)
            }
            max_dist = 0.0
            for cell in b.tolist():
                ci, cj = divmod(cell, n_grid)
                best = min(
                    math.hypot(min((ci - a) % n_grid, (a - ci) % n_grid),
                               min((cj - b2) % n_grid, (b2 - cj) % n_grid))
                    for a, b2 in centers
                )
                max_dist = max(max_dist, best)
            assert max_dist <= tube
        # overlap ratios grow toward 1 along the long side
        assert report.rows[-1].ratio > report.rows[0].ratio

    def test_coarse_grid_raises_resolution_error(self):
        space = build_action("torus-translation", group=time_grid(2),
                            N=16, step=(29, 41))
        mu = GroupMeasure.uniform_interval(time_grid(2), -1.0, 1.0)
        with pytest.raises(GridResolutionError):
            run_certificate(space, mu, x0=0, n_max=5)

    def test_fixed_base_cell_rejected_without_geometry(self):
        # S^8 holds the steps -8 and 8, which fix every cell of the 8-cycle
        with pytest.raises(GridResolutionError,
                           match="free-orbit surrogate fails at the base cell"):
            certificates._orbit_segments(cycle_space(8), 0, np.array([-1, 0, 1]), 4)

    def test_orbit_covering_rejected(self):
        n = 64
        grid = time_grid(n)
        space = build_action("circle-rotation", group=grid, N=n, cells_per_step=1)
        with pytest.raises(GridResolutionError):
            certificates._orbit_segments(space, 0, np.arange(-n, n + 1), 2)

    @pytest.mark.parametrize("x0", [5000, 4096, -1])
    def test_base_cell_outside_space(self, x0):
        space = build_action("torus-translation", group=time_grid(1),
                            N=64, step=(29, 41))
        with pytest.raises(PreconditionError, match=rf"x0 = {x0} .* 4096 cells"):
            certificates._orbit_segments(space, x0, np.array([-1, 0, 1]), 2)


class TestNormLowerBound:
    def test_identity_measure_gives_one(self):
        mu = GroupMeasure.point_mass(Z, (0,))
        report = walk_sets(cycle_space(32), mu, F=[0], sets=(np.arange(5),) * 2,
                           S=[0])
        assert report.norm_lower_bound == pytest.approx(1.0, abs=1e-12)

    def test_zero_operator_instance(self):
        n = 64
        grid = time_grid(n)
        mu = GroupMeasure.uniform_interval(grid, 0.0, 1.0, closed=False)
        space = build_action("circle-rotation", group=grid, N=n, cells_per_step=1)
        value = walk_sets(space, mu, F=[0], sets=(np.arange(10),) * 3,
                          S=[0]).norm_lower_bound
        assert value <= 1e-6

    def test_requires_passing_conditions(self):
        # S^1 B_1 is the whole space: no room for the companion set
        with pytest.raises(PreconditionError, match="condition"):
            walk_sets(cycle_space(8), GroupMeasure.point_mass(Z, (0,)), F=[0],
                      sets=(np.arange(8),), S=[0])

    def test_measure_on_another_group(self):
        # an interval on Z, run on the q=8 time grid's circle
        space = build_action("circle-rotation", group=time_grid(8), N=1000,
                             cells_per_step=7)
        mu = GroupMeasure.uniform_interval(Z, -1.0, 1.0)
        message = "measure and action space live on different groups"
        with pytest.raises(DescriptorMismatchError, match=message):
            discrepancy(space, mu)
        with pytest.raises(DescriptorMismatchError, match=message):
            run_certificate(space, mu, x0=0, n_max=3)

    @pytest.mark.parametrize("missing", ["x0", "n_max"])
    def test_x0_and_n_max_are_required(self, missing):
        kw = {"x0": 0, "n_max": 2}
        del kw[missing]
        with pytest.raises(TypeError, match=missing):
            run_certificate(cycle_space(64), GroupMeasure.point_mass(Z, (1,)), **kw)

    def test_x0_route_builds_no_sequence(self, monkeypatch):
        # the route sweeps only the base cell and the balls of its radius
        # search, never a listed B_n, yet gives the rows of sweeping B_n
        space = build_action("torus-translation", group=time_grid(2),
                             N=64, step=(29, 41))
        mu = GroupMeasure.uniform_interval(time_grid(2), -1.0, 1.0)
        balls, swept = [], []

        def ball(*args, _fn=space.cell_ball):
            balls.append(_fn(*args))
            return balls[-1]

        def sweep(space_, idx, _fn=certificates._slot_segments):
            swept.append(idx)
            return _fn(space_, idx)

        monkeypatch.setattr(space, "cell_ball", ball)
        monkeypatch.setattr(certificates, "_slot_segments", sweep)
        report = run_certificate(space, mu, x0=0, n_max=4)
        assert balls and swept
        assert all(idx.tolist() == [0] or any(idx is b for b in balls)
                   for idx in swept)
        S = support_steps(space, mu)
        assert report == walk_sets(space, mu, S, orbit_cells(space, 0, S, 4), S)

    def test_never_exceeds_discrepancy(self):
        space = build_action("torus-translation", group=time_grid(2),
                            N=128, step=(29, 41), slope_hint=SQRT2)
        mu = GroupMeasure.uniform_interval(time_grid(2), -1.0, 1.0)
        tol = 1e-3
        report = run_certificate(space, mu, x0=0, n_max=8)
        disc = discrepancy(space, mu)
        assert report.norm_lower_bound <= disc.value + 2 * tol
        assert report.cond1_all and report.cond2_all


class TestRunCertificate:
    def test_full_pipeline_small_torus(self):
        space = build_action("torus-translation", group=time_grid(2),
                            N=128, step=(29, 41), slope_hint=SQRT2)
        mu = GroupMeasure.uniform_interval(time_grid(2), -1.0, 1.0)
        report = run_certificate(space, mu, x0=0, n_max=8)
        # the walk moves cells, so it builds the cycle coordinates
        assert {"slot", "order", "_key"} & space.cycles.__dict__.keys() == {"slot"}
        assert report.cond1_all and report.cond2_all
        assert report.norm_lower_bound > 0.5
        assert report.chain_holds
        for row in report.rows:
            assert 0.0 <= row.ratio <= 1.0
            assert row.rayleigh >= row.chain_bound - certificates.CHAIN_TOL


    @pytest.mark.parametrize("x0", [2.7, np.float64(3.0)], ids=["float", "np.float64"])
    def test_base_cell_must_be_an_integer(self, x0):
        mu = GroupMeasure.uniform_on(Z, [(-1,), (1,)])
        with pytest.raises(PreconditionError, match="x0 must be an integer, got"):
            run_certificate(cycle_space(64), mu, x0=x0, n_max=3)

    def test_numpy_integer_base_cell(self):
        space, mu = cycle_space(64), GroupMeasure.uniform_on(Z, [(-1,), (1,)])
        assert (run_certificate(space, mu, x0=np.int64(2), n_max=3)
                == run_certificate(space, mu, x0=2, n_max=3))


class TestWalkTransforms:
    def test_only_the_numerator_is_transformed(self, monkeypatch):
        # per cycle length, one transform of eta and one of phi per n; the
        # F-overlaps are segment counts
        space = build_action("bernoulli-window", group=Z, alphabet=2,
                            window_radius=1)
        assert space.cycle_lengths() == {1: 2, 3: 2}
        calls = {"rfft": 0, "irfft": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(np.fft, name), **kw):
                calls[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(np.fft, name, counted)
        mu = GroupMeasure.simple_random_walk(Z)
        n_max = 3
        report = walk_sets(space, mu, F=[-1, 0, 1], sets=(np.array([1]),) * n_max,
                           S=support_steps(space, mu))
        assert report.cond2_all and report.chain_holds
        assert calls == {"rfft": 2 * (n_max + 1), "irfft": 0}
