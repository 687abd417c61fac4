"""Action spaces, averaging operators, discrepancies, character oracles."""

import cmath
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import (
    ConstructionError,
    DescriptorMismatchError,
    GroupDescriptor,
    GroupMeasure,
    UnsupportedKindError,
    build_action,
    character_line_scan,
    character_norm,
    continued_fraction_convergent,
    discrepancy,
    symmetrize,
    verify_lower_bound,
)
from dict_oracles import physical, scaled
from operator_helpers import (
    KoopmanAveragingOperator,
    act_indices,
    dense_handle,
    operator_norm_self_adjoint,
)

Z = GroupDescriptor(kind="lattice", dimension=1)
Z17 = GroupDescriptor(kind="torus-grid", dimension=1, size=17)

SQRT2 = math.sqrt(2.0)


def time_grid(q):
    return GroupDescriptor(kind="real-grid", dimension=1, resolution=q)


def labelled_cycles(lengths, seed=0):
    """A permutation of the given cycle type on randomly labelled cells."""
    labels = np.random.default_rng(seed).permutation(sum(lengths))
    perm = np.empty(sum(lengths), dtype=np.int64)
    start = 0
    for length in lengths:
        cycle = labels[start:start + length]
        perm[cycle] = np.roll(cycle, -1)
        start += length
    return perm


def dense_zero_mean(space, mu):
    """The averaging operator on zero-mean functions as a dense matrix in the
    coordinates u = sqrt(weights) * phi, where the L2 norm is Euclidean."""
    gathers = KoopmanAveragingOperator(space, mu).apply_l2(np.eye(space.n_cells))
    s = np.sqrt(space.weights)
    project = np.eye(space.n_cells) - np.outer(s, s)
    return project @ (s[:, None] * gathers / s[None, :]) @ project


THREE = [((1,), 0.3), ((-2,), 0.45), ((3,), 0.25)]

# (kind, action parameters, expected cycle type)
SMALL_SPACES = [
    ("circle-rotation", dict(N=24, cells_per_step=7), {24: 1}),
    ("circle-rotation", dict(N=24, cells_per_step=9), {8: 3}),
    ("torus-translation", dict(N=6, step=(1, 2)), {6: 6}),
    ("torus-translation", dict(N=8, step=(2, 4)), {4: 16}),
    ("bernoulli-window", dict(alphabet=2, window_radius=1), {1: 2, 3: 2}),
    ("bernoulli-window", dict(alphabet=3, window_radius=1), {1: 3, 3: 8}),
    ("finite-permutation", dict(permutation=labelled_cycles([9]).tolist()), {9: 1}),
    ("finite-permutation", dict(permutation=labelled_cycles([4, 3, 2, 4]).tolist()),
     {4: 2, 3: 1, 2: 1}),
]


class TestBuildAction:
    def test_circle_rotation_permutation(self):
        space = build_action("circle-rotation", group=Z, N=8, cells_per_step=3)
        idx = np.arange(8)
        assert (act_indices(space, 1, idx) == (idx + 3) % 8).all()
        assert np.allclose(space.weights, 1 / 8)

    def test_torus_translations_are_bijections(self):
        # explicit integer step vector: every atom must act bijectively
        space = build_action("torus-translation", group=time_grid(100),
                            N=100, step=(1, 41))
        idx = np.arange(space.n_cells)
        for c in (-3, -1, 1, 2, 17):
            image = act_indices(space, c, idx)
            assert np.array_equal(np.sort(image), idx)

    def test_torus_from_slope_hint(self):
        p, q = continued_fraction_convergent(SQRT2, 32)
        assert (p, q) == (41, 29)
        space = build_action("torus-translation", group=time_grid(4),
                            N=128, slope_hint=SQRT2, max_denominator=32)
        assert space.step == (29, 41)

    def test_torus_group_size_divisible_by_cycle_lengths(self):
        # Z/M acts through c -> sigma^c only if every cycle length divides M
        for size in (8, 10):
            with pytest.raises(ConstructionError, match="cannot drive"):
                build_action("circle-rotation", N=7, cells_per_step=1,
                             group=GroupDescriptor(kind="torus-grid", size=size))
        mu = GroupMeasure.simple_random_walk(Z)
        want = discrepancy(build_action("circle-rotation", group=Z, N=7), mu).value
        for size in (7, 14):
            group = GroupDescriptor(kind="torus-grid", size=size)
            space = build_action("circle-rotation", group=group, N=7)
            got = discrepancy(space, GroupMeasure.simple_random_walk(group)).value
            assert got == pytest.approx(want, abs=1e-15)
        # cycles of lengths 1 and 3 need a multiple of 3
        window = dict(alphabet=2, window_radius=1)
        build_action("bernoulli-window", group=GroupDescriptor(kind="torus-grid", size=6),
                     **window)
        with pytest.raises(ConstructionError, match=r"\[1, 3\] do not all divide 4"):
            build_action("bernoulli-window",
                         group=GroupDescriptor(kind="torus-grid", size=4), **window)

    def test_bernoulli_window_cells(self):
        space = build_action("bernoulli-window", group=Z, alphabet=2,
                            window_radius=2)
        assert space.n_cells == 32
        assert np.allclose(space.weights, 1 / 32)
        # the shift rotates the window: bijective, order 2w+1
        idx = np.arange(32)
        rotated = act_indices(space, 1, idx)
        assert np.array_equal(np.sort(rotated), idx)
        five = idx
        for _ in range(5):
            five = act_indices(space, 1, five)
        assert np.array_equal(five, idx)

    def test_finite_permutation_space(self):
        space = build_action("finite-permutation", group=Z,
                            permutation=[1, 2, 3, 4, 0])
        assert act_indices(space, 2, np.array([0]))[0] == 2
        assert act_indices(space, -1, np.array([0]))[0] == 4

    def test_missing_parameter(self):
        with pytest.raises((ConstructionError, TypeError, KeyError)):
            build_action("torus-translation", group=time_grid(4), N=64)


class TestAveragingOperator:
    def test_constants_map_to_mass_times_constants(self):
        for kind, kwargs in [
            ("circle-rotation", dict(N=16, cells_per_step=3)),
            ("bernoulli-window", dict(alphabet=2, window_radius=1)),
        ]:
            space = build_action(kind, group=Z, **kwargs)
            mu = GroupMeasure.from_atoms(Z, [((1,), 0.5), ((-1,), 0.75)])
            op = KoopmanAveragingOperator(space, mu)
            ones = np.ones(space.n_cells)
            assert np.allclose(op.apply_l2(ones), mu.total_mass * ones, atol=1e-12)

    def test_zero_mean_preserved(self):
        space = build_action("circle-rotation", group=Z, N=32, cells_per_step=5)
        mu = GroupMeasure.simple_random_walk(Z)
        op = KoopmanAveragingOperator(space, mu)
        rng = np.random.default_rng(0)
        phi = rng.standard_normal(32)
        phi -= op.mean_of(phi)
        assert abs(op.mean_of(op.apply_l2(phi))) <= 1e-10


class TestCycleSpectrum:
    @pytest.mark.parametrize("kind,kwargs,cycles", SMALL_SPACES)
    def test_cycle_lengths_match_a_walk(self, kind, kwargs, cycles):
        space = build_action(kind, group=Z, **kwargs)
        assert space.cycle_lengths() == cycles

    @pytest.mark.parametrize("kind,kwargs,cycles", SMALL_SPACES)
    def test_matches_dense_norm(self, kind, kwargs, cycles):
        space = build_action(kind, group=Z, **kwargs)
        mu = scaled(GroupMeasure.from_atoms(Z, THREE), 1.7)
        res = discrepancy(space, mu)
        assert res.n_cycles == sum(cycles.values())
        assert res.value == pytest.approx(
            np.linalg.norm(dense_zero_mean(space, mu), 2), abs=1e-10)
        length, k = res.witness
        eigenvalue = sum(w * np.exp(-2j * np.pi * g[0] * k / length)
                         for g, w in mu.atoms.items())
        assert abs(eigenvalue) == pytest.approx(res.value, abs=1e-12)

    @pytest.mark.parametrize("kind,kwargs,cycles", SMALL_SPACES)
    def test_matches_power_iteration(self, kind, kwargs, cycles):
        space = build_action(kind, group=Z, **kwargs)
        mu = GroupMeasure.from_atoms(Z, THREE)
        m0 = dense_zero_mean(space, mu)
        tol = 1e-10
        top = operator_norm_self_adjoint(
            dense_handle(m0 @ m0.T, self_adjoint=True, nonnegative=True),
            tol=tol, seed=0,
        )
        assert discrepancy(space, mu).value ** 2 == pytest.approx(top.value, abs=tol)

    def test_non_uniform_cycle_constant_weights(self):
        cycles = [(0, 3, 7, 1, 9), (2, 5, 10), (4, 8, 6, 11)]
        perm = np.empty(12, dtype=np.int64)
        weights = np.empty(12)
        for cycle, mass in zip(cycles, (0.5, 0.2, 0.3)):
            perm[list(cycle)] = np.roll(cycle, -1)
            weights[list(cycle)] = mass / len(cycle)
        space = build_action("finite-permutation", group=Z,
                             permutation=perm.tolist(), weights=weights)
        for atoms in (THREE, [((2,), 1.0)]):
            mu = GroupMeasure.from_atoms(Z, atoms)
            expect = np.linalg.norm(dense_zero_mean(space, mu), 2)
            assert discrepancy(space, mu).value == pytest.approx(expect, abs=1e-10)

    def test_one_cell_space(self):
        space = build_action("finite-permutation", group=Z, permutation=[0])
        res = discrepancy(space, GroupMeasure.simple_random_walk(Z))
        assert (res.value, res.n_cycles, res.witness) == (0.0, 1, None)

    def test_group_mismatch(self):
        space = build_action("circle-rotation", group=Z, N=8, cells_per_step=3)
        with pytest.raises(DescriptorMismatchError):
            discrepancy(space, GroupMeasure.simple_random_walk(time_grid(2)))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(perm=st.integers(2, 30).flatmap(lambda n: st.permutations(range(n))),
           atoms=st.dictionaries(st.integers(-6, 6), st.floats(0.05, 1.0),
                                 min_size=1, max_size=4))
    def test_symmetrization_squares_discrepancy(self, perm, atoms):
        space = build_action("finite-permutation", group=Z, permutation=perm)
        mu = GroupMeasure.from_atoms(Z, [((c,), w) for c, w in atoms.items()])
        d_mu = discrepancy(space, mu).value
        assert discrepancy(space, symmetrize(mu)).value == pytest.approx(
            d_mu ** 2, abs=1e-12)


class TestDiscrepancy:
    def test_identity_measure(self):
        space = build_action("circle-rotation", group=Z, N=16, cells_per_step=3)
        res = discrepancy(space, GroupMeasure.point_mass(Z, (0,)))
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_margulis_zero_operator(self):
        n = 1024
        grid = time_grid(n)
        mu = GroupMeasure.uniform_interval(grid, 0.0, 1.0, closed=False)
        space = build_action("circle-rotation", group=grid, N=n, cells_per_step=1)
        res = discrepancy(space, mu)
        assert res.value <= 1e-10

    def test_cyclic_shift_has_norm_one(self):
        space = build_action("finite-permutation", group=Z,
                            permutation=[(i + 1) % 11 for i in range(11)])
        res = discrepancy(space, GroupMeasure.point_mass(Z, (1,)))
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_golden_rotation_matches_character_oracle(self):
        # golden-ratio convergent rotation: consecutive Fibonacci numbers
        n, p = 987, 610
        space = build_action("circle-rotation", group=Z, N=n, cells_per_step=p)
        mu = GroupMeasure.simple_random_walk(Z)
        char = character_norm(space, mu)
        # oracle: eigenvalues are cos(2 pi m p / n), enumerated directly
        m = np.arange(1, n)
        expect = float(np.abs(np.cos(2 * np.pi * m * p / n)).max())
        assert expect == pytest.approx(math.cos(math.pi / n), abs=1e-12)
        assert char == pytest.approx(expect, abs=1e-12)
        res = discrepancy(space, mu)
        assert res.value == pytest.approx(char, abs=1e-8)

    def test_homogeneity_and_contraction(self):
        space = build_action("circle-rotation", group=Z, N=64, cells_per_step=11)
        mu = GroupMeasure.from_atoms(Z, [((1,), 0.5), ((-1,), 0.3), ((2,), 0.2)])
        base = discrepancy(space, mu).value
        assert base <= mu.total_mass + 1e-9
        for c in (0.5, 2.0):
            value = discrepancy(space, scaled(mu, c)).value
            assert value == pytest.approx(c * base, abs=1e-7)

    def test_step_two_identity(self):
        # the norm of the symmetrized measure is the squared norm
        space = build_action("circle-rotation", group=Z, N=128, cells_per_step=21)
        mu = GroupMeasure.from_atoms(Z, [((1,), 0.6), ((-2,), 0.4)])
        d_mu = discrepancy(space, mu).value
        d_eta = discrepancy(space, symmetrize(mu)).value
        assert d_eta == pytest.approx(d_mu ** 2, abs=3 * 1e-7)

    def test_refinement_monotonicity(self):
        # nested circle grids: reported norms nondecreasing in resolution
        mu = GroupMeasure.simple_random_walk(Z)
        values = []
        for n in (8, 16, 32, 64):
            space = build_action("circle-rotation", group=Z, N=n, cells_per_step=1)
            values.append(discrepancy(space, mu).value)
        assert all(b >= a - 2e-10 for a, b in zip(values, values[1:]))


class TestCharacterNorm:
    def test_clamped_at_the_mass(self):
        # the 256-torus line flow: the largest |mu^| is the mass, 1, which
        # the FFT rounds to 1.0000000000000002
        grid = time_grid(8)
        space = build_action("torus-translation", group=grid, N=256,
                             step=(29, 41), slope_hint=SQRT2)
        mu = GroupMeasure.uniform_interval(grid, -1.0, 1.0)
        assert mu.total_mass == 1.0
        assert character_norm(space, mu) == 1.0

    def test_identity_measure(self):
        space = build_action("circle-rotation", group=Z, N=16, cells_per_step=3)
        assert character_norm(space, GroupMeasure.point_mass(Z, (0,))) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_orbit_covering_measure_kills_characters(self):
        # criterion 1: the interval puts 1/n on every cell, and the real
        # transform of a constant grid is exactly 0 off bin 0
        n = 1024
        grid = time_grid(n)
        mu = GroupMeasure.uniform_interval(grid, 0.0, 1.0, closed=False)
        space = build_action("circle-rotation", group=grid, N=n, cells_per_step=1)
        assert np.all(TestCharacterNorm.mass_grid(space, mu) == 1 / n)
        assert character_norm(space, mu) == 0.0

    def test_unsupported_kind(self):
        space = build_action("bernoulli-window", group=Z, alphabet=2,
                            window_radius=1)
        with pytest.raises(UnsupportedKindError):
            character_norm(space, GroupMeasure.simple_random_walk(Z))

    def test_agreement_with_discrepancy_on_full_dual(self):
        space = build_action("torus-translation", group=time_grid(2),
                            N=32, step=(5, 7))
        mu = GroupMeasure.from_atoms(
            time_grid(2), [((1,), 0.4), ((-1,), 0.4), ((0,), 0.2)]
        )
        char = character_norm(space, mu)
        disc = discrepancy(space, mu).value
        assert disc == pytest.approx(char, abs=1e-6)

    # sides odd, even and prime; the second atom of each measure sits on
    # the cell of the first, N steps further on
    HALF_SPECTRUM_CASES = [
        ("circle-rotation", dict(N=2, cells_per_step=1), [2, 1]),
        ("circle-rotation", dict(N=9, cells_per_step=2), [0, 4, -7]),
        ("circle-rotation", dict(N=12, cells_per_step=5), [1, -1, 6, 17]),
        ("circle-rotation", dict(N=13, cells_per_step=8), [2, -3, 5]),
        ("circle-rotation", dict(N=64, cells_per_step=27), [1, -2, 9, 40]),
        ("torus-translation", dict(N=5, step=(1, 2)), [1, -1, 3]),
        ("torus-translation", dict(N=8, step=(3, 5)), [0, 2, -5, 11]),
        ("torus-translation", dict(N=9, step=(0, 4)), [1, 7]),
        ("torus-translation", dict(N=17, step=(5, 13)), [-4, 1, 2, 30]),
    ]

    @staticmethod
    def half_spectrum_measure(kw, coords):
        """Atoms at the coordinates with unequal weights, and one more at
        the first coordinate plus N, on the same cell."""
        weights = np.arange(1, len(coords) + 2, dtype=float) ** 1.5
        weights /= 1.25 * weights.sum()
        coords = [*coords, coords[0] + kw["N"]]
        return GroupMeasure.from_atoms(
            Z, [((c,), float(w)) for c, w in zip(coords, weights)])

    @staticmethod
    def mass_grid(space, mu):
        support = mu.support()
        grid = np.zeros(space.grid_shape)
        np.add.at(grid, tuple(space.translations(space.steps(np.array(support))).T),
                  [mu.atoms[g] for g in support])
        return grid

    @pytest.mark.parametrize("kind,kw,coords", HALF_SPECTRUM_CASES)
    def test_half_spectrum_is_the_direct_character_sum(self, kind, kw, coords):
        """max over m != 0 of |sum_j w_j exp(-2 pi i <m, v_j> / N)|, the
        exponentials written out over the whole grid dual."""
        space = build_action(kind, group=Z, **kw)
        mu = self.half_spectrum_measure(kw, coords)
        support = mu.support()
        vectors = space.translations(space.steps(np.array(support)))
        weights = np.array([mu.atoms[g] for g in support])
        dual = np.indices(space.grid_shape).reshape(len(space.grid_shape), -1).T[1:]
        phases = np.exp(-2j * np.pi * (dual @ vectors.T) / kw["N"])
        expect = min(float(np.abs(phases @ weights).max()), mu.total_mass)
        assert expect < mu.total_mass or kind == "torus-translation"
        assert character_norm(space, mu) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("kind,kw,coords", HALF_SPECTRUM_CASES)
    def test_half_spectrum_matches_the_full_transform(self, kind, kw, coords):
        """The largest nonzero modulus of the complex transform of the
        whole grid, clamped at the mass."""
        space = build_action(kind, group=Z, **kw)
        mu = self.half_spectrum_measure(kw, coords)
        full = np.abs(np.fft.fftn(self.mass_grid(space, mu))).ravel()[1:]
        expect = min(float(full.max()), mu.total_mass)
        assert character_norm(space, mu) == pytest.approx(expect, rel=1e-15)

    @staticmethod
    def looped_line_scan(mu, slope, freq_cutoff):
        """The scan one candidate at a time, in scan order; the first
        strict maximum wins."""
        times = [physical(mu.group, g)[0] for g in mu.atoms]
        weights = [mu.atoms[g] for g in mu.atoms]
        gaps = np.diff(np.unique(times))
        nyquist = 0.5 / gaps.min() if gaps.size else math.inf
        best, best_m = 0.0, (0, 0)
        for m2 in range(freq_cutoff + 1):
            if m2 == 0:
                candidates = range(1, min(freq_cutoff, 8) + 1)
            else:
                center = -round(slope * m2)
                candidates = [c for c in (center - 1, center, center + 1)
                              if abs(c) <= freq_cutoff]
            for m1 in candidates:
                theta = m1 + slope * m2
                if abs(theta) > nyquist:
                    continue
                val = abs(sum(w * cmath.exp(-2j * math.pi * t * theta)
                              for t, w in zip(times, weights)))
                if val > best:
                    best, best_m = val, (m1, m2)
        return best, best_m

    @pytest.mark.parametrize("q,lo,hi", [(1, -1.0, 1.0), (8, -1.0, 1.0),
                                         (4, 0.0, 3.0)])
    @pytest.mark.parametrize("slope", [SQRT2, (1 + 5 ** 0.5) / 2, math.pi])
    @pytest.mark.parametrize("cutoff", [1, 8, 2000])
    def test_line_scan_matches_loop(self, q, lo, hi, slope, cutoff):
        mu = GroupMeasure.uniform_interval(time_grid(q), lo, hi)
        value, witness = character_line_scan(mu, slope, cutoff)
        want, want_witness = self.looped_line_scan(mu, slope, cutoff)
        assert witness == want_witness
        assert value == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("group,atoms", [
        (Z, [((-1,), 0.5), ((1,), 0.5)]),
        (Z, [((2,), 0.1), ((0,), 0.4), ((5,), 0.2), ((1,), 0.3)]),
        (Z17, [((c % 17,), 1 / 7) for c in range(-3, 4)]),
        (GroupDescriptor(kind="torus-grid", dimension=1, size=64),
         [((62,), 0.25), ((1,), 0.25), ((0,), 0.3), ((63,), 0.2)]),
        # unsorted, negative coordinates, uneven gaps
        (time_grid(4), [((5,), 0.2), ((-3,), 0.3), ((0,), 0.1), ((-11,), 0.4)]),
        # (0,) and (17,) are one cell of Z/17 at time 0: a gap of 0
        (Z17, [((0,), 0.3), ((17,), 0.2), ((3,), 0.5)]),
    ], ids=["lattice-srw", "lattice-uneven", "torus-interval", "torus-wrap",
            "unsorted-negative", "repeated-coordinate"])
    @pytest.mark.parametrize("slope", [SQRT2, (1 + 5 ** 0.5) / 2, math.pi])
    @pytest.mark.parametrize("cutoff", [8, 2000])
    def test_line_scan_matches_loop_on_atoms(self, group, atoms, slope, cutoff):
        mu = GroupMeasure.from_atoms(group, atoms)
        value, witness = character_line_scan(mu, slope, cutoff)
        want, want_witness = self.looped_line_scan(mu, slope, cutoff)
        assert witness == want_witness
        assert value == pytest.approx(want, abs=1e-14)

    def test_line_scan_of_sparse_support(self):
        # gaps 1 and 999,999: the cost does not grow with the span
        mu = GroupMeasure.uniform_on(Z, [(0,), (1,), (10**6,)])
        start = time.perf_counter()
        value, (m1, m2) = character_line_scan(mu, SQRT2, 2000)
        assert time.perf_counter() - start < 0.25
        theta = m1 + SQRT2 * m2
        at_witness = abs(sum(w * cmath.exp(-2j * math.pi * g[0] * theta)
                             for g, w in mu.atoms.items()))
        assert value == pytest.approx(at_witness, abs=1e-12)
        assert value > 0.99

    def test_line_scan_of_point_mass_is_one(self):
        mu = GroupMeasure.point_mass(Z, (0,))
        assert character_line_scan(mu, SQRT2, 50) == (1.0, (1, 0))

    def test_line_scan_near_resonance(self):
        q = 8
        grid = time_grid(q)
        mu = GroupMeasure.uniform_interval(grid, -1.0, 1.0)
        value, (m1, m2) = character_line_scan(mu, SQRT2, 10_000)
        assert value > 0.999
        # the witness frequency must nearly annihilate m1 + sqrt(2) m2
        assert abs(m1 + SQRT2 * m2) < 1e-3


def coordinates_built(space):
    return "slot" in space.cycles.__dict__


class TestCycleTypeAlone:
    """The discrepancy, the verification with its hypothesis check and the
    character oracle read only the cycle type: no cycle coordinates are
    built."""

    @pytest.mark.parametrize("kind,kw", [
        ("bernoulli-window", dict(alphabet=4, window_radius=2)),
        ("finite-permutation", dict(permutation=labelled_cycles([50, 30, 20]).tolist())),
    ])
    def test_lattice_verification(self, kind, kw):
        space = build_action(kind, group=Z, **kw)
        mu = GroupMeasure.from_atoms(Z, THREE)
        discrepancy(space, mu)
        assert verify_lower_bound(space, mu, tol=1e-6).passed is True
        assert not coordinates_built(space)

    def test_grid_verification_on_torus(self):
        # a grid-driven action adds the orbit check of the base cell
        grid = time_grid(4)
        space = build_action("torus-translation", group=grid, N=128,
                             step=(29, 41), slope_hint=SQRT2)
        mu = GroupMeasure.uniform_interval(grid, -1.0, 1.0)
        assert verify_lower_bound(space, mu, tol=1e-3).passed is True
        assert not coordinates_built(space)

    def test_koopman_norm_on_torus(self):
        grid = time_grid(8)
        space = build_action("torus-translation", group=grid, N=64,
                             step=(29, 41), slope_hint=SQRT2)
        mu = GroupMeasure.uniform_interval(grid, -1.0, 1.0)
        discrepancy(space, mu)
        character_norm(space, mu)
        character_line_scan(mu, space.slope_target, 100)
        assert not coordinates_built(space)


class TestVerifyLowerBound:
    def test_bernoulli_window_discrete_specialization(self):
        space = build_action("bernoulli-window", group=Z, alphabet=2,
                            window_radius=3)
        mu = GroupMeasure.simple_random_walk(Z)
        report = verify_lower_bound(space, mu, tol=1e-6)
        assert report.spectrum.n_cycles == 20  # 2 fixed words, 18 of period 7
        assert report.spectrum.invariant_dim == 19
        assert report.hypothesis_ok
        assert report.regular_norm == pytest.approx(1.0)
        assert report.delta >= 1 - 1e-6
        assert report.passed is True

    def test_torus_flow_passes(self):
        q = 4
        space = build_action("torus-translation", group=time_grid(q),
                            N=128, step=(29, 41), slope_hint=SQRT2)
        mu = GroupMeasure.uniform_interval(time_grid(q), -1.0, 1.0)
        report = verify_lower_bound(space, mu, tol=1e-3)
        assert report.hypothesis_ok
        assert report.regular_norm == pytest.approx(1.0, abs=1e-12)
        assert report.passed is True
        # every translation of the 128-torus has order <= 128: 128 cycles
        assert report.spectrum.invariant_dim == 127
        assert report.delta == mu.total_mass
        assert any("holds trivially (non-ergodic discretization: 127 invariant "
                   "zero-mean functions)" in line for line in report.notes)

    def test_orbit_covering_flagged_not_asserted(self):
        n = 256
        grid = time_grid(n)
        mu = GroupMeasure.uniform_interval(grid, 0.0, 1.0, closed=False)
        space = build_action("circle-rotation", group=grid, N=n, cells_per_step=1)
        report = verify_lower_bound(space, mu, tol=1e-3)
        assert not report.hypothesis_ok
        assert report.passed is None
        assert any("orbit covers the space" in v for v in report.violations)
        assert report.delta <= 1e-8
        assert report.regular_norm == 1.0
        assert report.spectrum.n_cycles == 1
        assert not any("holds trivially" in line for line in report.notes)
