"""Regular-representation norm estimators and their closed-form oracles."""

import importlib
import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from dict_oracles import (
    convolution_power,
    dict_berg_christensen_sequence,
    dict_convolve,
    dict_involute,
    mass_on_set,
    sampled_fourier_sup,
    scaled,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import groups, measures
from gaplab import (
    DescriptorMismatchError,
    GroupDescriptor,
    GroupMeasure,
    PreconditionError,
    UnsupportedKindError,
    amenable_norm,
    berg_christensen_estimate,
    convolve,
    involute,
    symmetrize,
)
from gaplab.regular_norm import regular_norm

# the module itself: the package attribute of that name is the function
norms = importlib.import_module("gaplab.regular_norm")

Z = GroupDescriptor(kind="lattice", dimension=1)
Z2 = GroupDescriptor(kind="lattice", dimension=2)
F2 = GroupDescriptor(kind="free", dimension=2)


class TestBergChristensen:
    def test_point_mass_identity(self):
        est = berg_christensen_estimate(
            GroupMeasure.point_mass(Z, (0,)), F=[(0,)], n_max=6
        )
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.method == "berg-christensen"

    def test_srw_matches_binomial_oracle(self):
        est = berg_christensen_estimate(
            GroupMeasure.simple_random_walk(Z), F=[(0,)], n_max=50
        )
        # oracle: central binomial coefficient, exact integers
        expect = (math.comb(100, 50) / 4**50) ** (1 / 100)
        assert est.value == pytest.approx(expect, abs=1e-6)
        assert len(est.sequence) == 50

    def test_sequence_nondecreasing_for_positive_type(self):
        est = berg_christensen_estimate(
            GroupMeasure.simple_random_walk(Z), F=[(0,)], n_max=40
        )
        raws = [v for _, v in est.sequence]
        assert all(b >= a - 1e-10 for a, b in zip(raws, raws[1:]))

    def test_a_scaled_free_measure_scales_its_sequence(self):
        # weights 0.4 and 0.1 differ by far less than 1e-15 at the scale
        # 1e-17, but not relative to the largest: the walk is not uniform
        pairs = [((1,), 0.4), ((-1,), 0.4), ((2,), 0.1), ((-2,), 0.1)]
        unit = berg_christensen_estimate(GroupMeasure.from_atoms(F2, pairs), n_max=6)
        small = berg_christensen_estimate(
            GroupMeasure.from_atoms(F2, [(g, w * 1e-17) for g, w in pairs]), n_max=6)
        assert unit.method == small.method == "berg-christensen"
        assert [n for n, _ in small.sequence] == list(range(1, 7))
        for (_, got), (_, want) in zip(small.sequence, unit.sequence):
            assert got == pytest.approx(want * 1e-17, rel=1e-12)
        # uniform weights at any scale take the radial oracle
        srw = GroupMeasure.from_atoms(F2, [(g, 0.25e-17) for g, _ in pairs])
        assert berg_christensen_estimate(srw, n_max=6).method == "free-radial"

    def test_decrease_is_named_in_the_note(self):
        # a drifting walk seen through F = {-1, 0, 1}: the terms fall from n = 2
        mu = GroupMeasure.from_atoms(Z, [((1,), 0.9), ((0,), 0.1)])
        est = berg_christensen_estimate(mu, F=[(-1,), (0,), (1,)], n_max=8)
        raws = [v for _, v in est.sequence]
        assert all(b < a - 1e-10 for a, b in zip(raws, raws[1:]))
        assert est.note == (
            "convolution-power sequence decreased at n = 2, 3, 4, 5, 6, 7, 8 "
            f"(first {raws[0]:.12g} -> {raws[1]:.12g}); "
            "monotonicity is only heuristic for this input")
        flat = berg_christensen_estimate(GroupMeasure.simple_random_walk(Z), n_max=8)
        assert flat.note == ""

    def test_value_below_total_mass(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            atoms = {
                (int(k),): float(rng.uniform(0.05, 1.0))
                for k in rng.integers(-4, 5, size=3)
            }
            mu = GroupMeasure.from_atoms(Z, atoms.items())
            est = berg_christensen_estimate(mu, F=[(0,)], n_max=12)
            assert est.value <= mu.total_mass + 1e-10

    def test_involution_invariance(self):
        mu = GroupMeasure.from_atoms(Z, [((1,), 0.25), ((2,), 0.5), ((-3,), 0.25)])
        a = berg_christensen_estimate(mu, F=[(0,)], n_max=15).value
        b = berg_christensen_estimate(involute(mu), F=[(0,)], n_max=15).value
        assert a == pytest.approx(b, abs=1e-10)

    def test_free_involution_invariance(self):
        mu = GroupMeasure.from_atoms(F2, [((1,), 0.5), ((2,), 0.5)])
        a = berg_christensen_estimate(mu, F=[()], n_max=8).value
        b = berg_christensen_estimate(involute(mu), F=[()], n_max=8).value
        assert a == pytest.approx(b, abs=1e-10)

    def test_free_uniform_takes_radial_path(self):
        est = berg_christensen_estimate(
            GroupMeasure.simple_random_walk(F2), F=[()], n_max=200
        )
        assert est.method == "free-radial"
        assert 0.84 <= est.value <= 0.87

    def test_agreement_with_amenable_oracle(self):
        mu = GroupMeasure.simple_random_walk(Z)
        kesten = amenable_norm(mu).value
        est = berg_christensen_estimate(mu, F=[(0,)], n_max=60).value
        assert kesten - 0.05 <= est <= kesten

    def test_empty_F_rejected(self):
        with pytest.raises(PreconditionError):
            berg_christensen_estimate(GroupMeasure.simple_random_walk(Z), F=[])

    def test_F_must_contain_identity(self):
        with pytest.raises(PreconditionError):
            berg_christensen_estimate(
                GroupMeasure.simple_random_walk(Z), F=[(1,)], n_max=4
            )

    def test_blowup_error_suggests_radial_oracle(self):
        from gaplab import ResourceLimitError

        # non-uniform free-group measure: no radial shortcut, support explodes
        mu = GroupMeasure.from_atoms(F2, [((1,), 0.6), ((-1,), 0.2), ((2,), 0.2)])
        with pytest.raises(ResourceLimitError, match="radial"):
            berg_christensen_estimate(mu, F=[()], n_max=30, cap=500)
        hint = r"the cap bounds the support of eta\^\{\*15\}"
        with pytest.raises(ResourceLimitError, match=hint):
            berg_christensen_estimate(mu, F=[()], n_max=30, cap=500)

    def test_blowup_hint_names_the_free_radial_path(self):
        from gaplab import ResourceLimitError

        mu = GroupMeasure.from_atoms(F2, [((1,), 0.6), ((-1,), 0.2), ((2,), 0.2)])
        with pytest.raises(ResourceLimitError,
                           match=r"F = \{e\} the uniform-generator walk takes the "
                                 "free-radial path"):
            berg_christensen_estimate(mu, F=[()], n_max=30, cap=500)


F2_NONUNIFORM = [((1,), 0.3), ((-1,), 0.2), ((2,), 0.3), ((-2,), 0.2)]
GRID8 = GroupDescriptor(kind="real-grid", dimension=1, resolution=8)


def full_depth_sequence(mu, F, n_max):
    """(eta^{*n}(F))^{1/(2n)} from the n-fold convolution power itself."""
    eta = symmetrize(mu)
    return [mass_on_set(convolution_power(eta, n), F) ** (1.0 / (2 * n))
            for n in range(1, n_max + 1)]


class TestHalfDepth:
    """Each term comes from eta^{*ceil(n/2)} and eta^{*floor(n/2)} only."""

    @pytest.mark.parametrize("mu,F,n_max", [
        (GroupMeasure.from_atoms(F2, F2_NONUNIFORM), [()], 5),
        (GroupMeasure.simple_random_walk(Z2), [(0, 0)], 12),
        (GroupMeasure.uniform_interval(GRID8, -1, 1), GRID8.ball(1.0), 12),
    ], ids=["free-nonuniform", "z2-walk", "interval-q8"])
    def test_matches_full_depth(self, mu, F, n_max):
        est = berg_christensen_estimate(mu, F=F, n_max=n_max)
        assert [n for n, _ in est.sequence] == list(range(1, n_max + 1))
        want = full_depth_sequence(mu, F, n_max)
        for (_, got), ref in zip(est.sequence, want):
            assert got == pytest.approx(ref, rel=1e-12, abs=0)

    def test_cap_bounds_half_depth_power(self):
        from gaplab import ResourceLimitError

        mu = GroupMeasure.from_atoms(F2, F2_NONUNIFORM)
        eta = symmetrize(mu)
        size3 = len(convolution_power(eta, 3))
        size5 = len(convolution_power(eta, 5))
        assert size3 < size5
        est = berg_christensen_estimate(mu, F=[()], n_max=5, cap=size3)
        assert est.sequence == berg_christensen_estimate(mu, F=[()], n_max=5).sequence
        with pytest.raises(ResourceLimitError):
            convolution_power(eta, 5, cap=size3)
        with pytest.raises(ResourceLimitError, match=r"eta\^\{\*4\}"):
            berg_christensen_estimate(mu, F=[()], n_max=7, cap=size3)

    def test_cap_is_met_exactly_on_z(self):
        from gaplab import ResourceLimitError

        # supp eta^{*m} = {-2m, ..., 2m} by steps of 2: 2m + 1 atoms
        mu = GroupMeasure.simple_random_walk(Z)
        est = berg_christensen_estimate(mu, F=[(0,)], n_max=40, cap=41)
        assert len(est.sequence) == 40
        with pytest.raises(ResourceLimitError):
            berg_christensen_estimate(mu, F=[(0,)], n_max=40, cap=40)


WALK_GROUPS = [
    GroupDescriptor(kind="lattice", dimension=1),
    GroupDescriptor(kind="lattice", dimension=2),
    GroupDescriptor(kind="lattice", dimension=3),
    GroupDescriptor(kind="real-grid", dimension=1, resolution=8),
    GroupDescriptor(kind="real-grid", dimension=2, resolution=4),
    GroupDescriptor(kind="torus-grid", dimension=1, size=7),
    GroupDescriptor(kind="torus-grid", dimension=2, size=5),
]


@st.composite
def walk_case(draw):
    """A measure of an abelian kind, a neighborhood F of e and a depth."""
    group = draw(st.sampled_from(WALK_GROUPS))
    lo, hi = (0, group.size - 1) if group.kind == "torus-grid" else (-3, 3)
    cell = st.tuples(*[st.integers(lo, hi)] * group.dimension)
    atoms = draw(st.lists(st.tuples(cell, st.floats(1e-3, 10.0)),
                          min_size=1, max_size=5))
    F = [group.identity(), *draw(st.lists(cell, max_size=3))]
    n_max = draw(st.integers(2, {1: 9, 2: 6, 3: 4}[group.dimension]))
    return GroupMeasure.from_atoms(group, atoms), F, n_max


class TestArrayWalkOracle:
    """The keyed walk of every kind equals the dict walk bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(walk_case())
    def test_matches_dict_walk(self, case):
        mu, F, n_max = case
        est = berg_christensen_estimate(mu, F=F, n_max=n_max)
        assert est.sequence == dict_berg_christensen_sequence(mu, F, n_max)

    @pytest.mark.parametrize("mu,F,n_max", [
        (GroupMeasure.simple_random_walk(Z), [(0,)], 60),
        (GroupMeasure.from_atoms(Z, [((1,), 0.3), ((-2,), 0.45), ((3,), 0.25)]),
         [(0,), (1,), (-4,)], 30),
        (GroupMeasure.from_atoms(Z2, [((1, 0), 0.3), ((0, 2), 0.45),
                                      ((-1, -1), 0.25)]),
         [(0, 0), (1, 0), (0, -1)], 12),
        (GroupMeasure.uniform_interval(GRID8, -1, 1), GRID8.ball(1.0), 12),
        (GroupMeasure.from_atoms(GroupDescriptor(kind="torus-grid", size=17),
                                 [((1,), 0.3), ((3,), 0.5), ((16,), 0.2)]),
         [(0,), (2,), (15,)], 20),
        (GroupMeasure.from_atoms(F2, F2_NONUNIFORM), [(), (1,)], 4),
        (GroupMeasure.from_atoms(Z, [((0,), 0.5), ((10**9,), 0.3), ((1,), 0.2)]),
         [(0,), (10**9,), (-1,)], 9),
        (GroupMeasure.from_atoms(Z2, [((0, 0), 0.5), ((1, 10**6), 0.5)]),
         [(0, 0), (1, 10**6)], 8),
        (GroupMeasure.from_atoms(F2, F2_NONUNIFORM), [()], 8),
        (GroupMeasure.from_atoms(GroupDescriptor(kind="free", dimension=3),
                                 [((1, -2), 0.3), ((3,), 0.5), ((), 0.2)]),
         [(), (2, -1), (3,)], 7),
    ], ids=["z-walk", "z-nonsymmetric", "z2-nonsymmetric", "interval-q8",
            "torus-nonsymmetric", "free-nonuniform", "z-sparse", "z2-sparse",
            "free-depth-8", "free3-nonsymmetric"])
    def test_matches_dict_walk_on_fixed_cases(self, mu, F, n_max):
        est = berg_christensen_estimate(mu, F=F, n_max=n_max)
        assert est.sequence == dict_berg_christensen_sequence(mu, F, n_max)


#: ``_DENSE_RANGE`` values that send every deduplication, or every pairing,
#: through one route
ROUTES = {"table": 10**18, "search": 0}


class TestWalkRoutes:
    """Each deduplication branch with each pairing route gives the dict
    walk's sequence bit for bit."""

    @pytest.mark.parametrize("pairing", ROUTES)
    @pytest.mark.parametrize("dedupe", ROUTES)
    @pytest.mark.parametrize("mu,F,n_max", [
        (GroupMeasure.simple_random_walk(Z), [(0,)], 40),
        (GroupMeasure.from_atoms(Z2, [((1, 0), 0.3), ((0, 2), 0.45),
                                      ((-1, -1), 0.25)]),
         [(0, 0), (1, 0), (0, -1)], 10),
        (GroupMeasure.uniform_interval(GRID8, -1, 1), GRID8.ball(1.0), 10),
        (GroupMeasure.from_atoms(GroupDescriptor(kind="torus-grid", dimension=2, size=9),
                                 [((1, 0), 0.3), ((0, 2), 0.5), ((8, 8), 0.2)]),
         [(0, 0), (2, 0), (8, 1)], 12),
        (GroupMeasure.from_atoms(Z, [((0,), 0.5), ((1000,), 0.3), ((1,), 0.2)]),
         [(0,), (1000,), (-1,)], 9),
    ], ids=["z-walk", "z2-nonsymmetric", "interval-q8", "torus2", "z-sparse"])
    def test_matches_dict_walk(self, mu, F, n_max, dedupe, pairing):
        with mock.patch.object(groups, "_DENSE_RANGE", ROUTES[dedupe]), \
                mock.patch.object(measures, "_DENSE_RANGE", ROUTES[pairing]), \
                mock.patch.object(np, "full", wraps=np.full) as table, \
                mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search:
            est = berg_christensen_estimate(mu, F=F, n_max=n_max)
        assert est.sequence == dict_berg_christensen_sequence(mu, F, n_max)
        assert table.called == (dedupe == "table")
        assert search.called == (pairing == "search")

    def test_lookup_array_is_bounded_by_the_step(self):
        # Z2 at n_max 24 keys a 49^2 box (eta reaches 2 per axis, h = 12);
        # the pairing searches while 4 |high| |eta| is below that, then
        # reads through a float table over the box, one per pairing
        mu = GroupMeasure.simple_random_walk(Z2)
        eta = symmetrize(mu)
        searched = [n for n in range(1, 25)
                    if 4 * len(convolution_power(eta, (n + 1) // 2)) * len(eta) < 49**2]
        assert 0 < len(searched) < 24
        with mock.patch.object(np, "zeros", wraps=np.zeros) as zeros, \
                mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search:
            est = berg_christensen_estimate(mu, F=[(0, 0)], n_max=24)
        assert est.sequence == dict_berg_christensen_sequence(mu, [(0, 0)], 24)
        floats = [c.args for c in zeros.call_args_list if "dtype" not in c.kwargs]
        assert floats == [(49**2,)] * (24 - len(searched))
        assert search.call_count == len(searched)

    def test_a_key_absent_from_reach_reads_0(self):
        # after a pairing that read all of eta, a reach without a key of
        # high reads 0 there
        box, eta = walk_box(GroupMeasure.simple_random_walk(Z), [(0,)], 4)
        keys, weights = eta
        for route in ROUTES.values():
            with mock.patch.object(measures, "_DENSE_RANGE", route):
                assert measures._pairing(box, eta, eta, len(keys)) == sum(
                    (weights * weights).tolist())
                assert measures._pairing(box, eta, (keys[:1], weights[:1]),
                                         len(keys)) == weights[0] ** 2


def walk_box(mu, F, n_max):
    """The key box of the Berg-Christensen walk and eta = mu * mu^ as
    (keys, weights) in it."""
    eta = symmetrize(mu)
    box = measures._walk_box(mu.group, eta.cells, F, (n_max + 1) // 2, n_max // 2, "test")
    return box, (box.keys(eta.cells), eta.weights)


class TestPairingOrder:
    """The pairing adds its products one by one from the left on both
    branches: 1.0 followed by ten products 1e-16 pairs to exactly 1.0,
    where a pairwise or a compensated sum moves the last digit."""

    WEIGHTS = [1.0] + [1e-16] * 10

    def test_abelian_branch(self):
        box, eta = walk_box(GroupMeasure.simple_random_walk(Z), [(0,)], 12)
        keys = np.arange(len(self.WEIGHTS))  # within the box of radius 12
        high = (keys, np.array(self.WEIGHTS))
        for route in ROUTES.values():
            with mock.patch.object(measures, "_DENSE_RANGE", route):
                assert measures._pairing(box, high, (keys, np.ones(len(keys))),
                                         len(eta[0])) == 1.0
                assert measures._pairing(box, (keys[:0], high[1][:0]),
                                         (keys[:0], high[1][:0]), len(eta[0])) == 0.0

    def test_free_branch(self):
        box, eta = walk_box(GroupMeasure.simple_random_walk(F2), [()], 4)
        keys = box.keys(F2.ball(2)[:len(self.WEIGHTS)])
        high = (keys, np.array(self.WEIGHTS))
        # reach's keys in another order: the pairing searches them
        assert measures._pairing(box, high, (keys[::-1], np.ones(len(keys))),
                                 len(eta[0])) == 1.0
        assert measures._pairing(box, (keys[:0], high[1][:0]), (keys[:0], high[1][:0]),
                                 len(eta[0])) == 0.0


class TestWalkAtIdentity:
    """With F = {e} the walk forms 1_F * (eta^{*l})^ as (eta^{*l})^ itself:
    the sequence is the dict walk's bit for bit, and a convolution runs only
    for eta and at odd n."""

    TORUS = GroupDescriptor(kind="torus-grid", dimension=2, size=9)

    @pytest.mark.parametrize("mu,n_max", [
        (GroupMeasure.simple_random_walk(Z), 40),
        (GroupMeasure.from_atoms(Z, [((1,), 0.3), ((-2,), 0.45), ((3,), 0.25)]), 21),
        (GroupMeasure.from_atoms(Z2, [((1, 0), 0.3), ((0, 2), 0.45),
                                      ((-1, -1), 0.25)]), 12),
        (GroupMeasure.from_atoms(TORUS, [((1, 0), 0.3), ((0, 2), 0.5), ((8, 8), 0.2)]), 13),
        (GroupMeasure.from_atoms(F2, F2_NONUNIFORM), 5),
    ], ids=["z-walk", "z-nonsymmetric", "z2-nonsymmetric", "torus2", "free-nonuniform"])
    @pytest.mark.parametrize("extra", [False, True], ids=["e", "e-and-g"])
    def test_matches_dict_walk_and_skips_even_steps(self, mu, n_max, extra):
        group = mu.group
        F = [group.identity()]
        if extra:  # a second cell keeps the convolution by 1_F at even n
            F.append(next(iter(mu.atoms)))
        with mock.patch.object(measures, "convolve", wraps=convolve) as free, \
                mock.patch.object(norms, "_convolve_keys",
                                  wraps=norms._convolve_keys) as walk, \
                mock.patch.object(measures, "_convolve_keys",
                                  wraps=measures._convolve_keys) as first:
            est = berg_christensen_estimate(mu, F=F, n_max=n_max)
        assert est.sequence == dict_berg_christensen_sequence(mu, F, n_max)
        calls = walk.call_count + first.call_count
        # eta, then high * eta at each odd n > 1, and 1_F * high^ at each even n
        assert calls == (n_max + 1) // 2 + (n_max // 2 if extra else 0)
        # eta is the one measure the walk forms by ``convolve``
        assert (free.call_count, first.call_count) == (1, 1)


class TestWalkInputs:
    """F is read mod N on the torus; a walk that would leave int64 raises."""

    def test_f_reduced_mod_n(self):
        z17 = GroupDescriptor(kind="torus-grid", dimension=1, size=17)
        mu = GroupMeasure.from_atoms(z17, [((1,), 0.5), ((16,), 0.5)])
        written = [berg_christensen_estimate(mu, F=F, n_max=4).sequence
                   for F in ([(0,), (19,)], [(0,), (2,)], [(17,), (2,), (-15,)])]
        assert written[0] == written[1] == written[2]
        assert written[0][0] == (1, pytest.approx(0.8660254037844386, abs=1e-15))

    def test_walk_beyond_int64_raises(self):
        mu = GroupMeasure.from_atoms(Z, [((2**62,), 0.5), ((-2**62,), 0.5)])
        with pytest.raises(DescriptorMismatchError, match="leaves int64 at coordinate"):
            berg_christensen_estimate(mu, F=[(0,)], n_max=4)

    def test_far_measure_keys_by_its_spread(self):
        z3 = GroupDescriptor(kind="lattice", dimension=3)
        far = (10**15, -10**15, 3 * 10**15)
        mu = GroupMeasure.from_atoms(z3, [(far, 0.5), ((far[0] + 1, *far[1:]), 0.3),
                                          ((far[0], far[1] + 2, far[2]), 0.2)])
        F = [(0, 0, 0), (1, 0, 0)]
        est = berg_christensen_estimate(mu, F=F, n_max=6)
        assert est.sequence == dict_berg_christensen_sequence(mu, F, 6)

    @pytest.mark.parametrize("group, atoms, n_max", [
        (Z2, [(0, 0), (10**9, 10**9)], 10),
        (GroupDescriptor(kind="lattice", dimension=3), [(0, 0, 0), (10**5, 10**5, 10**5)], 50),
    ], ids=["z2", "z3"])
    def test_walk_box_grows_with_n_max_times_spread(self, group, atoms, n_max):
        # the box holds eta^{*h} whole: (2 h e + 1)^d cells, beyond int64 here
        mu = GroupMeasure.uniform_on(group, atoms)
        with pytest.raises(DescriptorMismatchError,
                           match="Berg-Christensen walk needs a key box of .* cells"):
            berg_christensen_estimate(mu, F=[group.identity()], n_max=n_max)
        est = berg_christensen_estimate(mu, F=[group.identity()], n_max=2)
        assert est.sequence == dict_berg_christensen_sequence(mu, [group.identity()], 2)


class TestNonFiniteAndUnderflow:
    """Overflow fails cleanly, naming the first bad atom; underflow drops atoms."""

    def test_overflow_names_first_atom_without_numpy_warning(self):
        mu = GroupMeasure.from_atoms(Z, [((1,), 1e200), ((-1,), 1e200)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError) as err:
                berg_christensen_estimate(mu, F=[(0,)], n_max=4)
        assert str(err.value) == "non-finite weight inf at atom (0,)"

    def test_overflow_inside_the_walk_matches_dict_walk(self):
        # eta carries 1e120 per atom; eta^{*3} overflows at n = 5
        mu = GroupMeasure.from_atoms(Z, [((1,), 1e60), ((-2,), 1e60)])
        with pytest.raises(PreconditionError) as want:
            dict_berg_christensen_sequence(mu, [(0,)], 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError) as got:
                berg_christensen_estimate(mu, F=[(0,)], n_max=8)
        assert str(got.value) == str(want.value)
        assert "non-finite weight inf" in str(got.value)

    def test_underflow_dropped_as_in_dict_path(self):
        mu = GroupMeasure.from_atoms(
            Z, [((1,), 1e-200), ((-1,), 1e-200), ((0,), 0.5)])
        got = convolve(mu, involute(mu))
        want = dict_convolve(Z, mu.atoms, dict_involute(Z, mu.atoms))
        assert list(got.atoms.items()) == list(want.items())
        # +-2 are formed only as 1e-200 * 1e-200, which underflows to 0
        assert list(got.atoms) == [(0,), (1,), (-1,)]
        est = berg_christensen_estimate(mu, F=[(0,), (1,)], n_max=8)
        assert est.sequence == dict_berg_christensen_sequence(mu, [(0,), (1,)], 8)


def radial_return(k, n):
    """The return probability at e of the simple random walk on F_k after
    n steps."""
    return norms._radial_return_sequence(k, n)[n]


class TestRadialOracle:
    def test_two_steps(self):
        assert radial_return(2, 2) == pytest.approx(0.25, abs=1e-15)

    def test_zero_steps(self):
        assert radial_return(2, 0) == 1.0

    def test_odd_steps_zero(self):
        assert radial_return(2, 7) == 0.0

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_every_odd_step_count_gives_exactly_zero(self, k):
        assert norms._radial_return_sequence(k, 9)[1::2].tolist() == [0.0] * 5

    def test_rank_one_rejected(self):
        with pytest.raises(PreconditionError):
            radial_return(1, 4)

    def test_four_steps_word_enumeration(self):
        # oracle: all 256 four-letter generator words, reduced independently
        letters = [1, -1, 2, -2]
        hits = 0
        for word in itertools.product(letters, repeat=4):
            out = []
            for letter in word:
                if out and out[-1] == -letter:
                    out.pop()
                else:
                    out.append(letter)
            hits += not out
        assert hits / 256 == 7 / 64
        assert radial_return(2, 4) == pytest.approx(7 / 64, abs=1e-15)

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_exhaustive_convolution(self, k):
        group = GroupDescriptor(kind="free", dimension=k)
        mu = GroupMeasure.simple_random_walk(group)
        for n in range(0, 9):
            power = convolution_power(mu, n)
            assert radial_return(k, n) == pytest.approx(
                mass_on_set(power, [()]), abs=1e-12
            )


class TestFourierOracle:
    """The sampled mu-hat oracle of tests/ against the exact mass."""

    def test_point_mass(self):
        mu = GroupMeasure.point_mass(Z, (0,))
        xi = np.linspace(-0.5, 0.5, 101)[:, None]
        assert sampled_fourier_sup(mu, xi) == pytest.approx(1.0, abs=1e-12)
        assert amenable_norm(mu).value == 1.0

    def test_srw_attains_one_at_zero(self):
        mu = GroupMeasure.simple_random_walk(Z)
        assert sampled_fourier_sup(mu, [[0.0]]) == pytest.approx(1.0, abs=1e-12)
        xi = np.linspace(-0.5, 0.5, 1001)[:, None]
        assert sampled_fourier_sup(mu, xi) == pytest.approx(
            amenable_norm(mu).value, abs=1e-12)

    def test_uniform_interval_sinc(self):
        grid = GroupDescriptor(kind="real-grid", dimension=1, resolution=1000)
        mu = GroupMeasure.uniform_interval(grid, 0.0, 1.0, closed=False)
        xi = np.linspace(-2.0, 2.0, 501)[:, None]
        assert sampled_fourier_sup(mu, xi) == pytest.approx(1.0, abs=1e-12)
        assert amenable_norm(mu).value == pytest.approx(1.0, abs=1e-12)
        # away from 0 the sup sits at xi = 1/2 with the sinc value 2/pi
        xi = np.linspace(-2.0, 2.0, 2001)
        band = sampled_fourier_sup(mu, xi[np.abs(xi) >= 0.5][:, None])
        q = 1000
        exact_discrete = 1.0 / (q * math.sin(math.pi * 0.5 / q))
        assert band == pytest.approx(exact_discrete, abs=1e-9)
        assert band == pytest.approx(2 / math.pi, abs=1e-3)

    def test_below_mass(self):
        rng = np.random.default_rng(1)
        mu = GroupMeasure.from_atoms(
            Z2, [((int(a), int(b)), float(rng.uniform(0.1, 1)))
                 for a, b in rng.integers(-3, 4, size=(4, 2))]
        )
        axis = np.linspace(-0.5, 0.5, 41)
        xi = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        assert sampled_fourier_sup(mu, xi) <= amenable_norm(mu).value + 1e-10

    def test_free_group_unsupported(self):
        with pytest.raises(UnsupportedKindError):
            sampled_fourier_sup(GroupMeasure.simple_random_walk(F2), [[0.0]])


class TestAmenableOracle:
    def test_srw_is_one(self):
        est = amenable_norm(GroupMeasure.simple_random_walk(Z))
        assert est.value == 1.0
        assert est.method == "amenable-mass"

    def test_scaling_on_z2(self):
        mu = scaled(GroupMeasure.simple_random_walk(Z2), 2.0)
        assert amenable_norm(mu).value == pytest.approx(2.0)

    # a support generating a proper subgroup H still gives the mass: the
    # trivial character of H attains it, and ||lambda_G(mu)|| = ||lambda_H(mu)||

    def test_gcd_failure(self):
        mu = GroupMeasure.from_atoms(Z, [((2,), 0.5), ((-2,), 0.5)])
        est = amenable_norm(mu)
        assert est.value == mu.total_mass
        assert est.method == "amenable-mass"
        # the sup of |mu-hat| is attained at xi = 0, though mu lives on 2Z
        xi = np.linspace(-0.5, 0.5, 101)[:, None]
        assert sampled_fourier_sup(mu, xi) == pytest.approx(est.value, abs=1e-12)

    def test_sublattice_failure_2d(self):
        mu = GroupMeasure.from_atoms(
            Z2, [((2, 0), 0.25), ((-2, 0), 0.25), ((0, 2), 0.25), ((0, -2), 0.25)]
        )
        est = amenable_norm(mu)
        assert est.value == mu.total_mass
        assert est.method == "amenable-mass"
        axis = np.linspace(-0.5, 0.5, 21)
        xi = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        assert sampled_fourier_sup(mu, xi) == pytest.approx(est.value, abs=1e-12)

    def test_free_group_unsupported(self):
        with pytest.raises(UnsupportedKindError):
            amenable_norm(GroupMeasure.simple_random_walk(F2))

    def test_torus_generating(self):
        t = GroupDescriptor(kind="torus-grid", dimension=1, size=8)
        mu = GroupMeasure.from_atoms(t, [((1,), 0.5), ((7,), 0.5)])
        assert amenable_norm(mu).value == pytest.approx(1.0)

    def test_torus_subgroup_detected(self):
        t = GroupDescriptor(kind="torus-grid", dimension=1, size=8)
        mu = GroupMeasure.from_atoms(t, [((2,), 0.5), ((6,), 0.5)])
        est = amenable_norm(mu)
        assert est.value == mu.total_mass
        assert est.method == "amenable-mass"

    def test_nonsymmetric_positive_measure_accepted(self):
        grid = GroupDescriptor(kind="real-grid", dimension=1, resolution=16)
        mu = GroupMeasure.uniform_interval(grid, 0.0, 1.0, closed=False)
        assert amenable_norm(mu).value == pytest.approx(1.0, abs=1e-12)


class TestRegularNormDispatch:
    def test_mass_names_on_abelian_kinds(self):
        mu = scaled(GroupMeasure.simple_random_walk(Z2), 0.5)
        for method in ("auto", "amenable-mass"):
            est = regular_norm(mu, method)
            assert (est.value, est.method) == (0.5, "amenable-mass")

    def test_walk_names(self):
        mu = GroupMeasure.from_atoms(F2, F2_NONUNIFORM)
        want = berg_christensen_estimate(mu, n_max=5).sequence
        for method in ("auto", "berg-christensen"):
            est = regular_norm(mu, method, n_max=5)
            assert (est.method, est.sequence) == ("berg-christensen", want)

    def test_unknown_name_rejected(self):
        # "amenable" is retired: "amenable-mass" names the oracle it ran
        for method in ("amenabel", "amenable"):
            with pytest.raises(PreconditionError, match="unknown regular-norm method"):
                regular_norm(GroupMeasure.simple_random_walk(Z), method)
