"""Separated-net construction and the volume-counting inequalities."""

import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from dict_oracles import (
    compose,
    elements,
    net_is_maximal,
    net_is_separated,
    rows,
    translate_greedy_net,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import (
    DescriptorMismatchError,
    GroupDescriptor,
    PreconditionError,
    ResourceLimitError,
    greedy_maximal_net,
    inverse_set,
    power_set,
    product_set,
)
from gaplab import groups, nets
from gaplab.nets import net_ratio_study, verify_net_bounds

Z = GroupDescriptor(kind="lattice", dimension=1)
Z2 = GroupDescriptor(kind="lattice", dimension=2)


def interval(lo, hi):
    return [(c,) for c in range(lo, hi + 1)]


def box(radius):
    return [t for t in itertools.product(range(-radius, radius + 1), repeat=2)]


class TestGreedyNet:
    def test_singleton_A_keeps_everything(self):
        span = interval(-3, 3)
        inst = greedy_maximal_net(Z, span, A=[(0,)])
        assert rows(inst.net) == span

    def test_hand_simulated_z_example(self):
        # B = [-1,1], B^5 = [-5,5], A = {0,1}: the greedy pass from -5
        # accepts every second point
        span = power_set(Z, interval(-1, 1), 5)
        assert rows(span) == interval(-5, 5)
        inst = greedy_maximal_net(Z, span, A=[(0,), (1,)])
        assert rows(inst.net) == [(-5,), (-3,), (-1,), (1,), (3,), (5,)]
        assert net_is_separated(inst)
        assert net_is_maximal(inst)

    def test_empty_span(self):
        inst = greedy_maximal_net(Z, [], A=[(0,)])
        assert rows(inst.net) == []

    def test_array_inputs(self):
        # span and A as (m, d) integer arrays, as the ratio study passes
        # its powers, give the instance of the same lists
        span, A = power_set(Z2, box(1), 2), [(0, 0), (1, 0), (0, 1)]
        want = greedy_maximal_net(Z2, rows(span), A)
        got = greedy_maximal_net(Z2, span[::-1], np.array(A))
        for name in ("A", "net", "span", "diffs"):
            assert rows(getattr(got, name)) == rows(getattr(want, name)), name
        assert got.span_a_cells == want.span_a_cells

    def test_span_at_the_int64_edge(self):
        # span + A A^{-1} is keyed by offsets in the box, so its sums may
        # leave int64, where a box of the sums themselves would not fit
        top = 2**63 - 1
        inst = greedy_maximal_net(Z, [(top,), (top - 2,)], A=[(0,), (1,)])
        assert rows(inst.net) == [(top - 2,), (top,)]
        assert verify_net_bounds(inst).mu_spanA == 4

    def test_requires_identity_in_A(self):
        with pytest.raises(PreconditionError):
            greedy_maximal_net(Z, interval(0, 3), A=[(1,)])

    def test_separation_and_maximality_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a_r = int(rng.integers(1, 3))
            b_r = int(rng.integers(1, 3))
            n = int(rng.integers(1, 5))
            span = power_set(Z2, box(b_r), n)
            inst = greedy_maximal_net(Z2, span, A=box(a_r))
            assert net_is_separated(inst)
            assert net_is_maximal(inst)


NET_GROUPS = [
    GroupDescriptor(kind="lattice", dimension=1),
    GroupDescriptor(kind="lattice", dimension=2),
    GroupDescriptor(kind="lattice", dimension=3),
    GroupDescriptor(kind="real-grid", dimension=1, resolution=4),
    GroupDescriptor(kind="torus-grid", dimension=1, size=11),
    GroupDescriptor(kind="torus-grid", dimension=2, size=5),
    GroupDescriptor(kind="free", dimension=2),
]


def instance_sets(group):
    """A span and a set A that holds the identity, as lists of tuples."""
    if group.kind == "free":
        return group.ball(2), group.ball(1)
    span = [tuple(c) for c in itertools.product(range(-3, 4), repeat=group.dimension)]
    A = [group.identity(), (1,) * group.dimension, (2,) + (0,) * (group.dimension - 1)]
    return span, A


@st.composite
def net_case(draw):
    """A group, a span and a set A containing the identity."""
    group = draw(st.sampled_from(NET_GROUPS))
    if group.kind == "free":
        cell, small = st.sampled_from(group.ball(3)), st.sampled_from(group.ball(2))
    else:  # torus coordinates also negative or beyond N
        wide, near = (((-group.size, 2 * group.size),) * 2 if group.kind == "torus-grid"
                      else ((-5, 5), (-2, 2)))
        cell = st.tuples(*[st.integers(*wide)] * group.dimension)
        small = st.tuples(*[st.integers(*near)] * group.dimension)
    span = draw(st.lists(cell, max_size=40))
    A = [group.identity(), *draw(st.lists(small, max_size=5))]
    return group, span, A


class TestGreedyNetOracle:
    """Blocking by A A^{-1} gives the net of the per-translate greedy."""

    @settings(max_examples=150, deadline=None)
    @given(net_case())
    def test_matches_translate_greedy(self, case):
        group, span, A = case
        inst = greedy_maximal_net(group, span, A)
        canonical = [group.canonical(x) for x in span], [group.canonical(a) for a in A]
        assert isinstance(inst.net, np.ndarray) == group.is_abelian
        assert elements(inst.net) == list(translate_greedy_net(group, *canonical))
        assert net_is_separated(inst)
        assert net_is_maximal(inst)
        assert elements(inst.diffs) == elements(
            product_set(group, inst.A, inverse_set(group, inst.A)))
        assert inst.span_a_cells == len(product_set(group, inst.span, inst.A))
        for pairs in (1, 3 * len(inst.diffs)):  # one span row, and three, per block
            with mock.patch.object(nets, "_NET_PAIRS", pairs):
                assert elements(greedy_maximal_net(group, span, A).net) == elements(inst.net)

    @pytest.mark.parametrize("group", NET_GROUPS, ids=lambda g: f"{g.kind}-{g.dimension}")
    def test_instance_carries_a_a_inverse(self, group):
        span, A = instance_sets(group)
        inst = greedy_maximal_net(group, span, A)
        assert elements(inst.diffs) == elements(
            product_set(group, inst.A, inverse_set(group, inst.A)))

    def test_torus_points_equal_mod_n_are_one_point(self):
        z17 = GroupDescriptor(kind="torus-grid", dimension=1, size=17)
        inst = greedy_maximal_net(z17, [(0,), (17,), (1,)], [(0,)])
        assert rows(inst.net) == [(0,), (1,)]
        assert rows(inst.span) == [(0,), (1,)]
        inst = greedy_maximal_net(z17, [(5,), (-12,)], [(17,), (1,)])
        assert (rows(inst.A), rows(inst.net)) == ([(0,), (1,)], [(5,)])

    def test_free_group_ball(self):
        f2 = GroupDescriptor(kind="free", dimension=2)
        span, A = f2.ball(3), f2.ball(1)
        inst = greedy_maximal_net(f2, span, A)
        assert inst.net == translate_greedy_net(f2, span, A)
        assert inst.net[0] == ()
        assert net_is_separated(inst)
        assert net_is_maximal(inst)
        assert verify_net_bounds(inst).all_ok


@pytest.mark.parametrize("group", NET_GROUPS, ids=lambda g: f"{g.kind}-{g.dimension}")
class TestSetArrays:
    """On the abelian kinds the set functions and ``NetInstance`` hold
    (m, d) int64 cell arrays whose rows are the sorted tuple sets; the free
    group keeps words."""

    def sorted_set(self, group, elements):
        return sorted(set(elements), key=group.sort_key)

    def test_net_instance_rows(self, group):
        span, A = instance_sets(group)
        inst = greedy_maximal_net(group, span, A)
        span = self.sorted_set(group, map(group.canonical, span))
        A = self.sorted_set(group, map(group.canonical, A))
        want = {
            "A": A,
            "net": list(translate_greedy_net(group, span, A)),
            "span": span,
            "diffs": self.sorted_set(
                group, (compose(group, a, group.inverse(b)) for a in A for b in A)),
        }
        for name, rows_want in want.items():
            got = getattr(inst, name)
            assert isinstance(got, np.ndarray) == group.is_abelian, name
            assert elements(got) == rows_want, name

    def test_set_function_rows(self, group):
        xs, ys = (list(map(group.canonical, s)) for s in instance_sets(group))
        want = {
            "product": self.sorted_set(group, (compose(group, x, y) for x in xs for y in ys)),
            "inverse": self.sorted_set(group, map(group.inverse, xs)),
            "power 0": [group.identity()],
            "power 2": self.sorted_set(group, (compose(group, a, b) for a in ys for b in ys)),
        }
        got = {
            "product": product_set(group, xs, ys),
            "inverse": inverse_set(group, xs),
            "power 0": power_set(group, ys, 0),
            "power 2": power_set(group, ys, 2),
        }
        for name, rows_want in want.items():
            assert isinstance(got[name], np.ndarray) == group.is_abelian, name
            assert elements(got[name]) == rows_want, name


class TestInverseSet:
    def test_array_input(self):
        cells = np.array([[3, -1], [0, 2], [3, -1]])
        assert rows(inverse_set(Z2, cells)) == [(-3, 1), (0, -2)]
        assert rows(inverse_set(Z2, [])) == []

    def test_inverse_beyond_int64(self):
        assert rows(inverse_set(Z, [(2**63 - 1,)])) == [(-2**63 + 1,)]
        with pytest.raises(DescriptorMismatchError,
                           match=f"inverse set leaves int64 at coordinate {2**63}"):
            inverse_set(Z, [(0,), (-2**63,)])


class TestNetBounds:
    def test_trivial_instance(self):
        inst = greedy_maximal_net(Z, [(0,)], A=[(0,)])
        report = verify_net_bounds(inst)
        assert report.all_ok
        assert report.net_size == 1

    def test_z_example_numbers(self):
        span = power_set(Z, interval(-1, 1), 5)
        inst = greedy_maximal_net(Z, span, A=[(0,), (1,)])
        report = verify_net_bounds(inst)
        # 6 * mu(A) = 12 <= mu([-5,6]) = 12 and mu([-5,5]) = 11 <= 6 * 3 = 18
        assert report.net_size == 6
        assert report.mu_A == 2
        assert report.mu_spanA == 12
        assert report.mu_span == 11
        assert report.mu_AAinv == 3
        assert report.all_ok

    def test_hundred_seeded_instances(self):
        rng = np.random.default_rng(20250809)
        for i in range(100):
            dim = 1 + (i % 2)
            group = Z if dim == 1 else Z2
            base = interval(-int(rng.integers(1, 3)), int(rng.integers(1, 3))) \
                if dim == 1 else box(int(rng.integers(1, 3)))
            a_set = interval(-int(rng.integers(1, 2)), int(rng.integers(1, 3))) \
                if dim == 1 else box(int(rng.integers(1, 2)))
            if group.identity() not in a_set:
                a_set.append(group.identity())
            n = int(rng.integers(1, 7 - 2 * (dim - 1)))
            span = power_set(group, base, n)
            inst = greedy_maximal_net(group, span, A=a_set)
            report = verify_net_bounds(inst)
            assert report.all_ok, f"instance {i} failed: {report}"

    def test_haar_weights_on_grid(self):
        grid = GroupDescriptor(kind="real-grid", dimension=1, resolution=4)
        span = [(c,) for c in range(-8, 9)]
        inst = greedy_maximal_net(grid, span, A=[(0,), (1,)])
        report = verify_net_bounds(inst)
        assert report.mu_A == pytest.approx(2 / 4)
        assert report.all_ok

    @pytest.mark.parametrize("n", [1, 2, 5, 13, 40])
    def test_exact_packing_on_a_non_dyadic_grid(self, n):
        # [-n, n] with A = {0, 1}: n + 1 points tile span A = [-n, n + 1]
        grid = GroupDescriptor(kind="real-grid", dimension=1, resolution=3)
        inst = greedy_maximal_net(grid, interval(-n, n), A=[(0,), (1,)])
        report = verify_net_bounds(inst)
        assert report.net_size * len(inst.A) == inst.span_a_cells == 2 * n + 2
        assert report.packing_ok and report.covering_ok
        volume = grid.cell_volume
        assert (report.mu_A, report.mu_spanA) == (2 * volume, (2 * n + 2) * volume)
        assert (report.mu_span, report.mu_AAinv) == ((2 * n + 1) * volume, 3 * volume)

    def test_packing_is_compared_in_counts(self):
        # three translates of a row of five tile span A exactly, but in
        # floats 3 mu(A) exceeds mu(span A) by one rounding on a cell of 1/9
        grid = GroupDescriptor(kind="real-grid", dimension=2, resolution=3)
        inst = greedy_maximal_net(grid, [(0, 0), (5, 0), (10, 0)],
                                  A=[(k, 0) for k in range(5)])
        report = verify_net_bounds(inst)
        assert report.net_size * len(inst.A) == inst.span_a_cells == 15
        assert report.net_size * report.mu_A > report.mu_spanA
        assert report.packing_ok and report.all_ok


class TestRatioStudy:
    def test_trivial_base(self):
        study = net_ratio_study(Z, A1=[(0,)], A2=[(0,)], B=[(0,)],
                                n_range=range(3, 7))
        assert all(r == 1.0 for r in study.ratios.values())
        assert study.c1 <= 1.0 <= study.c2
        assert study.within_bounds

    def test_z_intervals(self):
        study = net_ratio_study(
            Z, A1=[(0,), (1,)], A2=[(0,), (1,)], B=interval(-1, 1),
            n_range=range(3, 13),
        )
        assert study.within_bounds
        spread = max(study.ratios.values()) - min(study.ratios.values())
        assert spread < 0.5  # ratios stay in a fixed band as n grows

    def test_z2_boxes(self):
        study = net_ratio_study(
            Z2, A1=box(1), A2=[(0, 0), (1, 0), (0, 1)], B=box(1),
            n_range=range(3, 9),
        )
        assert study.within_bounds

    @pytest.mark.parametrize("group,A1,A2,B,n_max,built", [
        (Z, [(0,), (1,)], [(1,), (0,), (1,)], interval(-1, 1), 10, 10),
        (Z, [(0,), (1,)], [(0,), (-1,), (1,)], interval(-1, 1), 10, 16),
        (Z2, box(1), box(1)[::-1], box(1), 7, 7),
        (Z2, box(1), [(0, 0), (1, 0), (0, 1)], box(1), 7, 10),
        (GroupDescriptor(kind="torus-grid", dimension=1, size=11),
         [(0,), (12,)], [(1,), (0,)], [(10,), (0,), (1,)], 6, 6),
    ], ids=["z-same", "z-different", "z2-same", "z2-different", "torus-same-mod-n"])
    def test_each_net_built_once(self, group, A1, A2, B, n_max, built):
        n_range = range(3, n_max + 1)
        with mock.patch.object(nets, "greedy_maximal_net",
                               wraps=greedy_maximal_net) as spy:
            study = net_ratio_study(group, A1=A1, A2=A2, B=B, n_range=n_range)
        assert spy.call_count == built
        assert study == ratio_study_building_every_net(group, A1, A2, B, n_range)

    def test_needs_n_at_least_three(self):
        with pytest.raises(PreconditionError):
            net_ratio_study(Z, A1=[(0,)], A2=[(0,)], B=[(0,)], n_range=[2, 3])

    @pytest.mark.parametrize("group,A1,A2,B,n_max", [
        (Z, [(0,)], [(0,)], [(0,)], 6),
        (Z, [(0,), (1,)], [(0,), (-1,), (1,)], interval(-1, 1), 10),
        (Z2, box(1), [(0, 0), (1, 0), (0, 1)], box(1), 7),
        (GroupDescriptor(kind="real-grid", dimension=1, resolution=3),
         [(0,), (1,)], [(0,), (2,)], [(-1,), (0,), (1,)], 9),
        (GroupDescriptor(kind="torus-grid", dimension=1, size=11),
         [(0,), (12,)], [(1,), (0,)], [(10,), (0,), (1,)], 6),
    ], ids=["trivial", "z", "z2", "real-grid-thirds", "torus"])
    def test_window_is_checked_exactly(self, group, A1, A2, B, n_max):
        """The window recomputed in Fractions of cell counts holds every
        ratio, as the study says, and the reported floats are its values;
        on the trivial base r = c1 = c2 = 1 exactly, with no slack."""
        n_range = range(3, n_max + 1)
        study = net_ratio_study(group, A1=A1, A2=A2, B=B, n_range=n_range)
        low, high, exact = exact_window(net_pairs(group, A1, A2, B, n_range))
        assert study.within_bounds == all(low <= r <= high for r in exact.values())
        assert study.within_bounds
        assert study.ratios == {n: float(r) for n, r in exact.items()}
        assert study.c1 == pytest.approx(float(low), rel=1e-14)
        assert study.c2 == pytest.approx(float(high), rel=1e-14)
        if B == [(0,)]:
            assert low == high == 1 and set(exact.values()) == {1}


def ratio_study_building_every_net(group, A1, A2, B, n_range):
    """``net_ratio_study`` field by field, with both nets built at every n;
    the window is checked in the Fractions of ``exact_window``."""
    volume = group.cell_volume
    pairs = net_pairs(group, A1, A2, B, n_range)
    k1 = k2 = k3 = 0.0
    ratios = {}
    for n, (n1, n2) in pairs.items():
        mu_bn, mu_bn2 = len(n1.span) * volume, len(n2.span) * volume
        k1 = max(k1, n1.span_a_cells * volume / mu_bn)
        k2 = max(k2, n2.span_a_cells * volume / mu_bn)
        k3 = max(k3, mu_bn / mu_bn2)
        ratios[n] = len(n2.net) / len(n1.net)
    mu_a1, mu_a2 = len(n1.A) * volume, len(n2.A) * volume
    mu_a1a1, mu_a2a2 = len(n1.diffs) * volume, len(n2.diffs) * volume
    c1 = mu_a1 / (k3 * k1 * mu_a2a2)
    c2 = k2 * mu_a1a1 / mu_a2
    low, high, exact = exact_window(pairs)
    within = all(low <= r <= high for r in exact.values())
    return nets.NetRatioStudy(ratios=ratios, c1=c1, c2=c2, k1=k1, k2=k2, k3=k3,
                              within_bounds=within)


def net_pairs(group, A1, A2, B, n_range):
    """{n: (maximal A1-net of B^n, maximal A2-net of B^(n-2))}."""
    powers = groups._powers(group, B, max(n_range), 10**6, "test")
    return {n: (greedy_maximal_net(group, powers[n], A1),
                greedy_maximal_net(group, powers[n - 2], A2)) for n in n_range}


def exact_window(pairs):
    """The window [c1, c2] and the ratios |N2| / |N1| of ``net_pairs`` as
    Fractions of cell counts: every Haar volume is a count times the one
    cell volume, which cancels in each ratio."""
    k1 = max(Fraction(n1.span_a_cells, len(n1.span)) for n1, _ in pairs.values())
    k2 = max(Fraction(n2.span_a_cells, len(n1.span)) for n1, n2 in pairs.values())
    k3 = max(Fraction(len(n1.span), len(n2.span)) for n1, n2 in pairs.values())
    n1, n2 = pairs[max(pairs)]
    low = Fraction(len(n1.A), k3 * k1 * len(n2.diffs))
    high = k2 * Fraction(len(n1.diffs), len(n2.A))
    return low, high, {n: Fraction(len(n2.net), len(n1.net)) for n, (n1, n2) in pairs.items()}


POWER_GROUPS = [
    GroupDescriptor(kind="lattice", dimension=1),
    GroupDescriptor(kind="lattice", dimension=2),
    GroupDescriptor(kind="real-grid", dimension=1, resolution=4),
    GroupDescriptor(kind="real-grid", dimension=2, resolution=2),
    GroupDescriptor(kind="torus-grid", dimension=1, size=7),
    GroupDescriptor(kind="torus-grid", dimension=2, size=5),
]


@st.composite
def power_case(draw):
    """A group, a base set (possibly empty) and a power n in 0..6; torus
    coordinates also negative or beyond N."""
    group = draw(st.sampled_from(POWER_GROUPS))
    reach = (-group.size, 2 * group.size) if group.kind == "torus-grid" else (-4, 4)
    cell = st.tuples(*[st.integers(*reach)] * group.dimension)
    return group, draw(st.lists(cell, max_size=6)), draw(st.integers(0, 6))


class TestPowers:
    """B^0..B^n from one box against the iterated product set."""

    @settings(max_examples=150, deadline=None)
    @given(power_case())
    def test_matches_iterated_product_set(self, case):
        group, base, n = case
        want = [[group.identity()]]
        for _ in range(n):
            want.append(rows(product_set(group, want[-1], base)))
        got = groups._powers(group, base, n, 10**6, "test")
        assert [rows(p) for p in got] == want
        assert rows(power_set(group, base, n)) == want[n]

    def test_empty_base_and_cap(self):
        assert [len(p) for p in groups._powers(Z2, [], 3, 10, "test")] == [1, 0, 0, 0]
        assert rows(power_set(Z2, [], 0)) == [(0, 0)]
        assert rows(power_set(Z, [(0,), (1,)], 3, cap=4)) == interval(0, 3)
        with pytest.raises(ResourceLimitError, match="product set exceeded the support cap of 3"):
            power_set(Z, [(0,), (1,)], 3, cap=3)
