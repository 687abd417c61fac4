"""Group descriptor and measure algebra tests."""

import itertools
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from dict_oracles import (
    compose,
    convolution_power,
    dict_convolve,
    dict_involute,
    elements,
    mass_on_set,
    rows,
    torus_rep,
    unique_rows,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import groups, measures
from gaplab.cli import build_measure
from gaplab import (
    DescriptorMismatchError,
    GroupDescriptor,
    GroupMeasure,
    PreconditionError,
    ResourceLimitError,
    convolve,
    involute,
    inverse_set,
    power_set,
    product_set,
    symmetrize,
)

Z = GroupDescriptor(kind="lattice", dimension=1)
Z2 = GroupDescriptor(kind="lattice", dimension=2)
F2 = GroupDescriptor(kind="free", dimension=2)
F3 = GroupDescriptor(kind="free", dimension=3)


def naive_reduce(word):
    """Independent reduction used as the oracle for free-group products."""
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def random_measure(group, rng, n_atoms=4, reach=3):
    atoms = {}
    for _ in range(n_atoms):
        if group.kind == "free":
            length = int(rng.integers(0, 3))
            word = []
            for _ in range(length):
                letter = int(rng.choice([-2, -1, 1, 2]))
                word.append(letter)
            g = naive_reduce(word)
        else:
            g = tuple(int(c) for c in rng.integers(-reach, reach + 1, group.dimension))
        atoms[g] = atoms.get(g, 0.0) + float(rng.uniform(0.1, 2.0))
    return GroupMeasure.from_atoms(group, atoms.items())


class TestWeights:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(PreconditionError, match="non-finite"):
            GroupMeasure.from_atoms(Z, [((1,), bad), ((2,), 0.5)])

    def test_negative_weight_rejected_before_it_merges(self):
        # the merged weight on (1,) would be 0.5
        for group in (Z, F2):
            with pytest.raises(PreconditionError,
                               match=r"negative weight -0.5 at atom \(1,\)"):
                GroupMeasure.from_atoms(group, [((1,), -0.5), ((1,), 1.0), ((-1,), 0.5)])
        # zero weights are dropped after they merge, at their first position
        mu = GroupMeasure.from_atoms(Z, [((2,), 0.0), ((1,), 0.5), ((2,), 0.25), ((3,), 0.0)])
        assert list(mu.atoms.items()) == [((2,), 0.25), ((1,), 0.5)]


class TestOutsideElements:
    """``from_atoms`` and ``point_mass`` check the elements they are given;
    the measures the algebra forms itself are not checked again."""

    @pytest.mark.parametrize("group,g,message", [
        (Z2, (1,), "takes elements of length 2"),
        (Z, (1, 2), "takes elements of length 1"),
        (GroupDescriptor(kind="torus-grid", dimension=2, size=8), (3,),
         "takes elements of length 2"),
        (F2, (0,), "are \\+-1..\\+-2, got 0"),
        (F2, (1, 3), "got 3"),
        (F2, (-3,), "got -3"),
        (F2, (2, 1, -1), "not reduced"),
        (Z, (1.5,), "integer coordinates, got \\[1.5\\]"),
        (Z2, (0, np.float64(2.0)), "integer coordinates"),
        (GroupDescriptor(kind="torus-grid", dimension=1, size=8), (9.0,),
         "integer coordinates"),
        (F2, (1.0,), "integer coordinates"),
        (Z, (np.float32(2.0),), "integer coordinates"),
        (Z, (2**63,), f"the lattice takes int64 coordinates, got \\[{2**63}\\]"),
        (Z2, (0, -2**63 - 1), "the lattice takes int64 coordinates"),
        (GroupDescriptor(kind="real-grid", dimension=1, resolution=4), (10**22,),
         "the real-grid takes int64 coordinates"),
    ], ids=["Z2-short", "Z-long", "torus-short", "F2-zero", "F2-three",
            "F2-minus-three", "F2-unreduced", "Z-half", "Z2-float",
            "torus-float", "F2-float-letter", "Z-float32", "Z-beyond-int64",
            "Z2-below-int64", "real-grid-beyond-int64"])
    def test_foreign_element_rejected(self, group, g, message):
        with pytest.raises(DescriptorMismatchError, match=message):
            GroupMeasure.from_atoms(group, [(group.identity(), 0.5), (g, 0.5)])
        with pytest.raises(DescriptorMismatchError, match=message):
            GroupMeasure.point_mass(group, g)

    def test_direct_construction_checks_every_atom(self):
        # int64 cells of the group's shape, one row per weight, words as
        # keys; refused where they are built, not by a reshape inside convolve
        for group, cells, got in ((Z, [[1.5]], "float64 cells of shape (1, 1)"),
                                  (Z, [[1, 2]], "int64 cells of shape (1, 2)"),
                                  (Z, [1], "int64 cells of shape (1,)"),
                                  (Z, [[1], [2]], "int64 cells of shape (2, 1)"),
                                  (F2, [[5]], "int64 cells of shape (1, 1)")):
            want = "(1,)" if group.kind == "free" else "(1, 1)"
            with pytest.raises(DescriptorMismatchError) as err:
                GroupMeasure(group, np.array(cells), np.ones(1))
            assert str(err.value) == (f"a measure on the {group.kind} takes int64 cells "
                                      f"of shape {want}, got {got}")
        for bad in (0.0, -0.5, math.nan, math.inf):
            with pytest.raises(PreconditionError,
                               match=f"weights must be finite and positive, got {bad}"):
                GroupMeasure(Z, np.array([[0], [1]]), np.array([1.0, bad]))
        # a torus cell is reduced mod N
        torus = GroupDescriptor(kind="torus-grid", dimension=1, size=8)
        mu = GroupMeasure(torus, np.array([[-1], [9]]), np.array([0.25, 0.75]))
        assert rows(mu.cells) == [(7,), (1,)] and mu.weights.tolist() == [0.25, 0.75]

    def test_members_accepted(self):
        torus = GroupDescriptor(kind="torus-grid", dimension=1, size=16)
        assert GroupMeasure.point_mass(torus, [17]).atoms == {(1,): 1.0}
        # a torus reduces any integer mod N; int64 holds both ends
        assert GroupMeasure.point_mass(torus, [10**22 + 3]).atoms == {(3,): 1.0}
        assert GroupMeasure.point_mass(Z2, (2**63 - 1, -2**63)).atoms == {
            (2**63 - 1, -2**63): 1.0}
        assert GroupMeasure.point_mass(Z2, np.array([2, -3])).atoms == {(2, -3): 1.0}
        word = GroupMeasure.from_atoms(F2, [((1, -2, 1), 0.25), ((), 0.75)])
        assert word.atoms == {(1, -2, 1): 0.25, (): 0.75}

    @pytest.mark.parametrize("group,pairs,atoms", [
        (Z, [((1,), 0.25), ((-1,), 0.25), ((1,), 0.5)], {(1,): 0.75, (-1,): 0.25}),
        (F2, [((1, -2), 0.5), ((), 0.25), ((1, -2), 0.25)], {(1, -2): 0.75, (): 0.25}),
    ], ids=["lattice", "free"])
    def test_from_atoms_checks_each_element_once(self, group, pairs, atoms):
        with mock.patch.object(GroupDescriptor, "element", autospec=True,
                               side_effect=GroupDescriptor.element) as spy:
            mu = GroupMeasure.from_atoms(group, pairs)
        assert spy.call_count == len(pairs)
        assert mu.atoms == atoms
        # the one check still refuses a word the constructor would reduce
        with pytest.raises(DescriptorMismatchError, match="not reduced"):
            GroupMeasure.from_atoms(F2, [((2, 1, -1), 1.0)])

    @pytest.mark.parametrize("group", [Z, F2], ids=["lattice", "free"])
    def test_convolution_checks_no_element(self, group):
        mu = GroupMeasure.simple_random_walk(group)
        with mock.patch.object(GroupDescriptor, "element", side_effect=AssertionError):
            assert len(convolve(mu, symmetrize(mu))) > 0


def product(group, a, b):
    """The product a b, by ``product_set`` on the two singletons."""
    (g,) = elements(product_set(group, [a], [b]))
    return g


class TestGroupLaws:
    def test_identity_and_inverse_laws_on_samples(self):
        rng = np.random.default_rng(0)
        for group in (Z, Z2, F2):
            mu = random_measure(group, rng, n_atoms=6)
            e = group.identity()
            for g in mu.support():
                assert product(group, g, e) == g
                assert product(group, e, g) == g
                assert product(group, g, group.inverse(g)) == e

    def test_associativity_on_sampled_triples(self):
        rng = np.random.default_rng(1)
        for group in (Z2, F2):
            elems = random_measure(group, rng, n_atoms=9).support()
            for a, b, c in itertools.islice(itertools.product(elems, repeat=3), 200):
                assert product(group, product(group, a, b), c) == product(
                    group, a, product(group, b, c))

    def test_haar_weight_translation_invariant_on_grids(self):
        grid = GroupDescriptor(kind="real-grid", dimension=1, resolution=8)
        cells = [(c,) for c in range(-4, 5)]
        shift = (3,)
        shifted = [product(grid, shift, c) for c in cells]
        weight = lambda cell_set: len(cell_set) * grid.cell_volume
        assert weight(shifted) == weight(cells)
        assert grid.cell_volume > 0

    def test_torus_wraps(self):
        t = GroupDescriptor(kind="torus-grid", dimension=2, size=8)
        assert product(t, (7, 3), (2, 6)) == (1, 1)
        assert t.inverse((3, 0)) == (5, 0)


class TestConvolve:
    def test_point_masses_compose(self):
        a = GroupMeasure.point_mass(F2, (1,))
        b = GroupMeasure.point_mass(F2, (-1, 2))
        c = convolve(a, b)
        assert c.support() == [(2,)]
        assert c.total_mass == pytest.approx(1.0, abs=0)

    def test_srw_square_binomial(self):
        srw = GroupMeasure.simple_random_walk(Z)
        sq = convolve(srw, srw)
        assert sq.atoms[(-2,)] == pytest.approx(0.25)
        assert sq.atoms[(0,)] == pytest.approx(0.5)
        assert sq.atoms[(2,)] == pytest.approx(0.25)

    def test_free_uniform_square_support(self):
        # oracle: enumerate all 16 generator products and reduce independently
        gens = [(1,), (-1,), (2,), (-2,)]
        products = {naive_reduce(a + b) for a in gens for b in gens}
        assert len(products) == 13
        assert sum(len(w) == 2 for w in products) == 12

        mu = GroupMeasure.simple_random_walk(F2)
        sq = convolve(mu, mu)
        assert sq.total_mass == 1.0
        assert set(sq.atoms) == products

    def test_mass_multiplies(self):
        rng = np.random.default_rng(2)
        for group in (Z2, F2):
            a = random_measure(group, rng)
            b = random_measure(group, rng)
            c = convolve(a, b)
            assert c.total_mass == pytest.approx(
                a.total_mass * b.total_mass, rel=1e-10
            )

    def test_associative(self):
        rng = np.random.default_rng(3)
        for group in (Z, F2):
            a, b, c = (random_measure(group, rng) for _ in range(3))
            left = convolve(convolve(a, b), c)
            right = convolve(a, convolve(b, c))
            assert set(left.atoms) == set(right.atoms)
            for g in left.atoms:
                assert left.atoms[g] == pytest.approx(right.atoms[g], rel=1e-10)

    def test_group_mismatch(self):
        with pytest.raises(DescriptorMismatchError):
            convolve(
                GroupMeasure.point_mass(Z, (0,)), GroupMeasure.point_mass(Z2, (0, 0))
            )

    def test_support_cap(self):
        mu = GroupMeasure.simple_random_walk(F2)
        with pytest.raises(ResourceLimitError, match="cap"):
            convolution_power(mu, 10, cap=100)


# -- abelian pair sums against a brute-force pair loop ------------------------

PAIR_GROUPS = [
    GroupDescriptor(kind="lattice", dimension=1),
    GroupDescriptor(kind="lattice", dimension=2),
    GroupDescriptor(kind="real-grid", dimension=1, resolution=8),
    GroupDescriptor(kind="torus-grid", dimension=1, size=5),
    GroupDescriptor(kind="torus-grid", dimension=2, size=4),
]


def random_words(group, rng, n_atoms):
    """A measure of random words of up to 5 letters, reduced, those that
    reduce to one element merged in atom order."""
    letters = [s * i for i in range(1, group.dimension + 1) for s in (1, -1)]
    pairs = []
    for _ in range(n_atoms):
        word = tuple(int(rng.choice(letters)) for _ in range(int(rng.integers(0, 6))))
        pairs.append((naive_reduce(word), float(rng.uniform(1e-3, 3.0))))
    return GroupMeasure.from_atoms(group, pairs)


def bits(atoms):
    """A weight map as (element, weight bits) pairs in atom order."""
    return [(g, w.hex()) for g, w in atoms.items()]


class TestFreeConvolveOracle:
    """On the free group ``convolve`` and ``involute`` give the pair loop
    through ``compose`` and the inverse map exactly: the same atoms, in the
    same order, with bit-identical weights."""

    @pytest.mark.parametrize("group", [F2, F3], ids=["F2", "F3"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dict_oracles(self, group, seed):
        rng = np.random.default_rng(seed)
        for _ in range(2):
            a, b = (random_words(group, rng, int(rng.integers(1, 12))) for _ in range(2))
            assert bits(convolve(a, b).atoms) == bits(dict_convolve(group, a.atoms, b.atoms))
            assert bits(involute(a).atoms) == bits(dict_involute(group, a.atoms))
            assert bits(symmetrize(a).atoms) == bits(
                dict_convolve(group, a.atoms, dict_involute(group, a.atoms)))

    def test_words_cancel_across_the_junction(self):
        a = GroupMeasure.from_atoms(F2, [((1,), 0.5), ((2,), 0.5)])
        b = GroupMeasure.from_atoms(F2, [((-1,), 0.25), ((-2, 1), 0.75)])
        got = convolve(a, b)
        assert bits(got.atoms) == bits(dict_convolve(F2, a.atoms, b.atoms))
        assert list(got.atoms) == [(), (1, -2, 1), (2, -1), (1,)]

    def test_non_finite_product_raises(self):
        a = GroupMeasure.from_atoms(F2, [((1,), 1e200), ((2, -1), 1.0)])
        b = GroupMeasure.point_mass(F2, (-1, 2), 1e200)
        with pytest.raises(PreconditionError) as want:
            dict_convolve(F2, a.atoms, b.atoms)
        with pytest.raises(PreconditionError) as got:
            convolve(a, b)
        assert str(got.value) == str(want.value) == "non-finite weight inf at atom (2,)"

    def test_underflowed_weight_dropped(self):
        a = GroupMeasure.from_atoms(F3, [((3,), 1e-200), ((), 0.5)])
        b = GroupMeasure.from_atoms(F3, [((-3,), 1e-200), ((1,), 0.5)])
        got = convolve(a, b)
        assert bits(got.atoms) == bits(dict_convolve(F3, a.atoms, b.atoms))
        # the identity is formed only as 1e-200 * 1e-200, which underflows to 0
        assert list(got.atoms) == [(3, 1), (-3,), (1,)]


# -- free-group words as int64 keys ---------------------------------------------


@st.composite
def word_case(draw):
    """F2 or F3 and two atom lists of reduced words of up to 8 letters; the
    second also holds the inverses of some words of the first, so that
    some pairs cancel completely."""
    group = draw(st.sampled_from([F2, F3]))
    letter = st.integers(1, group.dimension).flatmap(lambda i: st.sampled_from([i, -i]))
    word = st.lists(letter, max_size=8).map(naive_reduce)
    atom = st.tuples(word, st.floats(1e-3, 10.0))
    xs = draw(st.lists(atom, min_size=1, max_size=10))
    ys = draw(st.lists(atom, max_size=10))
    ys += [(group.inverse(w), v) for w, v in draw(st.lists(st.sampled_from(xs), max_size=4))]
    return group, xs, ys or [((), 1.0)]


def alternating(n: int) -> tuple:
    """The reduced word 1 2 1 2 ... of n letters."""
    return (1, 2) * (n // 2) + (1,) * (n % 2)


class TestWordKeys:
    """On the free group the keyed products give the pair loop's atoms, in
    its order and with its weight bits, and the sets of words in
    ``sort_key`` order."""

    @settings(max_examples=150, deadline=None)
    @given(word_case())
    def test_convolve_matches_pair_loop(self, case):
        group, xs, ys = case
        a, b = GroupMeasure.from_atoms(group, xs), GroupMeasure.from_atoms(group, ys)
        assert bits(convolve(a, b).atoms) == bits(dict_convolve(group, a.atoms, b.atoms))

    def test_walk_steps_match_pair_loop(self):
        """The products of the Berg-Christensen walk at eta^{*4} (9,841
        words) with F = {e, (1,), (2, -1)}: the large side on the left, where
        y is inverted, and on the right, where x is."""
        mu = GroupMeasure.from_atoms(F2, [((1,), 0.3), ((-1,), 0.2), ((2,), 0.3),
                                          ((-2,), 0.2)])
        eta = symmetrize(mu)
        high = eta
        for _ in range(3):
            high = convolve(high, eta)
        assert len(high) == 9841
        one = GroupMeasure.from_atoms(F2, [((), 1.0), ((1,), 1.0), ((2, -1), 1.0)])
        for a, b in ((high, eta), (eta, high), (one, involute(high))):
            assert bits(convolve(a, b).atoms) == bits(dict_convolve(F2, a.atoms, b.atoms))

    @settings(max_examples=150, deadline=None)
    @given(word_case())
    def test_set_functions_match_sets_of_words(self, case):
        group, xs, ys = case
        xs, ys = [w for w, _ in xs], [w for w, _ in ys]

        def ordered(words):
            return sorted(set(words), key=group.sort_key)

        assert product_set(group, xs, ys) == ordered(
            compose(group, x, y) for x in xs for y in ys)
        assert inverse_set(group, xs) == ordered(map(group.inverse, xs))
        power = [()]
        for n in range(3):
            assert power_set(group, ys, n) == power
            power = ordered(compose(group, p, y) for p in power for y in ys)

    @pytest.mark.parametrize("group, limit", [(F2, 31), (F3, 20),
                                              (GroupDescriptor(kind="free", dimension=4), 20)],
                             ids=["F2", "F3", "F4"])
    def test_letter_limit(self, group, limit):
        longest, half = alternating(limit), alternating(limit // 2 + 1)
        assert product_set(group, [longest], [()]) == [longest]
        # the concatenation would not fit, the reduced product does
        assert product_set(group, [half], [group.inverse(half)]) == [()]
        named = f"needs a word of {limit + 1} letters; int64 keys hold words of at most {limit}"
        with pytest.raises(DescriptorMismatchError, match="product set " + named):
            product_set(group, [longest + (2,)], [()])
        with pytest.raises(DescriptorMismatchError, match="product set " + named):
            product_set(group, [longest], [(2,)])
        with pytest.raises(DescriptorMismatchError, match="convolution " + named):
            convolve(GroupMeasure.point_mass(group, longest),
                     GroupMeasure.point_mass(group, (2,)))

    def test_outside_words_raise_at_the_set_functions(self):
        for word, fault in (((1, 3), "got -?3"), ((2, -2), "not reduced"),
                            ((1.5,), "integer coordinates")):
            with pytest.raises(DescriptorMismatchError, match=fault):
                product_set(F2, [word], [()])
            with pytest.raises(DescriptorMismatchError, match=fault):
                inverse_set(F2, [(), word])


class TestPairBound:
    """A product refuses, before any pair exists, pairs whose arrays would
    exceed the memory the process may use."""

    def test_pair_memory_budget(self):
        """The traced peak of a product, its keys and weights, stays within
        ``PAIR_BYTES`` per pair: words many by few, few by many and one by
        many, and cells through the table and through the sort."""
        assert groups.PAIR_BYTES == 80

        def walk(mu, F, n_max):
            """eta and 1_F as (keys, weights) in the Berg-Christensen walk's box."""
            eta = symmetrize(mu)
            box = measures._walk_box(mu.group, eta.cells, F, (n_max + 1) // 2, n_max // 2,
                                     "test")
            return box, (box.keys(eta.cells), eta.weights), (box.keys(F), np.ones(len(F)))

        def product(box, a, b):
            # add(key(x), key(y) - zero) is the key of x * y
            return measures._convolve_keys(box, *a, b[0] - box.zero, b[1], 10**8)

        mu = GroupMeasure.from_atoms(F2, [((1,), 0.3), ((-1,), 0.2), ((2,), 0.3), ((-2,), 0.2)])
        box, eta, one = walk(mu, [()], 10)
        high = eta
        for _ in range(3):
            high = product(box, high, eta)  # eta^{*4}: 9,841 words
        cases = [(box, high, eta), (box, eta, high), (box, one, (box.inverse(high[0]), high[1]))]
        box, eta, _ = walk(GroupMeasure.simple_random_walk(Z2), [(0, 0)], 400)
        high = eta
        for _ in range(100):
            high = product(box, high, eta)
        cases += [(box, high, eta)]
        for dense in (4, 0):
            with mock.patch.object(groups, "_DENSE_RANGE", dense):
                for box, a, b in cases:
                    tracemalloc.start()
                    try:
                        with np.errstate(over="ignore"):
                            product(box, a, b)
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    assert peak <= groups.PAIR_BYTES * len(a[0]) * len(b[0])

    def test_refused_before_the_pairs_exist(self):
        mu = GroupMeasure.uniform_on(F2, F2.ball(3))  # 53 words
        memory = groups.PAIR_BYTES * 53 * 53 - 1
        with mock.patch.object(groups, "_memory_bytes", return_value=memory):
            tracemalloc.start()
            try:
                with pytest.raises(ResourceLimitError,
                                   match=f"convolution would form 2809 pairs of 80 bytes "
                                         f"each, more than the {memory} bytes"):
                    convolve(mu, mu)
                with pytest.raises(ResourceLimitError, match="product set would form 2809"):
                    product_set(F2, list(mu.atoms), list(mu.atoms))
                with pytest.raises(ResourceLimitError, match=r"product set B\^2 would form 2809"):
                    power_set(F2, list(mu.atoms), 2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2809 * 8
        assert len(convolve(mu, mu)) == len(product_set(F2, list(mu.atoms), list(mu.atoms)))


def brute_sum(group, h, k):
    """Coordinate sum, reduced mod N on the torus; independent of compose."""
    if group.kind == "torus-grid":
        return tuple((x + y) % group.size for x, y in zip(h, k))
    return tuple(x + y for x, y in zip(h, k))


def brute_convolve(a, b):
    """The pair loop, h-major in atom order: {g: weight} in first-formed order."""
    out = {}
    for h, wa in a.atoms.items():
        for k, wb in b.atoms.items():
            g = brute_sum(a.group, h, k)
            out[g] = out.get(g, 0.0) + wa * wb
    return out


def brute_product_set(group, xs, ys):
    return sorted({brute_sum(group, x, y) for x in xs for y in ys})


@st.composite
def pair_case(draw):
    """A group of an abelian kind and two atom lists on it."""
    group = draw(st.sampled_from(PAIR_GROUPS))
    lo, hi = (0, group.size - 1) if group.kind == "torus-grid" else (-6, 6)
    cell = st.tuples(*[st.integers(lo, hi)] * group.dimension)
    weight = st.floats(1e-3, 10.0)
    atoms = st.lists(st.tuples(cell, weight), min_size=1, max_size=12)
    return group, draw(atoms), draw(atoms)


class TestAbelianPairSums:
    @settings(max_examples=150, deadline=None)
    @given(pair_case())
    def test_convolve_matches_pair_loop(self, case):
        group, xs, ys = case
        a = GroupMeasure.from_atoms(group, xs)
        b = GroupMeasure.from_atoms(group, ys)
        got = convolve(a, b)
        want = brute_convolve(a, b)
        assert list(got.atoms) == list(want)
        for g, w in want.items():
            assert got.atoms[g] == pytest.approx(w, rel=1e-15, abs=0)
        assert all(type(c) is int for g in got.atoms for c in g)

    @settings(max_examples=150, deadline=None)
    @given(pair_case())
    def test_product_set_matches_pair_loop(self, case):
        group, xs, ys = case
        xs, ys = [g for g, _ in xs], [g for g, _ in ys]
        got = rows(product_set(group, xs, ys))
        assert got == brute_product_set(group, xs, ys)
        assert got == sorted(got, key=group.sort_key)

    def test_torus_wraps_around(self):
        t2 = GroupDescriptor(kind="torus-grid", dimension=2, size=4)
        a = GroupMeasure.from_atoms(t2, [((3, 0), 0.5), ((2, 3), 0.5)])
        b = GroupMeasure.from_atoms(t2, [((1, 1), 0.25), ((3, 2), 0.75)])
        got = convolve(a, b)
        assert list(got.atoms.items()) == [
            ((0, 1), 0.125), ((2, 2), 0.375), ((3, 0), 0.125), ((1, 1), 0.375)]
        assert rows(product_set(t2, list(a.atoms), list(b.atoms))) == [
            (0, 1), (1, 1), (2, 2), (3, 0)]

    def test_empty_factor(self):
        assert rows(product_set(Z2, [], [(1, 2)])) == []
        assert rows(product_set(Z2, [(1, 2)], [])) == []
        empty = GroupMeasure.from_atoms(Z, [])
        assert len(convolve(empty, GroupMeasure.point_mass(Z, (1,)))) == 0
        assert len(convolve(GroupMeasure.point_mass(Z, (1,)), empty)) == 0

    def test_non_integer_coordinates_rejected(self):
        with pytest.raises(DescriptorMismatchError, match="integer coordinates"):
            GroupMeasure.from_atoms(Z, [((1.5,), 0.5), ((-1,), 0.5)])
        with pytest.raises(DescriptorMismatchError, match="integer coordinates"):
            product_set(Z, [(1.5,)], [(0.4,)])
        with pytest.raises(DescriptorMismatchError, match="integer coordinates"):
            product_set(Z, [(1,)], [(0.4,)])

    @pytest.mark.parametrize("group", [*PAIR_GROUPS, F2],
                             ids=lambda g: f"{g.kind}-{g.dimension}")
    def test_cap_on_both_paths(self, group):
        rng = np.random.default_rng(5)
        a, b = (random_measure(group, rng, n_atoms=6) for _ in range(2))
        if group.kind == "torus-grid":  # cells as residues in [0, N)
            a, b = (GroupMeasure.from_atoms(group, (
                (tuple(c % group.size for c in g), w) for g, w in m.atoms.items()))
                for m in (a, b))
        size = len(convolve(a, b))
        assert size > 1
        assert len(convolve(a, b, cap=size)) == size
        with pytest.raises(ResourceLimitError, match="cap of"):
            convolve(a, b, cap=size - 1)
        xs, ys = list(a.atoms), list(b.atoms)
        assert len(product_set(group, xs, ys, cap=size)) == size
        with pytest.raises(ResourceLimitError, match="cap of"):
            product_set(group, xs, ys, cap=size - 1)


class TestOneAtomTranslate:
    """A one-atom factor translates the other side: the pair loop's sums and
    weights, dropped where they underflow, in the other side's order."""

    @settings(max_examples=150, deadline=None)
    @given(pair_case(), st.booleans())
    def test_matches_pair_loop(self, case, atom_first):
        group, xs, ys = case
        a, b = GroupMeasure.from_atoms(group, xs[:1]), GroupMeasure.from_atoms(group, ys)
        if not atom_first:
            a, b = b, a
        want = [(g, w) for g, w in brute_convolve(a, b).items() if w > 0]
        assert list(convolve(a, b).atoms.items()) == want

    def test_underflow_overflow_and_cap(self):
        t5 = GroupDescriptor(kind="torus-grid", dimension=1, size=5)
        atom = GroupMeasure.point_mass(t5, (3,), 1e-200)
        other = GroupMeasure.from_atoms(t5, [((4,), 1e-200), ((1,), 0.5)])
        for a, b in ((atom, other), (other, atom)):
            assert list(convolve(a, b).atoms.items()) == [((4,), 1e-200 * 0.5)]
        huge = GroupMeasure.point_mass(t5, (3,), 1e300)
        other = GroupMeasure.from_atoms(t5, [((1,), 1.0), ((4,), 1e300)])
        with pytest.raises(PreconditionError, match=r"non-finite weight inf at atom \(2,\)"):
            convolve(huge, other)
        assert len(convolve(atom, other, cap=2)) == 2
        with pytest.raises(ResourceLimitError, match="convolution exceeded the support cap of 1"):
            convolve(other, atom, cap=1)


# -- box keys against the lexicographic row sort -------------------------------

KEY_GROUPS = [
    *(GroupDescriptor(kind="lattice", dimension=d) for d in (1, 2, 3)),
    *(GroupDescriptor(kind="real-grid", dimension=d, resolution=4) for d in (1, 2, 3)),
    *(GroupDescriptor(kind="torus-grid", dimension=d, size=n)
      for d, n in ((1, 7), (2, 5), (3, 3))),
]

#: ``_DENSE_RANGE`` values that send every deduplication through one branch
BRANCHES = {"table": 10**18, "sort": 0}


@st.composite
def key_case(draw):
    """An abelian group of dimension 1 to 3 and two cell lists on it, empty
    ones included; torus coordinates negative or beyond N, and, sometimes,
    cells 10^9 apart, whose keys are too wide for a table."""
    group = draw(st.sampled_from(KEY_GROUPS))
    reach = 2 * group.size if group.kind == "torus-grid" else 6
    far = draw(st.sampled_from([0, 10**9]))
    cell = st.tuples(*[st.integers(-reach, reach)] * group.dimension).map(
        lambda c: c if c[0] % 2 else (c[0] + far, *c[1:]))
    xs, ys = draw(st.lists(cell, max_size=10)), draw(st.lists(cell, max_size=10))
    return group, xs, ys, ("sort",) if far else tuple(BRANCHES)


def pair_weights(xs, ys):
    """A weight for each pair, x-major, whose sums depend on the order of
    addition."""
    return np.sqrt(np.arange(2.0, len(xs) * len(ys) + 2))


def keyed_pair_sums(group, xs, ys, cap):
    """The pair sums as ``convolve`` forms them, keyed by ``_factor_keys`` and
    deduplicated by ``_unique_keys``: (cells, summed ``pair_weights``)."""
    box, xk, yk = groups._factor_keys(group, xs, ys, "test")
    keys, weights = groups._unique_keys(box.add(xk, yk), pair_weights(xs, ys), cap, "test")
    return box.cells(keys), weights


def oracle_pair_sums(group, xs, ys):
    """``keyed_pair_sums`` by the pair loop and the lexicographic row sort:
    the distinct rows ordered by their first pair, and the weights added
    one by one in pair order."""
    rows = np.array([brute_sum(group, x, y) for x in xs for y in ys],
                    dtype=np.int64).reshape(-1, group.dimension)
    distinct, index, first = unique_rows(rows)
    sums = [0.0] * len(distinct)
    for i, w in zip(index.tolist(), pair_weights(xs, ys).tolist()):
        sums[i] += w
    order = np.argsort(first)
    return distinct[order], np.array(sums)[order]


class TestContains:
    """``groups._contains`` against ``np.isin``: one binary search of the
    values in a nondecreasing array."""

    ORDERED = np.array([-4, 0, 0, 3, 9], dtype=np.int64)

    def test_empty_set_holds_nothing(self):
        empty = np.array([], dtype=np.int64)
        assert groups._contains(empty, np.array([0, 5])).tolist() == [False, False]
        assert groups._contains(empty, empty).shape == (0,)

    def test_below_above_between_and_on_the_entries(self):
        values = np.array([-9, -4, -1, 0, 2, 3, 9, 10, 0, -9], dtype=np.int64)
        got = groups._contains(self.ORDERED, values)
        assert got.tolist() == [False, True, False, True, False, True, True,
                                False, True, False]

    @given(st.lists(st.integers(-50, 50), max_size=30),
           st.lists(st.integers(-60, 60), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_isin(self, entries, values):
        ordered = np.sort(np.array(entries, dtype=np.int64))
        values = np.array(values, dtype=np.int64)
        got = groups._contains(ordered, values)
        assert got.dtype == bool
        assert np.array_equal(got, np.isin(values, ordered))


class TestFoldSum:
    """``measures._fold_sum`` adds from the left on every Python: pairwise
    summation and the compensated ``sum()`` of Python 3.12 give another
    last digit for these values."""

    def test_order_decides_the_digits(self):
        values = [1.0] + [1e-16] * 10
        folded = 1.0
        for v in values[1:]:
            folded += v  # each 1e-16 is below half an ulp of 1.0
        assert folded == 1.0
        assert measures._fold_sum(values) == 1.0
        assert measures._fold_sum(np.array(values)) == 1.0
        assert measures._fold_sum(values[::-1]) == 1.000000000000001

    def test_empty_is_zero(self):
        assert measures._fold_sum([]) == 0.0
        assert type(measures._fold_sum(np.array([]))) is float


class TestBoxKeys:
    """Both deduplication branches give the row sort's sums in first-formed
    order, with the weights of each added in pair order."""

    @settings(max_examples=200, deadline=None)
    @given(key_case())
    def test_pair_sums_match_row_sort(self, case):
        group, xs, ys, branches = case
        want = oracle_pair_sums(group, xs, ys)
        for branch in branches:
            with mock.patch.object(groups, "_DENSE_RANGE", BRANCHES[branch]):
                got = keyed_pair_sums(group, xs, ys, 10**6)
            assert got[0].dtype == np.int64
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
        assert rows(product_set(group, xs, ys)) == sorted(map(tuple, want[0].tolist()))

    @pytest.mark.parametrize("branch", BRANCHES)
    @pytest.mark.parametrize("group, xs, ys", [
        (Z, [(3,), (-1,), (3,)], [(0,), (2,), (-2,)]),
        (Z2, [(0, 1), (1, 0)], [(1, 0), (0, 1), (1, 0)]),
        (GroupDescriptor(kind="torus-grid", dimension=2, size=4),
         [(-1, 5), (3, 1)], [(1, 3), (9, -4)]),
    ], ids=["z", "z2", "torus"])
    def test_branches_on_fixed_cases(self, group, xs, ys, branch):
        with mock.patch.object(groups, "_DENSE_RANGE", BRANCHES[branch]):
            got = keyed_pair_sums(group, xs, ys, 100)
        for g, w in zip(got, oracle_pair_sums(group, xs, ys)):
            np.testing.assert_array_equal(g, w)

    def test_wide_keys_are_sorted(self):
        xs, ys = [(0,), (10**9,)], [(0,), (1,), (10**9,)]
        with mock.patch.object(np, "full", side_effect=AssertionError("table")):
            got = keyed_pair_sums(Z, xs, ys, 100)
        for g, w in zip(got, oracle_pair_sums(Z, xs, ys)):
            np.testing.assert_array_equal(g, w)
        assert got[0].ravel().tolist() == [0, 1, 10**9, 10**9 + 1, 2 * 10**9]

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_cap_on_distinct_sums(self, branch):
        with mock.patch.object(groups, "_DENSE_RANGE", BRANCHES[branch]):
            keyed_pair_sums(Z, [(0,), (1,)], [(0,), (1,)], 3)
            with pytest.raises(ResourceLimitError, match="test exceeded the support cap of 2"):
                keyed_pair_sums(Z, [(0,), (1,)], [(0,), (1,)], 2)


def torus_ball_by_scan(group, radius):
    """The torus ball as a scan of every representative in [-N/2, N/2]."""
    n = group.size
    coords = sorted({r % n for r in range(-n // 2, n // 2 + 1)
                     if abs(r) / n <= min(radius, 0.5)})
    return sorted(cell for cell in itertools.product(coords, repeat=group.dimension)
                  if math.sqrt(sum((torus_rep(x, n) / n) ** 2 for x in cell))
                  <= radius)


def euclidean_ball_by_scan(group, radius):
    """The ball of a lattice or real grid as a scan of a box one cell wider
    than the ball on each side, cell by cell: the cells within radius +
    1e-12, in lexicographic order."""
    reach = math.ceil(radius * group.scale) + 1
    return [cell for cell in itertools.product(range(-reach, reach + 1), repeat=group.dimension)
            if math.sqrt(sum((x / group.scale) ** 2 for x in cell)) <= radius + 1e-12]


def boundary_radii(group):
    """Radii at which 1e-12 decides: the norms of a few cells, and those
    norms less 1e-12 and 2e-12 and plus 1e-12."""
    radii = []
    for cell in ((1,), (2,), (3, 4), (1, 1, 1), (2, 3, 6)):
        if len(cell) <= group.dimension:
            norm = math.sqrt(sum((x / group.scale) ** 2 for x in cell))
            radii += [norm, norm - 1e-12, norm - 2e-12, norm + 1e-12]
    return radii


class TestListedSupports:
    """Intervals and balls count their cells before they list them."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 64])
    @pytest.mark.parametrize("dimension", [1, 2])
    def test_torus_ball_matches_a_scan(self, n, dimension):
        group = GroupDescriptor(kind="torus-grid", dimension=dimension, size=n)
        for radius in (0.0, 0.05, 0.1, 0.2, 0.25, 0.3, 0.45, 0.5, 0.6, 0.71, 2.0):
            assert rows(group.ball(radius)) == torus_ball_by_scan(group, radius), radius

    @pytest.mark.parametrize("group", [
        GroupDescriptor(kind="lattice", dimension=1),
        GroupDescriptor(kind="lattice", dimension=2),
        GroupDescriptor(kind="lattice", dimension=3),
        GroupDescriptor(kind="real-grid", dimension=1, resolution=4),
        GroupDescriptor(kind="real-grid", dimension=2, resolution=4),
        GroupDescriptor(kind="real-grid", dimension=2, resolution=7),
        GroupDescriptor(kind="real-grid", dimension=3, resolution=3),
    ], ids=lambda g: f"{g.kind}-{g.dimension}-{g.resolution}")
    def test_euclidean_ball_matches_a_scan(self, group):
        for radius in (0.0, 0.3, 0.5, 1.0, 1.5, 2.0, *boundary_radii(group)):
            assert rows(group.ball(radius)) == euclidean_ball_by_scan(group, radius), radius

    def test_ball_boundary_is_one_rounding_wide(self):
        # |(3, 4)| = 5/4 at q = 4: 5/4 - 1e-12 + 1e-12 rounds to 5/4, and
        # 5/4 - 2e-12 + 1e-12 falls short of it
        g = GroupDescriptor(kind="real-grid", dimension=2, resolution=4)
        assert (3, 4) in rows(g.ball(5 / 4 - 1e-12))
        assert (3, 4) not in rows(g.ball(5 / 4 - 2e-12))

    def test_ball_of_more_axes_than_an_array_has(self):
        # numpy arrays have at most 64 axes; a ball within one cell of 0
        # has one cell in any dimension
        for group in (GroupDescriptor(kind="lattice", dimension=70),
                      GroupDescriptor(kind="torus-grid", dimension=66, size=1)):
            assert rows(group.ball(0.5)) == [(0,) * group.dimension]

    def test_negative_radius_is_an_empty_ball(self):
        for group in (Z, Z2, GroupDescriptor(kind="torus-grid", dimension=2, size=8)):
            assert rows(group.ball(-1)) == []
        assert F2.ball(-1) == []

    @pytest.mark.parametrize("group,radius,cells", [
        (Z, 1e7, 2 * 10**7 + 1),
        (Z2, 4000.0, 8001**2),
        (GroupDescriptor(kind="real-grid", dimension=1, resolution=1000), 1e4, 2 * 10**7 + 1),
        (GroupDescriptor(kind="torus-grid", dimension=1, size=10**12), 0.5, 10**12),
        (GroupDescriptor(kind="torus-grid", dimension=3, size=1000), 0.25, 501**3),
    ], ids=["Z", "Z2", "real-grid", "torus", "torus-3d"])
    def test_ball_beyond_the_cap_is_refused_unlisted(self, group, radius, cells):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError,
                               match=f"box around the ball of radius {radius} of {cells} "
                                     "cells exceeded the support cap of 10000000"):
                group.ball(radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_interval_beyond_the_cap_is_refused_unlisted(self):
        with pytest.raises(ResourceLimitError,
                           match=r"interval \[-10000000.0, 10000000.0\] of 20000001 cells "
                                 "exceeded the support cap of 10000000"):
            GroupMeasure.uniform_interval(Z, -1e7, 1e7)
        grid = GroupDescriptor(kind="real-grid", dimension=1, resolution=10**6)
        with pytest.raises(ResourceLimitError, match="of 20000001 cells exceeded"):
            GroupMeasure.uniform_interval(grid, -10, 10)

    def test_torus_interval_lists_each_residue_once(self):
        # an interval wider than the torus covers it, without listing its
        # 2 * 64 * 10^9 + 1 cells first
        torus = GroupDescriptor(kind="torus-grid", dimension=1, size=64)
        whole = GroupMeasure.uniform_on(torus, [(c,) for c in range(64)])
        for lo, hi in ((-1e9, 1e9), (0.0, 1.0), (-0.5, 0.5), (0.25, 1.25)):
            interval = GroupMeasure.uniform_interval(torus, lo, hi)
            assert rows(interval.cells) == rows(whole.cells), (lo, hi)
            assert interval.weights.tolist() == whole.weights.tolist(), (lo, hi)
        part = GroupMeasure.uniform_interval(torus, 0.9, 1.1)
        assert sorted(part.atoms) == sorted((c % 64,) for c in range(58, 71))

    @pytest.mark.parametrize("group,hi", [
        (GroupDescriptor(kind="real-grid", dimension=1, resolution=512), 1000),
        (GroupDescriptor(kind="torus-grid", dimension=1, size=2**21), 0.49),
    ], ids=["real-grid", "torus"])
    def test_interval_is_two_arrays_within_its_charge(self, group, hi):
        """About 10^6 cells: 16 bytes a cell held, the int64 cell and the
        float64 weight, and a traced peak within the ``PAIR_BYTES`` an
        interval is charged a cell (19 to 25 bytes, numpy 2.4)."""
        tracemalloc.start()
        try:
            start = time.perf_counter()
            mu = GroupMeasure.uniform_interval(group, -hi, hi)
            elapsed = time.perf_counter() - start
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(mu) > 10**6 and elapsed < 1.0
        assert held <= 17 * len(mu) and peak <= groups.PAIR_BYTES * len(mu)
        assert np.all(np.diff(mu.cells[:, 0]) > 0)

    @pytest.mark.parametrize("group,radius", [
        (GroupDescriptor(kind="real-grid", dimension=1, resolution=512), 1000.0),
        (GroupDescriptor(kind="real-grid", dimension=2, resolution=512), 1.0),
    ], ids=["real-grid", "real-grid-2d"])
    def test_ball_is_two_arrays_within_its_charge(self, group, radius):
        """About 10^6 cells, built as the CLI builds them: cells and
        weights held, and a traced peak within the ``PAIR_BYTES`` a ball is
        charged per cell of its box."""
        box = (2 * int(radius * group.scale) + 1) ** group.dimension
        tracemalloc.start()
        try:
            start = time.perf_counter()
            mu = build_measure(group, {"kind": "uniform-ball", "radius": radius})
            elapsed = time.perf_counter() - start
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(mu) > 8 * 10**5 and elapsed < 1.0
        assert held <= (8 * group.dimension + 9) * len(mu)
        assert peak <= groups.PAIR_BYTES * box
        assert np.all(np.diff(mu.cells[:, 0]) >= 0) and np.all(mu.weights == 1 / len(mu))

    def test_memory_bounds_the_listing(self, monkeypatch):
        # an interval, or the box around a ball, is charged PAIR_BYTES a cell
        monkeypatch.setattr(groups, "_memory_bytes", lambda: 1001 * groups.PAIR_BYTES)
        assert len(GroupMeasure.uniform_interval(Z, 1, 1001)) == 1001
        with pytest.raises(ResourceLimitError,
                           match=rf"interval \[0, 1001\] would form 1002 cells of "
                                 rf"{groups.PAIR_BYTES} bytes each, more than the "
                                 rf"{1001 * groups.PAIR_BYTES} bytes this process may use"):
            GroupMeasure.uniform_interval(Z, 0, 1001)
        assert len(Z.ball(500.0)) == 1001
        with pytest.raises(ResourceLimitError,
                           match=rf"box around the ball of radius 501.0 would form 1003 cells "
                                 rf"of {groups.PAIR_BYTES} bytes each"):
            Z.ball(501.0)

    def test_the_box_around_a_ball_meets_the_cap(self, monkeypatch):
        # the ball of radius 3 on Z^2 has 29 cells in a box of 7^2 = 49: it
        # is listed under a cap of 49 and refused under 48, by its box
        monkeypatch.setattr(groups, "DEFAULT_SUPPORT_CAP", 49)
        assert len(Z2.ball(3.0)) == 29
        monkeypatch.setattr(groups, "DEFAULT_SUPPORT_CAP", 48)
        with pytest.raises(ResourceLimitError, match="radius 3.0 of 49 cells exceeded "
                                                     "the support cap of 48"):
            Z2.ball(3.0)


class TestCellLength:
    """A list of cells whose elements have another length than d raises,
    though its coordinates would fill rows of d."""

    def test_ragged_cells_raise(self):
        from gaplab import berg_christensen_estimate

        calls = [
            ("product set", 1, lambda: product_set(Z, [(0, 0), ()], [(0,)])),
            ("inverse set", 1, lambda: inverse_set(Z, [(1, 2), ()])),
            ("product set", 2, lambda: power_set(Z2, [(0, 0, 1), (1,)], 2)),
            ("the neighborhood F", 1, lambda: berg_christensen_estimate(
                GroupMeasure.simple_random_walk(Z), F=[(0,), (0, 0), ()], n_max=4)),
        ]
        for what, d, call in calls:
            with pytest.raises(DescriptorMismatchError,
                               match=f"^{what} takes cells of {d} coordinates$"):
                call()


class TestInt64Range:
    """A sum, or a key box, that leaves int64 raises instead of wrapping."""

    def test_sum_beyond_int64(self):
        with pytest.raises(DescriptorMismatchError,
                           match=f"product set leaves int64 at coordinate {2**63}"):
            product_set(Z, [(2**62,)], [(2**62,)])
        with pytest.raises(DescriptorMismatchError, match=f"coordinate {-2**63 - 2}"):
            product_set(Z, [(-2**63,)], [(-2,)])
        big = GroupMeasure.from_atoms(Z, [((2**62,), 0.5), ((1,), 0.5)])
        with pytest.raises(DescriptorMismatchError, match="convolution leaves int64"):
            convolve(big, big)
        # -(-2^63) does not wrap to -2^63
        least = GroupMeasure.from_atoms(Z2, [((0, 1), 0.5), ((3, -2**63), 0.5)])
        with pytest.raises(DescriptorMismatchError,
                           match=f"involute leaves int64 at coordinate {2**63}"):
            involute(least)

    def test_coordinate_beyond_int64(self):
        for xs in ([(2**63,)], [(2**64,)], [(-1,), (2**63,)]):
            with pytest.raises(DescriptorMismatchError,
                               match=r"product set leaves int64 at coordinate \d+"):
                product_set(Z, xs, [(0,)])

    def test_key_box_beyond_int64(self):
        z3 = GroupDescriptor(kind="lattice", dimension=3)
        with pytest.raises(DescriptorMismatchError, match="key box of .* cells"):
            product_set(z3, [(0, 0, 0), (2**21, 2**21, 2**21)], [(0, 0, 0)])
        torus = GroupDescriptor(kind="torus-grid", dimension=2, size=2**32)
        with pytest.raises(DescriptorMismatchError, match=f"key box of {2**64} cells"):
            product_set(torus, [(1, 1)], [(2, 2)])
        # far from 0, a narrow set keys in a narrow box
        far = [(10**15 + i, -10**15, 10**15 + j) for i, j in ((0, 0), (1, 2), (2, 1))]
        assert rows(product_set(z3, far, [(0, 0, 0), (0, 1, 0)])) == sorted(
            {brute_sum(z3, x, y) for x in far for y in [(0, 0, 0), (0, 1, 0)]})
        # the largest sums that fit still add exactly
        assert rows(product_set(Z, [(2**62,)], [(2**62 - 1,)])) == [(2**63 - 1,)]
        assert rows(product_set(Z, [(-2**62,)], [(-2**62,)])) == [(-2**63,)]


class TestCanonicalTorus:
    """Torus coordinates are reduced mod N where they enter a measure."""

    Z17 = GroupDescriptor(kind="torus-grid", dimension=1, size=17)

    def test_colliding_atoms_merge_in_atom_order(self):
        mu = GroupMeasure.from_atoms(
            self.Z17, [((0,), 0.5), ((3,), 0.25), ((17,), 0.125)])
        assert list(mu.atoms.items()) == [((0,), 0.625), ((3,), 0.25)]
        direct = GroupMeasure.from_atoms(self.Z17, [((20,), 0.25), ((-14,), 0.5), ((1,), 1.0)])
        assert list(direct.atoms.items()) == [((3,), 0.75), ((1,), 1.0)]
        assert mu.atoms[self.Z17.canonical((-17,))] == 0.625
        assert GroupMeasure.point_mass(self.Z17, (18,)).atoms == {(1,): 1.0}

    def test_merged_weight_that_overflows_raises(self):
        with pytest.raises(PreconditionError, match=r"non-finite weight inf at atom \(0,\)"):
            GroupMeasure.from_atoms(self.Z17, [((0,), 1e308), ((17,), 1e308)])

    def test_zero_and_seventeen_are_one_atom(self):
        mu = GroupMeasure.from_atoms(self.Z17, [((0,), 0.5), ((17,), 0.5)])
        assert mu.atoms == {(0,): 1.0}
        assert len(convolve(mu, mu)) == 1


@st.composite
def measure_triple(draw):
    """A group of an abelian kind and three measures on it."""
    group = draw(st.sampled_from(PAIR_GROUPS))
    lo, hi = (0, group.size - 1) if group.kind == "torus-grid" else (-6, 6)
    cell = st.tuples(*[st.integers(lo, hi)] * group.dimension)
    atoms = st.lists(st.tuples(cell, st.floats(1e-3, 10.0)), min_size=1, max_size=8)
    return group, *(GroupMeasure.from_atoms(group, draw(atoms)) for _ in range(3))


def assert_same_measure(left, right, rel=1e-12):
    assert set(left.atoms) == set(right.atoms)
    for g, w in left.atoms.items():
        assert right.atoms[g] == pytest.approx(w, rel=rel, abs=0)


class TestAbelianConvolveLaws:
    """Group-algebra identities of ``convolve`` on the abelian kinds."""

    @settings(max_examples=100, deadline=None)
    @given(measure_triple())
    def test_commutative(self, case):
        _, a, b, _ = case
        assert_same_measure(convolve(a, b), convolve(b, a))

    @settings(max_examples=100, deadline=None)
    @given(measure_triple())
    def test_associative(self, case):
        _, a, b, c = case
        assert_same_measure(convolve(convolve(a, b), c),
                            convolve(a, convolve(b, c)))

    @settings(max_examples=100, deadline=None)
    @given(measure_triple())
    def test_involution_reverses_products(self, case):
        _, a, b, _ = case
        assert_same_measure(involute(convolve(a, b)),
                            convolve(involute(b), involute(a)))

    @settings(max_examples=100, deadline=None)
    @given(measure_triple())
    def test_mass_multiplies(self, case):
        _, a, b, _ = case
        assert convolve(a, b).total_mass == pytest.approx(
            a.total_mass * b.total_mass, rel=1e-12, abs=0)


class TestInvolute:
    def test_point_mass(self):
        assert involute(GroupMeasure.point_mass(F2, (1, 2))).support() == [(-2, -1)]

    def test_relabeling_on_z(self):
        mu = GroupMeasure.from_atoms(Z, [((2,), 0.3), ((5,), 0.7)])
        out = involute(mu)
        assert out.atoms[(-2,)] == 0.3
        assert out.atoms[(-5,)] == 0.7
        assert out.total_mass == mu.total_mass

    def test_symmetric_fixed_point(self):
        mu = GroupMeasure.simple_random_walk(Z2)
        assert involute(mu).atoms == mu.atoms

    def test_involution_squared_is_identity(self):
        rng = np.random.default_rng(4)
        for group in (Z2, F2):
            mu = random_measure(group, rng)
            assert involute(involute(mu)).atoms == mu.atoms

    def test_antihomomorphism(self):
        rng = np.random.default_rng(5)
        for group in (Z2, F2):
            a = random_measure(group, rng)
            b = random_measure(group, rng)
            left = involute(convolve(a, b))
            right = convolve(involute(b), involute(a))
            assert set(left.atoms) == set(right.atoms)
            for g in left.atoms:
                assert left.atoms[g] == pytest.approx(right.atoms[g], rel=1e-12)


class TestSymmetrize:
    def test_point_mass_goes_to_identity(self):
        out = symmetrize(GroupMeasure.point_mass(F2, (1, 2, 1)))
        assert out.support() == [()]

    def test_scaled_point(self):
        out = symmetrize(GroupMeasure.point_mass(Z, (1,), mass=3.0))
        assert out.atoms[(0,)] == pytest.approx(9.0)

    def test_free_uniform_identity_weight(self):
        out = symmetrize(GroupMeasure.simple_random_walk(F2))
        assert out.atoms[()] == pytest.approx(0.25, abs=0)

    def test_symmetric_and_positive_at_identity(self):
        # the one-parameter kinds too: the certificate walk takes supp(eta)
        # as its symmetric step set S that holds the identity, unchecked;
        # on the 5-cycle the atoms at reach 3 wrap
        rng = np.random.default_rng(6)
        for group in (Z2, F2, GroupDescriptor(kind="real-grid", dimension=1, resolution=8),
                      GroupDescriptor(kind="torus-grid", dimension=1, size=5)):
            mu = GroupMeasure.from_atoms(group, random_measure(group, rng).atoms.items())
            eta = symmetrize(mu)
            for g, w in eta.atoms.items():
                assert eta.atoms[group.inverse(g)] == pytest.approx(w, rel=0, abs=1e-12)
            # identity mass is the sum of squared atom masses
            expect = sum(w * w for w in mu.atoms.values())
            assert eta.atoms[group.identity()] == pytest.approx(expect, rel=1e-12)
            assert eta.atoms[group.identity()] > 0


class TestMassOnSet:
    def test_point(self):
        assert mass_on_set(GroupMeasure.point_mass(Z, (0,)), [(0,)]) == 1.0

    def test_srw_square_at_zero(self):
        sq = convolution_power(GroupMeasure.simple_random_walk(Z), 2)
        assert mass_on_set(sq, [(0,)]) == pytest.approx(0.5)

    def test_binomial_identity(self):
        # oracle: central binomial return probability, checked at n = 5
        walk = convolution_power(GroupMeasure.simple_random_walk(Z), 10)
        assert mass_on_set(walk, [(0,)]) == pytest.approx(
            math.comb(10, 5) / 4**5, rel=1e-12
        )
        assert math.comb(10, 5) / 4**5 == 63 / 256

    def test_full_support_is_total_mass(self):
        rng = np.random.default_rng(7)
        mu = random_measure(Z2, rng)
        assert mass_on_set(mu, mu.support()) == pytest.approx(
            mu.total_mass, rel=1e-12
        )
