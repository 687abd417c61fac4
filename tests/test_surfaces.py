"""Smaller contract surfaces: invariants and interface details."""

import ast
import json
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest
from dict_oracles import physical, rows, sampled_fourier_sup
from operator_helpers import act_indices

from gaplab import GroupDescriptor, GroupMeasure, amenable_norm, build_action
from gaplab.cli import main

Z = GroupDescriptor(kind="lattice", dimension=1)


class TestMeasurePreservation:
    @pytest.mark.parametrize("kind,kwargs", [
        ("circle-rotation", dict(N=32, cells_per_step=5)),
        ("torus-translation", dict(N=16, step=(3, 5))),
        ("bernoulli-window", dict(alphabet=3, window_radius=1)),
        ("finite-permutation", dict(permutation=[2, 0, 1, 4, 3])),
    ])
    def test_pushforward_of_weights_is_exact(self, kind, kwargs):
        space = build_action(kind, group=Z, **kwargs)
        idx = np.arange(space.n_cells)
        for c in (-2, 1, 3):
            image = act_indices(space, c, idx)
            pushed = np.zeros_like(space.weights)
            np.add.at(pushed, image, space.weights)
            assert np.array_equal(pushed, space.weights)


class TestGroupGeometry:
    def test_torus_group_ball(self):
        t = GroupDescriptor(kind="torus-grid", dimension=1, size=16)
        assert rows(t.ball(2 / 16)) == [(0,), (1,), (2,), (14,), (15,)]

    def test_free_ball_ordering(self):
        f2 = GroupDescriptor(kind="free", dimension=2)
        ball = f2.ball(1)
        assert ball[0] == ()
        assert len(ball) == 5
        assert all(len(w) <= 1 for w in ball)

    def test_real_grid_norm(self):
        g = GroupDescriptor(kind="real-grid", dimension=2, resolution=4)
        assert physical(g, (3, 4)) == (0.75, 1.0)
        # the ball is the Euclidean norm of the value: |(3, 4)| = 5/4; on
        # the array itself ``in`` would test coordinates one by one
        assert (3, 4) in rows(g.ball(5 / 4))
        assert (3, 4) not in rows(g.ball(5 / 4 - 1e-9))


class TestFourierTorusGroup:
    def test_integer_frequency_scan(self):
        t = GroupDescriptor(kind="torus-grid", dimension=1, size=8)
        mu = GroupMeasure.from_atoms(t, [((1,), 0.5), ((7,), 0.5)])
        xi = np.arange(-4, 5)[:, None]
        # |mu-hat(m)| = |cos(2 pi m / 8)|, sup over integer m includes 0
        assert sampled_fourier_sup(mu, xi) == pytest.approx(1.0, abs=1e-12)
        assert amenable_norm(mu).value == 1.0


class TestCliEnvironment:
    def test_reports_land_in_out_whatever_the_environment(self, tmp_path,
                                                          monkeypatch):
        cfg = {
            "experiment": "regular-norm",
            "group": {"kind": "lattice", "dimension": 1},
            "measure": {"kind": "srw"},
            "params": {"method": "amenable-mass"},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        env_dir = tmp_path / "env-out"
        # the variable that once overrode --out
        monkeypatch.setenv("GAPLAB_OUT", str(env_dir))
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "regular-norm_record.csv").exists()
        assert not env_dir.exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = {
            "experiment": "koopman-norm",
            "group": {"kind": "lattice", "dimension": 1},
            "measure": {"kind": "srw"},
            "action": {"kind": "circle-rotation", "N": 32, "cells_per_step": 7},
            "params": {"tol": 1e-8, "seed": 1},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["--config", str(cfg_path), "--out", str(out_b),
                     "--seed", "99"]) == 0
        # koopman-norm reads no seed: the discrepancy is exact
        record = "koopman-norm_record.csv"
        assert (out_a / record).read_bytes() == (out_b / record).read_bytes()


ROOT = Path(__file__).resolve().parents[1]


def read_names(trees) -> set[str]:
    """The names the code of ``trees`` reads: a call, or a function passed
    on, names it as a variable or an attribute (an import, a definition, a
    docstring or a comment does not)."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def unreached_public_names(root: Path) -> list[str]:
    """The public names of ``src/gaplab`` that nothing reaches outside tests.

    A module-level function or class, or a method of a public class, is
    reached if the code of ``src/gaplab`` reads it (``read_names``), or
    README.md or configs/ names it.
    """
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted((root / "src" / "gaplab").glob("*.py"))}
    read = read_names(trees.values())
    outside = (root / "README.md").read_text() + "".join(
        p.read_text() for p in sorted((root / "configs").glob("*")))

    def reached(name):
        return name in read or re.search(rf"\b{name}\b", outside)

    unreached = []
    for tree in trees.values():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if not reached(node.name):
                unreached.append(node.name)
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(method, ast.FunctionDef)
                        and not method.name.startswith("_")
                        and not reached(method.name)):
                    unreached.append(f"{node.name}.{method.name}")
    return sorted(unreached)


def test_every_public_name_is_reached():
    """An entry point that only tests call belongs in tests/, not in src."""
    assert unreached_public_names(ROOT) == []


def test_a_mention_reaches_no_name(tmp_path):
    """A docstring or a comment of ``src`` names a function without
    reaching it; a call from a sibling module, or README.md, reaches it."""
    package = tmp_path / "src" / "gaplab"
    package.mkdir(parents=True)
    (tmp_path / "configs").mkdir()
    (tmp_path / "README.md").write_text("Run `documented_in_readme`.\n")
    (package / "tools.py").write_text(textwrap.dedent('''
        def only_mentioned():
            """Not called: see only_mentioned and Tool.spoken."""

        def called():
            pass

        def documented_in_readme():
            pass

        class Tool:
            def spoken(self):  # Tool().spoken() is named only here
                pass

            def used(self):
                pass
        '''))
    (package / "run.py").write_text(textwrap.dedent('''
        """Calls called, not only_mentioned."""
        from .tools import Tool, called, only_mentioned

        def _run():
            called()
            return Tool().used
        '''))
    assert unreached_public_names(tmp_path) == ["Tool.spoken", "only_mentioned"]
    assert unreached_private_functions(tmp_path) == ["run._run"]


def test_a_name_passed_on_or_configured_is_reached(tmp_path):
    """A function handed on uncalled, or named in configs/, is reached; a
    string that spells a name is not."""
    package = tmp_path / "src" / "gaplab"
    package.mkdir(parents=True)
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "run.json").write_text('{"method": "configured"}\n')
    (tmp_path / "README.md").write_text("")
    (package / "tools.py").write_text(textwrap.dedent('''
        def handed_on():
            pass

        def configured():
            pass

        def spelled():
            pass

        def _apply(fn):
            return fn

        METHODS = {"spelled": _apply(handed_on)}
        '''))
    assert unreached_public_names(tmp_path) == ["spelled"]
    assert unreached_private_functions(tmp_path) == []


def unreached_private_functions(root: Path) -> list[str]:
    """The private module-level functions of ``src/gaplab`` that no code
    of ``src/gaplab`` reads (``read_names``)."""
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted((root / "src" / "gaplab").glob("*.py"))}
    read = read_names(trees.values())
    return sorted(
        f"{module}.{node.name}" for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        and not node.name.startswith("__") and node.name not in read)


def test_every_private_function_is_reached():
    """A private helper that only tests call belongs in tests/, not in src."""
    assert unreached_private_functions(ROOT) == []


def space_type_checks(root: Path) -> list[str]:
    """The ``isinstance`` calls of ``src/gaplab`` outside ``actions.py``
    whose class argument names a class defined in ``actions.py``, as
    ``module:line``: a space answers its own geometry instead."""
    package = root / "src" / "gaplab"
    classes = {node.name for node in ast.parse((package / "actions.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "actions.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                continue
            kinds = node.args[1]
            for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
                name = kind.attr if isinstance(kind, ast.Attribute) else getattr(kind, "id", None)
                if name in classes:
                    found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_type_check_on_a_space_outside_actions():
    """Code outside ``actions.py`` asks a space, not its class."""
    assert space_type_checks(ROOT) == []


def test_a_type_check_on_a_space_is_found(tmp_path):
    """A bare name, a module attribute and a tuple entry are found; a
    class of another module is not."""
    package = tmp_path / "src" / "gaplab"
    package.mkdir(parents=True)
    (package / "actions.py").write_text("class Space:\n    pass\n\n\nclass Grid(Space):\n"
                                        "    pass\n")
    (package / "user.py").write_text(textwrap.dedent('''
        from . import actions
        from .actions import Grid, Space

        def f(x):
            return (isinstance(x, Grid), isinstance(x, actions.Space),
                    isinstance(x, (int, Space)), isinstance(x, dict))
        '''))
    assert space_type_checks(tmp_path) == ["user:6", "user:6", "user:7"]


#: the functions of ``measures.py`` that form and read the dict view of a
#: measure, the one place its atoms are read
ATOM_VIEW = ("atoms", "support")


def atom_reads(root: Path) -> list[str]:
    """The reads of an ``atoms`` attribute in ``src/gaplab``, as
    ``module:line``, outside the dict view in ``measures.py``: every other
    function reads the arrays of a measure."""
    found = []
    for path in sorted((root / "src" / "gaplab").glob("*.py")):
        tree = ast.parse(path.read_text())
        view = set()
        for node in ast.walk(tree):
            if (path.stem == "measures" and isinstance(node, ast.FunctionDef)
                    and node.name in ATOM_VIEW):
                view.update(map(id, ast.walk(node)))
        found += [f"{path.stem}:{n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr == "atoms" and id(n) not in view]
    return sorted(found)


#: the code of the walk both lower estimates run, by module
WALK = {"measures": ("_pairing",),
        "regular_norm": ("berg_christensen_estimate",),
        "certificates": ("_walk",)}


def _outside_handlers(node):
    """The nodes under ``node`` that no ``except`` clause holds."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, ast.ExceptHandler):
            yield from _outside_handlers(child)


def kind_reads(root: Path) -> list[str]:
    """The reads of ``is_abelian`` or ``kind`` in the functions of
    ``WALK``, as ``module:line``, outside their error handlers, where one
    walk serves every kind."""
    found = []
    for module, walk in WALK.items():
        tree = ast.parse((root / "src" / "gaplab" / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in walk:
                found += [f"{module}:{n.lineno}" for n in _outside_handlers(node)
                          if isinstance(n, ast.Attribute) and n.attr in ("is_abelian", "kind")]
    return sorted(found)


def test_one_convolution_path_for_every_kind():
    """No function reads a measure as a dict of atoms outside its dict
    view, and the walk of both lower estimates takes no branch by group
    kind."""
    assert atom_reads(ROOT) == []
    assert kind_reads(ROOT) == []


def test_an_atom_read_and_a_kind_read_are_found(tmp_path):
    """A read of ``atoms`` is found in any module, and in any function of
    ``measures.py`` but those of the dict view; a kind test is found in a
    function of the walk, but not in its error handler."""
    package = tmp_path / "src" / "gaplab"
    package.mkdir(parents=True)
    (package / "measures.py").write_text(textwrap.dedent('''
        class GroupMeasure:
            def atoms(self):
                return dict(zip(self.cells, self.weights))

            def support(self):
                return sorted(self.atoms)


        def convolve(a, b):
            return [h + k for h in a.atoms for k in b.atoms]


        def _pairing(box, high, reach, step):
            return box.kind
        '''))
    (package / "koopman.py").write_text(textwrap.dedent('''
        def discrepancy(space, mu):
            return space.steps(list(mu.atoms))
        '''))
    (package / "regular_norm.py").write_text(textwrap.dedent('''
        def berg_christensen_estimate(mu):
            try:
                if mu.group.is_abelian:
                    return 1
            except ValueError:
                return mu.group.kind
        '''))
    (package / "certificates.py").write_text(textwrap.dedent('''
        def _walk(space, eta):
            return space.group.kind
        '''))
    assert atom_reads(tmp_path) == ["koopman:3", "measures:11", "measures:11"]
    assert kind_reads(tmp_path) == ["certificates:3", "measures:15", "regular_norm:4"]


def interval_unions(root: Path) -> list[str]:
    """The functions of ``src/gaplab``, as ``module.function``, that read
    runs off sorted integers: by a running maximum
    (``np.maximum.accumulate``, as a union of intervals sorted by start
    does) or by the run masks of ``certificates._runs``."""
    found = set()
    for path in sorted((root / "src" / "gaplab").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                call = node.func if isinstance(node, ast.Call) else None
                if (isinstance(call, ast.Name) and call.id == "_runs"
                        or isinstance(call, ast.Attribute) and call.attr == "accumulate"
                        and isinstance(call.value, ast.Attribute)
                        and call.value.attr == "maximum"):
                    found.add(f"{path.stem}.{func.name}")
    return sorted(found)


def test_one_union_for_every_dilation():
    """Every union of intervals, of steps or of slots, is the one sweep of
    ``certificates``; ``_slot_segments`` reads the runs of a cell set's
    slots, which merge nothing."""
    assert interval_unions(ROOT) == ["certificates._slot_segments", "certificates._sweep"]


def test_a_second_union_is_found(tmp_path):
    """A running maximum or a run mask outside the sweep is found, in any
    module; a maximum that accumulates nothing is not."""
    package = tmp_path / "src" / "gaplab"
    package.mkdir(parents=True)
    (package / "certificates.py").write_text(textwrap.dedent('''
        import numpy as np

        def _sweep(lo, hi):
            return _runs(np.sort(lo)[1:] > np.sort(hi)[:-1])

        def _merged_runs(first, last):
            order = np.argsort(first)
            return np.maximum.accumulate(last[order])
        '''))
    (package / "nets.py").write_text(textwrap.dedent('''
        import numpy

        def spans(lo, hi):
            return numpy.maximum.accumulate(hi), numpy.maximum(lo, hi)

        def widest(hi):
            return max(hi)
        '''))
    assert interval_unions(tmp_path) == ["certificates._merged_runs", "certificates._sweep",
                                         "nets.spans"]


#: the passes over every cell that only the cycle coordinates need: the
#: cycle type is read off one histogram of the distances
HEAD_PASSES = {"add.at", "unique", "flatnonzero"}


def cycle_type_head_passes(root: Path) -> list[str]:
    """The calls of ``np.add.at``, ``np.unique`` and ``np.flatnonzero``
    (or through ``numpy``) in ``CycleTable.__init__`` of
    ``src/gaplab/actions.py``."""
    tree = ast.parse((root / "src" / "gaplab" / "actions.py").read_text())
    found = set()
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name == "CycleTable"):
            continue
        for func in cls.body:
            if not (isinstance(func, ast.FunctionDef) and func.name == "__init__"):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    module, _, name = ast.unparse(node.func).partition(".")
                    if module in ("np", "numpy") and name in HEAD_PASSES:
                        found.add(name)
    return sorted(found)


def test_cycle_type_builds_no_heads():
    """The constructor reads the cycle type off the distances and leaves
    the least cells to the first read of the coordinates."""
    assert cycle_type_head_passes(ROOT) == []


def test_a_head_pass_in_the_build_is_found(tmp_path):
    """A count or search over the least cells in ``CycleTable.__init__``
    is found under either numpy name; the same calls in the coordinates'
    build or in another class's constructor are not."""
    package = tmp_path / "src" / "gaplab"
    package.mkdir(parents=True)
    (package / "actions.py").write_text(textwrap.dedent('''
        import numpy
        import numpy as np

        class CycleTable:
            def __init__(self, sigma):
                counts = np.zeros(sigma.size, dtype=np.int64)
                np.add.at(counts, sigma, 1)
                self.lengths = numpy.unique(counts[np.flatnonzero(counts)])

            def _coordinates(self):
                return np.flatnonzero(self.lengths), np.unique(self.lengths)

        class Other:
            def __init__(self, cells):
                self.heads = np.flatnonzero(cells)
        '''))
    assert cycle_type_head_passes(tmp_path) == ["add.at", "flatnonzero", "unique"]


#: the numpy constructors of a new array of a given size
ALLOCATIONS = {"empty", "zeros", "ones", "full", "arange"}


def order_reads(root: Path) -> list[str]:
    """The functions of ``src/gaplab``, as ``module.function``, that read
    an attribute named ``order``: the cells in slot order, which the cycle
    table does not keep."""
    found = set()
    for path in sorted((root / "src" / "gaplab").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef) and any(
                    isinstance(node, ast.Attribute) and node.attr == "order"
                    and isinstance(node.ctx, ast.Load) for node in ast.walk(func)):
                found.add(f"{path.stem}.{func.name}")
    return sorted(found)


def walk_cell_arrays(root: Path) -> list[str]:
    """The calls in ``certificates._walk`` that make a new array of
    ``space.n_cells`` entries, as source."""
    tree = ast.parse((root / "src" / "gaplab" / "certificates.py").read_text())
    found = []
    for func in ast.walk(tree):
        if not (isinstance(func, ast.FunctionDef) and func.name == "_walk"):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and node.args:
                module, _, name = ast.unparse(node.func).partition(".")
                if (module in ("np", "numpy") and name in ALLOCATIONS
                        and ast.unparse(node.args[0]) in ("space.n_cells",
                                                          "(space.n_cells,)")):
                    found.append(ast.unparse(node))
    return found


def test_cells_are_read_through_slot():
    """The table keeps ``slot`` alone, so no code reads cells in slot
    order off an ``order``, and the certificate walk keeps one cell-sized
    array, phi, which also marks S^n B_n for the companion."""
    assert order_reads(ROOT) == []
    assert walk_cell_arrays(ROOT) == [
        "np.empty(space.n_cells, dtype=np.int8)"]


def test_an_order_read_and_a_second_walk_array_are_found(tmp_path):
    """A read of ``.order`` is found in any function of any module; a
    keyword, a store or a ``getattr`` by that name is not.  Every allocation of
    ``space.n_cells`` entries in ``_walk`` is found, under either numpy
    name, and none of another size or in another function."""
    package = tmp_path / "src" / "gaplab"
    package.mkdir(parents=True)
    (package / "certificates.py").write_text(textwrap.dedent('''
        import numpy
        import numpy as np

        def _segment_mask(space, slots, out):
            out[space.cycles.order[slots]] = True
            return out

        def _walk(space, segments):
            covered = numpy.zeros((space.n_cells,), dtype=bool)
            phi = np.empty(space.n_cells, dtype=np.int8)
            steps = np.zeros(len(segments))
            return covered, phi, steps

        def _row(space):
            return np.ones(space.n_cells)
        '''))
    (package / "actions.py").write_text(textwrap.dedent('''
        import numpy as np

        class CycleTable:
            def rows(self, values):
                return np.sort(values, order=None)

            def _coordinates(self):
                self.order = np.argsort(self.slot)
                return getattr(self, "order")

        def cells(table):
            return table.order
        '''))
    assert order_reads(tmp_path) == ["actions.cells", "certificates._segment_mask"]
    assert walk_cell_arrays(tmp_path) == [
        "numpy.zeros((space.n_cells,), dtype=bool)",
        "np.empty(space.n_cells, dtype=np.int8)"]


def box_listings(root: Path) -> list[str]:
    """The functions of ``src/gaplab``, as ``module.function``, that call
    ``itertools.product``, under that name or a name imported from
    ``itertools``: a listing of the cells of a box one tuple at a time,
    where a ball is one cell array."""
    found = set()
    for path in sorted((root / "src" / "gaplab").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {"itertools.product"} | {
            alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "itertools"
            for alias in node.names if alias.name == "product"}
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and any(
                    isinstance(node, ast.Call) and ast.unparse(node.func) in names
                    for node in ast.walk(func)):
                found.add(f"{path.stem}.{func.name}")
    return sorted(found)


def test_no_box_is_listed_by_tuples():
    """Every kind's cells are formed as arrays: no function takes the
    cartesian product of coordinate ranges in Python."""
    assert box_listings(ROOT) == []


def test_a_tuple_listing_is_found(tmp_path):
    """A call of ``itertools.product``, or of ``product`` imported from
    ``itertools`` under any name, is found in a method or a function; other
    ``itertools`` calls and a local function named ``product`` are not."""
    package = tmp_path / "src" / "gaplab"
    package.mkdir(parents=True)
    (package / "groups.py").write_text(textwrap.dedent('''
        import itertools
        from itertools import product as cartesian

        class GroupDescriptor:
            def ball(self, reach):
                return list(itertools.product(range(-reach, reach + 1), repeat=2))

        def _box(reach):
            return list(cartesian(range(reach), range(reach)))

        def _coordinates(xs):
            return list(itertools.chain.from_iterable(xs))
        '''))
    (package / "measures.py").write_text(textwrap.dedent('''
        def product(a, b):
            return a * b

        def convolve(a, b):
            return product(a, b)
        '''))
    assert box_listings(tmp_path) == ["groups._box", "groups.ball"]
