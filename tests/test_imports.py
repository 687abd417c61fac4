"""Which modules the package and the CLI load, each checked in a fresh
interpreter, so that the imports of other tests do not count."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: the names ``gaplab`` exports, by the submodule that defines them
EXPORTS = {
    "actions": ["ActionSpace", "GridTranslationSpace", "build_action",
                "continued_fraction_convergent"],
    "certificates": ["run_certificate"],
    "errors": ["ConstructionError", "DescriptorMismatchError", "GaplabError",
               "GridResolutionError", "PreconditionError", "ResourceLimitError",
               "UnsupportedKindError"],
    "groups": ["GroupDescriptor", "inverse_set", "power_set", "product_set"],
    "koopman": ["DiscrepancyResult", "character_line_scan", "character_norm",
                "discrepancy", "verify_lower_bound"],
    "measures": ["GroupMeasure", "convolve", "involute", "symmetrize"],
    "nets": ["greedy_maximal_net", "net_ratio_study", "verify_net_bounds"],
    "regular_norm": ["amenable_norm", "berg_christensen_estimate", "regular_norm"],
}

CLI_MODULES = ["gaplab", "gaplab.cli", "gaplab.errors", "gaplab.groups",
               "gaplab.measures", "gaplab.regular_norm"]

# prints the gaplab modules loaded, sorted, as one JSON list
LOADED = ("print(json.dumps(sorted(m for m in sys.modules "
          "if m == 'gaplab' or m.startswith('gaplab.'))))")


def python(code: str, cwd=None) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports gaplab from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          cwd=cwd, capture_output=True, text=True, check=True)


def loaded_after(code: str, cwd=None) -> list[str]:
    out = python(f"import json, sys\n{textwrap.dedent(code)}\n{LOADED}\n", cwd)
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_loads_only_what_its_tables_need():
    assert loaded_after("""
        import gaplab.cli
        assert "concurrent.futures" not in sys.modules  # loaded for --jobs > 1
        assert "logging" not in sys.modules  # nothing logs
        """) == CLI_MODULES


def test_package_loads_what_regular_norm_needs():
    # the function ``regular_norm`` shares its module's name, so that module
    # loads with the package
    assert loaded_after("import gaplab") == [m for m in CLI_MODULES if m != "gaplab.cli"]


def test_regular_norm_is_the_function_whatever_loads_first():
    python("""
        import gaplab.regular_norm
        import gaplab.cli
        from gaplab import regular_norm
        assert callable(regular_norm) and regular_norm.__name__ == "regular_norm"
        assert regular_norm is gaplab.regular_norm.__globals__["regular_norm"]
        """)


@pytest.mark.parametrize("cfg,added", [
    ({"experiment": "regular-norm", "group": {"kind": "lattice"},
      "measure": {"kind": "srw"}, "params": {"n_max": 5}}, []),
    ({"experiment": "regular-norm", "group": {"kind": "free", "dimension": 2},
      "measure": {"kind": "atoms", "atoms": [[1, 0.6], [-2, 0.4]]},
      "params": {"n_max": 5}}, ["gaplab.words"]),
    ({"experiment": "nets", "params": {"count": 3, "ratio_n_max": 4}},
     ["gaplab.nets"]),
    ({"experiment": "certificate",
      "group": {"kind": "real-grid", "dimension": 1, "resolution": 2},
      "measure": {"kind": "uniform-interval", "lo": -1, "hi": 1},
      "action": {"kind": "torus-translation", "N": 128, "step": [29, 41]},
      "params": {"n_max": 6, "cross_check_discrepancy": False}},
     ["gaplab.actions", "gaplab.certificates"]),
], ids=["regular-norm", "free-regular-norm", "nets", "certificate"])
def test_run_adds_only_the_modules_it_uses(tmp_path, cfg, added):
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    loaded = loaded_after("""
        from gaplab import cli
        assert cli.main(["--config", "cfg.json", "--out", "out"]) == 0
        """, cwd=tmp_path)
    assert loaded == sorted(CLI_MODULES + added)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_exported_names_resolve_to_the_submodule_objects(module):
    names = EXPORTS[module]
    python(f"""
        import importlib
        import gaplab
        owner = importlib.import_module("gaplab.{module}")
        for name in {names!r}:
            exec(f"from gaplab import {{name}} as value")
            assert value is getattr(owner, name), name
            assert getattr(gaplab, name) is value, name
            assert name in gaplab.__all__ and name in dir(gaplab), name
        """)


def test_star_import_binds_every_export_and_submodule():
    python(f"""
        import gaplab
        from gaplab import *
        exported = {[*EXPORTS, *(n for names in EXPORTS.values() for n in names)]!r}
        assert sorted(gaplab.__all__) == sorted(exported), gaplab.__all__
        for name in exported:
            assert name in globals(), name
        assert actions.build_action is build_action
        """)


def test_submodule_attribute_loads_it():
    python("""
        import sys
        import gaplab
        assert "gaplab.koopman" not in sys.modules
        assert gaplab.koopman is sys.modules["gaplab.koopman"]
        """)


def test_unknown_attribute_raises_without_loading_a_module():
    python("""
        import sys
        import gaplab
        before = set(sys.modules)
        try:
            gaplab.no_such_name
        except AttributeError as err:
            assert "no_such_name" in str(err)
        else:
            raise AssertionError("no AttributeError")
        try:
            from gaplab import operators
        except ImportError:
            pass
        else:
            raise AssertionError("no ImportError")
        assert set(sys.modules) == before and "gaplab.koopman" not in before
        """)


def test_first_imports_in_sweep_threads_write_the_same_reports(tmp_path):
    """A koopman-norm sweep loads ``actions`` and ``koopman`` in its worker
    threads under ``--jobs 2``; the reports match those of ``--jobs 1``."""
    cfg = {
        "experiment": "sweep",
        "template": {
            "experiment": "koopman-norm",
            "group": {"kind": "real-grid", "dimension": 1, "resolution": 4},
            "measure": {"kind": "uniform-interval", "lo": -1, "hi": 1},
            "action": {"kind": "torus-translation", "N": 128, "step": [29, 41],
                       "slope_hint": 1.4142135623730951},
        },
        "grid": {"action.N": [64, 128, 96, 160]},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    for jobs in ("1", "2"):
        python(f"""
            import sys
            from gaplab import cli
            assert "gaplab.koopman" not in sys.modules
            assert cli.main(["--config", "cfg.json", "--out", "out{jobs}",
                             "--jobs", "{jobs}"]) == 0
            """, cwd=tmp_path)
    one = {p.name: p.read_bytes() for p in (tmp_path / "out1").iterdir()}
    two = {p.name: p.read_bytes() for p in (tmp_path / "out2").iterdir()}
    assert len(one) == 11  # the sweep's three reports and two per child
    assert one == two
