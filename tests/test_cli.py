"""End-to-end CLI runs: determinism, exit codes, report formats."""

import csv
import importlib.util
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from gaplab import certificates, cli, koopman, nets
from gaplab.cli import (
    _fmt,
    build_group,
    build_measure,
    build_space,
    main,
    validate_config,
)

# the package re-exports the function ``regular_norm`` under the module's name
regular_norm_module = importlib.import_module("gaplab.regular_norm")


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def run_cli(tmp_path, cfg, *extra):
    cfg_path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "out"
    return main(["--config", cfg_path, "--out", str(out_dir), *extra]), out_dir


MARGULIS_SMALL = {
    "experiment": "margulis-demo",
    "params": {"N": 128, "seed": 7},
    "output": {"prefix": "demo_"},
}


class TestMargulisDemo:
    def test_exit_zero_and_violation_reported(self, tmp_path, capsys):
        code, out_dir = run_cli(tmp_path, MARGULIS_SMALL)
        assert code == 0
        summary = (out_dir / "demo_summary.txt").read_text()
        assert "inequality not asserted (hypothesis violation" in summary
        assert "orbit covers the space" in summary
        record = dict(
            line.split(",", 1)
            for line in (out_dir / "demo_record.csv").read_text().splitlines()[1:]
        )
        assert float(record["max_nonzero_character"]) <= 1e-10
        assert float(record["discrepancy"]) <= 1e-8
        assert record["regular_norm"] == "1"

    def test_discrepancy_and_norm_computed_once(self, tmp_path):
        spy = mock.Mock(wraps=koopman.discrepancy)
        norm_spy = mock.Mock(wraps=regular_norm_module.amenable_norm)
        with mock.patch.object(koopman, "discrepancy", spy), \
                mock.patch.object(regular_norm_module, "amenable_norm", norm_spy), \
                mock.patch.object(koopman, "amenable_norm", norm_spy):
            code, _ = run_cli(tmp_path, MARGULIS_SMALL)
        assert code == 0
        assert (spy.call_count, norm_spy.call_count) == (1, 1)


class TestVerifyBound:
    def test_torus_flow_passes(self, tmp_path):
        cfg = {
            "experiment": "verify-bound",
            "group": {"kind": "real-grid", "dimension": 1, "resolution": 4},
            "measure": {"kind": "uniform-interval", "lo": -1, "hi": 1},
            "action": {"kind": "torus-translation", "N": 128, "step": [29, 41],
                       "slope_hint": math.sqrt(2)},
            "params": {"tol": 1e-3, "seed": 7},
        }
        code, out_dir = run_cli(tmp_path, cfg)
        assert code == 0
        record = (out_dir / "verify-bound_record.csv").read_text()
        assert "passed,true" in record

    def test_missing_grid_size_exit_two(self, tmp_path, capsys):
        cfg = {
            "experiment": "verify-bound",
            "group": {"kind": "lattice"},
            "measure": {"kind": "srw"},
            "action": {"kind": "torus-translation", "step": [1, 2]},
        }
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "action.N" in err

    def test_unknown_experiment_exit_two(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, {"experiment": "nope"})
        assert code == 2
        assert "experiment" in capsys.readouterr().err


class TestParams:
    REGULAR = {
        "experiment": "regular-norm",
        "group": {"kind": "lattice", "dimension": 1},
        "measure": {"kind": "srw"},
    }

    def test_wrong_type_exit_two(self, tmp_path, capsys):
        cfg = dict(self.REGULAR, params={"n_max": "abc"})
        code, out_dir = run_cli(tmp_path, cfg)
        assert code == 2
        assert "config error: params.n_max: expected int" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_bool_is_not_a_number(self, tmp_path, capsys):
        cfg = {**MARGULIS_SMALL, "params": {"N": True}}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert "params.N" in capsys.readouterr().err

    def test_unknown_key_exit_two(self, tmp_path, capsys):
        cfg = dict(self.REGULAR, params={"n_mx": 20})
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "params.n_mx: unknown parameter for regular-norm" in err

    def test_retired_key_exit_two(self, tmp_path, capsys):
        cfg = {**MARGULIS_SMALL, "params": {"N": 128, "max_iter": 100}}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert "params.max_iter" in capsys.readouterr().err

    def test_sweep_child_params_checked(self, tmp_path, capsys):
        cfg = {"experiment": "sweep", "template": self.REGULAR,
               "grid": {"params.n_max": [10, "20"]}}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert "params.n_max" in capsys.readouterr().err

    def test_seed_accepted_everywhere(self, tmp_path):
        code, _ = run_cli(tmp_path, dict(self.REGULAR, params={"seed": 3}),
                          "--seed", "5")
        assert code == 0

    @pytest.mark.parametrize("experiment,n_max", [
        ("certificate", 0), ("certificate", -3), ("regular-norm", 1),
    ])
    def test_below_minimum_exit_two(self, tmp_path, capsys, experiment, n_max):
        cfg = {
            "experiment": experiment,
            "group": {"kind": "lattice", "dimension": 1},
            "measure": {"kind": "srw"},
            "action": {"kind": "circle-rotation", "N": 64},
            "params": {"n_max": n_max},
        }
        if experiment == "regular-norm":
            del cfg["action"]
        code, out_dir = run_cli(tmp_path, cfg)
        assert code == 2
        assert "config error: params.n_max: must be >=" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_base_cell_outside_grid_exit_two(self, tmp_path, capsys):
        cfg = {
            "experiment": "certificate",
            "group": {"kind": "lattice", "dimension": 1},
            "measure": {"kind": "srw"},
            "action": {"kind": "torus-translation", "N": 16, "step": [1, 3]},
            "params": {"n_max": 2, "x0": 256},
        }
        code, out_dir = run_cli(tmp_path, cfg)
        assert code == 2
        assert "config error: params.x0: must be < 256" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("block,field,value", [
        ("action", "N", 64.7),
        ("action", "N", "64"),
        ("action", "cells_per_step", 3.0),
        ("action", "alphabet", 2.9),
        ("action", "window_radius", 1.5),
        ("action", "max_denominator", 8.5),
        ("action", "step", [3.0, 5]),
        ("action", "step", [3, False]),
        ("action", "step", [1, 2.5]),
        ("action", "N", True),
        ("action", "permutation", [1.0, 0.0]),
        ("group", "dimension", 1.0),
        ("group", "rank", "1"),
        ("group", "resolution", 8.9),
        ("group", "size", True),
    ])
    def test_integer_fields_exit_two(self, tmp_path, capsys, block, field, value):
        groups = {"resolution": {"kind": "real-grid", "resolution": 8},
                  "size": {"kind": "torus-grid", "size": 8}}
        actions = {
            "alphabet": {"kind": "bernoulli-window", "alphabet": 2,
                         "window_radius": 1},
            "max_denominator": {"kind": "torus-translation", "N": 16,
                                "slope_hint": 1.5, "max_denominator": 8},
            "step": {"kind": "torus-translation", "N": 16, "step": [1, 3]},
            "permutation": {"kind": "finite-permutation", "permutation": [1, 0]},
            # Z/8 drives only actions whose cycle lengths divide 8
            "size": {"kind": "circle-rotation", "N": 8, "cells_per_step": 3},
        }
        actions["window_radius"] = actions["alphabet"]
        cfg = {
            "experiment": "koopman-norm",
            "group": groups.get(field, {"kind": "lattice"}),
            "measure": {"kind": "srw"},
            "action": actions.get(field, {"kind": "circle-rotation", "N": 64,
                                          "cells_per_step": 3}),
        }
        (tmp_path / "good").mkdir()
        code, _ = run_cli(tmp_path / "good", cfg)
        assert code == 0
        cfg[block] = {**cfg[block], field: value}
        code, out_dir = run_cli(tmp_path, cfg)
        assert code == 2
        err = capsys.readouterr().err
        if field == "rank":  # the retired alias of dimension
            assert "config error: group.rank: unknown parameter" in err
        else:
            expected = "list[int]" if isinstance(value, list) else "int"
            assert f"config error: {block}.{field}: expected {expected}, got {value!r}" in err
        assert not out_dir.exists()

    def test_identity_rotation_exit_two(self, tmp_path, capsys):
        cfg = {
            "experiment": "koopman-norm",
            "group": {"kind": "lattice"},
            "measure": {"kind": "srw"},
            "action": {"kind": "circle-rotation", "N": 16, "cells_per_step": 16},
        }
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert ("config error: action: translation step is trivial on this grid"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("measure,field,value", [
        ({"kind": "srw", "step": 2}, "step", 2.7),
        ({"kind": "uniform-interval", "lo": -1, "hi": 1, "closed": False},
         "closed", "false"),
        ({"kind": "uniform-interval", "lo": -1, "hi": 1}, "hi", "1"),
        ({"kind": "atoms", "atoms": [[1, 0.5], [-1, 0.5]]},
         "atoms", [[1, "0.5"], [-1, 0.5]]),
        ({"kind": "atoms", "atoms": [[1, 0.5], [-1, 0.5]]},
         "atoms", [[1.5, 0.5], [-1, 0.5]]),
        ({"kind": "point", "element": [2]}, "element", [2.5]),
    ])
    def test_measure_field_types_exit_two(self, tmp_path, capsys, measure,
                                          field, value):
        cfg = {
            "experiment": "koopman-norm",
            "group": {"kind": "real-grid", "resolution": 8},
            "measure": measure,
            "action": {"kind": "circle-rotation", "N": 64, "cells_per_step": 3},
        }
        (tmp_path / "good").mkdir()
        code, _ = run_cli(tmp_path / "good", cfg)
        assert code == 0
        cfg["measure"] = {**measure, field: value}
        code, out_dir = run_cli(tmp_path, cfg)
        assert code == 2
        assert f"config error: measure.{field}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_torus_group_must_drive_the_action(self, tmp_path, capsys):
        # sigma^1 sigma^9 is not the identity on 7 cells, though 1 + 9 = 0 in Z/10
        cfg = {
            "experiment": "koopman-norm",
            "group": {"kind": "torus-grid", "size": 10},
            "measure": {"kind": "srw"},
            "action": {"kind": "circle-rotation", "N": 7},
        }
        code, out_dir = run_cli(tmp_path, cfg)
        assert code == 2
        assert ("config error: action: the torus-grid group of size 10 cannot "
                "drive this action" in capsys.readouterr().err)
        assert not out_dir.exists()
        cfg["group"]["size"] = 14
        code, _ = run_cli(tmp_path, cfg)
        assert code == 0

    @pytest.mark.parametrize("value", ["fourier-abelian", "free-radial"])
    def test_unknown_method_exit_two(self, tmp_path, capsys, value):
        cfg = {
            "experiment": "regular-norm",
            "group": {"kind": "lattice"},
            "measure": {"kind": "srw"},
            "params": {"method": value},
        }
        code, out_dir = run_cli(tmp_path, cfg)
        assert code == 2
        assert (f"config error: params.method: unknown name {value!r}; pick one "
                "of ('auto', 'amenable-mass', 'berg-christensen')"
                in capsys.readouterr().err)
        assert not out_dir.exists()

    @pytest.mark.parametrize("key,value", [
        ("regular_norm_method", "amenable-mass"),
        ("regular_norm_method", "berg-christensen"),
        ("n_max", 50),
    ])
    def test_removed_verify_param_exit_two(self, tmp_path, capsys, key, value):
        # verify-bound compares with the exact norm, which takes no setting
        cfg = {
            "experiment": "verify-bound",
            "group": {"kind": "lattice"},
            "measure": {"kind": "srw"},
            "action": {"kind": "circle-rotation", "N": 64, "cells_per_step": 3},
            "params": {key: value},
        }
        code, out_dir = run_cli(tmp_path, cfg)
        assert code == 2
        assert (f"config error: params.{key}: unknown parameter for verify-bound; "
                "it takes ['seed', 'tol']" in capsys.readouterr().err)
        assert not out_dir.exists()

    @pytest.mark.parametrize("kind", ["z", "zd"])
    def test_retired_group_kind_exit_two(self, tmp_path, capsys, kind):
        cfg = {**TestParams.REGULAR, "group": {"kind": kind, "dimension": 2}}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert (f"config error: group.kind: unknown name {kind!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key", ["freq_bound", "freq_samples"])
    def test_retired_param_exit_two(self, tmp_path, capsys, key):
        cfg = {**TestParams.REGULAR, "params": {key: 3}}
        code, out_dir = run_cli(tmp_path, cfg)
        assert code == 2
        assert (f"config error: params.{key}: unknown parameter for regular-norm; "
                "it takes ['method', 'n_max', 'seed']" in capsys.readouterr().err)
        assert not out_dir.exists()

    def test_retired_action_field_exit_two(self, tmp_path, capsys):
        cfg = {
            "experiment": "koopman-norm",
            "group": {"kind": "lattice"},
            "measure": {"kind": "srw"},
            "action": {"kind": "circle-rotation", "N": 64, "rotation_hint": 0.3},
        }
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert ("config error: action.rotation_hint: unknown parameter for "
                "circle-rotation; it takes ['N', 'cells_per_step', 'kind']"
                in capsys.readouterr().err)

    def test_float_param_takes_integer(self, tmp_path):
        cfg = {**MARGULIS_SMALL, "params": {"N": 128, "tol": 1}}
        code, _ = run_cli(tmp_path, cfg)
        assert code == 0


KOOPMAN = {**TestParams.REGULAR, "experiment": "koopman-norm",
           "action": {"kind": "torus-translation", "N": 16, "step": [1, 3]}}
SWEEP = {"experiment": "sweep", "template": TestParams.REGULAR}
FREE = {**TestParams.REGULAR, "group": {"kind": "free", "dimension": 2}}
# a torus flow whose hypotheses hold, so that the bound is asserted
VERIFY = {
    "experiment": "verify-bound",
    "group": {"kind": "real-grid", "dimension": 1, "resolution": 2},
    "measure": {"kind": "uniform-interval", "lo": -1, "hi": 1},
    "action": {"kind": "torus-translation", "N": 64, "step": [29, 41]},
}

# a config with one fault, and the start of the message that names it
CONFIG_FAULTS = [
    ({**KOOPMAN, "group": {"kind": "lattice", "dimensoin": 2}},
     "group.dimensoin: unknown parameter for lattice"),
    ({**KOOPMAN, "group": {"kind": "lattice", "size": 8}},
     "group.size: unknown parameter for lattice"),
    ({**KOOPMAN, "measure": {"kind": "srw", "stepp": 3}},
     "measure.stepp: unknown parameter for srw"),
    ({**KOOPMAN, "measure": {"kind": "uniform-generators"}},
     "measure.kind: unknown name 'uniform-generators'"),
    ({**KOOPMAN, "measure": {"kind": "atoms", "atoms": 5}},
     "measure.atoms: expected list, got 5"),
    ({**TestParams.REGULAR, "group": {"kind": "free", "dimension": 2},
      "measure": {"kind": "srw", "step": 3}},
     "measure: the free-group walk has step 1, got step 3"),
    ({**KOOPMAN, "action": {"kind": "circle-rotation", "N": 64, "rotation_hint": 0.3}},
     "action.rotation_hint: unknown parameter for circle-rotation"),
    ({**KOOPMAN, "action": {"kind": "torus-translation", "N": 16, "slope_hint": "1.4"}},
     "action.slope_hint: expected float, got '1.4'"),
    ({**KOOPMAN, "action": [1]}, "action: expected dict, got [1]"),
    ({**KOOPMAN, "action": {"kind": "circle-rotation", "N": 1}},
     "action.N: must be >= 2, got 1"),
    ({**KOOPMAN, "action": {"kind": "bernoulli-window", "alphabet": 1,
                            "window_radius": 1}},
     "action.alphabet: must be >= 2, got 1"),
    ({**KOOPMAN, "action": {"kind": "bernoulli-window", "window_radius": 0}},
     "action.window_radius: must be >= 1, got 0"),
    ({**KOOPMAN, "action": {"kind": "torus-translation", "N": 16, "step": [1, 3],
                            "max_denominator": 8}},
     "action: max_denominator picks the convergent of slope_hint"),
    ({**TestParams.REGULAR, "parms": {"n_max": 3}},
     "<root>.parms: unknown parameter for regular-norm"),
    ({**MARGULIS_SMALL, "group": {"kind": "lattice"}},
     "<root>.group: unknown parameter for margulis-demo"),
    ({**TestParams.REGULAR, "output": "x"}, "output: expected dict, got 'x'"),
    ({**TestParams.REGULAR, "output": {"prefx": "x_"}},
     "output.prefx: unknown parameter for output"),
    ({**SWEEP, "grid": [1]}, "grid: expected dict, got [1]"),
    ({**SWEEP, "grid": {"params.n_max": 5}}, "grid.params.n_max: expected list, got 5"),
    ({**SWEEP, "grid": {"group.kind.x": [1]}},
     "grid.group.kind.x: the template's kind is not an object"),
    ({**SWEEP, "template": "x"}, "template: expected dict, got 'x'"),
    ({**SWEEP, "template": {**TestParams.REGULAR, "output": {"prefix": "x_"}}},
     "template.output: the sweep's own output names the children's reports"),
    # float fields take finite numbers only: json reads Infinity, NaN and
    # -1e400 as floats, and an integer may lie beyond float range
    ({**VERIFY, "params": {"tol": math.inf}}, "params.tol: expected float, got inf"),
    ({**VERIFY, "params": {"tol": math.nan}}, "params.tol: expected float, got nan"),
    ({**VERIFY, "measure": {"kind": "uniform-interval", "lo": -math.inf, "hi": 1}},
     "measure.lo: expected float, got -inf"),
    ({**VERIFY, "measure": {"kind": "uniform-interval", "lo": -10**400, "hi": 1}},
     "measure.lo: expected float, got -1000"),
    ({**KOOPMAN, "action": {"kind": "finite-permutation", "permutation": [1, 0],
                            "weights": [math.nan, 0.5]}},
     "action.weights: expected list[float], got [nan, 0.5]"),
    ({**KOOPMAN, "action": {"kind": "finite-permutation", "permutation": [1, 0],
                            "weights": [0.5, -10**400]}},
     "action.weights: expected list[float], got [0.5, -1000"),
    ({**KOOPMAN, "action": {"kind": "finite-permutation", "permutation": [2, 0, True]}},
     "action.permutation: expected list[int], got [2, 0, True]"),
    # elements must belong to the group; the measure's mass must be positive
    ({**TestParams.REGULAR, "group": {"kind": "lattice", "dimension": 2},
      "measure": {"kind": "atoms", "atoms": [[1, 0.5]]}},
     "measure.atoms[0].element: the 2-dimensional lattice takes elements of length 2"),
    ({**TestParams.REGULAR, "measure": {"kind": "point", "element": [1, 2]}},
     "measure.element: the 1-dimensional lattice takes elements of length 1"),
    ({**FREE, "measure": {"kind": "atoms", "atoms": [[1, 0.5], [0, 0.5]]}},
     "measure.atoms[1].element: the letters of F_2 are +-1..+-2, got 0"),
    ({**FREE, "measure": {"kind": "atoms", "atoms": [[7, 0.5], [1, 0.5]]}},
     "measure.atoms[0].element: the letters of F_2 are +-1..+-2, got 7"),
    ({**FREE, "measure": {"kind": "atoms", "atoms": [
        {"element": [1, -1], "weight": 0.5}, [1, 0.5]]}},
     "measure.atoms[0].element: word [1, -1] is not reduced"),
    ({**FREE, "measure": {"kind": "point", "element": [2, -3]}},
     "measure.element: the letters of F_2 are +-1..+-2, got -3"),
    ({**TestParams.REGULAR, "measure": {"kind": "point", "mass": 0}},
     "measure: total mass must be positive"),
    ({**TestParams.REGULAR, "measure": {"kind": "atoms", "atoms": []},
      "params": {"method": "amenable-mass"}},
     "measure: total mass must be positive"),
    ({**VERIFY, "measure": {"kind": "uniform-interval", "lo": -1, "hi": 1, "total": 0}},
     "measure: total mass must be positive"),
    ({**TestParams.REGULAR, "measure": {"kind": "uniform-ball", "radius": -1}},
     "measure.radius: must be >= 0, got -1"),
    ({**SWEEP, "grid": {"params.n_max": [3], "params.method": []}},
     "grid.params.method: needs at least one value"),
    # an empty permutation has no cell to carry the weight
    ({**KOOPMAN, "action": {"kind": "finite-permutation", "permutation": []}},
     "action: permutation must list at least one cell"),
    # weights that differ along a cycle of the permutation
    ({**KOOPMAN, "action": {"kind": "finite-permutation", "permutation": [1, 2, 0, 3],
                            "weights": [0.1, 0.2, 0.3, 0.4]}},
     "action: cell weights are not preserved by the permutation"),
]


# measures refused where they are built, before any set or walk
RANGE_FAULTS = [
    # coordinates beyond int64 on the lattice kinds, where every set and
    # walk keys cells in int64; a torus reduces any integer mod N
    ({**KOOPMAN, "measure": {"kind": "atoms", "atoms": [[10**22, 1.0]]}},
     f"measure.atoms[0].element: the lattice takes int64 coordinates, got [{10**22}]"),
    ({**TestParams.REGULAR, "measure": {"kind": "atoms", "atoms": [[1, 0.5], [10**22, 0.5]]}},
     f"measure.atoms[1].element: the lattice takes int64 coordinates, got [{10**22}]"),
    ({**VERIFY, "measure": {"kind": "point", "element": [-2**63 - 1]}},
     f"measure.element: the real-grid takes int64 coordinates, got [{-2**63 - 1}]"),
    # supports counted before they are listed
    ({**TestParams.REGULAR, "measure": {"kind": "uniform-interval", "lo": -1e7, "hi": 1e7}},
     "measure: the interval [-10000000.0, 10000000.0] of 20000001 cells exceeded the "
     "support cap of 10000000 elements"),
    ({**TestParams.REGULAR, "group": {"kind": "lattice", "dimension": 2},
      "measure": {"kind": "uniform-ball", "radius": 1e4}},
     "measure: the box around the ball of radius 10000.0 of 400040001 cells exceeded"),
    ({**TestParams.REGULAR, "group": {"kind": "torus-grid", "dimension": 2, "size": 10**5},
      "measure": {"kind": "uniform-ball", "radius": 0.5}},
     "measure: the box around the ball of radius 0.5 of 10000000000 cells exceeded"),
]


@pytest.mark.parametrize("cfg,message", CONFIG_FAULTS + RANGE_FAULTS,
                         ids=[message.split(":")[0] for _, message in CONFIG_FAULTS]
                         + [f"range-{message.split(':')[0]}" for _, message in RANGE_FAULTS])
def test_config_fault_exit_two_naming_its_path(tmp_path, capsys, cfg, message):
    code, out_dir = run_cli(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: {message}")
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("action,count", [
    ({"kind": "torus-translation", "N": 200_000, "step": [1, 3]}, "200000 x 200000"),
    ({"kind": "bernoulli-window", "alphabet": 16, "window_radius": 10}, "16^21"),
])
def test_oversized_action_exit_two_before_allocating(tmp_path, capsys, action, count):
    tracemalloc.start()
    try:
        code, out_dir = run_cli(tmp_path, {**KOOPMAN, "action": action})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: action: {count} cells need 28 bytes each")
    assert "Traceback" not in err
    assert not out_dir.exists()
    assert peak < 10**7


def test_float_literal_beyond_range_exit_two(tmp_path, capsys):
    # json reads the literal -1e400 as -inf
    text = json.dumps(VERIFY).replace('"lo": -1,', '"lo": -1e400,')
    assert "-1e400" in text
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: measure.lo: expected float, got -inf\n")


ROOT = Path(__file__).resolve().parents[1]
CONFIGS = {path.stem: json.loads(path.read_text())
           for path in sorted((ROOT / "configs").glob("*.json"))}


def benchmark_configs() -> dict:
    """The configs of the benchmark's three workloads at seeds 0-3, as
    ``perfbench/workloads.py`` builds them."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look up their module
    spec.loader.exec_module(workloads)
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    return {f"{workload}{seed}-{exp.name}": exp.config
            for workload in workloads.WORKLOADS for seed in range(4)
            for exp in workloads.build(workload, seed, golden)}


CONFIGS.update(benchmark_configs())


@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
def test_shipped_config_matches_schema(cfg):
    """Every shipped config and every benchmark config (a sweep through its
    template) validates and builds its group, measure and action blocks;
    nothing is run."""
    cfg = validate_config(cfg)
    if cfg["experiment"] == "sweep":
        cfg = cfg["template"]
    group = build_group(cfg["group"]) if "group" in cfg else None
    if "measure" in cfg:
        assert build_measure(group, cfg["measure"]).total_mass > 0
    if "action" in cfg:
        assert build_space(group, cfg["action"]).n_cells > 0


def test_readme_names_every_kind_and_field():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("### Config blocks"):readme.index("### Sweeps")]
    names = [name for tables in (cli.GROUPS, cli.MEASURES, cli.ACTIONS)
             for kind, table in tables.items() for name in (kind, *table)]
    assert [name for name in names if f"`{name}`" not in section] == []


def read_record(out_dir, prefix):
    with open(out_dir / f"{prefix}record.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["key", "value"]
    assert all(len(row) == 2 for row in rows)
    return dict(rows[1:])


class TestKoopmanNorm:
    def test_single_cycle_rotation(self, tmp_path):
        cfg = {
            "experiment": "koopman-norm",
            "group": {"kind": "lattice", "dimension": 1},
            "measure": {"kind": "srw"},
            "action": {"kind": "circle-rotation", "N": 233, "cells_per_step": 144},
        }
        code, out_dir = run_cli(tmp_path, cfg)
        assert code == 0
        record = read_record(out_dir, "koopman-norm_")
        assert float(record["discrepancy"]) == float(record["character_norm"])
        assert (record["n_cycles"], record["invariant_dim"]) == ("1", "0")
        # SRW eigenvalues cos(2 pi k / 233) peak in modulus at k = 116, 117
        assert record["witness"] == "(233;116)"
        assert "residual" not in record and "iterations" not in record
        assert record["assert:cycle spectrum agrees with the character oracle"] == "true"
        summary = (out_dir / "koopman-norm_summary.txt").read_text()
        assert "holds trivially" not in summary

    def test_torus_flags_trivial_bound(self, tmp_path):
        cfg = {
            "experiment": "koopman-norm",
            "group": {"kind": "real-grid", "dimension": 1, "resolution": 2},
            "measure": {"kind": "uniform-interval", "lo": -1, "hi": 1},
            "action": {"kind": "torus-translation", "N": 16, "step": [3, 5]},
        }
        code, out_dir = run_cli(tmp_path, cfg)
        assert code == 0
        record = read_record(out_dir, "koopman-norm_")
        assert record["discrepancy"] == "1"
        assert (record["n_cycles"], record["invariant_dim"]) == ("16", "15")
        assert record["witness"] == "(16;0)"
        summary = (out_dir / "koopman-norm_summary.txt").read_text()
        assert ("holds trivially (non-ergodic discretization: 15 invariant "
                "zero-mean functions)") in summary

    def test_nan_weight_exit_two(self, tmp_path, capsys):
        cfg = {
            "experiment": "koopman-norm",
            "group": {"kind": "lattice", "dimension": 1},
            "measure": {"kind": "atoms", "atoms": [[1, math.nan], [2, 0.5]]},
            "action": {"kind": "circle-rotation", "N": 8},
        }
        code, _ = run_cli(tmp_path, cfg)
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: measure.atoms[0].weight: expected float, got nan\n")

    def test_negative_weight_exit_two_though_a_later_atom_cancels_it(self, tmp_path, capsys):
        cfg = {
            "experiment": "regular-norm",
            "group": {"kind": "lattice", "dimension": 1},
            "measure": {"kind": "atoms", "atoms": [[1, -0.5], [1, 1.0], [-1, 0.5]]},
        }
        code, out_dir = run_cli(tmp_path, cfg)
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: measure.atoms[0].weight: must be >= 0, got -0.5\n")
        assert not out_dir.exists()


class TestRegularNormExperiment:
    def test_berg_sequence_written(self, tmp_path):
        cfg = {
            "experiment": "regular-norm",
            "group": {"kind": "lattice", "dimension": 1},
            "measure": {"kind": "srw"},
            "params": {"method": "berg-christensen", "n_max": 20},
        }
        code, out_dir = run_cli(tmp_path, cfg)
        assert code == 0
        seq = (out_dir / "regular-norm_sequence.csv").read_text().splitlines()
        assert seq[0] == "n,value"
        assert len(seq) == 21

    def test_overflow_exit_one_without_numpy_warning(self, tmp_path, capsys):
        cfg = {
            "experiment": "regular-norm",
            "group": {"kind": "lattice", "dimension": 1},
            "measure": {"kind": "atoms", "atoms": [[1, 1e200], [-1, 1e200]]},
            "params": {"method": "berg-christensen", "n_max": 4},
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run_cli(tmp_path, cfg)
        assert code == 1
        assert capsys.readouterr().err == (
            "error: non-finite weight inf at atom (0,)\n")

    def test_coordinates_beyond_int64_exit_one_without_traceback(self, tmp_path, capsys):
        cfg = {
            "experiment": "regular-norm",
            "group": {"kind": "lattice", "dimension": 1},
            "measure": {"kind": "atoms", "atoms": [[2**62, 0.5], [-2**62, 0.5]]},
            "params": {"method": "berg-christensen", "n_max": 4},
        }
        code, _ = run_cli(tmp_path, cfg)
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: convolution leaves int64 at coordinate {2**63}\n"

    def test_deep_free_walk_is_refused_by_its_pair_count(self, tmp_path):
        """The F2 walk to n_max 20 would form 93,267,889 pairs at n = 15:
        under a 3 GB address-space limit the CLI refuses them, before they
        exist, with status 1 and no traceback, within 30 s."""
        cfg = {
            "experiment": "regular-norm",
            "group": {"kind": "free", "dimension": 2},
            "measure": {"kind": "atoms",
                        "atoms": [[1, 0.3], [-1, 0.2], [2, 0.3], [-2, 0.2]]},
            "params": {"method": "berg-christensen", "n_max": 20},
        }
        path = write_config(tmp_path, cfg)
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        soft = 3 << 30 if hard == resource.RLIM_INFINITY else min(3 << 30, hard)
        src = str(Path(cli.__file__).resolve().parent.parent)
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "gaplab", "--config", path, "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (soft, hard)))
        assert time.perf_counter() - start < 30
        assert run.returncode == 1, run.stderr
        assert run.stderr.startswith("error: convolution would form 93267889 pairs of 80 bytes")
        assert "at n = 15, forming eta^{*8}" in run.stderr
        assert "Traceback" not in run.stderr and run.stderr.count("\n") == 1

    def test_wide_interval_is_refused_by_its_cell_count(self, tmp_path):
        """A uniform interval of 2 * 10^7 + 1 cells on Z is counted before
        its cells are listed: under the 3 GB address-space limit of the
        deep free walk the CLI exits 2 with one line naming the measure,
        where it used to list 2 * 10^7 tuples."""
        cfg = {**TestParams.REGULAR,
               "measure": {"kind": "uniform-interval", "lo": -1e7, "hi": 1e7}}
        path = write_config(tmp_path, cfg)
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        soft = 3 << 30 if hard == resource.RLIM_INFINITY else min(3 << 30, hard)
        src = str(Path(cli.__file__).resolve().parent.parent)
        run = subprocess.run(
            [sys.executable, "-m", "gaplab", "--config", path, "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (soft, hard)))
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith("config error: measure: the interval "
                                     "[-10000000.0, 10000000.0] of 20000001 cells "
                                     "exceeded the support cap of 10000000 elements")
        assert "Traceback" not in run.stderr and run.stderr.count("\n") == 1

    @pytest.mark.parametrize("method,recorded", [
        ("auto", "amenable-mass"),
        ("amenable-mass", "amenable-mass"),
        ("berg-christensen", "berg-christensen"),
    ])
    def test_every_method_name_runs(self, tmp_path, method, recorded):
        cfg = {
            "experiment": "regular-norm",
            "group": {"kind": "lattice", "dimension": 2},
            "measure": {"kind": "srw"},
            "params": {"method": method, "n_max": 4},
        }
        code, out_dir = run_cli(tmp_path, cfg)
        assert code == 0
        record = read_record(out_dir, "regular-norm_")
        assert record["method"] == recorded
        assert (recorded == "berg-christensen") == (
            out_dir / "regular-norm_sequence.csv").exists()

    def test_format_flag_exit_two(self, tmp_path, capsys):
        # the record is always CSV
        cfg = {
            "experiment": "regular-norm",
            "group": {"kind": "lattice", "dimension": 1},
            "measure": {"kind": "srw"},
            "params": {"method": "amenable-mass"},
        }
        with pytest.raises(SystemExit) as stop:
            run_cli(tmp_path, cfg, "--format", "kv")
        assert stop.value.code == 2
        assert "unrecognized arguments: --format kv" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestDeterminism:
    def test_identical_configs_identical_records(self, tmp_path):
        cfg = {
            "experiment": "koopman-norm",
            "group": {"kind": "lattice", "dimension": 1},
            "measure": {"kind": "atoms",
                        "atoms": [[1, 0.5], [-1, 0.3], [2, 0.2]]},
            "action": {"kind": "circle-rotation", "N": 64, "cells_per_step": 11},
            "params": {"tol": 1e-8, "seed": 42},
        }
        bodies = []
        for sub in ("a", "b"):
            cfg_path = write_config(tmp_path, cfg, name=f"{sub}.json")
            out_dir = tmp_path / sub
            assert main(["--config", cfg_path, "--out", str(out_dir)]) == 0
            bodies.append((
                (out_dir / "koopman-norm_record.csv").read_bytes(),
                (out_dir / "koopman-norm_summary.txt").read_bytes(),
            ))
        assert bodies[0] == bodies[1]


class TestSweep:
    def test_berg_nmax_sweep_increases(self, tmp_path):
        cfg = {
            "experiment": "sweep",
            "template": {
                "experiment": "regular-norm",
                "group": {"kind": "lattice", "dimension": 1},
                "measure": {"kind": "srw"},
                "params": {"method": "berg-christensen"},
            },
            "grid": {"params.n_max": [10, 20, 40]},
        }
        code, out_dir = run_cli(tmp_path, cfg, "--jobs", "2")
        assert code == 0
        rows = (out_dir / "sweep_sequence.csv").read_text().splitlines()
        header = rows[0].split(",")
        vcol = header.index("value")
        values = [float(r.split(",")[vcol]) for r in rows[1:]]
        assert values == sorted(values)
        assert values[-1] < 1.0

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_child_gets_a_failed_row(self, tmp_path, capsys, jobs):
        # N = 8 is too coarse for the horizon: that child raises a grid
        # resolution error at run time, and the others still run
        cfg = {
            "experiment": "sweep",
            "template": {
                "experiment": "certificate",
                "group": {"kind": "real-grid", "dimension": 1, "resolution": 2},
                "measure": {"kind": "uniform-interval", "lo": -1, "hi": 1},
                "action": {"kind": "torus-translation", "N": 128, "step": [29, 41]},
                "params": {"n_max": 6, "cross_check_discrepancy": False},
            },
            "grid": {"action.N": [128, 8, 160]},
        }
        code, out_dir = run_cli(tmp_path, cfg, "--jobs", jobs)
        assert code == 1
        assert "child 1 failed: GridResolutionError" in capsys.readouterr().out
        rows = (out_dir / "sweep_sequence.csv").read_text().splitlines()
        header = rows[0].split(",")
        cells = [dict(zip(header, r.split(","))) for r in rows[1:]]
        assert [c["action.N"] for c in cells] == ["128", "8", "160"]
        assert [c["passed"] for c in cells] == ["true", "false", "true"]
        assert [c["cond1_all"] for c in cells] == ["true", "", "true"]
        assert cells[0]["error"] == cells[2]["error"] == ""
        assert cells[1]["error"].startswith("GridResolutionError: ")
        record = (out_dir / "sweep_record.csv").read_text()
        assert "assert:all sweep children passed,false" in record
        child = (out_dir / "sweep_child001_record.csv").read_text()
        assert "error,GridResolutionError: " in child
        assert (out_dir / "sweep_child002_record.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_two(self, tmp_path, capsys, jobs):
        cfg = {**SWEEP, "grid": {"params.n_max": [3, 4]}}
        with pytest.raises(SystemExit) as stop:
            run_cli(tmp_path, cfg, "--jobs", jobs)
        assert stop.value.code == 2
        assert (f"argument --jobs: must be >= 1, got {jobs}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_empty_grid_is_single_child(self, tmp_path):
        cfg = {
            "experiment": "sweep",
            "template": {
                "experiment": "regular-norm",
                "group": {"kind": "lattice", "dimension": 1},
                "measure": {"kind": "srw"},
                "params": {"method": "amenable-mass"},
            },
        }
        code, out_dir = run_cli(tmp_path, cfg)
        assert code == 0
        assert (out_dir / "sweep_record.csv").exists()


class TestSharedParser:
    """Every ``main`` call parses with one parser, which a call leaves as
    it found it."""

    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_rejected_jobs_twice(self, tmp_path, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as stop:
                run_cli(tmp_path, SWEEP, "--jobs", "0")
            assert stop.value.code == 2
            assert "argument --jobs: must be >= 1, got 0" in capsys.readouterr().err

    def test_seed_does_not_reach_the_next_call(self, tmp_path):
        cfg = {"experiment": "nets", "params": {"count": 2, "ratio_n_max": 4}}
        seeds = []
        for extra in (["--seed", "5"], []):
            code, out_dir = run_cli(tmp_path, cfg, *extra)
            assert code == 0
            seeds.append(read_record(out_dir, "nets_")["seed"])
        assert seeds == ["5", "20250809"]


class TestNetsExperiment:
    def test_small_battery(self, tmp_path):
        cfg = {
            "experiment": "nets",
            "params": {"count": 10, "seed": 3, "ratio_n_max": 6},
        }
        code, out_dir = run_cli(tmp_path, cfg)
        assert code == 0
        rows = (out_dir / "nets_sequence.csv").read_text().splitlines()
        assert len(rows) == 11

    def test_value_with_commas_is_one_csv_field(self, tmp_path):
        cfg = {"experiment": "nets",
               "params": {"count": 2, "seed": 3, "ratio_n_max": 4}}
        code, out_dir = run_cli(tmp_path, cfg)
        assert code == 0
        record = read_record(out_dir, "nets_")
        assert record["assert:net ratios within [c1, c2]"] == "true"
        text = (out_dir / "nets_record.csv").read_text()
        assert '\n"assert:net ratios within [c1, c2]",true\n' in text
        assert "\nratio_c1," in text  # fields without commas stay bare


def nets_rows_building_every_draw(count, seed):
    """The sequence rows of ``run_nets`` with a net built for every draw,
    and the set of distinct draws (dim, a_rad, b_rad, n)."""
    rng = np.random.default_rng(seed)
    out, draws = [], set()
    for i in range(count):
        dim = int(rng.integers(1, 3))
        a_rad, b_rad = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        n = int(rng.integers(1, 6 // dim + 2))
        draws.add((dim, a_rad, b_rad, n))
        group = cli.GroupDescriptor(kind="lattice", dimension=dim)
        span = cli.power_set(group, cli._box(dim, b_rad), n)
        report = nets.verify_net_bounds(
            nets.greedy_maximal_net(group, span, cli._box(dim, a_rad)))
        out.append([i, dim, n, report.net_size,
                    _fmt(report.packing_ok), _fmt(report.covering_ok)])
    return out, draws


class TestNetsOncePerDraw:
    @pytest.mark.parametrize("count,seed,distinct", [(40, 1, 31), (100, 20250809, 39)])
    def test_one_net_per_distinct_draw(self, count, seed, distinct):
        cfg = {"experiment": "nets",
               "params": {"count": count, "seed": seed, "ratio_n_max": 10}}
        with mock.patch.object(nets, "greedy_maximal_net",
                               wraps=nets.greedy_maximal_net) as spy:
            res = cli.run_nets(cfg)
        rows, draws = nets_rows_building_every_draw(count, seed)
        assert len(draws) == distinct
        assert res.sequence_rows == rows
        # the ratio study nets B^1..B^10 once each with A1 = A2
        assert spy.call_count == distinct + 10
        assert res.passed


class TestCertificateExperiment:
    def test_small_torus(self, tmp_path):
        cfg = {
            "experiment": "certificate",
            "group": {"kind": "real-grid", "dimension": 1, "resolution": 2},
            "measure": {"kind": "uniform-interval", "lo": -1, "hi": 1},
            "action": {"kind": "torus-translation", "N": 128, "step": [29, 41]},
            "params": {"n_max": 6, "tol": 1e-3, "seed": 7},
        }
        code, out_dir = run_cli(tmp_path, cfg)
        assert code == 0
        record = (out_dir / "certificate_record.csv").read_text()
        assert "cond1_all,true" in record
        assert "cond2_all,true" in record

    def test_booleans_render_lowercase(self, tmp_path):
        cfg = {
            "experiment": "certificate",
            "group": {"kind": "real-grid", "dimension": 1, "resolution": 2},
            "measure": {"kind": "uniform-interval", "lo": -1, "hi": 1},
            "action": {"kind": "torus-translation", "N": 64, "step": [29, 41]},
            "params": {"n_max": 2},
        }
        _, out_dir = run_cli(tmp_path, cfg)
        record = read_record(out_dir, "certificate_")
        flags = ["cond1_all", "cond2_all", "cond3_flag",
                 *(key for key in record if key.startswith("assert:"))]
        assert {record[key] for key in flags} <= {"true", "false"}
        assert not {"True", "False"} & set(record.values())
        assert (_fmt(np.True_), _fmt(np.False_)) == ("true", "false")

    def test_failed_chain_inequality_is_reported(self, tmp_path, monkeypatch):
        # a zero Rayleigh numerator breaks the asserted chain inequality:
        # the reports are still written, with the check false, and the run
        # exits 1
        monkeypatch.setattr(certificates, "_rayleigh_numerator", lambda *args: 0.0)
        cfg = {
            "experiment": "certificate",
            "group": {"kind": "real-grid", "dimension": 1, "resolution": 2},
            "measure": {"kind": "uniform-interval", "lo": -1, "hi": 1},
            "action": {"kind": "torus-translation", "N": 64, "step": [29, 41]},
            "params": {"n_max": 2},
        }
        code, out_dir = run_cli(tmp_path, cfg)
        assert code == 1
        record = (out_dir / "certificate_record.csv").read_text()
        assert "\nassert:chain inequality on every asserted row,false\n" in record
