"""Reproducible experiment runner.

One experiment per invocation, driven by a single JSON config document.
Each run writes a human-readable summary, a machine record (CSV key/value
rows), and, for sequence-valued outputs, plot-ready columns.  Identical
configs produce byte-identical report bodies: every random choice is
seeded from the config and no timestamps enter the files.  Exit status
is 0 iff every inequality/flag asserted by the experiment passed, 2 for
config errors.
"""

from __future__ import annotations

import argparse
import copy
import csv
import functools
import json
import sys
import types
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

# Only what the config tables and the shared builders need is imported
# here; each runner imports the modules it runs, so that an experiment
# loads no module it does not use.
from .errors import DescriptorMismatchError, GaplabError
from .groups import GroupDescriptor, power_set
from .measures import GroupMeasure
from .regular_norm import METHODS, regular_norm

if TYPE_CHECKING:
    from .actions import ActionSpace
    from .koopman import DiscrepancyResult


class ConfigError(GaplabError):
    def __init__(self, fieldpath: str, message: str):
        super().__init__(f"{fieldpath}: {message}")
        self.fieldpath = fieldpath


def _fmt(value) -> str:
    """Fixed rendering: floats at 12 significant digits, booleans as true/false."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


# -- config parsing ---------------------------------------------------------
#
# Every config object is checked against a table: field -> (type, default,
# least value, or the allowed names of a str, or None).  A type is int,
# float (any finite JSON number), bool, str, dict, list, or list[t] (a list
# of values of type t).  The default ``...`` marks a required field, and
# ``None`` an optional one that is left out when absent, so that the
# builder's own default holds.

_ROOT = {"params": (dict, None, None), "output": (dict, None, None)}
_GROUP_MEASURE = {**_ROOT, "group": (dict, ..., None), "measure": (dict, ..., None)}
_SPACE = {**_GROUP_MEASURE, "action": (dict, ..., None)}

#: the root fields of each experiment's config besides ``experiment``
BLOCKS = {
    "regular-norm": _GROUP_MEASURE,
    "koopman-norm": _SPACE,
    "verify-bound": _SPACE,
    "certificate": _SPACE,
    "nets": _ROOT,
    "margulis-demo": _ROOT,
    "sweep": {**_ROOT, "template": (dict, ..., None), "grid": (dict, None, None)},
}

OUTPUT = {"prefix": (str, None, None)}

#: the fields of each group kind, read by ``GroupDescriptor``
GROUPS = {
    "lattice": {"dimension": (int, None, 1)},
    "free": {"dimension": (int, None, 1)},
    "real-grid": {"dimension": (int, None, 1), "resolution": (int, ..., 1)},
    "torus-grid": {"dimension": (int, None, 1), "size": (int, ..., 1)},
}

#: the fields of each measure kind, read by the ``GroupMeasure`` constructors
MEASURES = {
    "atoms": {"atoms": (list, ..., None)},
    "point": {"element": (list[int], None, None), "mass": (float, None, None)},
    "srw": {"step": (int, None, None)},
    "uniform-interval": {"lo": (float, ..., None), "hi": (float, ..., None),
                         "total": (float, None, None), "closed": (bool, None, None)},
    "uniform-ball": {"radius": (float, ..., 0)},
}

#: one atom of an ``atoms`` measure, also written [coordinates..., weight]
ATOM = {"element": (list[int], ..., None), "weight": (float, ..., 0)}

#: the fields of each action kind, read by ``build_action``
ACTIONS = {
    "circle-rotation": {"N": (int, ..., 2), "cells_per_step": (int, None, None)},
    "torus-translation": {"N": (int, ..., 2), "step": (list[int], None, None),
                          "slope_hint": (float, None, None),
                          "max_denominator": (int, None, 1)},
    "bernoulli-window": {"alphabet": (int, None, 2), "window_radius": (int, ..., 1)},
    "finite-permutation": {"permutation": (list[int], ..., None),
                           "weights": (list[float], None, None)},
}

#: the largest m2 of the continuum line scan of a ``koopman-norm`` torus flow
LINE_FREQ_CUTOFF = 10_000

#: the params each experiment reads.  Every experiment also takes ``seed``
#: (``--seed`` writes it into any config); only ``nets`` reads it.
PARAMS = {
    "regular-norm": {"method": (str, "berg-christensen", METHODS),
                     "n_max": (int, 50, 2)},
    # the discrepancy is exact and asserts nothing against tol; the field
    # stays accepted, since existing configs write it
    "koopman-norm": {"tol": (float, 1e-8, 0)},
    "verify-bound": {"tol": (float, 1e-3, 0)},
    "certificate": {"n_max": (int, 10, 1), "slack": (float, 0.02, 0),
                    "tol": (float, 1e-3, 0), "x0": (int, 0, 0),
                    "cross_check_discrepancy": (bool, True, None)},
    "nets": {"count": (int, 100, 1), "seed": (int, 20250809, 0),
             "ratio_n_max": (int, 10, 3)},
    "margulis-demo": {"N": (int, 1024, 2), "tol": (float, 1e-3, 0)},
    "sweep": {},
}


def _is(value, kind) -> bool:
    """Whether a JSON value has the type ``kind`` of a table (a float may
    be written as an integer but must be finite as a float, a bool is no
    int)."""
    if isinstance(kind, types.GenericAlias):
        if type(value) is not list:
            return False
        kind = kind.__args__[0]
    else:
        value = [value]
    if kind is float:
        # NaN compares false, and an int compares exactly, without overflow
        return all(type(v) in (int, float) and abs(v) <= sys.float_info.max
                   for v in value)
    return all(type(v) is kind for v in value)


def _fields(block, table: dict, path: str, owner) -> dict:
    """The fields of a config object, checked against ``table``, with the
    defaults that are not None filled in; ``owner`` names the table.  A
    root field is named by itself, an unknown one as ``<root>.<field>``."""
    if not isinstance(block, dict):
        raise ConfigError(path, f"expected dict, got {block!r}")
    out = {}
    for key, (kind, default, least) in table.items():
        where = key if path == "<root>" else f"{path}.{key}"
        if key not in block:
            if default is ...:
                raise ConfigError(where, "required field is missing")
            if default is not None:
                out[key] = default
            continue
        value = block[key]
        if not _is(value, kind):
            name = kind.__name__ if isinstance(kind, type) else kind
            raise ConfigError(where, f"expected {name}, got {value!r}")
        if isinstance(least, tuple):
            if value not in least:
                raise ConfigError(where, f"unknown name {value!r}; pick one of {least}")
        elif least is not None and value < least:
            raise ConfigError(where, f"must be >= {least}, got {value!r}")
        out[key] = float(value) if kind is float else value
    for key in block:
        if key not in table:
            raise ConfigError(f"{path}.{key}", f"unknown parameter for {owner}; "
                              f"it takes {sorted(table)}")
    return out


def _tagged(block, tables: dict, path: str, tag: str = "kind") -> tuple[str, dict]:
    """A block whose field ``tag`` names one of ``tables``: that name, and
    the other fields checked against its table."""
    name = block.get(tag) if isinstance(block, dict) else None
    table = tables[name] if isinstance(name, str) and name in tables else {}
    fields = _fields(block, {tag: (str, ..., tuple(tables)), **table}, path, name)
    return fields.pop(tag), fields


def build_group(cfg: dict, path: str = "group") -> GroupDescriptor:
    kind, fields = _tagged(cfg, GROUPS, path)
    return GroupDescriptor(kind=kind, **fields)


def _element(group: GroupDescriptor, element: list, path: str):
    """A config's element, checked by ``group.element``."""
    try:
        return group.element(element)
    except DescriptorMismatchError as err:
        raise ConfigError(path, str(err))


def build_measure(group: GroupDescriptor, cfg: dict, path: str = "measure") -> GroupMeasure:
    """The measure of a config; its total mass must be positive, since
    every experiment divides by it or compares with it."""
    kind, fields = _tagged(cfg, MEASURES, path)
    pairs = []
    for i, rec in enumerate(fields.get("atoms", ())):
        if isinstance(rec, list) and rec:
            rec = {"element": rec[:-1], "weight": rec[-1]}
        atom = _fields(rec, ATOM, f"{path}.atoms[{i}]", "an atom")
        pairs.append((_element(group, atom["element"], f"{path}.atoms[{i}].element"),
                      atom["weight"]))
    if "element" in fields:
        fields["element"] = _element(group, fields["element"], f"{path}.element")
    try:
        if kind == "atoms":
            mu = GroupMeasure.from_atoms(group, pairs)
        elif kind == "point":
            mu = GroupMeasure.point_mass(group, fields.pop("element", group.identity()),
                                         **fields)
        elif kind == "srw":
            mu = GroupMeasure.simple_random_walk(group, **fields)
        elif kind == "uniform-interval":
            mu = GroupMeasure.uniform_interval(group, **fields)
        else:
            mu = GroupMeasure.uniform_ball(group, **fields)
    except (GaplabError, ValueError) as err:
        raise ConfigError(path, str(err))
    if mu.total_mass <= 0:
        raise ConfigError(path, "total mass must be positive")
    return mu


def build_space(group: GroupDescriptor, cfg: dict, path: str = "action") -> ActionSpace:
    from .actions import build_action

    kind, fields = _tagged(cfg, ACTIONS, path)
    try:
        return build_action(kind, group=group, **fields)
    except (GaplabError, ValueError) as err:
        raise ConfigError(path, str(err))


def _params(cfg: dict) -> dict:
    """The experiment's params, type-checked, with defaults filled in."""
    experiment = cfg["experiment"]
    return _fields(cfg.get("params", {}), {"seed": (int, None, 0), **PARAMS[experiment]},
                   "params", experiment)


def validate_config(cfg: dict, path: str = "<root>") -> dict:
    """Check a config's root fields, params and output, and a sweep's
    template and grid; the group, measure and action blocks are checked
    where they are built."""
    experiment, _ = _tagged(cfg, BLOCKS, path, "experiment")
    _params(cfg)
    _fields(cfg.get("output", {}), OUTPUT, "output", "output")
    if experiment == "sweep":
        template = validate_config(cfg["template"], "template")
        if template["experiment"] == "sweep":
            raise ConfigError("template.experiment", "sweeps cannot nest")
        if "output" in template:
            raise ConfigError("template.output", "the sweep's own output names "
                              "the children's reports")
        grid = cfg.get("grid", {})
        _fields(grid, dict.fromkeys(grid, (list, ..., None)), "grid", "grid")
        for key, values in grid.items():
            if not values:
                raise ConfigError(f"grid.{key}", "needs at least one value")
    return cfg


# -- experiment runners -------------------------------------------------------


class RunResult:
    def __init__(self, experiment: str):
        self.experiment = experiment
        self.record: list[tuple[str, str]] = [("experiment", experiment)]
        self.sequence_columns: list[str] = []
        self.sequence_rows: list[list] = []
        self.assertions: list[tuple[str, bool]] = []
        self.summary: list[str] = []

    def put(self, key: str, value):
        self.record.append((key, _fmt(value)))

    def check(self, name: str, ok: bool):
        self.assertions.append((name, bool(ok)))
        self.summary.append(f"[{'PASS' if ok else 'FAIL'}] {name}")

    def note(self, line: str):
        self.summary.append(line)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.assertions)


def run_regular_norm(cfg: dict) -> RunResult:
    res = RunResult("regular-norm")
    group = build_group(cfg["group"])
    mu = build_measure(group, cfg["measure"])
    p = _params(cfg)
    est = regular_norm(mu, p["method"], p["n_max"])
    res.put("method", est.method)
    res.put("value", est.value)
    res.put("total_mass", mu.total_mass)
    if est.note:
        res.put("note", est.note)
    if est.sequence:
        res.sequence_columns = ["n", "value"]
        res.sequence_rows = [[n, _fmt(v)] for n, v in est.sequence]
    res.note(f"regular-representation norm estimate: {_fmt(est.value)} "
             f"({est.method})")
    res.check("estimate <= total mass + 1e-10",
              est.value <= mu.total_mass + 1e-10)
    if est.sequence:
        nondecreasing = all(
            b >= a - 1e-10
            for (_, a), (_, b) in zip(est.sequence, est.sequence[1:])
        )
        res.check("convolution-power sequence nondecreasing", nondecreasing)
    return res


def _put_spectrum(res: RunResult, disc: DiscrepancyResult) -> str:
    """Record the cycle structure behind a discrepancy; returns the witness."""
    witness = "none" if disc.witness is None else "({};{})".format(*disc.witness)
    res.put("n_cycles", disc.n_cycles)
    res.put("invariant_dim", disc.invariant_dim)
    res.put("witness", witness)
    return witness


def run_koopman_norm(cfg: dict) -> RunResult:
    from .koopman import character_line_scan, character_norm, discrepancy

    res = RunResult("koopman-norm")
    group = build_group(cfg["group"])
    mu = build_measure(group, cfg["measure"])
    space = build_space(group, cfg["action"])
    disc = discrepancy(space, mu)
    res.put("discrepancy", disc.value)
    witness = _put_spectrum(res, disc)
    res.note(f"discrepancy = {_fmt(disc.value)} (cycle spectrum: "
             f"n_cycles {disc.n_cycles}, witness {witness})")
    if disc.trivial_note:
        res.note(disc.trivial_note)
    if space.grid_shape is not None:
        # recorded, not passed: the grid dual's frequencies reach half a side
        cutoff = max(space.grid_shape) // 2
        char = character_norm(space, mu)
        res.put("character_norm", char)
        res.put("freq_cutoff", cutoff)
        res.note(f"character oracle = {_fmt(char)} at cutoff {cutoff}")
        res.check("cycle spectrum agrees with the character oracle",
                  abs(disc.value - char) <= 1e-9)
        slope = space.slope_target
        if slope is not None:
            value, witness = character_line_scan(mu, slope, LINE_FREQ_CUTOFF)
            res.put("line_scan_value", value)
            res.put("line_scan_witness", f"({witness[0]};{witness[1]})")
            res.note(f"continuum line scan at slope {_fmt(slope)}: "
                     f"{_fmt(value)} at frequency {witness}")
    return res


def run_verify_bound(cfg: dict) -> RunResult:
    from .koopman import verify_lower_bound

    res = RunResult("verify-bound")
    group = build_group(cfg["group"])
    mu = build_measure(group, cfg["measure"])
    space = build_space(group, cfg["action"])
    p = _params(cfg)
    report = verify_lower_bound(space, mu, tol=p["tol"])
    res.put("delta", report.delta)
    _put_spectrum(res, report.spectrum)
    res.put("regular_norm", report.regular_norm)
    res.put("regular_method", report.regular_method)
    res.put("tol", report.tol)
    res.put("hypothesis_ok", report.hypothesis_ok)
    res.put("asserted", report.asserted)
    if report.passed is not None:
        res.put("passed", report.passed)
    res.note(f"delta = {_fmt(report.delta)}, lambda = {_fmt(report.regular_norm)} "
             f"({report.regular_method})")
    for line in report.notes:
        res.note(line)
    if report.passed is None:
        res.note("hypotheses violated; the lower bound is not asserted")
    else:
        res.check("delta >= lambda - tol", report.passed)
    return res


def run_certificate_experiment(cfg: dict) -> RunResult:
    from .certificates import run_certificate

    res = RunResult("certificate")
    group = build_group(cfg["group"])
    mu = build_measure(group, cfg["measure"])
    space = build_space(group, cfg["action"])
    p = _params(cfg)
    if p["x0"] >= space.n_cells:
        raise ConfigError("params.x0", f"must be < {space.n_cells}, the number "
                          f"of cells, got {p['x0']}")
    n_max = p["n_max"]
    slack = p["slack"]
    tol = p["tol"]
    report = run_certificate(space, mu, x0=p["x0"], n_max=n_max, slack=slack)
    res.put("n_max", n_max)
    res.put("slack", slack)
    res.put("norm_lower_bound", report.norm_lower_bound)
    res.put("max_ratio_root", report.max_ratio_root)
    res.put("cond1_all", report.cond1_all)
    res.put("cond2_all", report.cond2_all)
    res.put("cond3_flag", report.cond3_flag)
    res.sequence_columns = [
        "n", "nu_B", "nu_SnB", "ratio", "ratio_root", "rayleigh",
        "chain_bound", "rayleigh_root", "chain_root",
    ]
    for row in report.rows:
        res.sequence_rows.append([
            row.n, _fmt(row.nu_B), _fmt(row.nu_SnB), _fmt(row.ratio),
            _fmt(row.ratio_root), _fmt(row.rayleigh), _fmt(row.chain_bound),
            _fmt(row.rayleigh_root), _fmt(row.chain_root),
        ])
    res.check("condition (1): every B_n has positive mass", report.cond1_all)
    res.check("condition (2): nu(S^n B_n) < 1/2 for every n", report.cond2_all)
    res.check(f"condition (3) flag: max ratio_n^(1/n) >= 1 - {slack}",
              report.cond3_flag)
    res.check("chain inequality on every asserted row", report.chain_holds)
    if p["cross_check_discrepancy"]:
        from .koopman import discrepancy

        disc = discrepancy(space, mu)
        res.put("discrepancy", disc.value)
        res.check("certificate bound <= discrepancy + 2 tol",
                  report.norm_lower_bound <= disc.value + 2 * tol)
    res.note(f"certified lower bound: {_fmt(report.norm_lower_bound)}")
    return res


def run_nets(cfg: dict) -> RunResult:
    from .nets import greedy_maximal_net, net_ratio_study, verify_net_bounds

    res = RunResult("nets")
    p = _params(cfg)
    count = p["count"]
    seed = p["seed"]
    rng = np.random.default_rng(seed)
    res.put("count", count)
    res.put("seed", seed)
    res.sequence_columns = ["instance", "dim", "n", "net_size",
                            "packing_ok", "covering_ok"]
    all_ok = True
    reports = {}  # (dim, a_rad, b_rad, n) -> NetBoundsReport: a repeated draw reuses it
    for i in range(count):
        dim = int(rng.integers(1, 3))
        a_rad = int(rng.integers(1, 3))
        b_rad = int(rng.integers(1, 3))
        n = int(rng.integers(1, 6 // dim + 2))
        draw = (dim, a_rad, b_rad, n)
        if draw not in reports:
            group = GroupDescriptor(kind="lattice", dimension=dim)
            span = power_set(group, _box(dim, b_rad), n)
            reports[draw] = verify_net_bounds(
                greedy_maximal_net(group, span, _box(dim, a_rad)))
        report = reports[draw]
        all_ok &= report.all_ok
        res.sequence_rows.append([
            i, dim, n, report.net_size,
            _fmt(report.packing_ok), _fmt(report.covering_ok),
        ])
    res.check("packing and covering inequalities on every instance", all_ok)
    group = GroupDescriptor(kind="lattice", dimension=1)
    study = net_ratio_study(
        group, A1=[(0,), (1,)], A2=[(0,), (1,)], B=[(-1,), (0,), (1,)],
        n_range=range(3, p["ratio_n_max"] + 1),
    )
    res.put("ratio_c1", study.c1)
    res.put("ratio_c2", study.c2)
    res.put("ratio_min", min(study.ratios.values()))
    res.put("ratio_max", max(study.ratios.values()))
    res.check("net ratios within [c1, c2]", study.within_bounds)
    return res


def _box(dim: int, radius: int) -> np.ndarray:
    """The cells of the cube [-radius, radius]^dim as an (m, dim) int64
    array, in lexicographic order."""
    side = 2 * radius + 1
    return np.indices((side,) * dim, dtype=np.int64).reshape(dim, -1).T - radius


def run_margulis_demo(cfg: dict) -> RunResult:
    from .actions import build_action
    from .koopman import character_norm, verify_lower_bound

    res = RunResult("margulis-demo")
    p = _params(cfg)
    n = p["N"]
    group = GroupDescriptor(kind="real-grid", dimension=1, resolution=n)
    mu = GroupMeasure.uniform_interval(group, 0.0, 1.0, closed=False)
    space = build_action("circle-rotation", group=group, N=n, cells_per_step=1)
    char = character_norm(space, mu)
    report = verify_lower_bound(space, mu, tol=p["tol"])
    delta, lam = report.delta, report.regular_norm
    res.put("N", n)
    res.put("max_nonzero_character", char)
    res.put("discrepancy", delta)
    res.put("regular_norm", lam)
    res.put("hypothesis_ok", report.hypothesis_ok)
    res.note(f"averaging the full rotation orbit kills every nonzero character: "
             f"max |eigenvalue| = {_fmt(char)}")
    res.note(f"delta = {_fmt(delta)} < lambda = {_fmt(lam)}: the "
             "lower bound genuinely fails here")
    for line in report.notes:
        res.note(line)
    res.check("every nonzero character eigenvalue <= 1e-10", char <= 1e-10)
    res.check("discrepancy <= 1e-8", delta <= 1e-8)
    res.check("amenable oracle gives exactly 1", lam == 1.0)
    res.check("hypothesis violation detected (inequality not asserted)",
              not report.hypothesis_ok and report.passed is None)
    return res


RUNNERS = {
    "regular-norm": run_regular_norm,
    "koopman-norm": run_koopman_norm,
    "verify-bound": run_verify_bound,
    "certificate": run_certificate_experiment,
    "nets": run_nets,
    "margulis-demo": run_margulis_demo,
}


# -- sweep ---------------------------------------------------------------------


def _set_path(cfg: dict, dotted: str, value):
    node = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"grid.{dotted}", f"the template's {part} is not an object")
    node[parts[-1]] = value


def run_sweep(cfg: dict, jobs: int = 1) -> tuple[RunResult, list[RunResult]]:
    """Run the template of a validated sweep config once per combination
    of its grid values."""
    template, grid = cfg["template"], cfg.get("grid", {})
    keys = sorted(grid)
    combos: list[dict] = [{}]
    for key in keys:
        combos = [dict(c, **{key: v}) for c in combos for v in grid[key]]

    def child(combo: dict) -> tuple[RunResult, str | None]:
        """The child's result, and its error text if it raised."""
        instance = copy.deepcopy(template)
        for dotted, value in combo.items():
            _set_path(instance, dotted, value)
        try:
            return RUNNERS[instance["experiment"]](validate_config(instance)), None
        except ConfigError:
            raise
        except Exception as err:  # one failing child must not abort the sweep
            # one line without commas, to fit a report cell
            error = " ".join(f"{type(err).__name__}: {err}".split()).replace(",", ";")
            res = RunResult(instance["experiment"])
            res.put("error", error)
            res.check("child ran without error", False)
            return res, error

    if jobs > 1 and len(combos) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(child, combos))
    else:
        outcomes = [child(c) for c in combos]
    children = [res for res, _ in outcomes]
    errors = [error for _, error in outcomes]
    failed = [i for i, error in enumerate(errors) if error is not None]

    agg = RunResult("sweep")
    agg.put("children", len(children))
    good = [c for c, e in zip(children, errors) if e is None]
    value_keys = [k for k, _ in (good[0].record if good else [])
                  if k != "experiment"]
    if failed:
        value_keys.append("error")
    agg.sequence_columns = ["child", *keys, *value_keys, "passed"]
    for i, (combo, child_res) in enumerate(zip(combos, children)):
        rec = dict(child_res.record)
        agg.sequence_rows.append(
            [i, *(_fmt(combo[k]) for k in keys),
             *(rec.get(k, "") for k in value_keys),
             _fmt(child_res.passed)]
        )
    for i in failed:
        agg.note(f"child {i} failed: {errors[i]}")
    agg.check("all sweep children passed", all(c.passed for c in children))
    return agg, children


# -- output ----------------------------------------------------------------------


def _write_outputs(res: RunResult, out_dir: Path, prefix: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = [f"gaplab experiment: {res.experiment}", ""]
    summary.extend(res.summary)
    summary.append("")
    summary.append(f"result: {'PASS' if res.passed else 'FAIL'}")
    (out_dir / f"{prefix}summary.txt").write_text("\n".join(summary) + "\n")
    rows = [("key", "value"), *res.record]
    rows += [(f"assert:{name}", _fmt(ok)) for name, ok in res.assertions]
    _write_csv(out_dir / f"{prefix}record.csv", rows)
    if res.sequence_rows:
        _write_csv(out_dir / f"{prefix}sequence.csv",
                   [res.sequence_columns, *res.sequence_rows])


def _write_csv(path: Path, rows) -> None:
    """Rows as CSV with \\n line ends; a field holding a comma, a double
    quote or a newline is quoted, every other one written as ``str`` gives it."""
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [str(x) for x in row] for row in rows)


# -- entry point -------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line, built on first use and shared by every ``main``
    call: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="gaplab",
        description="discrepancy lower-bound laboratory: reproducible experiments",
    )
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default="gaplab-out", help="output directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel children for sweeps (at least 1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")

    try:
        cfg = json.loads(Path(args.config).read_text())
    except FileNotFoundError:
        print(f"config not found: {args.config}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        print(f"config is not valid JSON: {err}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    try:
        validate_config(cfg)
        if args.seed is not None:
            cfg.setdefault("params", {})["seed"] = args.seed
            if cfg["experiment"] == "sweep":
                cfg.get("template", {}).setdefault("params", {})["seed"] = args.seed
        experiment = cfg["experiment"]
        prefix = cfg.get("output", {}).get("prefix", experiment + "_")
        if experiment == "sweep":
            agg, children = run_sweep(cfg, jobs=args.jobs)
            for i, child_res in enumerate(children):
                _write_outputs(child_res, out_dir, f"{prefix}child{i:03d}_")
            _write_outputs(agg, out_dir, prefix)
            result = agg
        else:
            result = RUNNERS[experiment](cfg)
            _write_outputs(result, out_dir, prefix)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except GaplabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    for line in result.summary:
        print(line)
    print(f"result: {'PASS' if result.passed else 'FAIL'} "
          f"(reports in {out_dir})")
    return 0 if result.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
