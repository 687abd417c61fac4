"""Reproducible experiment runner.

One experiment per invocation, driven by a single JSON config document.
Each run writes a human-readable summary, a machine record (CSV key/value
rows or a key = value document), and, for sequence-valued outputs,
plot-ready columns.  Identical configs produce byte-identical report
bodies: every random choice is seeded from the config and no timestamps
enter the files.  Exit status is 0 iff every inequality/flag asserted by
the experiment passed, 2 for config errors.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .actions import ActionSpace, GridTranslationSpace, build_action
from .certificates import run_certificate
from .errors import GaplabError
from .groups import _KINDS, GroupDescriptor, power_set
from .koopman import (
    DiscrepancyResult,
    character_line_scan,
    character_norm,
    discrepancy,
    verify_lower_bound,
)
from .measures import GroupMeasure
from .nets import greedy_maximal_net, net_ratio_study, verify_net_bounds
from .regular_norm import METHODS, regular_norm

ENV_OUT_DIR = "GAPLAB_OUT"

EXPERIMENTS = (
    "regular-norm",
    "koopman-norm",
    "verify-bound",
    "certificate",
    "nets",
    "margulis-demo",
    "sweep",
)


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


def _require(cfg: dict, field: str, path: str):
    if field not in cfg:
        raise ConfigError(f"{path}.{field}", "required field is missing")
    return cfg[field]


def _integer(cfg: dict, field: str, path: str, default=None) -> int:
    """A field that must be a JSON integer (not a bool, float or string)."""
    value = cfg.get(field, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{field}", f"expected int, got {value!r}")
    return value


def _number(cfg: dict, field: str, path: str, default=None) -> float:
    """A field that must be a JSON number (int or float, not a bool);
    required when it has no default."""
    value = _require(cfg, field, path) if default is None else cfg.get(field, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{field}", f"expected number, got {value!r}")
    return float(value)


def _element(cfg: dict, field: str, path: str, default=None) -> tuple:
    """A group element: a JSON list of integer coordinates; required when
    it has no default."""
    value = _require(cfg, field, path) if default is None else cfg.get(field, default)
    if not isinstance(value, (list, tuple)) or any(
            isinstance(c, bool) or not isinstance(c, int) for c in value):
        raise ConfigError(f"{path}.{field}", f"expected a list of ints, got {value!r}")
    return tuple(value)


def _boolean(cfg: dict, field: str, path: str, default: bool) -> bool:
    """A field that must be a JSON true or false."""
    value = cfg.get(field, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{path}.{field}", f"expected bool, got {value!r}")
    return value


def build_group(cfg: dict, path: str = "group") -> GroupDescriptor:
    kind = _require(cfg, "kind", path)
    if kind not in _KINDS:
        raise ConfigError(f"{path}.kind", f"unknown group kind {kind!r}; "
                          f"pick one of {_KINDS}")
    dim = _integer(cfg, "dimension" if "dimension" in cfg else "rank", path, 1)
    kwargs = {"kind": kind, "dimension": dim}
    if kind == "real-grid":
        if "resolution" not in cfg:
            raise ConfigError(f"{path}.resolution", "real-grid needs a resolution q")
        kwargs["resolution"] = _integer(cfg, "resolution", path)
    if kind == "torus-grid":
        if "size" not in cfg:
            raise ConfigError(f"{path}.size", "torus-grid needs a size N")
        kwargs["size"] = _integer(cfg, "size", path)
    try:
        return GroupDescriptor(**kwargs)
    except (GaplabError, ValueError) as err:
        raise ConfigError(path, str(err))


def build_measure(group: GroupDescriptor, cfg: dict, path: str = "measure") -> GroupMeasure:
    kind = _require(cfg, "kind", path)
    try:
        if kind == "atoms":
            pairs = []
            for i, rec in enumerate(_require(cfg, "atoms", path)):
                where = f"{path}.atoms[{i}]"
                if isinstance(rec, list) and rec:
                    rec = {"element": rec[:-1], "weight": rec[-1]}
                elif not isinstance(rec, dict):
                    raise ConfigError(where, "expected [coordinates..., weight] "
                                      f"or {{element, weight}}, got {rec!r}")
                pairs.append((_element(rec, "element", where),
                              _number(rec, "weight", where)))
            return GroupMeasure.from_atoms(group, pairs)
        if kind == "point":
            return GroupMeasure.point_mass(
                group, _element(cfg, "element", path, group.identity()),
                _number(cfg, "mass", path, 1.0),
            )
        if kind == "srw":
            return GroupMeasure.simple_random_walk(
                group, step=_integer(cfg, "step", path, 1))
        if kind == "uniform-interval":
            return GroupMeasure.uniform_interval(
                group, _number(cfg, "lo", path), _number(cfg, "hi", path),
                total=_number(cfg, "total", path, 1.0),
                closed=_boolean(cfg, "closed", path, True),
            )
        if kind == "uniform-generators":
            return GroupMeasure.simple_random_walk(group)
        if kind == "uniform-ball":
            return GroupMeasure.uniform_on(
                group, group.ball(_number(cfg, "radius", path))
            )
    except ConfigError:
        raise
    except (GaplabError, KeyError, ValueError) as err:
        raise ConfigError(path, str(err))
    raise ConfigError(f"{path}.kind", f"unknown measure kind {kind!r}")


def build_space(group: GroupDescriptor, cfg: dict, path: str = "action") -> ActionSpace:
    cfg = dict(cfg)
    kind = cfg.pop("kind", None)
    if kind is None:
        raise ConfigError(f"{path}.kind", "required field is missing")
    if kind in ("torus-translation", "circle-rotation") and "N" not in cfg:
        raise ConfigError(f"{path}.N", f"{kind} needs a grid size N")
    for field in ("N", "cells_per_step", "alphabet", "window_radius",
                  "max_denominator"):
        if field in cfg:
            _integer(cfg, field, path)
    try:
        return build_action(kind, group=group, **cfg)
    except (GaplabError, TypeError, ValueError) as err:
        raise ConfigError(path, str(err))


#: the params each experiment reads: name -> (type, default, least allowed
#: value, or the allowed names of a str, or None).  Every experiment also
#: takes ``seed`` (``--seed`` writes it into any config); only ``nets``
#: reads it.
PARAMS = {
    "regular-norm": {"method": (str, "berg-christensen", METHODS),
                     "n_max": (int, 50, 2)},
    "koopman-norm": {"tol": (float, 1e-8, 0), "freq_cutoff": (int, None, 1),
                     "line_freq_cutoff": (int, 10_000, 1)},
    "verify-bound": {"regular_norm_method": (str, "auto", METHODS),
                     "tol": (float, 1e-3, 0), "n_max": (int, 50, 2)},
    "certificate": {"n_max": (int, 10, 1), "slack": (float, 0.02, 0),
                    "tol": (float, 1e-3, 0), "x0": (int, 0, 0),
                    "cross_check_discrepancy": (bool, True, None)},
    "nets": {"count": (int, 100, 1), "seed": (int, 20250809, 0),
             "ratio_n_max": (int, 10, 3)},
    "margulis-demo": {"N": (int, 1024, 2), "tol": (float, 1e-3, 0)},
    "sweep": {},
}


def _params(cfg: dict) -> dict:
    """The experiment's params, type-checked, with defaults filled in."""
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params", "must be an object")
    table = {"seed": (int, None, 0), **PARAMS[cfg["experiment"]]}
    for key in params:
        if key not in table:
            raise ConfigError(f"params.{key}", "unknown parameter for "
                              f"{cfg['experiment']}; it takes {sorted(table)}")
    out = {}
    for key, (kind, default, least) in table.items():
        if key not in params:
            out[key] = default
            continue
        value = params[key]
        numeric = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, numeric):
            raise ConfigError(f"params.{key}",
                              f"expected {kind.__name__}, got {value!r}")
        if kind is str:
            if value not in least:
                raise ConfigError(f"params.{key}", f"unknown name {value!r}; "
                                  f"pick one of {least}")
        elif least is not None and value < least:
            raise ConfigError(f"params.{key}", f"must be >= {least}, got {value!r}")
        out[key] = kind(value)
    return out


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    experiment = _require(cfg, "experiment", "<root>")
    if experiment not in EXPERIMENTS:
        raise ConfigError("experiment",
                          f"unknown experiment {experiment!r}; pick one of {EXPERIMENTS}")
    _params(cfg)
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
    group = build_group(_require(cfg, "group", "<root>"))
    mu = build_measure(group, _require(cfg, "measure", "<root>"))
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
    res = RunResult("koopman-norm")
    group = build_group(_require(cfg, "group", "<root>"))
    mu = build_measure(group, _require(cfg, "measure", "<root>"))
    space = build_space(group, _require(cfg, "action", "<root>"))
    p = _params(cfg)
    tol = p["tol"]
    disc = discrepancy(space, mu)
    res.put("discrepancy", disc.value)
    witness = _put_spectrum(res, disc)
    res.note(f"discrepancy = {_fmt(disc.value)} (cycle spectrum: "
             f"n_cycles {disc.n_cycles}, witness {witness})")
    if disc.trivial_note:
        res.note(disc.trivial_note)
    res.check("discrepancy <= total mass + tol",
              disc.value <= mu.total_mass + tol)
    if isinstance(space, GridTranslationSpace):
        cutoff = p["freq_cutoff"]
        if cutoff is None:
            cutoff = max(space.grid_shape) // 2
        char = character_norm(space, mu, cutoff)
        res.put("character_norm", char)
        res.put("freq_cutoff", cutoff)
        res.note(f"character oracle = {_fmt(char)} at cutoff {cutoff}")
        if cutoff >= max(space.grid_shape) // 2:
            res.check("cycle spectrum agrees with the character oracle",
                      abs(disc.value - char) <= 1e-9)
        slope = space.slope_target
        if slope is not None:
            value, witness = character_line_scan(mu, slope, p["line_freq_cutoff"])
            res.put("line_scan_value", value)
            res.put("line_scan_witness", f"({witness[0]};{witness[1]})")
            res.note(f"continuum line scan at slope {_fmt(slope)}: "
                     f"{_fmt(value)} at frequency {witness}")
    return res


def run_verify_bound(cfg: dict) -> RunResult:
    res = RunResult("verify-bound")
    group = build_group(_require(cfg, "group", "<root>"))
    mu = build_measure(group, _require(cfg, "measure", "<root>"))
    space = build_space(group, _require(cfg, "action", "<root>"))
    p = _params(cfg)
    report = verify_lower_bound(
        space, mu,
        regular_norm_method=p["regular_norm_method"],
        tol=p["tol"],
        n_max=p["n_max"],
    )
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
    res = RunResult("certificate")
    group = build_group(_require(cfg, "group", "<root>"))
    mu = build_measure(group, _require(cfg, "measure", "<root>"))
    space = build_space(group, _require(cfg, "action", "<root>"))
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
    chain_rows = [r for r in report.rows if r.chain_asserted]
    res.check("chain inequality on every asserted row",
              all(r.rayleigh >= r.chain_bound - 1e-10 for r in chain_rows))
    if p["cross_check_discrepancy"]:
        disc = discrepancy(space, mu)
        res.put("discrepancy", disc.value)
        res.check("certificate bound <= discrepancy + 2 tol",
                  report.norm_lower_bound <= disc.value + 2 * tol)
    res.note(f"certified lower bound: {_fmt(report.norm_lower_bound)}")
    return res


def run_nets(cfg: dict) -> RunResult:
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
    for i in range(count):
        dim = int(rng.integers(1, 3))
        group = GroupDescriptor(kind="lattice", dimension=dim)
        a_rad = int(rng.integers(1, 3))
        b_rad = int(rng.integers(1, 3))
        n = int(rng.integers(1, 6 // dim + 2))
        a_box = _box(dim, a_rad)
        b_box = _box(dim, b_rad)
        span = power_set(group, b_box, n)
        inst = greedy_maximal_net(group, span, a_box, B=b_box, n=n)
        report = verify_net_bounds(inst)
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


def _box(dim: int, radius: int):
    import itertools

    return [t for t in itertools.product(range(-radius, radius + 1), repeat=dim)]


def run_margulis_demo(cfg: dict) -> RunResult:
    res = RunResult("margulis-demo")
    p = _params(cfg)
    n = p["N"]
    group = GroupDescriptor(kind="real-grid", dimension=1, resolution=n)
    mu = GroupMeasure.uniform_interval(group, 0.0, 1.0, closed=False)
    space = build_action("circle-rotation", group=group, N=n, cells_per_step=1)
    char = character_norm(space, mu, n // 2)
    report = verify_lower_bound(space, mu, regular_norm_method="amenable",
                                tol=p["tol"])
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
    node[parts[-1]] = value


def run_sweep(cfg: dict, jobs: int = 1) -> tuple[RunResult, list[RunResult]]:
    template = _require(cfg, "template", "<root>")
    grid = cfg.get("grid", {})
    validate_config(template)
    if template.get("experiment") == "sweep":
        raise ConfigError("template.experiment", "sweeps cannot nest")
    keys = sorted(grid)
    combos: list[dict] = [{}]
    for key in keys:
        values = grid[key]
        if not isinstance(values, list):
            raise ConfigError(f"grid.{key}", "grid values must be lists")
        combos = [dict(c, **{key: v}) for c in combos for v in values]

    def child(combo: dict) -> tuple[RunResult, str | None]:
        """The child's result, and its error text if it raised."""
        instance = copy.deepcopy(template)
        for dotted, value in combo.items():
            _set_path(instance, dotted, value)
        try:
            return RUNNERS[instance["experiment"]](instance), None
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
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(child, combos))
    else:
        outcomes = [child(c) for c in combos]
    children = [res for res, _ in outcomes]
    errors = [error for _, error in outcomes]
    failed = [i for i, error in enumerate(errors) if error is not None]

    agg = RunResult("sweep")
    agg.put("children", len(children))
    if children:
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
    agg.check("all sweep children passed",
              all(c.passed for c in children) if children else True)
    return agg, children


# -- output ----------------------------------------------------------------------


def _write_outputs(res: RunResult, out_dir: Path, prefix: str, fmt: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = [f"gaplab experiment: {res.experiment}", ""]
    summary.extend(res.summary)
    summary.append("")
    summary.append(f"result: {'PASS' if res.passed else 'FAIL'}")
    (out_dir / f"{prefix}summary.txt").write_text("\n".join(summary) + "\n")
    if fmt == "csv":
        rows = [("key", "value"), *res.record]
        rows += [(f"assert:{name}", _fmt(ok)) for name, ok in res.assertions]
        _write_csv(out_dir / f"{prefix}record.csv", rows)
    else:
        lines = [f"{k} = {v}" for k, v in res.record]
        lines += [f"assert:{name} = {_fmt(ok)}" for name, ok in res.assertions]
        (out_dir / f"{prefix}record.kv").write_text("\n".join(lines) + "\n")
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gaplab",
        description="discrepancy lower-bound laboratory: reproducible experiments",
    )
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default="gaplab-out",
                        help=f"output directory (env {ENV_OUT_DIR} overrides)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel children for sweeps")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--format", choices=("csv", "kv"), default="csv")
    args = parser.parse_args(argv)

    try:
        cfg = json.loads(Path(args.config).read_text())
    except FileNotFoundError:
        print(f"config not found: {args.config}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        print(f"config is not valid JSON: {err}", file=sys.stderr)
        return 2

    out_dir = Path(os.environ.get(ENV_OUT_DIR, args.out))
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
                _write_outputs(child_res, out_dir, f"{prefix}child{i:03d}_",
                               args.format)
            _write_outputs(agg, out_dir, prefix, args.format)
            result = agg
        else:
            result = RUNNERS[experiment](cfg)
            _write_outputs(result, out_dir, prefix, args.format)
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
