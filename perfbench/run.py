"""gaplab benchmark: seeded experiment batches run through ``gaplab.cli.main``.

Usage, from the repository root:

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 15 --trace 0

One process, one client, closed loop: each experiment starts when the
previous one returns.  A run

1. sets up three times from cold: drops gaplab from ``sys.modules``,
   imports it again from ``src/``, writes the seeded configs and runs one
   warm-up pass;
2. repeats timed passes over the batch for ``--seconds`` seconds;
3. with ``--trace 1``, runs one more pass with ``spans.Tracer`` installed
   and reports the per-layer metrics instead of the end-to-end ones;
4. checks, outside the timed region, that every pass wrote byte-identical
   reports and that the first pass agrees with the references in
   ``workloads.py``; an experiment that exits non-zero, raises, or misses
   a check counts as failed.

End-to-end metrics: ``wall_scaled_s``, the median pass time with each
experiment's time scaled by the ``Calibration`` kernel timed around it;
``setup_s``, the median of the three set-ups, scaled the same way; and
``peak_rss_mb``.  The raw medians ``wall_s`` and ``setup_raw_s`` and
``failed_frac`` are printed too.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Reports and span files go
under ``.bench_out/`` in the repository root.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GAPLAB_OUT", None)  # the CLI would write there instead of --out

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SETUP_ROUNDS = 3
MIN_PASSES = 3
now = time.perf_counter


def load_program():
    """Import gaplab afresh from ``src/``; returns the ``gaplab.cli`` module."""
    for name in [m for m in sys.modules if m == "gaplab" or m.startswith("gaplab.")]:
        del sys.modules[name]
    cli = importlib.import_module("gaplab.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"gaplab was imported from {cli.__file__}, not from {SRC}")
    return cli


def write_configs(batch, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for exp in batch:
        exp.path = directory / f"{exp.name}.json"
        exp.path.write_text(json.dumps(exp.config))


class Calibration:
    """A fixed Python and numpy kernel that does not touch gaplab.

    It is timed before the first experiment of a pass and after each one.
    Dividing an experiment's time by the mean of the two calibrations
    around it cancels most of the machine-speed drift of a shared host,
    which moved raw pass medians by up to 30% between 20-second windows.
    """

    REFERENCE_S = 0.025  # fixed scale, about the kernel's time on a quiet host

    def __init__(self):
        rng = np.random.default_rng(0)
        self.grid = rng.random((128, 128))
        self.index = rng.permutation(100_000)
        self.values = rng.random(100_000)
        # bound now, so that a tracer patching numpy.fft later is not timed
        self.rfftn, self.irfftn = np.fft.rfftn, np.fft.irfftn

    def __call__(self) -> float:
        # without the cyclic collector, the kernel's time does not depend on
        # how many objects the program or a tracer holds
        gc.disable()
        try:
            start = now()
            acc = 0
            for i in range(75_000):
                acc += i * i
            table: dict = {}
            for i in range(15_000):
                key = (i % 977, i % 13)
                table[key] = table.get(key, 0.0) + 1.0
            for _ in range(20):
                self.irfftn(self.rfftn(self.grid), s=self.grid.shape, axes=(0, 1))
                self.values[self.index].sum()
            return now() - start
        finally:
            gc.enable()


def run_pass(cli, batch, out_dir: Path, calibrate, before=None, tracer=None):
    """One closed-loop pass over the batch.

    ``before`` is a calibration time taken just before the call, if any.
    Returns (raw seconds, calibration-scaled seconds, exit statuses).
    """
    statuses = []
    raw = scaled = 0.0
    if before is None:
        before = calibrate()
    for exp in batch:
        if tracer is not None:
            tracer.request = exp.name
        sink = io.StringIO()
        start = now()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                status = cli.main(["--config", str(exp.path), "--out", str(out_dir),
                                   "--jobs", "1"])
        except Exception as err:  # one crashing experiment is one failed experiment
            status = f"{type(err).__name__}: {err}"
        elapsed = now() - start
        after = calibrate()
        raw += elapsed
        scaled += elapsed * Calibration.REFERENCE_S / ((before + after) / 2)
        before = after
        statuses.append(status)
        if status != 0:
            print(f"{exp.name}: exit {status}\n{sink.getvalue()}", file=sys.stderr)
    return raw, scaled, statuses


def collect(batch, out_dir: Path) -> dict:
    """Report texts per experiment, keyed by file suffix; removes out_dir."""
    reports = {exp.name: {} for exp in batch}
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
        for exp in batch:
            if path.name.startswith(exp.prefix):
                reports[exp.name][path.name[len(exp.prefix):]] = path.read_text()
    shutil.rmtree(out_dir, ignore_errors=True)
    return reports


class Ledger:
    """Executions and failures per experiment, plus the reference reports."""

    def __init__(self, batch):
        self.batch = batch
        self.runs = {exp.name: 0 for exp in batch}
        self.bad = {exp.name: 0 for exp in batch}
        self.reference = None
        self.identity_checks = 0
        self.reasons: list[str] = []

    def record(self, statuses, reports) -> None:
        if self.reference is None:
            self.reference = reports
        for exp, status in zip(self.batch, statuses):
            self.runs[exp.name] += 1
            self.identity_checks += 1
            if status != 0:
                self.bad[exp.name] += 1
                self.reasons.append(f"{exp.name}: exit status {status}")
            elif reports[exp.name] != self.reference[exp.name]:
                self.bad[exp.name] += 1
                self.reasons.append(f"{exp.name}: reports differ from the first pass")

    def check_references(self) -> int:
        """Compare the first pass with the references; a miss fails every run."""
        count = 0
        for exp in self.batch:
            n, failures = exp.check(self.reference[exp.name])
            count += n
            if failures:
                self.bad[exp.name] = self.runs[exp.name]
                self.reasons.extend(failures)
        return count

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    @property
    def failed(self) -> int:
        return sum(self.bad.values())


def machine() -> dict:
    mem_kb = 0
    with contextlib.suppress(OSError):
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_gb": round(mem_kb / 2**20, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


# (span, statistic) pairs reported per layer, besides numpy.fft and trace.*
LAYER_METRICS = (
    ("cli.main", "self_s"),
    ("actions.build_action", "s"),
    ("actions.act_indices", "calls"), ("actions.act_indices", "cells"),
    ("actions.act_indices", "s"),
    ("koopman.discrepancy", "calls"), ("koopman.discrepancy", "self_s"),
    ("koopman.check_hypotheses", "s"), ("koopman.character_norm", "s"),
    ("koopman.character_line_scan", "s"),
    ("operators.operator_norm_self_adjoint", "s"),
    ("operators.operator_norm_self_adjoint", "iterations"),
    ("operators.apply", "calls"), ("operators.apply", "cells"),
    ("operators.apply", "s"),
    ("measures.convolve", "calls"), ("measures.convolve", "s"),
    ("measures.convolve", "pairs"), ("measures.convolve", "support_max"),
    ("groups.product_set", "calls"), ("groups.product_set", "s"),
    ("groups.product_set", "pairs"), ("groups.product_set", "out_max"),
    ("regular_norm.berg_christensen_estimate", "self_s"),
    ("regular_norm.amenable_norm", "s"),
    ("certificates.orbit_neighborhood_sequence", "self_s"),
    ("certificates.check_moderate_growth", "self_s"),
    ("certificates.rayleigh_chain", "self_s"),
    ("certificates.build_companion_set", "s"),
    ("certificates._act_union", "calls"), ("certificates._act_union", "elements"),
    ("certificates._act_union", "s"),
    ("certificates._pair_correlations", "calls"),
    ("certificates._pair_correlations", "s"),
    ("nets.greedy_maximal_net", "s"), ("nets.verify_net_bounds", "s"),
    ("nets.net_ratio_study", "self_s"),
)


def layer_metrics(tracer, traced_s: float, overhead: float) -> dict:
    agg = tracer.aggregate()

    def get(name, key):
        return float(agg.get(name, {}).get(key, 0.0))

    metrics = {}

    def put(metric, value, unit):
        metrics[metric] = {"value": value, "unit": unit}

    for name, key in LAYER_METRICS:
        unit = "s" if key in ("s", "self_s") else "count"
        put(f"{name}.{key}", get(name, key), unit)
        if name == "operators.apply" and key == "s":
            cells = get(name, "cells")
            put("operators.apply.ns_per_cell",
                get(name, "s") / cells * 1e9 if cells else 0.0, "ns/cell")
    put("numpy.fft.calls", float(tracer.fft_totals["calls"]), "count")
    put("numpy.fft.cells", float(tracer.fft_totals["cells"]), "count")
    put("trace.overhead_frac", overhead, "fraction")
    put("trace.coverage_frac", tracer.root_seconds() / traced_s, "fraction")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gaplab" / "cli.py").is_file():
        print(f"gaplab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    golden = json.loads(GOLDEN.read_text())
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return measure(args, golden, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, golden: dict, tmp: Path) -> int:
    started = now()
    calibrate = Calibration()
    setups, setups_scaled = [], []
    for round_ in range(SETUP_ROUNDS):
        gc.collect()
        before = calibrate()
        t0 = now()
        cli = load_program()
        batch = workloads.build(args.workload, args.seed, golden)
        write_configs(batch, tmp / f"configs{round_}")
        load_s = now() - t0
        after = calibrate()
        pass_raw, pass_scaled, statuses = run_pass(cli, batch, tmp / "out",
                                                   calibrate, after)
        setups.append(load_s + pass_raw)
        setups_scaled.append(load_s * Calibration.REFERENCE_S / ((before + after) / 2)
                             + pass_scaled)
        if round_ == 0:
            ledger = Ledger(batch)
        ledger.record(statuses, collect(batch, tmp / "out"))
    to_first_pass = now() - started

    raw, scaled = [], []
    loop_start = now()
    while len(raw) < MIN_PASSES or now() - loop_start < args.seconds:
        gc.collect()
        raw_s, scaled_s, statuses = run_pass(cli, batch, tmp / "out", calibrate)
        raw.append(raw_s)
        scaled.append(scaled_s)
        ledger.record(statuses, collect(batch, tmp / "out"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        gc.collect()
        try:
            traced_raw, traced_scaled, statuses = run_pass(
                cli, batch, tmp / "out", calibrate, tracer=tracer)
        finally:
            tracer.uninstall()
        ledger.record(statuses, collect(batch, tmp / "out"))

    checks = ledger.check_references()
    info = machine()
    print(f"machine: {json.dumps(info)}")
    print(f"workload {args.workload} seed {args.seed}: {len(batch)} experiments "
          f"({', '.join(e.name for e in batch)}), {SETUP_ROUNDS} set-ups, "
          f"{len(raw)} timed passes")
    print(f"checks: {checks} reference values compared, "
          f"{ledger.identity_checks} report sets compared with the first pass")
    for reason in ledger.reasons[:20]:
        print(f"FAILED {reason}")
    print("setup raw s: " + " ".join(f"{s:.4f}" for s in setups)
          + f"; start of run to first timed pass {to_first_pass:.4f} s")
    print("setup scaled s: " + " ".join(f"{s:.4f}" for s in setups_scaled))
    print("pass raw s: " + " ".join(f"{s:.4f}" for s in raw))
    print("pass scaled s: " + " ".join(f"{s:.4f}" for s in scaled))
    end_to_end = {
        "wall_scaled_s": {"value": statistics.median(scaled), "unit": "s"},
        "setup_s": {"value": statistics.median(setups_scaled), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    shown = dict(end_to_end,
                 wall_s={"value": statistics.median(raw), "unit": "s"},
                 setup_raw_s={"value": statistics.median(setups), "unit": "s"},
                 failed_frac={"value": ledger.failed / ledger.attempted,
                              "unit": "fraction"})
    metrics = end_to_end
    if args.trace:
        metrics = layer_metrics(tracer, traced_raw,
                                traced_scaled / statistics.median(scaled) - 1.0)
        shown.update(metrics)
        absent = sorted({name for name, _ in LAYER_METRICS} - tracer.installed)
        if absent:
            print(f"absent spans (reported as 0): {', '.join(absent)}")
        tracer.write(OUT / f"spans-{args.workload}.jsonl.gz",
                     {"workload": args.workload, "seed": args.seed, **info})
    for name, m in shown.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
