"""Seeded experiment batches and the reference checks for their reports.

Each workload is a list of experiments.  An experiment is one gaplab
config plus a check that reads the reports the CLI wrote for it.  The
references are computed here with numpy and closed forms, never with
gaplab's own oracles, or they come from ``golden.json`` (rows recorded
from the program by ``make_golden.py``).

The seed changes only choices that leave the cost of a pass the same:
the order in which explicit atoms are listed, the certificate base cell
``x0`` (consecutive entries of ``CERT_X0``), and the ``nets`` instance seed.  The
power-iteration start seed and the labelling of the permutation's cells
are held fixed, because either one moves the power-iteration count of
the same operator by up to 2.3x (17k to 40k iterations measured on the
1000+600+400 permutation), which would swamp the run-to-run spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REL = 1e-9
SQRT2 = 1.4142135623730951

# spectral workload
TORUS_N = 256
TORUS_STEP = (29, 41)
ROTATION_N, ROTATION_P = 233, 144  # consecutive Fibonacci numbers
PERM_CYCLES = (500, 300, 200)
PERM_LABEL_SEED = 0
THREE_ATOMS = ((1, 0.3), (-2, 0.45), (3, 0.25))
BERNOULLI = {"alphabet": 4, "window_radius": 4}
POWER_SEED = 7

# certificate workload: CERT_RUNS base cells per pass, picked from CERT_X0
CERT_N = 256
CERT_N_MAX = 6
CERT_X0 = (0, 7001, 23456, 65535, 39999, 4242, 51200, 55555)
CERT_RUNS = 2

# convolution workload
Z_N_MAX = 200
Z2_N_MAX = 24
FREE_ATOMS = (((1,), 0.3), ((-1,), 0.2), ((2,), 0.3), ((-2,), 0.2))
FREE_N_MAX = 5
INTERVAL_N_MAX = 30
NETS = {"count": 40, "ratio_n_max": 10}

WORKLOADS = ("spectral", "certificate", "convolution")


@dataclass
class Experiment:
    """One config for ``gaplab.cli.main`` and the check of its reports.

    ``check`` takes the report texts keyed by suffix (``record.csv``,
    ``sequence.csv``, ...) and returns (number of values compared,
    list of failure messages).
    """

    name: str
    config: dict
    check: Callable[[dict], tuple[int, list[str]]]
    path: Path | None = None  # where the config was written

    @property
    def prefix(self) -> str:
        return self.name + "_"


# -- config builders (shared with make_golden.py) --------------------------

GRID8 = {"kind": "real-grid", "dimension": 1, "resolution": 8}
INTERVAL = {"kind": "uniform-interval", "lo": -1, "hi": 1}
LATTICE1 = {"kind": "lattice", "dimension": 1}


def _config(name: str, experiment: str, params: dict, **blocks) -> dict:
    cfg = {"experiment": experiment, **blocks, "params": params}
    cfg["output"] = {"prefix": name + "_"}
    return cfg


def _atoms(pairs, order) -> dict:
    return {"kind": "atoms",
            "atoms": [[*_coords(pairs[i][0]), pairs[i][1]] for i in order]}


def _coords(element) -> tuple:
    return tuple(element) if isinstance(element, tuple) else (element,)


def permutation(cycles=PERM_CYCLES, seed=PERM_LABEL_SEED) -> np.ndarray:
    """A permutation with the given cycle type on randomly labelled cells."""
    labels = np.random.default_rng(seed).permutation(sum(cycles))
    perm = np.empty(sum(cycles), dtype=np.int64)
    start = 0
    for length in cycles:
        cycle = labels[start:start + length]
        perm[cycle] = np.roll(cycle, -1)
        start += length
    return perm


def certificate_config(x0: int, name: str = "certificate") -> dict:
    return _config(
        name, "certificate",
        {"n_max": CERT_N_MAX, "slack": 0.02, "tol": 1e-3, "seed": POWER_SEED,
         "x0": int(x0), "cross_check_discrepancy": False},
        group=GRID8, measure=INTERVAL,
        action={"kind": "torus-translation", "N": CERT_N,
                "step": list(TORUS_STEP), "slope_hint": SQRT2},
    )


def free_config(order) -> dict:
    return _config("free_nonuniform", "regular-norm", {"n_max": FREE_N_MAX},
                   group={"kind": "free", "dimension": 2},
                   measure=_atoms(FREE_ATOMS, order))


def interval_config() -> dict:
    return _config("interval", "regular-norm", {"n_max": INTERVAL_N_MAX},
                   group=GRID8, measure=INTERVAL)


def nets_config(seed: int) -> dict:
    return _config("nets", "nets", {**NETS, "seed": int(seed)})


# -- report parsing and comparison -------------------------------------------


def record(reports: dict) -> dict:
    lines = reports.get("record.csv", "").splitlines()[1:]
    return dict(line.split(",", 1) for line in lines if "," in line)


def sequence(reports: dict) -> list[list[str]]:
    lines = reports.get("sequence.csv", "").splitlines()[1:]
    return [line.split(",") for line in lines]


def _close(got: float, want: float, rel: float = REL) -> bool:
    return abs(got - want) <= rel * max(abs(got), abs(want))


class _Checker:
    """Collects value comparisons and their failures for one report set."""

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.failures: list[str] = []

    def value(self, label: str, got, want: float, abs_tol: float | None = None):
        self.count += 1
        try:
            got = float(got)
        except (TypeError, ValueError):
            self.failures.append(f"{self.name}: {label} missing or not a number ({got!r})")
            return
        ok = abs(got - want) <= abs_tol if abs_tol is not None else _close(got, want)
        if not ok:
            self.failures.append(f"{self.name}: {label} = {got!r}, reference {want!r}")

    def rows(self, label: str, got: list[list[str]], want: list[list[float]]):
        if len(got) != len(want):
            self.count += 1
            self.failures.append(
                f"{self.name}: {label} has {len(got)} rows, reference {len(want)}")
            return
        for i, (g_row, w_row) in enumerate(zip(got, want)):
            if len(g_row) != len(w_row):
                self.count += 1
                self.failures.append(f"{self.name}: {label} row {i} has "
                                     f"{len(g_row)} fields, reference {len(w_row)}")
                continue
            for j, (g, w) in enumerate(zip(g_row, w_row)):
                self.value(f"{label}[{i}][{j}]", g, w)

    def result(self):
        return self.count, self.failures


# -- references computed here -------------------------------------------------


def cycle_lengths(perm: np.ndarray) -> list[int]:
    seen = np.zeros(len(perm), dtype=bool)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        lengths.append(length)
    return lengths


def necklace_count(alphabet: int, width: int) -> int:
    """Cycles of the cyclic window rotation on alphabet^width words."""
    return sum(alphabet ** math.gcd(j, width) for j in range(width)) // width


def discrepancy_reference(n_cycles: int, cycle_length: int, atoms: dict) -> float:
    """Norm of sum_c w_c sigma^c on zero-mean functions.

    Two or more cycles give invariant zero-mean functions, hence the full
    mass.  On one cycle of length L the spectrum is the set of values
    sum_c w_c exp(2 pi i c k / L), k = 1..L-1.
    """
    mass = float(sum(atoms.values()))
    if n_cycles >= 2:
        return mass
    k = np.arange(1, cycle_length)
    steps = np.array(list(atoms), dtype=float)
    weights = np.array(list(atoms.values()))
    phases = np.exp(2j * np.pi * np.outer(k, steps) / cycle_length)
    return float(np.abs(phases @ weights).max())


def translation_cycles(n: int, step) -> tuple[int, int]:
    """(number of cycles, cycle length) of a translation of (Z/n)^d."""
    length = n // math.gcd(n, *step)
    return n ** len(step) // length, length


def srw_return_roots(n_max: int, dimension: int) -> list[list[float]]:
    """Rows (n, (eta^{*n}(e))^{1/(2n)}) for the simple random walk on Z^d,
    d = 1 or 2, where eta^{*n}(e) = (C(2n, n) / 4^n)^d."""
    rows = []
    for n in range(1, n_max + 1):
        log_p = math.lgamma(2 * n + 1) - 2 * math.lgamma(n + 1) - 2 * n * math.log(2)
        rows.append([n, math.exp(dimension * log_p / (2 * n))])
    return rows


# -- checks --------------------------------------------------------------------


def _spectral_check(name: str, key: str, n_cycles: int, length: int,
                    atoms: dict, tol: float, regular_mass: bool):
    delta = discrepancy_reference(n_cycles, length, atoms)
    bound = max(1e-6, 2 * tol)

    def check(reports):
        c = _Checker(name)
        rec = record(reports)
        c.value(key, rec.get(key), delta, abs_tol=bound)
        if regular_mass:
            c.value("regular_norm", rec.get("regular_norm"), float(sum(atoms.values())))
        return c.result()

    return check


def _golden_check(name: str, golden: dict):
    want = golden[name]
    return _record_check(name, {"value": want["value"]}, want["sequence"])


def _record_check(name: str, want: dict, want_rows=None):
    def check(reports):
        c = _Checker(name)
        rec = record(reports)
        for key, value in want.items():
            c.value(key, rec.get(key), value)
        if want_rows is not None:
            c.rows("sequence", sequence(reports), want_rows)
        return c.result()

    return check


# -- the three workloads ---------------------------------------------------------


def spectral(seed: int, golden: dict) -> list[Experiment]:
    order = np.random.default_rng(seed).permutation(len(THREE_ATOMS)).tolist()
    three = dict(THREE_ATOMS)
    interval_atoms = {c: 1.0 / 17 for c in range(-8, 9)}
    perm = permutation()
    perm_lengths = cycle_lengths(perm)
    window = 2 * BERNOULLI["window_radius"] + 1
    return [
        Experiment(
            "torus_flow",
            _config("torus_flow", "koopman-norm", {"tol": 1e-3, "seed": POWER_SEED},
                    group=GRID8, measure=INTERVAL,
                    action={"kind": "torus-translation", "N": TORUS_N,
                            "step": list(TORUS_STEP), "slope_hint": SQRT2}),
            _spectral_check("torus_flow", "discrepancy",
                            *translation_cycles(TORUS_N, TORUS_STEP),
                            interval_atoms, 1e-3, regular_mass=False),
        ),
        Experiment(
            "rotation",
            _config("rotation", "koopman-norm", {"tol": 1e-7, "seed": POWER_SEED},
                    group=LATTICE1, measure={"kind": "srw"},
                    action={"kind": "circle-rotation", "N": ROTATION_N,
                            "cells_per_step": ROTATION_P}),
            _spectral_check("rotation", "discrepancy",
                            *translation_cycles(ROTATION_N, (ROTATION_P,)),
                            {1: 0.5, -1: 0.5}, 1e-7, regular_mass=False),
        ),
        Experiment(
            "permutation",
            _config("permutation", "verify-bound", {"tol": 1e-6, "seed": POWER_SEED},
                    group=LATTICE1, measure=_atoms(THREE_ATOMS, order),
                    action={"kind": "finite-permutation",
                            "permutation": perm.tolist()}),
            _spectral_check("permutation", "delta", len(perm_lengths),
                            max(perm_lengths), three, 1e-6, regular_mass=True),
        ),
        Experiment(
            "bernoulli",
            _config("bernoulli", "verify-bound", {"tol": 1e-6, "seed": POWER_SEED},
                    group=LATTICE1, measure=_atoms(THREE_ATOMS, order),
                    action={"kind": "bernoulli-window", **BERNOULLI}),
            _spectral_check("bernoulli", "delta",
                            necklace_count(BERNOULLI["alphabet"], window), window,
                            three, 1e-6, regular_mass=True),
        ),
    ]


def certificate(seed: int, golden: dict) -> list[Experiment]:
    out = []
    for j in range(CERT_RUNS):
        x0 = CERT_X0[(seed + j) % len(CERT_X0)]
        want = golden["certificate"][str(x0)]
        name = f"certificate{j}"
        out.append(Experiment(name, certificate_config(x0, name),
                              _record_check(name, want["record"], want["sequence"])))
    return out


def convolution(seed: int, golden: dict) -> list[Experiment]:
    order = np.random.default_rng(seed).permutation(len(FREE_ATOMS)).tolist()
    z_rows = srw_return_roots(Z_N_MAX, 1)
    z2_rows = srw_return_roots(Z2_N_MAX, 2)
    return [
        Experiment("z_walk",
                   _config("z_walk", "regular-norm", {"n_max": Z_N_MAX},
                           group=LATTICE1, measure={"kind": "srw"}),
                   _record_check("z_walk", {"value": z_rows[-1][1]}, z_rows)),
        Experiment("z2_walk",
                   _config("z2_walk", "regular-norm", {"n_max": Z2_N_MAX},
                           group={"kind": "lattice", "dimension": 2},
                           measure={"kind": "srw"}),
                   _record_check("z2_walk", {"value": z2_rows[-1][1]}, z2_rows)),
        Experiment("free_nonuniform", free_config(order),
                   _golden_check("free_nonuniform", golden)),
        Experiment("interval", interval_config(),
                   _golden_check("interval", golden)),
        Experiment("nets", nets_config(seed),
                   _record_check("nets", golden["nets"])),
    ]


def build(workload: str, seed: int, golden: dict) -> list[Experiment]:
    return {"spectral": spectral, "certificate": certificate,
            "convolution": convolution}[workload](seed, golden)
