"""The reports of the shipped ``configs/*.json`` against snapshots.

Every record a config writes, and the certificate's sequence, must match
the files under ``tests/snapshots/<config>/``, the record and sequence
of the benchmark's ``nets`` batch those under ``tests/snapshots/nets/``,
and those of the benchmark's ``certificate`` config at each of its base
cells those under ``tests/snapshots/certificate_bench/``: numbers that
are not both integers within 1e-9 relative, every other field exactly.
A change that means to move a reported number rewrites its snapshot and
says why.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from gaplab.cli import main

ROOT = Path(__file__).resolve().parents[1]
SNAPSHOTS = Path(__file__).with_name("snapshots")
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _number(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return None


def same_field(got: str, want: str) -> bool:
    """Equal text, or two numbers within 1e-9 relative unless both are
    integers."""
    a, b = _number(got), _number(want)
    if a is None or b is None or (type(a) is int and type(b) is int):
        return got == want
    return math.isclose(a, b, rel_tol=1e-9)


def assert_reports_match(out_dir: Path, snapshots: Path) -> None:
    assert (sorted(path.name for path in out_dir.glob("*record.csv"))
            == sorted(path.name for path in snapshots.glob("*record.csv")))
    for snapshot in sorted(snapshots.iterdir()):
        got, want = read_rows(out_dir / snapshot.name), read_rows(snapshot)
        assert [len(row) for row in got] == [len(row) for row in want], snapshot.name
        for line, (row, expected) in enumerate(zip(got, want), 1):
            assert all(map(same_field, row, expected)), (snapshot.name, line, row)


@pytest.mark.parametrize("config", CONFIGS, ids=[path.stem for path in CONFIGS])
def test_reports_match_snapshots(tmp_path, config):
    assert main(["--config", str(config), "--out", str(tmp_path)]) == 0
    assert_reports_match(tmp_path, SNAPSHOTS / config.stem)


#: the ``nets`` batch of the benchmark at seed 0, which no shipped config runs
NETS = {"experiment": "nets", "params": {"count": 40, "ratio_n_max": 10, "seed": 0},
        "output": {"prefix": "nets_"}}


def test_nets_report_matches_snapshot(tmp_path):
    config = tmp_path / "nets.json"
    config.write_text(json.dumps(NETS))
    assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert_reports_match(tmp_path / "out", SNAPSHOTS / "nets")


#: the ``certificate`` config of the benchmark, at each of its base cells
CERT_X0 = (0, 7001, 23456, 65535, 39999, 4242, 51200, 55555)


def certificate_bench(x0):
    return {
        "experiment": "certificate",
        "group": {"kind": "real-grid", "dimension": 1, "resolution": 8},
        "measure": {"kind": "uniform-interval", "lo": -1, "hi": 1},
        "action": {"kind": "torus-translation", "N": 256, "step": [29, 41],
                   "slope_hint": math.sqrt(2.0)},
        "params": {"n_max": 6, "slack": 0.02, "tol": 1e-3, "seed": 7,
                   "x0": x0, "cross_check_discrepancy": False},
        "output": {"prefix": f"certificate_{x0}_"},
    }


def test_benchmark_certificates_match_snapshots(tmp_path):
    for x0 in CERT_X0:
        config = tmp_path / f"certificate_{x0}.json"
        config.write_text(json.dumps(certificate_bench(x0)))
        assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert_reports_match(tmp_path / "out", SNAPSHOTS / "certificate_bench")


@pytest.mark.parametrize("got,want,same", [
    ("0.991735008479", "0.991735008479", True),
    ("0.9917350084795", "0.991735008479", True),
    ("0.99173501", "0.991735008479", False),
    ("1", "0.9999999999995", True),
    ("16", "17", False),
    ("true", "false", False),
    ("(16;0)", "(16;0)", True),
])
def test_field_comparison(got, want, same):
    assert same_field(got, want) is same
