"""Record the golden rows that ``run.py`` checks reports against.

Runs the experiments that have no closed-form reference (the certificate
for every base cell in ``CERT_X0``, the non-uniform free-group measure,
the real-grid interval and the net ratio study) through ``gaplab.cli``
and writes their report values to ``perfbench/golden.json``.  Run it from
the repository root only when a reported number is meant to change:

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
NETS_KEYS = ("count", "ratio_c1", "ratio_c2", "ratio_min", "ratio_max")
CERT_KEYS = ("norm_lower_bound", "max_ratio_root")


def run(cli, cfg: dict, out: Path) -> dict:
    path = out / "config.json"
    path.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["--config", str(path), "--out", str(out), "--jobs", "1"])
    if status != 0:
        raise SystemExit(f"{cfg['output']['prefix']}: gaplab exited with {status}")
    prefix = cfg["output"]["prefix"]
    return {f.name[len(prefix):]: f.read_text()
            for f in out.iterdir() if f.name.startswith(prefix)}


def numbers(rows) -> list[list[float]]:
    return [[float(x) for x in row] for row in rows]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from gaplab import cli

    golden = {"certificate": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp)
        for x0 in wl.CERT_X0:
            reports = run(cli, wl.certificate_config(x0), out)
            rec = wl.record(reports)
            golden["certificate"][str(x0)] = {
                "record": {k: float(rec[k]) for k in CERT_KEYS},
                "sequence": numbers(wl.sequence(reports)),
            }
        for name, cfg in (("free_nonuniform", wl.free_config(range(len(wl.FREE_ATOMS)))),
                          ("interval", wl.interval_config())):
            reports = run(cli, cfg, out)
            golden[name] = {"value": float(wl.record(reports)["value"]),
                            "sequence": numbers(wl.sequence(reports))}
        rec = wl.record(run(cli, wl.nets_config(0), out))
        golden["nets"] = {k: float(rec[k]) for k in NETS_KEYS}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
