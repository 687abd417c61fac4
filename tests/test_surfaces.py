"""Smaller contract surfaces: invariants and interface details."""

import json

import numpy as np
import pytest

from gaplab import (
    GroupDescriptor,
    GroupMeasure,
    build_action,
    fourier_norm_abelian,
)
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
            image = space.act_indices(c, idx)
            pushed = np.zeros_like(space.weights)
            np.add.at(pushed, image, space.weights)
            assert np.array_equal(pushed, space.weights)


class TestGroupGeometry:
    def test_torus_group_ball(self):
        t = GroupDescriptor(kind="torus-grid", dimension=1, size=16)
        ball = t.ball(2 / 16)
        assert ball == [(0,), (1,), (2,), (14,), (15,)]

    def test_free_ball_ordering(self):
        f2 = GroupDescriptor(kind="free", dimension=2)
        ball = f2.ball(1)
        assert ball[0] == ()
        assert len(ball) == 5
        assert all(len(w) <= 1 for w in ball)

    def test_real_grid_norm(self):
        g = GroupDescriptor(kind="real-grid", dimension=2, resolution=4)
        assert g.norm((3, 4)) == pytest.approx(5 / 4)


class TestFourierTorusGroup:
    def test_integer_frequency_scan(self):
        t = GroupDescriptor(kind="torus-grid", dimension=1, size=8)
        mu = GroupMeasure.from_atoms(t, [((1,), 0.5), ((7,), 0.5)])
        est = fourier_norm_abelian(mu, freq_bound=4, freq_samples=9)
        # |mu-hat(m)| = |cos(2 pi m / 8)|, sup over integer m includes 0
        assert est.value == pytest.approx(1.0, abs=1e-12)


class TestCliEnvironment:
    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        cfg = {
            "experiment": "regular-norm",
            "group": {"kind": "lattice", "dimension": 1},
            "measure": {"kind": "srw"},
            "params": {"method": "amenable-mass"},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        env_dir = tmp_path / "env-out"
        monkeypatch.setenv("GAPLAB_OUT", str(env_dir))
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "ignored")])
        assert code == 0
        assert (env_dir / "regular-norm_record.csv").exists()
        assert not (tmp_path / "ignored").exists()

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
        def read_value(out_dir):
            rec = (out_dir / "koopman-norm_record.csv").read_text()
            row = [ln for ln in rec.splitlines() if ln.startswith("discrepancy,")]
            return float(row[0].split(",")[1])

        # the seed changes the iteration path, not the converged norm
        assert read_value(out_a) == pytest.approx(read_value(out_b), abs=1e-6)
