"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single machine-greppable line
``ACCEPTANCE <k> [<name>]: PASS|FAIL (<seconds>)`` before asserting, so a
``pytest -s tests/test_acceptance.py`` run shows the full scoreboard even
on failures.  Run times are asserted against each criterion's budget.
"""

import itertools
import math
import time

import numpy as np
from dict_oracles import convolution_power, mass_on_set

from gaplab import (
    GroupDescriptor,
    GroupMeasure,
    build_action,
    character_norm,
    discrepancy,
    amenable_norm,
    berg_christensen_estimate,
    greedy_maximal_net,
    net_ratio_study,
    power_set,
    run_certificate,
    symmetrize,
    verify_lower_bound,
)
from gaplab.nets import verify_net_bounds
from gaplab.regular_norm import _radial_return_sequence

SQRT2 = math.sqrt(2.0)
Z = GroupDescriptor(kind="lattice", dimension=1)


def time_grid(q):
    return GroupDescriptor(kind="real-grid", dimension=1, resolution=q)


class Criterion:
    def __init__(self, number, name, budget_seconds):
        self.number = number
        self.name = name
        self.budget = budget_seconds
        self.t0 = time.perf_counter()
        self.checks = []

    def check(self, label, ok):
        self.checks.append((label, bool(ok)))

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        self.check(f"runtime {elapsed:.1f}s within {self.budget}s",
                   elapsed < self.budget)
        ok = all(v for _, v in self.checks)
        print(f"ACCEPTANCE {self.number} [{self.name}]: "
              f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
        for label, v in self.checks:
            assert v, f"criterion {self.number}: {label}"


def test_criterion_1_margulis_zero_operator():
    crit = Criterion(1, "orbit-covering measure kills the averaging operator", 10)
    n = 1024
    grid = time_grid(n)
    mu = GroupMeasure.uniform_interval(grid, 0.0, 1.0, closed=False)
    space = build_action("circle-rotation", group=grid, N=n, cells_per_step=1)
    char = character_norm(space, mu)
    crit.check(f"max nonzero character eigenvalue {char:.3e} <= 1e-10",
               char <= 1e-10)
    disc = discrepancy(space, mu)
    crit.check(f"discrepancy {disc.value:.3e} <= 1e-8", disc.value <= 1e-8)
    lam = amenable_norm(mu)
    crit.check("amenable oracle exactly 1", lam.value == 1.0)
    crit.finish()


def test_criterion_2_torus_line_flow_inequality():
    crit = Criterion(2, "main inequality on the torus line flow", 120)
    q = 8
    grid = time_grid(q)
    mu = GroupMeasure.uniform_interval(grid, -1.0, 1.0)
    space = build_action("torus-translation", group=grid, N=1024,
                        step=(29, 41), slope_hint=SQRT2)
    crit.check("slope is the sqrt(2) convergent 41/29", space.step == (29, 41))
    char = character_norm(space, mu)
    crit.check(f"character-oracle discrepancy {char:.6f} >= 0.999",
               char >= 0.999)
    report = verify_lower_bound(space, mu, tol=1e-3)
    crit.check("amenable oracle gives 1", abs(report.regular_norm - 1.0) < 1e-12)
    crit.check(f"verify_lower_bound passes at tol 1e-3 "
               f"(delta {report.delta:.6f})", report.passed is True)
    crit.finish()


def test_criterion_3_berg_christensen_vs_binomial():
    crit = Criterion(3, "convolution-power estimate vs binomial oracle", 5)
    mu = GroupMeasure.simple_random_walk(Z)
    est50 = berg_christensen_estimate(mu, F=[(0,)], n_max=50)
    exact = (math.comb(100, 50) / 4 ** 50) ** (1 / 100)
    crit.check(f"n_max=50 value {est50.value:.9f} matches binomial "
               f"{exact:.9f} to 1e-6", abs(est50.value - exact) <= 1e-6)
    est400 = berg_christensen_estimate(mu, F=[(0,)], n_max=400)
    crit.check(f"n_max=400 value {est400.value:.6f} exceeds 0.995",
               est400.value > 0.995)
    crit.check("both estimates <= 1",
               est50.value <= 1 + 1e-10 and est400.value <= 1 + 1e-10)
    crit.finish()


def test_criterion_4_free_group_radial_oracle():
    crit = Criterion(4, "free-group norm via the radial oracle", 20)
    f2 = GroupDescriptor(kind="free", dimension=2)
    mu = GroupMeasure.simple_random_walk(f2)
    est = berg_christensen_estimate(mu, F=[()], n_max=200)
    crit.check("radial oracle path taken", est.method == "free-radial")
    crit.check(f"estimate {est.value:.6f} in [0.84, 0.87]",
               0.84 <= est.value <= 0.87)
    raws = [v for _, v in est.sequence]
    crit.check("sequence monotonically approaches sqrt(3)/2 from below",
               all(b >= a - 1e-12 for a, b in zip(raws, raws[1:]))
               and raws[-1] < math.sqrt(3) / 2)
    exhaustive_ok = True
    returns = _radial_return_sequence(2, 8)
    for n in range(0, 9):
        power = convolution_power(mu, n)
        if abs(returns[n] - mass_on_set(power, [()])) > 1e-12:
            exhaustive_ok = False
    crit.check("radial oracle matches word enumeration for all n <= 8",
               exhaustive_ok)
    crit.finish()


def test_criterion_5_net_counting_battery():
    crit = Criterion(5, "net packing/covering battery", 5)
    rng = np.random.default_rng(20250809)
    all_ok = True
    for i in range(100):
        dim = 1 + (i % 2)
        group = GroupDescriptor(kind="lattice", dimension=dim)
        a_rad = int(rng.integers(1, 3))
        b_rad = int(rng.integers(1, 3))
        n = int(rng.integers(1, 7 - 2 * (dim - 1)))
        a_set = [t for t in itertools.product(range(-a_rad, a_rad + 1),
                                              repeat=dim)]
        b_set = [t for t in itertools.product(range(-b_rad, b_rad + 1),
                                              repeat=dim)]
        span = power_set(group, b_set, n)
        inst = greedy_maximal_net(group, span, A=a_set)
        report = verify_net_bounds(inst)
        all_ok &= report.all_ok
    crit.check("100 seeded instances satisfy both inequalities exactly",
               all_ok)
    study_z = net_ratio_study(
        Z, A1=[(0,), (1,)], A2=[(0,), (-1,), (1,)], B=[(-1,), (0,), (1,)],
        n_range=range(3, 13),
    )
    crit.check("ratio study on the line stays within [c1, c2]",
               study_z.within_bounds)
    z2 = GroupDescriptor(kind="lattice", dimension=2)
    sq = [t for t in itertools.product((-1, 0, 1), repeat=2)]
    study_z2 = net_ratio_study(z2, A1=sq, A2=sq, B=sq, n_range=range(3, 8))
    crit.check("ratio study on the plane stays within [c1, c2]",
               study_z2.within_bounds)
    crit.finish()


def test_criterion_6_certificate_pipeline():
    crit = Criterion(6, "orbit-neighborhood certificate on the line flow", 30)
    q = 8
    grid = time_grid(q)
    mu = GroupMeasure.uniform_interval(grid, -1.0, 1.0)
    space = build_action("torus-translation", group=grid, N=1024,
                        step=(29, 41), slope_hint=SQRT2)
    report = run_certificate(space, mu, x0=0, n_max=20)
    crit.check("condition (1) holds at every n", report.cond1_all)
    crit.check("condition (2) holds at every n", report.cond2_all)
    late = [r for r in report.rows if r.n >= 10]
    worst = min(r.ratio_root for r in late)
    crit.check(f"ratio_n^(1/n) >= 0.98 for n >= 10 (worst {worst:.5f})",
               all(r.ratio_root >= 0.98 for r in late))
    crit.check(f"certified lower bound {report.norm_lower_bound:.5f} >= 0.95",
               report.norm_lower_bound >= 0.95)
    tol = 1e-3
    disc = discrepancy(space, mu)
    crit.check(f"bound never exceeds discrepancy {disc.value:.5f} + 2 tol",
               report.norm_lower_bound <= disc.value + 2 * tol)
    crit.finish()


def test_criterion_7_symmetrization_squares_discrepancy():
    crit = Criterion(7, "delta(mu * mu^) = delta(mu)^2 on random pairs", 120)
    rng = np.random.default_rng(77)
    worst = 0.0
    tol = 1e-7
    for trial in range(20):
        if trial % 2 == 0:
            n = int(rng.integers(16, 64))
            p = int(rng.integers(1, n))
            space = build_action("circle-rotation", group=Z, N=n,
                                cells_per_step=p)
        else:
            n = int(rng.integers(12, 40))
            perm = rng.permutation(n).tolist()
            space = build_action("finite-permutation", group=Z,
                                permutation=perm)
        supports = rng.choice(np.arange(-4, 5), size=3, replace=False)
        weights = rng.uniform(0.2, 1.0, size=3)
        mu = GroupMeasure.from_atoms(
            Z, [((int(s),), float(w)) for s, w in zip(supports, weights)]
        )
        d_mu = discrepancy(space, mu).value
        d_eta = discrepancy(space, symmetrize(mu)).value
        worst = max(worst, abs(d_eta - d_mu ** 2))
    crit.check(f"worst deviation {worst:.2e} within 3 tol (tol {tol})",
               worst <= 3 * tol)
    crit.finish()


def test_criterion_8_bernoulli_window_specialization():
    crit = Criterion(8, "discrete specialization on the window model", 30)
    space = build_action("bernoulli-window", group=Z, alphabet=2,
                        window_radius=3)
    mu = GroupMeasure.simple_random_walk(Z)
    report = verify_lower_bound(space, mu, tol=1e-6)
    crit.check("amenable oracle gives 1", report.regular_norm == 1.0)
    crit.check(f"discrepancy {report.delta:.9f} >= 1 - 1e-6",
               report.delta >= 1 - 1e-6)
    crit.check("lower bound verified", report.passed is True)
    crit.finish()
