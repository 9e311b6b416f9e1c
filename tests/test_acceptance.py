"""Acceptance gate: the eleven quantitative predictions the solver must meet.

Each test prints one PASS/FAIL line; the shipped desk configurations in
configs/ are the fixtures under test.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from banachscale.cli import parse_initial, parse_model, parse_solver_opts, parse_window
from banachscale.kimura import AUTO_LAMBDA, KimuraProblem
from banachscale.oracles import (
    bound_verifier,
    bruteforce_oracle,
    evolution_law_check,
    poisson_oracle,
    validate_poisson_closure,
)
from banachscale.scalecore import lambda0, weighted_gamma_norm
from banachscale.solver import SolverOptions, apriori_check, picard_solve, residual_check
from banachscale.stability import kimura_h_family, lambda1, stability_experiment
from scalar import scalar_family

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIG_NAMES = ("desk-epistatic", "desk-free", "desk-smooth")


def report(criterion, ok, detail):
    line = f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


class SolvedConfig:
    """One shipped config, certified by KimuraProblem.build and solved at its
    resolved slope ("lambda": "auto", so AUTO_LAMBDA * lambda0)."""

    def __init__(self, name):
        cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        self.name = name
        window = parse_window(cfg)
        self.model = parse_model(cfg, window)
        self.k0 = parse_initial(cfg, self.model)
        self.opts = parse_solver_opts(cfg)
        self.problem = KimuraProblem.build(self.model, self.k0)
        self.consts = self.problem.consts
        self.window = self.problem.window
        self.u, self.rep = picard_solve(self.problem, self.opts)


@pytest.fixture(scope="module")
def solved():
    return {name: SolvedConfig(name) for name in CONFIG_NAMES}


def test_criterion_1_contraction_certificate(solved):
    worst = 0.0
    for sc in solved.values():
        for ratio in sc.rep.ratios:
            worst = max(worst, ratio - sc.rep.rho)
        assert all(r <= sc.rep.rho + 1e-9 for r in sc.rep.ratios), sc.name
    report(1, True, f"all increment ratios <= lambda0/lambda + 1e-9 "
                    f"(worst excess {worst:.3e}) on {len(solved)} configs")


def test_criterion_2_geometric_convergence(solved):
    ok = True
    for sc in solved.values():
        d0 = sc.rep.increments[0]
        for k, d in enumerate(sc.rep.increments):
            if d <= 1e-10:
                break
            ok = ok and d <= sc.rep.rho**k * d0 * (1.0 + 1e-6)
    report(2, ok, "d_k <= (lambda0/lambda)^k d_0 (1 + 1e-6) down to the 1e-10 floor")


def test_criterion_3_apriori_estimate(solved):
    margins = {}
    for sc in solved.values():
        ap = apriori_check(sc.u, sc.problem)
        margins[sc.name] = ap.worst_margin
    ok = all(m >= 0.0 for m in margins.values())
    report(3, ok, "a-priori margins nonnegative at every sampled (t, tau, alpha): "
                  + ", ".join(f"{k}={v:.3f}" for k, v in margins.items()))


def test_criterion_4_poisson_oracle_match(solved):
    sc = solved["desk-free"]
    rho0 = np.array([sc.k0.value((i,)) for i in range(sc.model.m)])
    gate = validate_poisson_closure(sc.model, rho0, float(sc.u.t_grid[-1]), steps=100)
    assert gate <= 1e-8
    worst = 0.0
    alpha = sc.window.alpha_star
    for j, k in enumerate(poisson_oracle(sc.model, rho0, sc.u.t_grid)):
        ref = k.to_vector()
        dev = sc.model.hierarchy_norm(sc.u.values[j] - ref, alpha)
        worst = max(worst, dev / sc.model.hierarchy_norm(ref, alpha))
    ok = worst <= 1e-6
    report(4, ok, f"psi=0 solve matches validated product oracle: "
                  f"gate {gate:.2e} <= 1e-8, worst relative {worst:.2e} <= 1e-6")


def test_criterion_5_bruteforce_equivalence(solved):
    results = {}
    for name in ("desk-epistatic", "desk-smooth"):
        sc = solved[name]
        t_end = float(sc.u.t_grid[-1])
        _, refs = bruteforce_oracle(sc.model, sc.k0, t_end, len(sc.u.t_grid) - 1)
        cut = 0.9 * sc.window.horizon()
        worst = 0.0
        for j, t in enumerate(sc.u.t_grid):
            if t > cut:
                break
            ref = refs[j].to_vector()
            dev = sc.model.hierarchy_norm(sc.u.values[j] - ref, sc.window.alpha_top)
            worst = max(worst, dev / sc.model.hierarchy_norm(ref, sc.window.alpha_top))
        results[name] = worst
    ok = all(w <= 1e-6 for w in results.values())
    report(5, ok, "psi!=0 solve matches direct integrator on [0, 0.9 horizon]: "
                  + ", ".join(f"{k}={v:.2e}" for k, v in results.items()))


def test_criterion_6_normalization(solved):
    drifts = {
        name: float(np.max(np.abs(sc.u.values[:, 0] - 1.0)))
        for name, sc in solved.items()
    }
    ok = all(d <= 1e-12 for d in drifts.values())
    report(6, ok, "k_t(empty) = 1 within 1e-12 at every output time: "
                  + ", ".join(f"{k}={v:.2e}" for k, v in drifts.items()))


def test_criterion_7_evolution_system_laws(solved):
    sc = solved["desk-epistatic"]
    law = evolution_law_check(sc.model, sc.consts, 100, 42)
    ok = law.identity_exact and law.cocycle_worst <= 1e-8 and law.bounds.clean
    report(7, ok, f"identity exact, cocycle deviation {law.cocycle_worst:.2e} <= 1e-8, "
                  f"A2 and growth bound violations {len(law.bounds.violations)}/100")


def test_criterion_8_bound_verifier(solved):
    sc = solved["desk-epistatic"]
    rep1 = bound_verifier(sc.model, sc.k0, 100, 42)
    rep2 = bound_verifier(sc.model, sc.k0, 100, 42)
    deterministic = rep1.worst == rep2.worst and rep1.violations == rep2.violations
    ok = rep1.clean and deterministic
    worst = max(rep1.worst.values())
    report(8, ok, f"operator-bound verifier: 100 seeded samples per inequality, "
                  f"zero violations, deterministic rerun, worst ratio {worst:.3f}")


def test_criterion_9_residual_order(solved):
    # long-horizon protocol: lambda = 1.1 lambda0 so the discretization term
    # dominates the round-off floor of the central difference
    sc = solved["desk-smooth"]
    problem = replace(sc.problem, window=sc.window.with_lam(1.1 * lambda0(sc.window, sc.consts)))
    residuals = {}
    for n in (8, 16):
        u, _ = picard_solve(problem, SolverOptions(n_steps=n))
        residuals[n] = residual_check(u, problem)
    ratio = residuals[8] / residuals[16]
    ok = 3.5 <= ratio <= 4.5
    report(9, ok, f"residual halving ratio {ratio:.3f} in [3.5, 4.5] "
                  f"(residuals {residuals[8]:.2e} -> {residuals[16]:.2e})")


def test_criterion_10_stability(solved):
    # Kimura family h_n = h (1 + 2^-n): strict decrease for n = 1..5 and
    # floor attainment via an additional far member (n = 40)
    sc = solved["desk-epistatic"]
    fam = kimura_h_family(sc.problem, [1, 2, 3, 4, 5, 40])
    alpha = fam.window.alpha_top
    tp = 0.4 * (alpha - fam.window.alpha0) / fam.window.lam
    opts = SolverOptions(n_steps=30)
    rep = stability_experiment(fam, alpha, tp, opts)
    s = rep.s_values
    decreasing = all(b < a for a, b in zip(s[:5], s[1:5]))
    at_floor = s[5] <= rep.floor
    kimura_ok = decreasing and at_floor

    # scalar closed-form problem: log-log slope of s_n vs perturbation size
    eps = [1e-2, 3e-3, 1e-3, 3e-4, 1e-4]
    win0 = solved["desk-free"].window  # alpha geometry only; slope re-resolved
    fam_s0 = scalar_family(1.0, 0.5, 1.0, eps, win0.with_lam(1.0))
    lam_s = AUTO_LAMBDA * lambda1(fam_s0)
    win_s = win0.with_lam(lam_s)
    fam_s = scalar_family(1.0, 0.5, 1.0, eps, win_s)
    tp_s = 0.4 * (win_s.alpha_top - win_s.alpha0) / lam_s
    slope = stability_experiment(fam_s, win_s.alpha_top, tp_s, opts).loglog_slope()
    slope_ok = abs(slope - 1.0) <= 0.1

    ok = kimura_ok and slope_ok
    report(10, ok, f"h(1+2^-n) family strictly decreasing n=1..5 "
                   f"({', '.join(f'{v:.2e}' for v in s[:5])}), far member at floor "
                   f"({s[5]:.2e} <= {rep.floor:.2e}); scalar log-log slope {slope:.4f}")


def test_criterion_11_uniqueness_surrogate(solved):
    sc = solved["desk-epistatic"]
    tol = sc.opts.tol
    u_alt, rep_alt = picard_solve(sc.problem, sc.opts, u_init=sc.k0.to_vector())
    d = weighted_gamma_norm(sc.u.with_values(sc.u.values - u_alt.values))
    bound = 2.0 * tol / (1.0 - sc.rep.rho)
    ok = d <= bound
    report(11, ok, f"fixed points from two admissible starting iterates differ by "
                   f"{d:.2e} <= 2 tol/(1-rho) = {bound:.2e}")
