import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from banachscale.errors import ConfigurationError, DomainError, InfeasibleHorizonError
from banachscale.kimura import AUTO_LAMBDA, KimuraProblem
from banachscale.scalecore import ScaleWindow, lambda0
from banachscale.solver import SolverOptions, picard_solve
from banachscale.stability import PerturbedFamily, kimura_h_family, lambda1, stability_experiment
from scalar import scalar_exact, scalar_family, scalar_problem

SCALAR_WIN = ScaleWindow(0.0, 0.5, 1.0, T=1.0)


def resolved_scalar_family(epsilons, mu=1.0, c=0.5, x0=1.0):
    fam = scalar_family(mu, c, x0, epsilons, SCALAR_WIN)
    win = SCALAR_WIN.with_lam(2.0 * lambda1(fam))
    return scalar_family(mu, c, x0, epsilons, win), win


class TestLambda1:
    def test_empty_family_rejected(self):
        fam = PerturbedFamily(scalar_problem(1.0, 0.5, 1.0, SCALAR_WIN), [], [], [])
        with pytest.raises(DomainError):
            lambda1(fam)

    def test_identical_instances(self):
        fam, _ = resolved_scalar_family([0.0, 0.0])
        limit_l0 = lambda0(fam.window, fam.limit.consts)
        assert lambda1(fam) == pytest.approx(limit_l0)

    def test_dominates_every_member(self, epistatic_problem):
        fam = kimura_h_family(epistatic_problem, [1, 3])
        l1 = lambda1(fam)
        for inst in (fam.limit, *fam.members):
            assert l1 >= lambda0(fam.window, inst.consts) - 1e-12

    def test_beta_mismatch_rejected(self):
        limit = scalar_problem(1.0, 0.5, 1.0, SCALAR_WIN)
        member = scalar_problem(1.0, 0.5, 1.1, SCALAR_WIN)
        member.consts = replace(member.consts, beta=0.1)
        with pytest.raises(DomainError, match="beta"):
            PerturbedFamily(limit, [member], ["x0=1.1"], [0.1])

    def test_window_mismatch_rejected(self):
        limit = scalar_problem(1.0, 0.5, 1.0, SCALAR_WIN)
        member = scalar_problem(1.0, 0.5, 1.1, SCALAR_WIN.with_lam(3.0))
        with pytest.raises(DomainError, match="window"):
            PerturbedFamily(limit, [member], ["x0=1.1"], [0.1])


class TestStabilityExperiment:
    def test_slope_must_clear_lambda1(self):
        fam, win = resolved_scalar_family([0.1])
        lam1 = lambda1(fam)
        bad = scalar_family(1.0, 0.5, 1.0, [0.1], win.with_lam(lam1 * 0.5))
        with pytest.raises(InfeasibleHorizonError) as exc:
            stability_experiment(bad, 1.0, 1e-3)
        assert str(exc.value) == f"lambda = {lam1 * 0.5} <= lambda1 = {lam1}"
        assert isinstance(exc.value, ConfigurationError)

    def test_bad_t_prime_rejected(self):
        fam, win = resolved_scalar_family([0.1])
        with pytest.raises(DomainError, match="^t_prime ") as exc:
            stability_experiment(fam, 1.0, 10.0)
        assert exc.value.field == "t_prime"

    def test_diagnostic_scale_checked_before_lambda1(self):
        # alpha, then t_prime, then the slope: each refusal names its argument
        fam, win = resolved_scalar_family([0.1])
        bad = scalar_family(1.0, 0.5, 1.0, [0.1], win.with_lam(0.5 * lambda1(fam)))
        for alpha, t_prime, field in ((0.4, 1e-3, "alpha"), (1.0, -1.0, "t_prime")):
            with pytest.raises(DomainError) as exc:
                stability_experiment(bad, alpha, t_prime)
            assert exc.value.field == field
        with pytest.raises(InfeasibleHorizonError):
            stability_experiment(bad, 1.0)

    def test_t_prime_defaults_to_half_the_horizon(self):
        fam, win = resolved_scalar_family([0.1])
        rep = stability_experiment(fam, 0.75, opts=SolverOptions(n_steps=10))
        assert rep.t_prime == 0.5 * ((0.75 - 0.5) / win.lam)

    def test_identical_family_sits_at_floor(self):
        fam, win = resolved_scalar_family([0.0, 0.0, 0.0])
        tp = 0.4 * (1.0 - 0.5) / win.lam
        rep = stability_experiment(fam, 1.0, tp, SolverOptions(n_steps=20))
        for s in rep.s_values:
            assert s <= rep.floor

    def test_datum_family_linear_response(self):
        eps = [1e-2, 3e-3, 1e-3, 3e-4]
        fam, win = resolved_scalar_family(eps)
        tp = 0.4 * 0.5 / win.lam
        rep = stability_experiment(fam, 1.0, tp, SolverOptions(n_steps=30))
        assert all(b < a for a, b in zip(rep.s_values, rep.s_values[1:]))
        assert rep.loglog_slope() == pytest.approx(1.0, abs=0.1)

    def test_scalar_solver_matches_closed_form(self):
        fam, win = resolved_scalar_family([0.0])
        tp = 0.4 * 0.5 / win.lam
        u, _ = picard_solve(fam.limit, SolverOptions(n_steps=30))
        for j, t in enumerate(u.t_grid):
            assert u.values[j, 0] == pytest.approx(scalar_exact(1.0, 0.5, 1.0, t), rel=1e-8)

    def test_monotone_majorant_in_alpha(self, epistatic_problem):
        fam = kimura_h_family(epistatic_problem, [1, 2])
        tp = 0.4 * (0.75 - 0.5) / fam.window.lam
        hi = stability_experiment(fam, 1.0, tp, SolverOptions(n_steps=20))
        lo = stability_experiment(fam, 0.75, tp, SolverOptions(n_steps=20))
        for s_hi, s_lo in zip(hi.s_values, lo.s_values):
            assert s_hi <= s_lo + 1e-15


class TestKimuraFamily:
    def test_auto_slope_clears_lambda1(self, epistatic_problem):
        assert epistatic_problem.model.window.lam is None
        fam = kimura_h_family(epistatic_problem, [1, 3])
        assert fam.window.lam == AUTO_LAMBDA * lambda1(fam)
        lam0 = lambda0(epistatic_problem.window, epistatic_problem.consts)
        assert fam.window.lam > AUTO_LAMBDA * lam0
        assert all(p.window == fam.window for p in fam.members)

    def test_fixed_slope_is_kept(self, epistatic_model, epistatic_k0):
        window = epistatic_model.window.with_lam(12345.0)
        problem = KimuraProblem.build(replace(epistatic_model, window=window), epistatic_k0)
        fam = kimura_h_family(problem, [1, 3])
        assert fam.window == window

    def test_perturbation_sizes_are_the_h_gaps(self, shipped_configs, tmp_path):
        # desk-epistatic has h = 1 at every site: member n perturbs h by 2^-n
        from banachscale.cli import main

        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(shipped_configs["desk-epistatic"]))
        assert main(["stability", "--config", str(config), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "stability.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["perturbation"]) for r in rows] == [2.0**-n for n in range(1, 6)]

    def test_loglog_slope_is_defined(self, epistatic_problem):
        fam = kimura_h_family(epistatic_problem, [1, 2, 3])
        assert fam.sizes == [2.0**-n for n in (1, 2, 3)]
        tp = 0.4 * (1.0 - 0.5) / fam.window.lam
        slope = stability_experiment(fam, 1.0, tp, SolverOptions(n_steps=20)).loglog_slope()
        # the deviations are linear in the perturbation of h
        assert slope == pytest.approx(1.0, abs=0.1)
