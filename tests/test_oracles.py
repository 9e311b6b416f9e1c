import math

import numpy as np
import pytest

from banachscale.errors import DomainError, OracleDomainError
from banachscale.kimura import (
    CorrelationHierarchy,
    DiscreteSpace,
    KimuraModel,
    RateData,
    apply_ldelta,
)
from banachscale.oracles import (
    MAX_SAMPLE_ENTRIES,
    BoundReport,
    bound_verifier,
    bruteforce_oracle,
    evolution_law_check,
    poisson_oracle,
    validate_poisson_closure,
)
from banachscale.scalecore import ScaleWindow

WIN = ScaleWindow(0.0, 0.5, 1.0, r=1.0, T=1.0)


class TestPoissonOracle:
    def test_requires_psi_zero(self, epistatic_model):
        with pytest.raises(OracleDomainError):
            poisson_oracle(epistatic_model, np.full(4, 0.5), 0.1)

    def test_negative_density_rejected(self, free_model):
        with pytest.raises(OracleDomainError):
            poisson_oracle(free_model, np.array([0.5, -0.1, 0.5]), 0.1)

    def test_frozen_rates_constant(self, dead_model):
        rho0 = np.array([0.2, 0.5, 0.8])
        out = poisson_oracle(dead_model, rho0, 0.7)
        ref = CorrelationHierarchy.poisson(3, 3, rho0)
        for a, b in zip(out.levels, ref.levels):
            assert np.allclose(a, b, atol=1e-12)

    def test_pure_decay_logistic_closed_form(self):
        # a = 0: rho' = -h rho + w h rho^2 solves to the logistic form
        # rho_t = rho0 e^{-ht} / (1 - w rho0 (1 - e^{-ht}))
        h, w, rho0, t = 0.8, 0.25, 0.6, 1.3
        model = KimuraModel(
            DiscreteSpace(("x0", "x1", "x2"), np.full(3, w)),
            RateData.constant(3, h, 0.0, 0.0),
            3,
            WIN,
        )
        out = poisson_oracle(model, np.full(3, rho0), t)
        decay = math.exp(-h * t)
        expected = rho0 * decay / (1.0 - w * rho0 * (1.0 - decay))
        assert out.value((0,)) == pytest.approx(expected, rel=1e-10)

    def test_product_ansatz_satisfies_generator(self, free_model):
        # d/dt of the product hierarchy equals L applied to it, levelwise,
        # with the corrected per-site density equation
        rho = np.array([0.3, 0.6, 0.9])
        w = free_model.space.weights
        h = free_model.rates.h(0.0)
        a = free_model.rates.a(0.0)
        k = CorrelationHierarchy.poisson(3, 3, rho)
        lhs = apply_ldelta(free_model, 0.0, k)
        rho_dot = a - h * rho + w * h * rho**2
        from banachscale.kimura import level_configs

        for n in range(4):
            for idx, eta in enumerate(level_configs(3, n)):
                expected = sum(
                    rho_dot[i] * np.prod([rho[j] for j in eta if j != i]) for i in eta
                )
                assert lhs.levels[n][idx] == pytest.approx(expected, abs=1e-13)


class TestBruteforceOracle:
    def test_steps_floor(self, free_model, free_k0):
        with pytest.raises(DomainError):
            bruteforce_oracle(free_model, free_k0, 0.1, 0)

    def test_dead_model_constant(self, dead_model):
        k0 = CorrelationHierarchy.poisson(3, 3, np.full(3, 0.5))
        _, traj = bruteforce_oracle(dead_model, k0, 0.5, 10)
        for k in traj:
            for a, b in zip(k.levels, k0.levels):
                assert np.array_equal(a, b)

    def test_level0_exact(self, epistatic_model, epistatic_k0):
        _, traj = bruteforce_oracle(epistatic_model, epistatic_k0, 0.05, 50)
        for k in traj:
            assert k.levels[0][0] == 1.0

    def test_fourth_order_decay(self, epistatic_model, epistatic_k0):
        from banachscale.oracles import _rk4_ldelta

        t_end = 0.5
        ref = _rk4_ldelta(epistatic_model, epistatic_k0, t_end, 512)[-1].to_vector()
        errs = []
        for steps in (8, 16, 32):
            approx = _rk4_ldelta(epistatic_model, epistatic_k0, t_end, steps)[-1].to_vector()
            errs.append(np.max(np.abs(approx - ref)))
        for e0, e1 in zip(errs, errs[1:]):
            assert 10.0 <= e0 / e1 <= 22.0

    def test_stiffness_warning(self):
        model = KimuraModel(
            DiscreteSpace.uniform(3), RateData.constant(3, 4.0, 0.5, 1.0), 3, WIN
        )
        k0 = CorrelationHierarchy.poisson(3, 3, np.full(3, 0.5))
        with pytest.warns(RuntimeWarning, match="step-halving"):
            bruteforce_oracle(model, k0, 1.0, 4)


class TestClosureValidation:
    def test_gate_passes_on_free_model(self, free_model):
        worst = validate_poisson_closure(free_model, np.full(3, 0.5), 0.5, steps=100)
        assert worst <= 1e-8

    def test_gate_requires_vacuous_truncation(self):
        model = KimuraModel(
            DiscreteSpace.uniform(4), RateData.constant(4, 0.5, 0.0, 0.2), 3, WIN
        )
        with pytest.raises(OracleDomainError, match="n_max"):
            validate_poisson_closure(model, np.full(4, 0.5), 0.2)

    def test_gate_requires_psi_zero(self, epistatic_model):
        with pytest.raises(OracleDomainError):
            validate_poisson_closure(epistatic_model, np.full(4, 0.5), 0.2)


class TestBoundVerifier:
    def test_sample_floor(self, epistatic_model, epistatic_k0):
        with pytest.raises(DomainError):
            bound_verifier(epistatic_model, epistatic_k0, 0, 42)

    def test_clean_on_desk_model(self, epistatic_model, epistatic_k0, epistatic_problem):
        # bound_verifier checks the operators and B; evolution_law_check checks U
        rep = bound_verifier(epistatic_model, epistatic_k0, 100, 42)
        law = evolution_law_check(epistatic_model, epistatic_problem.consts, 100, 42)
        assert rep.clean and law.bounds.clean
        assert set(rep.worst) == {"A0", "A1", "Bdelta", "B2", "B3"}
        assert set(law.bounds.worst) == {"A2", "growth"}
        assert all(0.0 <= v <= 1.0 for v in {**rep.worst, **law.bounds.worst}.values())

    def test_worst_ratios_are_python_floats(self, epistatic_model, epistatic_k0, epistatic_problem):
        rep = bound_verifier(epistatic_model, epistatic_k0, 20, 42)
        law = evolution_law_check(epistatic_model, epistatic_problem.consts, 20, 42)
        worst = {**rep.worst, **law.bounds.worst}
        assert len(worst) == 7
        assert all(type(v) is float for v in worst.values()), worst

    def test_deterministic_under_seed(self, epistatic_model, epistatic_k0):
        r1 = bound_verifier(epistatic_model, epistatic_k0, 40, 7)
        r2 = bound_verifier(epistatic_model, epistatic_k0, 40, 7)
        assert r1.worst == r2.worst
        assert r1.violations == r2.violations

    def test_dead_model_all_ratios_zero(self, dead_model):
        k0 = CorrelationHierarchy.poisson(3, 3, np.full(3, 0.5))
        rep = bound_verifier(dead_model, k0, 20, 42)
        for name in ("A0", "A1", "Bdelta", "B3"):
            assert rep.worst.get(name, 0.0) == 0.0

    def test_corrupted_certificate_trips_b2(self, epistatic_model, epistatic_k0, epistatic_problem):
        from dataclasses import replace

        bad = replace(epistatic_problem.consts, c2=epistatic_problem.consts.c2 / 1000.0)
        rep = bound_verifier(epistatic_model, epistatic_k0, 100, 42, consts=bad)
        names = {name for name, _, _ in rep.violations}
        assert "B2" in names

    def test_corrupted_certificate_trips_a2(self, epistatic_model, epistatic_problem):
        from dataclasses import replace

        bad = replace(epistatic_problem.consts, c1=epistatic_problem.consts.c1 / 1000.0)
        law = evolution_law_check(epistatic_model, bad, 100, 42)
        assert "A2" in {name for name, _, _ in law.bounds.violations}
        assert "A2" in law.failed and law.growth_violations == 0


class TestBoundReport:
    @pytest.mark.parametrize("observed, bound", [(math.nan, 1.0), (0.5, math.nan)])
    def test_nan_ratio_is_a_violation_and_the_worst(self, observed, bound):
        rep = BoundReport(seed=0, samples=3, dim=1)
        rep.record("A1", 0, 0.5, 1.0)
        rep.record("A1", 1, observed, bound)
        rep.record("A1", 2, 0.9, 1.0)
        assert math.isnan(rep.worst["A1"])
        assert rep.failed == ["A1"] and rep.violations[0][1] == 1
        assert not rep.clean

    def test_sample_limit_names_the_field(self, epistatic_model, epistatic_k0):
        dim = epistatic_model.dim
        top = MAX_SAMPLE_ENTRIES // dim
        BoundReport(seed=0, samples=top, dim=dim)
        for samples in (0, top + 1, 10**400):
            with pytest.raises(DomainError, match="samples") as err:
                BoundReport(seed=0, samples=samples, dim=dim)
            assert err.value.field == "samples" and len(str(err.value)) < 200
        # both verifiers refuse before they draw a sample
        with pytest.raises(DomainError, match="draw more than"):
            bound_verifier(epistatic_model, epistatic_k0, 10**12, 0)
        with pytest.raises(DomainError, match="draw more than"):
            evolution_law_check(epistatic_model, None, 10**12, 0)


class TestEvolutionLaws:
    def test_laws_hold(self, epistatic_model, epistatic_problem):
        rep = evolution_law_check(epistatic_model, epistatic_problem.consts, 50, 42)
        assert rep.identity_exact
        assert rep.cocycle_worst <= 1e-8
        assert rep.growth_violations == 0
        assert rep.failed == []
