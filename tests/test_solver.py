import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachscale.errors import (
    AdmissibilityError,
    ConfigurationError,
    ContractionViolationError,
    DomainError,
    InfeasibleHorizonError,
)
from banachscale.scalecore import (
    OvcyannikovConstants,
    ScaleWindow,
    lambda0,
    weighted_gamma_norm,
)
from banachscale.solver import (
    MAX_GRID,
    EvolutionSystem,
    PerturbationMap,
    Problem,
    SolverOptions,
    apriori_check,
    check_grid,
    contraction_check,
    integral_map,
    make_grid,
    monitor_m,
    picard_solve,
    residual_check,
)
from scalar import ScalarEvolution, ScalarPerturbation, flat_norm


class IdentityEvolution(EvolutionSystem):
    def apply(self, t, s, v):
        return np.asarray(v, dtype=float).copy()

    def generator_apply(self, t, v):
        return np.zeros_like(v)


class ConstantPerturbation(PerturbationMap):
    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)

    def apply(self, v, t):
        return np.broadcast_to(self.c, np.shape(v)).copy()


class ApplyOnlyEvolution(EvolutionSystem):
    """Wrapper that hides ``grid_steps`` of ``inner``: only apply/generator_apply."""

    def __init__(self, inner):
        self.inner = inner

    def apply(self, t, s, v):
        return self.inner.apply(t, s, v)

    def generator_apply(self, t, v):
        return self.inner.generator_apply(t, v)


def stepwise_integral(u, U, B):
    """Reference: the running Simpson integral advanced one call at a time."""
    t = u.t_grid
    g_nodes = [B.apply(u.values[j], t[j]) for j in range(len(t))]
    acc = np.zeros_like(u.values[0])
    out = [acc]
    for j in range(len(t) - 1):
        dt = t[j + 1] - t[j]
        t_mid = t[j] + 0.5 * dt
        g_mid = B.apply(0.5 * (u.values[j] + u.values[j + 1]), t_mid)
        acc = U.apply(t[j + 1], t[j], acc) + (dt / 6.0) * (
            U.apply(t[j + 1], t[j], g_nodes[j])
            + 4.0 * U.apply(t[j + 1], t_mid, g_mid)
            + g_nodes[j + 1]
        )
        out.append(acc)
    return np.array(out)


def window(lam=None, r=math.inf):
    return ScaleWindow(0.0, 0.5, 1.0, lam=lam, r=r)


def consts(**kw):
    base = dict(c1=1.0, beta=0.0, c2=0.5, c3=0.5, cx=0.5, x_norm=1.0)
    base.update(kw)
    return OvcyannikovConstants(**base)


def problem(U, B, win, x=(1.0,), certificate=None):
    """Problem with the flat norm; the certificate defaults to :func:`consts`."""
    return Problem(np.asarray(x, dtype=float), U, B, flat_norm, win, certificate or consts())


def grid(win, dim, n_steps):
    """Empty flat-norm grid of ``n_steps`` time steps and the default options."""
    return make_grid(win, flat_norm, dim, SolverOptions(n_steps=n_steps))


class TestIntegralMap:
    def test_zero_perturbation(self):
        win = window(lam=1.0)
        u = grid(win, 2, 10)
        u.values[:] = 0.3
        B = ScalarPerturbation(0.0)
        out = integral_map(u, problem(IdentityEvolution(), B, win, np.zeros(2)))
        assert np.all(out.values == 0.0)

    def test_starts_at_zero(self):
        win = window(lam=1.0)
        u = grid(win, 2, 10)
        B = ConstantPerturbation([1.0, -2.0])
        out = integral_map(u, problem(IdentityEvolution(), B, win, np.zeros(2)))
        assert np.all(out.values[0] == 0.0)

    def test_constant_integrand_exact(self):
        # identity propagator, constant B: T(u)(t) = t*c
        win = window(lam=1.0)
        u = grid(win, 2, 20)
        c = np.array([1.0, -2.0])
        out = integral_map(u, problem(IdentityEvolution(), ConstantPerturbation(c), win, np.zeros(2)))
        for j, t in enumerate(u.t_grid):
            assert out.values[j] == pytest.approx(t * c, abs=1e-10)

    def test_batched_increments_bit_identical_to_stepwise(self):
        win = window(lam=1.0)
        u = grid(win, 3, 17)
        u.values[:] = np.sin(np.outer(np.arange(18), [1.0, 2.0, 3.0]))
        U, B = ScalarEvolution(1.7), ScalarPerturbation(-0.3)
        out = integral_map(u, problem(U, B, win, np.zeros(3)))
        assert np.array_equal(out.values, stepwise_integral(u, U, B))

    def test_radius_violation_names_node(self):
        win = window(lam=1.0, r=0.1)
        u = grid(win, 1, 5)
        u.values[:] = 5.0
        B = ScalarPerturbation(0.0)
        with pytest.raises(AdmissibilityError, match="alpha"):
            integral_map(u, problem(IdentityEvolution(), B, win, np.zeros(1)))


class TestPicardSolve:
    def test_zero_perturbation_one_step(self):
        win = window(lam=40.0)
        x = np.array([2.0])
        u, rep = picard_solve(
            problem(ScalarEvolution(1.0), ScalarPerturbation(0.0), win, x),
            SolverOptions(n_steps=20),
        )
        assert rep.increments[0] == 0.0
        assert rep.converged
        for j, t in enumerate(u.t_grid):
            assert u.values[j, 0] == pytest.approx(2.0 * math.exp(-t), rel=1e-9)

    def test_zero_data_zero_solution(self):
        win = window(lam=40.0)
        u, rep = picard_solve(
            problem(ScalarEvolution(1.0), ScalarPerturbation(0.5), win, np.zeros(1), consts(x_norm=0.0)),
            SolverOptions(n_steps=10),
        )
        assert np.all(u.values == 0.0)

    def test_infeasible_slope_rejected(self):
        win = window(lam=0.5)
        lam0 = lambda0(win, consts())
        with pytest.raises(InfeasibleHorizonError) as exc:
            picard_solve(problem(ScalarEvolution(1.0), ScalarPerturbation(0.1), win))
        assert str(exc.value) == f"lambda = 0.5 <= lambda0 = {lam0}"
        assert isinstance(exc.value, ConfigurationError)

    def test_inconsistent_certificate_detected(self):
        # B has Lipschitz slope 30 but the certificate declares c2 = 1e-3;
        # the dishonestly small lambda0 admits a slope whose measured ratio
        # must then exceed lambda0/lam.
        win = window(lam=2.1)
        fake = consts(c2=1e-3, c3=1e-3, cx=0.0, x_norm=1.0)
        assert lambda0(win, fake) < 2.1
        with pytest.raises(ContractionViolationError):
            picard_solve(
                problem(IdentityEvolution(), ScalarPerturbation(30.0), win, certificate=fake),
                SolverOptions(n_steps=40),
            )

    def test_exact_solution_linear_problem(self):
        # u' = -u + 0.5 u, closed form x e^{-t/2}
        win = window(lam=40.0)
        u, rep = picard_solve(
            problem(ScalarEvolution(1.0), ScalarPerturbation(0.5), win), SolverOptions(n_steps=50)
        )
        for j, t in enumerate(u.t_grid):
            assert u.values[j, 0] == pytest.approx(math.exp(-0.5 * t), rel=1e-8)

    def test_uniqueness_surrogate(self):
        # second run starts from the constant-in-time iterate u^(0) = x
        win = window(lam=40.0)
        x = np.array([1.0])
        opts = SolverOptions(tol=1e-12, n_steps=30)
        p = problem(ScalarEvolution(1.0), ScalarPerturbation(0.5), win, x)
        u1, r1 = picard_solve(p, opts)
        u2, r2 = picard_solve(p, opts, u_init=x)
        d = weighted_gamma_norm(u1.with_values(u1.values - u2.values))
        assert d <= 2.0 * opts.tol / (1.0 - r1.rho)

    def test_geometric_decrease(self):
        win = window(lam=40.0)
        u, rep = picard_solve(
            problem(ScalarEvolution(1.0), ScalarPerturbation(0.5), win), SolverOptions(n_steps=30)
        )
        for ratio in rep.ratios:
            if rep.increments[rep.ratios.index(ratio)] > 1e-10:
                assert ratio <= rep.rho + 1e-9 + rep.quadrature_error_estimate


class TestSolverOptions:
    @pytest.mark.parametrize("field, value", [
        ("theta", 0.0), ("theta", 1.0), ("theta", 1.5),
        ("tol", 0.0), ("tol", math.nan), ("tol", math.inf),
        ("k_max", 0), ("n_steps", 0), ("n_alpha", 0),
    ])
    def test_out_of_range_refused_naming_the_field(self, field, value):
        with pytest.raises(DomainError, match=f"^{field} ") as exc:
            SolverOptions(**{field: value})
        assert exc.value.field == field


    @pytest.mark.parametrize("n_steps, n_alpha, dim, at_fault", [
        (2**12 - 1, 8, 2**12, None), (2**12, 8, 2**12, "n_steps"),
        (2**12 - 1, 2**12 - 1, 3, None), (2**12 - 1, 2**12, 3, "n_alpha"),
        (10**400, 8, 15, "n_steps"), (100, 10**400, 15, "n_alpha"),
    ], ids=lambda v: "10**400" if v == 10**400 else None)
    def test_grid_size_limit_names_the_field(self, n_steps, n_alpha, dim, at_fault):
        # (n_steps + 1) * dim values and (n_steps + 1) * (n_alpha + 1) weights
        assert MAX_GRID == 2**24
        opts = SolverOptions(n_steps=n_steps, n_alpha=n_alpha)
        if at_fault is None:
            check_grid(opts, dim)
            return
        with pytest.raises(DomainError, match=f"more than {MAX_GRID} entries") as exc:
            check_grid(opts, dim)
        assert exc.value.field == at_fault


class TestGridStepsInPicard:
    def test_kimura_fast_path_matches_apply_only_run(self, epistatic_problem):
        p = epistatic_problem
        opts = SolverOptions(n_steps=30)
        u_fast, r_fast = picard_solve(p, opts)
        u_ref, r_ref = picard_solve(replace(p, evolution=ApplyOnlyEvolution(p.evolution)), opts)
        assert r_fast.iterations == r_ref.iterations
        for a, b in zip(r_fast.increments, r_ref.increments):
            assert abs(a - b) <= 1e-12 * abs(b)
        assert np.max(np.abs(u_fast.values[:, 0] - 1.0)) <= 1e-15


class TestContractionCheck:
    def test_equal_iterates_undefined(self):
        win = window(lam=40.0)
        u = grid(win, 1, 10)
        u.values[:] = 1.0
        rep = contraction_check(
            u, u.with_values(u.values.copy()),
            problem(IdentityEvolution(), ScalarPerturbation(0.5), win),
        )
        assert not rep.defined
        assert rep.measured is None
        assert not rep.violated

    def test_linear_map_within_bound(self):
        win = window(lam=40.0)
        u = grid(win, 1, 20)
        v = grid(win, 1, 20)
        u.values[:] = 1.0
        v.values[:, 0] = 1.0 + 0.01 * np.sin(np.arange(21))
        rep = contraction_check(u, v, problem(IdentityEvolution(), ScalarPerturbation(0.5), win))
        assert rep.defined
        assert not rep.violated
        assert rep.measured <= rep.bound + rep.slack


class TestResidualCheck:
    def test_constant_solution_zero_residual(self):
        win = window(lam=1.0)
        u = grid(win, 1, 10)
        u.values[:] = 2.0
        res = residual_check(u, problem(IdentityEvolution(), ScalarPerturbation(0.0), win))
        assert res <= 1e-14

    def test_exact_exponential_residual_is_taylor_remainder(self):
        # u = e^{-t}, A = -1, B = 0: residual <= dt^2 ||u|| / 6 + eps
        win = window(lam=1.0)
        u = grid(win, 1, 40)
        u.values[:, 0] = np.exp(-u.t_grid)
        res = residual_check(u, problem(ScalarEvolution(1.0), ScalarPerturbation(0.0), win))
        assert res <= u.dt**2 / 6.0 + 1e-12

    def test_too_few_nodes_rejected(self):
        win = window(lam=1.0)
        u = grid(win, 1, 1)
        with pytest.raises(DomainError):
            residual_check(u, problem(IdentityEvolution(), ScalarPerturbation(0.0), win))


def pernode_sup(u, rows, window):
    """Reference: the node-by-node weighted maximum, one norm call per node."""
    lam = window.require_lam()
    best = 0.0
    for i, alpha in enumerate(u.alpha_grid):
        for j, t in enumerate(u.t_grid):
            if not u.mask[j, i]:
                continue
            w = (alpha - window.alpha0 - lam * t) ** window.gamma
            best = max(best, w * u.norm(rows[j], alpha))
    return best


class TestTriangleKernel:
    """Every sup over the triangle against the per-node loop, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 30),
        st.integers(1, 10),
        st.floats(0.05, 0.95),
        st.floats(0.1, 50.0),
        st.floats(0.05, 0.95),
        st.floats(0.5, 0.99),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_pernode_loop(
        self, epistatic_problem, n_steps, n_alpha, alpha0, lam, gamma, theta, seed
    ):
        p = epistatic_problem
        win = ScaleWindow(0.0, alpha0, 1.0, gamma=gamma, lam=lam)
        x = p.k0.to_vector()
        opts = SolverOptions(n_steps=n_steps, n_alpha=n_alpha, theta=theta)
        u = make_grid(win, p.norm, len(x), opts)
        u.values[:] = x + np.random.default_rng(seed).uniform(-0.5, 0.5, u.values.shape)
        B = p.perturbation
        assert weighted_gamma_norm(u) == pernode_sup(u, u.values, win)

        def reference_m(n_tau):
            taus = np.linspace(0.0, (win.alpha_top - win.alpha0) / lam, n_tau)
            return max(
                pernode_sup(u, B.apply(u.values, tau), win)
                for tau in taus
            )

        assert monitor_m(u, B) == reference_m(3)
        rep = apriori_check(u, replace(p, window=win), n_tau=5)
        assert rep.worst_lhs == reference_m(5)
        assert rep.worst_margin == rep.rhs - rep.worst_lhs
        assert rep.samples == 5 * int(u.mask.sum())
