import gc
import json
import math
import tracemalloc
from dataclasses import astuple
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from banachscale import cli, kimura
from banachscale.errors import DomainError, ModelValidationError
from banachscale.kimura import (
    CorrelationHierarchy,
    DiscreteSpace,
    KimuraEvolution,
    KimuraModel,
    KimuraPerturbation,
    KimuraProblem,
    RateData,
    TimeProfile,
    apply_A0,
    apply_A1,
    apply_ldelta,
    bdelta,
    evolution_u,
    expm_increment,
    kappa,
    kappa_integral,
    level_configs,
    model_constants,
    selection_cost,
)
from banachscale.oracles import bound_verifier, evolution_law_check
from banachscale.scalecore import ScaleWindow
from banachscale.solver import SolverOptions, make_grid, picard_solve, residual_check
from scalar import flat_norm

WIN = ScaleWindow(0.0, 0.5, 1.0, r=1.0, T=1.0)


def solve(model, k0, n_steps):
    return picard_solve(KimuraProblem.build(model, k0), SolverOptions(n_steps=n_steps))


def single_site_model(h=1.0, a=0.0, w=1.0):
    space = DiscreteSpace(("x0",), np.array([w]))
    rates = RateData(np.array([h]), np.array([[0.0]]), np.array([a]))
    return KimuraModel(space, rates, 2, WIN)


def pair_model(h=0.0, psi=0.5, a=0.0, w=1.0):
    space = DiscreteSpace(("x0", "x1"), np.array([w, w]))
    rates = RateData(np.full(2, h), np.full((2, 2), psi), np.full(2, a))
    return KimuraModel(space, rates, 2, WIN)


profiles = st.one_of(
    st.just(TimeProfile()),
    st.builds(TimeProfile, st.just("exp_decay"), rate=st.floats(0.0, 5.0)),
    st.builds(
        TimeProfile, st.just("sinusoidal"), amp=st.floats(0.0, 1.0), freq=st.floats(-60.0, 60.0)
    ),
)


@st.composite
def rate_models(draw):
    """Random weights, base rates, profiles and horizon on 1-5 sites, n_max 2-4."""
    m = draw(st.integers(1, 5))
    n_max = draw(st.integers(2, 4))

    def array(lo, n):
        values = st.floats(lo, 2.0, allow_subnormal=False)
        return np.array(draw(st.lists(values, min_size=n, max_size=n)))

    weights, h, a = array(0.05, m), array(0.0, m), array(0.0, m)
    psi = np.zeros((m, m))
    psi[np.triu_indices(m, 1)] = array(0.0, m * (m - 1) // 2)
    rates = RateData(h, psi + psi.T, a, draw(profiles), draw(profiles), draw(profiles))
    window = ScaleWindow(0.0, 0.5, 1.0, r=1.0, T=draw(st.floats(0.1, 2.0)))
    space = DiscreteSpace(tuple(f"x{i}" for i in range(m)), weights)
    return KimuraModel(space, rates, n_max, window)


class TestStructures:
    def test_space_validation(self):
        with pytest.raises(ModelValidationError) as exc:
            DiscreteSpace(("a",), np.array([0.0]))
        assert exc.value.field == "weights"
        # a condition on two arguments names no field
        with pytest.raises(ModelValidationError) as exc:
            DiscreteSpace(("a", "b"), np.array([1.0]))
        assert exc.value.field is None

    def test_rate_symmetry_enforced(self):
        psi = np.array([[0.0, 0.3], [0.4, 0.0]])
        with pytest.raises(ModelValidationError) as exc:
            RateData(np.zeros(2), psi, np.zeros(2))
        assert exc.value.field == "psi"

    def test_negative_rates_rejected(self):
        with pytest.raises(ModelValidationError) as exc:
            RateData(np.array([-0.1]), np.zeros((1, 1)), np.zeros(1))
        assert exc.value.field == "h"

    def test_psi_diagonal_validated_then_zeroed(self):
        psi = np.array([[0.7, 0.3], [0.3, 0.2]])
        rates = RateData(np.zeros(2), psi, np.zeros(2))
        assert np.array_equal(rates.psi_base, [[0.0, 0.3], [0.3, 0.0]])
        assert psi[0, 0] == 0.7
        for bad in (-0.1, math.inf, math.nan):
            with pytest.raises(ModelValidationError, match="rate psi"):
                RateData(np.zeros(2), np.array([[bad, 0.3], [0.3, 0.0]]), np.zeros(2))

    def test_n_max_floor(self):
        for n_max in (1, -1):
            with pytest.raises(ModelValidationError) as exc:
                KimuraModel(DiscreteSpace.uniform(2), RateData.constant(2, 0, 0, 0), n_max, WIN)
            assert exc.value.field == "n_max"

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_sum_guard_refuses_what_would_overflow(self, data):
        # assembly and aggregates, run on a model the guard refuses, overflow;
        # on one it accepts, they form finite doubles only
        m, n_max = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 4))
        sizes = st.sampled_from([0.0, 1e-300, 1.0, 1e100, 1e154, 1e200, 1e300, 1e308])

        def array(n, values=sizes):
            return np.array(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=float)

        psi = np.zeros((m, m))
        psi[np.triu_indices(m, 1)] = array(m * (m - 1) // 2)
        profile = st.one_of(st.just(TimeProfile()), st.builds(
            TimeProfile, st.just("sinusoidal"), amp=st.sampled_from([0.5, 1.0]), freq=st.just(40.0)
        ))
        rates = RateData(array(m), psi + psi.T, array(m), *(data.draw(profile) for _ in range(3)))
        space = DiscreteSpace(tuple(f"x{i}" for i in range(m)), array(m, sizes.filter(bool)))
        try:
            KimuraModel(space, rates, n_max, WIN)
            refused = None
        except ModelValidationError as exc:
            refused = exc.field
        dim = sum(math.comb(m, n) for n in range(n_max + 1))
        stub = SimpleNamespace(m=m, n_max=n_max, dim=dim, space=space, rates=rates, window=WIN)
        try:
            with np.errstate(over="raise", invalid="raise"):
                mats = kimura._assemble_components(stub)
                values = [*np.concatenate([mat.data for mat in mats]).tolist(),
                          *astuple(kimura.rate_aggregates(stub))]
            overflows = not all(map(math.isfinite, values))
        except FloatingPointError:
            overflows = True
        if refused is None:
            assert not overflows
        elif not overflows:
            # the one bound not attained: psi's largest pair rates may share no configuration
            assert refused == "rates.psi" and n_max < m

    def test_level_sizes(self):
        with pytest.raises(DomainError):
            CorrelationHierarchy(3, 2, [np.ones(1), np.ones(2), np.ones(3)])

    def test_vector_roundtrip(self):
        k = CorrelationHierarchy.poisson(3, 3, np.array([0.2, 0.5, 0.9]))
        back = CorrelationHierarchy.from_vector(3, 3, k.to_vector())
        for a, b in zip(k.levels, back.levels):
            assert np.array_equal(a, b)

    def test_norm_definition(self):
        k = CorrelationHierarchy(2, 2, [np.array([1.0]), np.array([2.0, -3.0]), np.array([8.0])])
        alpha = 0.7
        expected = max(1.0, 3.0 * math.exp(-alpha), 8.0 * math.exp(-2 * alpha))
        assert k.norm(alpha) == pytest.approx(expected)

    def test_poisson_values(self):
        k = CorrelationHierarchy.poisson(3, 3, np.array([0.5, 0.5, 0.5]))
        assert k.value(()) == 1.0
        assert k.value((0, 2)) == pytest.approx(0.25)
        assert k.value((0, 1, 2)) == pytest.approx(0.125)

    def test_truncation_reads_as_zero(self):
        k = CorrelationHierarchy.poisson(4, 2, np.full(4, 0.5))
        assert k.value((0, 1, 2)) == 0.0


class TestTimeProfile:
    def test_unknown_kind(self):
        with pytest.raises(ModelValidationError):
            TimeProfile("linear")

    @pytest.mark.parametrize(
        "profile",
        [
            TimeProfile(),
            TimeProfile("exp_decay", rate=1.3),
            TimeProfile("sinusoidal", amp=0.7, freq=3.0),
        ],
    )
    def test_integral_matches_quadrature(self, profile):
        from scipy.integrate import quad

        for t in (0.3, 1.2):
            ref, _ = quad(profile.value, 0.0, t, epsabs=1e-13)
            assert profile.integral(t) == pytest.approx(ref, abs=1e-11)

    def test_overflowing_horizon(self):
        # e^(-rate T) is below every double: the integral is the exact tail 1/rate
        assert TimeProfile("exp_decay", rate=2.0).integral(1e308) == 0.5
        # the phase freq * T of a sinusoid overflows: no value rather than a guess
        with pytest.raises(OverflowError):
            TimeProfile("sinusoidal", amp=1.0, freq=40.0).integral(1e308)
        # [0, T] holds a full period, wherever the phase ends
        assert TimeProfile("sinusoidal", amp=0.5, freq=-40.0).sup(1e308) == 1.5
        # rate * t overflows: at a time array as at one time, exp(-inf) = 0, silently
        collapsing = TimeProfile("exp_decay", rate=1e308)
        assert collapsing.at(np.array([0.0, 0.5, 5.0])).tolist() == [1.0, 0.0, 0.0]
        assert collapsing.at(5.0) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(profiles, st.integers(1, 3), st.integers(0, 4), st.data())
    def test_at_is_value_per_element_bit_for_bit(self, profile, rows, cols, data):
        t = np.array(
            data.draw(st.lists(st.floats(-10.0, 10.0), min_size=rows * cols, max_size=rows * cols))
        ).reshape(rows, cols)
        got, scalar = profile.at(t), profile.at(float(rows))
        if profile.is_constant:
            assert got is None and scalar is None
            return
        want = np.array([[profile.value(x) for x in row] for row in t.tolist()]).reshape(t.shape)
        assert got.shape == t.shape and got.tobytes() == want.tobytes()
        assert profile.at(t[0]).tobytes() == want[0].tobytes()
        assert scalar == profile.value(float(rows))


class TestSelectionCost:
    def test_empty_configuration(self, epistatic_model):
        assert selection_cost(epistatic_model, 0.0, ()) == 0.0

    def test_singleton(self):
        model = single_site_model(h=0.3)
        assert selection_cost(model, 0.0, (0,)) == pytest.approx(0.3)

    def test_pair_hand_value(self):
        # h = 0.1 each, psi = 0.4: 0.1 + 0.1 + 0.4
        model = pair_model(h=0.1, psi=0.4)
        assert selection_cost(model, 0.0, (0, 1)) == pytest.approx(0.6)

    def test_repeated_index_rejected(self, epistatic_model):
        with pytest.raises(ModelValidationError):
            selection_cost(epistatic_model, 0.0, (1, 1))


class TestOperators:
    def test_a0_zero_input(self, epistatic_model):
        k = CorrelationHierarchy.zero(4, 3)
        out = apply_A0(epistatic_model, 0.0, k)
        assert all(np.all(lv == 0.0) for lv in out.levels)

    def test_a0_dead_rates(self, dead_model):
        k = CorrelationHierarchy.poisson(3, 3, np.array([0.3, 0.6, 0.9]))
        out = apply_A0(dead_model, 0.0, k)
        assert all(np.all(lv == 0.0) for lv in out.levels)

    def test_a0_single_site_hand_value(self):
        # w=1, h=1, k(0)=1, k({0})=2: A0(empty) = 2 (raising), A0({0}) = 2 (Phi)
        model = single_site_model(h=1.0, w=1.0)
        k = CorrelationHierarchy(1, 2, [np.array([1.0]), np.array([2.0]), np.zeros(0)])
        out = apply_A0(model, 0.0, k)
        assert out.levels[0][0] == pytest.approx(2.0)
        assert out.levels[1][0] == pytest.approx(2.0)

    def test_a1_empty_configuration_zero(self, epistatic_model, epistatic_k0):
        out = apply_A1(epistatic_model, 0.0, epistatic_k0)
        assert out.levels[0][0] == 0.0

    def test_a1_appearance_term(self):
        model = single_site_model(h=0.0, a=0.7)
        k = CorrelationHierarchy(1, 2, [np.array([3.0]), np.array([0.0]), np.zeros(0)])
        out = apply_A1(model, 0.0, k)
        assert out.levels[1][0] == pytest.approx(0.7 * 3.0)

    def test_a1_exchange_hand_value(self):
        # m=2, w=1, psi=0.5, a=0, k({0,1})=3, eta={0}: -0.5*3
        model = pair_model(psi=0.5)
        k = CorrelationHierarchy(2, 2, [np.zeros(1), np.zeros(2), np.array([3.0])])
        out = apply_A1(model, 0.0, k)
        assert out.levels[1][0] == pytest.approx(-1.5)

    def test_bdelta_zero(self, epistatic_model):
        k = CorrelationHierarchy.zero(4, 3)
        assert bdelta(epistatic_model, 0.0, k) == 0.0

    def test_bdelta_single_site(self):
        model = single_site_model(h=1.0, w=1.0)
        rho = 0.37
        k = CorrelationHierarchy(1, 2, [np.array([1.0]), np.array([rho]), np.zeros(0)])
        assert bdelta(model, 0.0, k) == pytest.approx(rho)

    def test_bdelta_pair_hand_value(self):
        # m=2, w=1, h=0, psi=0.4, k({0,1})=2: (1/2)(0.4*2 + 0.4*2)
        model = pair_model(psi=0.4)
        k = CorrelationHierarchy(2, 2, [np.ones(1), np.zeros(2), np.array([2.0])])
        assert bdelta(model, 0.0, k) == pytest.approx(0.8)

    def test_ldelta_zero_input(self, epistatic_model):
        k = CorrelationHierarchy.zero(4, 3)
        out = apply_ldelta(epistatic_model, 0.0, k)
        assert all(np.all(lv == 0.0) for lv in out.levels)

    @settings(max_examples=40, deadline=None)
    @given(rate_models(), st.floats(0.0, 2.0), st.integers(0, 2**32 - 1))
    def test_ldelta_level0_exact_cancellation(self, model, t, seed):
        rng = np.random.default_rng(seed)
        levels = [np.array([1.0])] + [
            rng.uniform(-2, 2, math.comb(model.m, n)) for n in range(1, model.n_max + 1)
        ]
        k = CorrelationHierarchy(model.m, model.n_max, levels)
        out = apply_ldelta(model, t, k)
        assert out.levels[0][0] == 0.0  # exact, not approximate

    @settings(max_examples=40, deadline=None)
    @given(rate_models(), st.floats(0.0, 2.0), st.data())
    def test_site_relabeling_symmetry(self, model, t, data):
        # permuting site labels commutes with every operator
        m, n_max, rates = model.m, model.n_max, model.rates
        perm = np.array(data.draw(st.permutations(range(m))))
        seed = data.draw(st.integers(0, 2**32 - 1))
        model_p = KimuraModel(
            DiscreteSpace(model.space.points, model.space.weights[perm]),
            RateData(
                rates.h_base[perm], rates.psi_base[np.ix_(perm, perm)], rates.a_base[perm],
                rates.h_profile, rates.psi_profile, rates.a_profile,
            ),
            n_max,
            model.window,
        )
        vec = np.random.default_rng(seed).uniform(-1.0, 1.0, model.dim)
        k = CorrelationHierarchy.from_vector(m, n_max, vec)

        def permuted(hier):
            # new site i carries old site perm[i]'s data
            out = CorrelationHierarchy.zero(m, n_max)
            for n in range(n_max + 1):
                for idx, eta in enumerate(level_configs(m, n)):
                    out.levels[n][idx] = hier.value(tuple(int(perm[i]) for i in eta))
            return out

        k_p = permuted(k)
        for op in (apply_A0, apply_A1, apply_ldelta):
            lhs = permuted(op(model, t, k)).to_vector()
            rhs = op(model_p, t, k_p).to_vector()
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_matrix_assembly_matches_direct_action(self, epistatic_model, epistatic_k0):
        vec = epistatic_k0.to_vector()
        direct = apply_A0(epistatic_model, 0.2, epistatic_k0).to_vector()
        assert np.allclose(epistatic_model.a0_matrix(0.2) @ vec, direct, atol=1e-13)


def assemble_by_loop(model):
    """The four CSR components by per-configuration loops: the reference the
    level-by-level kimura._assemble_components must equal bit for bit."""
    m, n_max, d = model.m, model.n_max, model.dim
    off = kimura.level_starts(m, n_max)
    w = model.space.weights
    h, psi, a = model.rates.h_base, model.rates.psi_base, model.rates.a_base
    a0_h, a0_psi, a1_psi, a1_a = ([] for _ in range(4))
    for n in range(n_max + 1):
        up1 = kimura.config_index(m, n + 1) if n + 1 <= n_max else None
        up2 = kimura.config_index(m, n + 2) if n + 2 <= n_max else None
        down = kimura.config_index(m, n - 1) if n >= 1 else None
        for idx, eta in enumerate(level_configs(m, n)):
            row = off[n] + idx
            outside = [i for i in range(m) if i not in eta]
            a0_h.append((row, row, sum(h[i] for i in eta)))
            a0_psi.append((row, row, sum(psi[i, j] for i, j in combinations(eta, 2))))
            if up1 is not None:
                for j in outside:
                    col = off[n + 1] + up1[tuple(sorted(eta + (j,)))]
                    a0_h.append((row, col, w[j] * h[j]))
                    a1_psi.append((row, col, -w[j] * sum(psi[i, j] for i in eta)))
            if up2 is not None:
                for i, j in combinations(outside, 2):
                    col = off[n + 2] + up2[tuple(sorted(eta + (i, j)))]
                    a0_psi.append((row, col, w[i] * w[j] * psi[i, j]))
            if down is not None:
                for i in eta:
                    a1_a.append((row, off[n - 1] + down[tuple(x for x in eta if x != i)], a[i]))
    mats = []
    for triples in (a0_h, a0_psi, a1_psi, a1_a):
        rows, cols, vals = zip(*triples)
        mat = sparse.csr_matrix((vals, (rows, cols)), shape=(d, d), dtype=float)
        mat.eliminate_zeros()
        mats.append(mat)
    return mats


@st.composite
def assembly_models(draw):
    """Weights and base rates, some of them zero, on 1-7 sites with n_max 2-5."""
    m = draw(st.integers(1, 7))
    n_max = draw(st.integers(2, 5))

    def array(lo, n):
        values = st.one_of(st.just(0.0), st.floats(lo, 2.0, allow_subnormal=False))
        return np.array(draw(st.lists(values, min_size=n, max_size=n)))

    weights = array(0.05, m)
    weights[weights == 0.0] = 0.5
    psi = np.zeros((m, m))
    psi[np.triu_indices(m, 1)] = array(0.0, m * (m - 1) // 2)
    rates = RateData(array(0.0, m), psi + psi.T, array(0.0, m))
    space = DiscreteSpace(tuple(f"x{i}" for i in range(m)), weights)
    return KimuraModel(space, rates, n_max, WIN)


def assert_same_csr(got, want):
    for g, w in zip(got, want, strict=True):
        for name in ("data", "indices", "indptr"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestComponentAssembly:
    @pytest.mark.parametrize("name", ["desk-epistatic", "desk-free", "desk-smooth"])
    def test_desk_components_equal_the_loop(self, shipped_configs, name):
        cfg = shipped_configs[name]
        model = cli.parse_model(cfg, cli.parse_window(cfg))
        assert_same_csr(kimura._assemble_components(model), assemble_by_loop(model))

    @pytest.mark.parametrize("m, n_max, seed", [(7, 5, 0), (7, 5, 1), (6, 4, 2)])
    def test_unrounded_rates_equal_the_loop(self, m, n_max, seed):
        # rates with full mantissas: a sum over 8 or more pairs in another order
        # (n = 5 has 10) would differ in the last bit here
        rng = np.random.default_rng(seed)
        psi = np.triu(rng.uniform(0.0, 2.0, (m, m)), 1)
        rates = RateData(rng.uniform(0.0, 2.0, m), psi + psi.T, rng.uniform(0.0, 2.0, m))
        space = DiscreteSpace(tuple(f"x{i}" for i in range(m)), rng.uniform(0.05, 1.0, m))
        model = KimuraModel(space, rates, n_max, WIN)
        assert_same_csr(kimura._assemble_components(model), assemble_by_loop(model))

    @settings(max_examples=60, deadline=None)
    @given(assembly_models())
    def test_random_components_equal_the_loop(self, model):
        assert_same_csr(kimura._assemble_components(model), assemble_by_loop(model))


class TestEvolution:
    def test_identity_at_equal_times(self, epistatic_model, epistatic_k0):
        vec = epistatic_k0.to_vector()
        out = evolution_u(epistatic_model, 0.4, 0.4, vec)
        assert np.array_equal(out, vec)

    def test_zero_generator_identity(self, dead_model):
        vec = CorrelationHierarchy.poisson(3, 3, np.array([0.1, 0.5, 0.9])).to_vector()
        out = evolution_u(dead_model, 0.8, 0.1, vec)
        assert np.allclose(out, vec, atol=1e-14)

    def test_reversed_times_rejected(self, epistatic_model, epistatic_k0):
        with pytest.raises(DomainError):
            evolution_u(epistatic_model, 0.1, 0.5, epistatic_k0.to_vector())

    def test_step_budget_refuses_an_unresolvable_profile(self, shipped_configs, monkeypatch):
        # p_h falls from 1 to 0 inside the first substep, so step doubling never
        # reaches tolerance: the propagation stops before its RK4 steps pass the cap
        cfg = json.loads(json.dumps(shipped_configs["desk-epistatic"]))
        cfg["model"]["rates"]["h_profile"] = {"kind": "exp_decay", "rate": 1e308}
        model = cli.parse_model(cfg, cli.parse_window(cfg))
        steps = []
        rk4 = kimura._rk4

        def counted(model, s, h, V0, n):
            steps.append(n)
            return rk4(model, s, h, V0, n)

        monkeypatch.setattr(kimura, "_MAX_STEPS", 2**10)
        monkeypatch.setattr(kimura, "_rk4", counted)
        with pytest.raises(DomainError, match="length 1.0 needs more than 1024 RK4 steps"):
            evolution_u(model, 1.0, 0.0, cli.parse_initial(cfg, model).to_vector())
        assert steps and sum(steps) <= 2**10

    def test_single_site_triangular_closed_form(self):
        # h=1, w=1, psi=0: level 1 decays as e^{-(t-s)}; level 0 integrates
        # -w * level1, so v0(t) = v0(s) - k1 (1 - e^{-(t-s)})
        model = single_site_model(h=1.0, w=1.0)
        k = CorrelationHierarchy(1, 2, [np.array([1.0]), np.array([0.6]), np.zeros(0)])
        t, s = 0.9, 0.2
        out = CorrelationHierarchy.from_vector(1, 2, evolution_u(model, t, s, k.to_vector()))
        decay = math.exp(-(t - s))
        assert out.levels[1][0] == pytest.approx(0.6 * decay, abs=1e-9)
        assert out.levels[0][0] == pytest.approx(1.0 - 0.6 * (1.0 - decay), abs=1e-9)

    def test_growth_bound(self, epistatic_model):
        rng = np.random.default_rng(11)
        for _ in range(5):
            alpha = rng.uniform(0.0, 1.0)
            levels = [rng.uniform(-1, 1, math.comb(4, n)) * math.exp(alpha * n) for n in range(4)]
            k = CorrelationHierarchy(4, 3, levels)
            s, t = np.sort(rng.uniform(0.0, 1.0, 2))
            out = evolution_u(epistatic_model, t, s, k.to_vector())
            bound = math.exp(kappa_integral(epistatic_model, s, t, alpha)) * k.norm(alpha)
            assert epistatic_model.hierarchy_norm(out, alpha) <= bound * (1.0 + 1e-10)


#: interval lengths from none (t == s) to most of a window
SPANS = st.sampled_from([0.0, 1e-9, 1e-5, 1e-3, 0.04, 0.3, 1.0])


@st.composite
def batches(draw, model):
    """1-6 rows of random vectors, each with its own start in [0, 1] and span."""
    rows = draw(st.integers(1, 6))
    s = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=rows, max_size=rows)))
    t = s + np.array(draw(st.lists(SPANS, min_size=rows, max_size=rows)))
    seed = draw(st.integers(0, 2**32 - 1))
    return t, s, np.random.default_rng(seed).uniform(-2.0, 2.0, (rows, model.dim))


class TestBatchedEvolution:
    """evolution_u with one interval per row: rows meet only in the substep count."""

    @settings(max_examples=30, deadline=None)
    @given(rate_models(), st.data())
    def test_permuting_rows_permutes_the_result(self, model, data):
        t, s, V = data.draw(batches(model))
        perm = np.array(data.draw(st.permutations(range(len(V)))))
        out = evolution_u(model, t, s, V)
        assert np.array_equal(evolution_u(model, t[perm], s[perm], V[perm]), out[perm])
        # the solver-facing apply agrees too
        assert np.array_equal(KimuraEvolution(model).apply(t, s, V), out)

    @settings(max_examples=30, deadline=None)
    @given(rate_models(), st.data())
    def test_dropping_rows_keeps_the_rest_while_the_longest_span_stays(self, model, data):
        t, s, V = data.draw(batches(model))
        longest = int(np.argmax(t - s))
        kept = data.draw(st.sets(st.integers(0, len(V) - 1)))
        keep = sorted(kept | {longest})
        out = evolution_u(model, t, s, V)
        assert np.array_equal(evolution_u(model, t[keep], s[keep], V[keep]), out[keep])

    def test_equal_times_rows_are_exact_copies(self, epistatic_model):
        V = np.random.default_rng(9).uniform(-1.0, 1.0, (3, epistatic_model.dim))
        out = evolution_u(epistatic_model, np.array([0.2, 0.5, 0.7]), np.array([0.2, 0.1, 0.7]), V)
        assert np.array_equal(out[[0, 2]], V[[0, 2]])
        assert not np.array_equal(out[1], V[1])

    def test_any_reversed_row_rejected(self, epistatic_model):
        V = np.zeros((3, epistatic_model.dim))
        with pytest.raises(DomainError, match=r"t = 0.1, s = 0.5 in row 2"):
            evolution_u(epistatic_model, np.array([0.5, 0.9, 0.1]), np.array([0.1, 0.9, 0.5]), V)

    def test_rows_match_exponential_for_constant_rates(self, shipped_configs):
        # an independent propagator: U(t, s) = exp(-(t - s) A0) when A0 is constant
        cfg = shipped_configs["desk-epistatic"]
        model = cli.parse_model(cfg, cli.parse_window(cfg))
        a0 = model.a0_matrix(0.0)
        rng = np.random.default_rng(12)
        s, t = np.sort(rng.uniform(0.0, 1.0, (2, 8)), axis=0)
        t[0] = s[0] + 1e-6
        # one batch of spans from none to a whole window: short rows share the
        # substep count of the longest
        s = np.concatenate([s, rng.uniform(0.0, 1.0, 6)])
        t = np.concatenate([t, s[8:] + [0.0, 1e-9, 1e-3, 0.04, 0.3, 1.0]])
        V = rng.uniform(-1.0, 1.0, (len(s), model.dim))
        out = evolution_u(model, t, s, V)
        for row, a, b, v in zip(out, t, s, V):
            exact = expm_multiply(-(a - b) * a0, v)
            assert np.max(np.abs(row - exact)) <= 1e-9 * np.max(np.abs(exact))

    def test_batched_a0_dot_matches_rows(self, shipped_configs):
        cfg = shipped_configs["desk-smooth"]
        model = cli.parse_model(cfg, cli.parse_window(cfg))
        rng = np.random.default_rng(13)
        t = rng.uniform(0.0, 0.5, 5)
        V = rng.uniform(-1.0, 1.0, (5, model.dim))
        batch = model.a0_dot(t, V)
        for a, v, row in zip(t, V, batch):
            assert np.array_equal(row, model.a0_dot(a, v))
            assert np.allclose(row, model.a0_matrix(a) @ v, rtol=1e-14, atol=1e-15)


def rk4_per_step(model, s, h, V0, n):
    """Reference RK4: profile values by scalar ``value`` at each step's midpoint and end."""

    def factors(t):
        return tuple(
            None if p.is_constant else np.array([p.value(x) for x in t.tolist()])
            for p in (model.rates.h_profile, model.rates.psi_profile)
        )

    half, sixth = 0.5 * h, h / 6.0
    x = V0.T.copy()
    tau, f = s, factors(s)
    for k in range(n):
        mid, end = s + (k + 0.5) * h, s + (k + 1) * h
        f_mid, f_end = factors(mid), factors(end)
        k1 = model.a0_dot(tau, x.T, f).T
        k2 = model.a0_dot(mid, (x - half * k1).T, f_mid).T
        k3 = model.a0_dot(mid, (x - half * k2).T, f_mid).T
        k4 = model.a0_dot(end, (x - h * k3).T, f_end).T
        x = x - sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tau, f = end, f_end
    return x.T


def gentle_model():
    """Both A0 profiles vary, slowly enough that step doubling stops at its first comparison."""
    rates = RateData(
        np.full(2, 0.5), np.full((2, 2), 0.2), np.full(2, 0.1),
        h_profile=TimeProfile("exp_decay", rate=0.01),
        psi_profile=TimeProfile("sinusoidal", amp=0.5, freq=0.1),
    )
    return KimuraModel(DiscreteSpace.uniform(2), rates, 2, WIN)


class TestRK4Blocks:
    """_rk4 reads its profile values from one table of stage times per block of steps."""

    @settings(max_examples=25, deadline=None)
    @given(rate_models(), st.sampled_from([1, 63, 64, 65, 130]), st.data())
    def test_equals_the_per_step_loop_bit_for_bit(self, model, n, data):
        rows = data.draw(st.integers(1, 4))
        s = np.array(data.draw(st.lists(st.floats(0.0, 2.0), min_size=rows, max_size=rows)))
        h = np.array(data.draw(st.lists(st.floats(1e-4, 0.05), min_size=rows, max_size=rows)))
        V0 = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(
            -2.0, 2.0, (rows, model.dim)
        )
        assert np.array_equal(kimura._rk4(model, s, h, V0, n), rk4_per_step(model, s, h, V0, n))

    def test_profiles_are_read_once_per_block(self, monkeypatch):
        model = gentle_model()
        shapes = []
        a0_factors = KimuraModel.a0_factors

        def counted(self, t):
            shapes.append(np.shape(t))
            return a0_factors(self, t)

        monkeypatch.setattr(KimuraModel, "a0_factors", counted)
        V0 = np.random.default_rng(3).uniform(-1.0, 1.0, (3, model.dim))
        kimura._rk4(model, np.array([0.0, 0.2, 0.5]), np.full(3, 0.01), V0, 130)
        # blocks of 64, 64 and 2 steps: 2 * steps + 1 stage times per row
        assert shapes == [(129, 3), (129, 3), (5, 3)]

    def test_peak_memory_does_not_grow_with_the_steps(self):
        # first runs of 200 and 2000 substeps; both stop at the first comparison
        model = gentle_model()
        v = np.random.default_rng(4).uniform(-1.0, 1.0, model.dim)
        peaks = []
        for span in (10.0, 100.0):
            gc.collect()
            tracemalloc.start()
            try:
                evolution_u(model, span, 0.0, v)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]


class TestGridSteps:
    """Exact step propagators of the time-constant evolution system."""

    def test_steps_match_rk4_on_picard_grid(self, epistatic_problem):
        model = epistatic_problem.model
        win = epistatic_problem.window
        t = make_grid(win, model.hierarchy_norm, model.dim, SolverOptions()).t_grid
        full, half = epistatic_problem.evolution.grid_steps(t)
        rng = np.random.default_rng(3)
        for j in (0, 37, 99):
            v = rng.uniform(-1.0, 1.0, model.dim)
            t_mid = t[j] + 0.5 * (t[j + 1] - t[j])
            assert np.max(np.abs(full(v, j) - evolution_u(model, t[j + 1], t[j], v))) <= 1e-14
            assert np.max(np.abs(half(v, j) - evolution_u(model, t[j + 1], t_mid, v))) <= 1e-14

    def test_batch_rows_match_single_steps(self, epistatic_problem):
        model = epistatic_problem.model
        t = np.linspace(0.0, 1e-3, 6)
        full, half = epistatic_problem.evolution.grid_steps(t)
        V = np.random.default_rng(4).uniform(-1.0, 1.0, (5, model.dim))
        for j in range(5):
            assert np.max(np.abs(full(V)[j] - full(V[j], j))) <= 1e-15
            assert np.max(np.abs(half(V)[j] - half(V[j], j))) <= 1e-15

    def test_squaring_matches_dense_expm(self, epistatic_model):
        # ||h A0||_1 = 20 forces five squarings; an unscaled Taylor sum of this
        # size loses about 1e-10 to cancellation
        a0 = epistatic_model.a0_matrix(0.0).toarray()
        h = 20.0 / np.max(np.sum(np.abs(a0), axis=0))
        d = expm_increment(sparse.csr_matrix(a0), h)
        exact = expm(-h * a0)
        V = np.random.default_rng(6).uniform(-1.0, 1.0, (4, len(a0)))
        for v in V:
            assert np.max(np.abs(v + d @ v - exact @ v)) <= 1e-14

    @pytest.mark.parametrize("name", ["desk-epistatic", "desk-free", "desk-smooth"])
    def test_column_sum_norm_is_scipys_bit_for_bit(self, shipped_configs, name, monkeypatch):
        # on the components and on every Taylor term and partial sum of expm_increment
        cfg = shipped_configs[name]
        model = cli.parse_model(cfg, cli.parse_window(cfg))
        norm1, seen = kimura._norm1, []

        def recorded(mat):
            seen.append(mat)
            return norm1(mat)

        monkeypatch.setattr(kimura, "_norm1", recorded)
        for h in (1e-3, 0.3, 5.0):
            expm_increment(model.a0_matrix(0.0), h)
        assert len(seen) > 20
        for mat in [*kimura._assemble_components(model), *seen]:
            assert norm1(mat) == float(abs(mat).sum(axis=0).max())

    def test_dead_model_increment_is_zero(self, dead_model):
        d = expm_increment(sparse.csr_matrix(dead_model.a0_matrix(0.0)), 0.7)
        assert np.array_equal(d.toarray(), np.zeros((dead_model.dim, dead_model.dim)))

    def test_level0_column_untouched(self, epistatic_model):
        # nothing raises into level 0, so a step never rounds its unit entry
        d = expm_increment(sparse.csr_matrix(epistatic_model.a0_matrix(0.0)), 0.3)
        assert np.all(d.toarray()[:, 0] == 0.0)

    def test_time_varying_rates_use_rk4(self, monkeypatch):
        rates = RateData(
            np.full(3, 0.5), np.full((3, 3), 0.1), np.full(3, 0.2),
            h_profile=TimeProfile("sinusoidal", amp=0.5, freq=3.0),
        )
        model = KimuraModel(DiscreteSpace.uniform(3), rates, 3, WIN)
        ev = KimuraEvolution(model)
        t = np.linspace(0.0, 0.01, 4)
        v = np.random.default_rng(7).uniform(-1.0, 1.0, model.dim)
        full, half = ev.grid_steps(t)
        assert np.array_equal(full(v, 1), ev.apply(t[2], t[1], v))
        assert np.array_equal(half(v, 1), ev.apply(t[2], t[1] + 0.5 * (t[2] - t[1]), v))

    def test_time_varying_batch_equals_single_steps(self):
        # a batch with one row per grid step is one apply call, bit for bit
        rates = RateData(
            np.full(3, 0.5), np.full((3, 3), 0.1), np.full(3, 0.2),
            h_profile=TimeProfile("sinusoidal", amp=0.5, freq=3.0),
        )
        model = KimuraModel(DiscreteSpace.uniform(3), rates, 3, WIN)
        full, half = KimuraEvolution(model).grid_steps(np.linspace(0.0, 0.01, 4))
        V = np.random.default_rng(8).uniform(-1.0, 1.0, (3, model.dim))
        for j in range(3):
            assert np.array_equal(full(V)[j], full(V[j], j))
            assert np.array_equal(half(V)[j], half(V[j], j))

    def test_varying_appearance_keeps_exact_steps(self, monkeypatch):
        # A0 has no a term, so U is a semigroup whenever h and psi are constant
        rates = RateData(
            np.full(3, 0.5), np.full((3, 3), 0.1), np.full(3, 0.2),
            a_profile=TimeProfile("sinusoidal", amp=0.5, freq=3.0),
        )
        model = KimuraModel(DiscreteSpace.uniform(3), rates, 3, WIN)
        t = np.linspace(0.0, 0.01, 4)
        v = np.random.default_rng(7).uniform(-1.0, 1.0, model.dim)
        expected = evolution_u(model, t[2], t[1], v)
        monkeypatch.setattr(kimura, "evolution_u", None)
        full, _ = KimuraEvolution(model).grid_steps(t)
        assert np.max(np.abs(full(v, 1) - expected)) <= 1e-14


@st.composite
def csr_operands(draw):
    """A float CSR matrix with empty rows and unsorted columns allowed, and a
    dense block of full-mantissa values for it."""
    n_rows, n_cols = draw(st.integers(1, 20)), draw(st.integers(1, 12))
    row_cols = [
        draw(st.lists(st.integers(0, n_cols - 1), unique=True, max_size=n_cols))
        for _ in range(n_rows)
    ]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indptr = np.cumsum([0] + [len(c) for c in row_cols])
    indices = np.array([j for cols in row_cols for j in cols], dtype=np.intp)
    data = rng.standard_normal(len(indices)) * 10.0 ** rng.integers(-3, 4, len(indices))
    mat = sparse.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols))
    if draw(st.booleans()):
        mat.indices, mat.indptr = mat.indices.astype(np.int64), mat.indptr.astype(np.int64)
    block = rng.standard_normal((n_cols, draw(st.integers(2, 70))))
    return mat, block


def empty_rows_int64():
    mat = sparse.csr_matrix(np.array([[0.0, 0.0], [1.5, -2.0], [0.0, 0.0]]))
    mat.indices, mat.indptr = mat.indices.astype(np.int64), mat.indptr.astype(np.int64)
    return mat, np.array([[1.0, 2.0, 3.0], [0.5, 0.25, -1.0]])


class TestCsrProduct:
    """kimura._csr_product is scipy's ``mat @ X`` bit for bit."""

    @given(csr_operands())
    @example(empty_rows_int64())
    @settings(max_examples=60, deadline=None)
    def test_equals_scipy_on_every_operand_shape(self, operands):
        mat, block = operands
        operands = {
            "vector": np.ascontiguousarray(block[:, 0]),
            "block": block,
            "transposed view": np.ascontiguousarray(block.T).T,
            "one column": block[:, :1],
            "strided vector": block[:, 1],
        }
        for name, X in operands.items():
            got, want = kimura._csr_product(mat, X), mat @ X
            assert got.shape == want.shape and got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 2, 2), ()])
    def test_a_mismatched_operand_raises(self, shape):
        # the kernel itself would read past the operand's end
        with pytest.raises(ValueError, match="cannot multiply"):
            kimura._csr_product(sparse.csr_matrix(np.eye(2)), np.ones(shape))


class TestApplyBatch:
    @pytest.mark.parametrize("profile", [TimeProfile(), TimeProfile("sinusoidal", amp=0.8, freq=5.0)])
    def test_batch_equals_rowwise_apply(self, profile):
        rates = RateData(
            np.array([1.0, 0.6, 1.4, 0.8]), np.full((4, 4), 0.2), np.full(4, 0.5),
            h_profile=profile, a_profile=profile,
        )
        model = KimuraModel(DiscreteSpace.uniform(4), rates, 3, WIN)
        pert = KimuraPerturbation(model)
        rng = np.random.default_rng(8)
        V = CorrelationHierarchy.poisson(4, 3, np.full(4, 0.5)).to_vector() + rng.uniform(
            -0.1, 0.1, (7, model.dim)
        )
        ts = rng.uniform(0.0, 1.0, 7)
        rows = np.array([pert.apply(v, t) for v, t in zip(V, ts)])
        assert np.max(np.abs(pert.apply(V, ts) - rows)) <= 1e-15


class TestRateDecomposition:
    """The four sparse components and the closed-form certificate pieces."""

    @settings(max_examples=60, deadline=None)
    @given(rate_models(), st.floats(0.0, 2.0), st.integers(0, 2**32 - 1))
    def test_scaled_components_equal_structural_operators(self, model, t, seed):
        vec = np.random.default_rng(seed).uniform(-1.0, 1.0, model.dim)
        k = CorrelationHierarchy.from_vector(model.m, model.n_max, vec)
        a0 = apply_A0(model, t, k).to_vector()
        a1 = apply_A1(model, t, k).to_vector()
        b = bdelta(model, t, k)
        close = dict(rtol=1e-12, atol=1e-12)
        assert np.allclose(model.a0_dot(t, vec), a0, **close)
        assert np.allclose(model.a0_matrix(t) @ vec, a0, **close)
        pert = KimuraPerturbation(model)
        assert np.allclose(pert.apply(vec, t), a1 + b * vec, **close)

    @settings(max_examples=40, deadline=None)
    @given(rate_models(), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_apply_batch_equals_rowwise_apply(self, model, rows, seed):
        # B and A(t) act on each row alone: a batch is the one-row calls, bit for bit
        rng = np.random.default_rng(seed)
        V = rng.uniform(-1.0, 1.0, (rows, model.dim))
        ts = rng.uniform(0.0, model.window.T, rows)
        pert, ev = KimuraPerturbation(model), KimuraEvolution(model)
        assert np.array_equal(pert.apply(V, ts), [pert.apply(v, t) for v, t in zip(V, ts)])
        assert np.array_equal(
            ev.generator_apply(ts, V), [ev.generator_apply(t, v) for t, v in zip(ts, V)]
        )
        # a scalar time applies to every row
        assert np.array_equal(pert.apply(V, ts[0]), [pert.apply(v, ts[0]) for v in V])

    @settings(max_examples=40, deadline=None)
    @given(profiles, st.floats(0.01, 3.0))
    def test_profile_sup_is_attained_upper_bound(self, profile, T):
        sampled = max(profile.value(t) for t in np.linspace(0.0, T, 100_001).tolist())
        sup = profile.sup(T)
        assert sup >= sampled
        candidates = [0.0, T]
        if profile.kind == "sinusoidal" and profile.freq != 0.0:
            turns = math.ceil(abs(profile.freq) * T / (2.0 * math.pi)) + 1
            peaks = (
                (0.5 * math.pi + 2.0 * math.pi * j) / profile.freq for j in range(-turns, turns + 1)
            )
            candidates += [t for t in peaks if 0.0 <= t <= T]
        assert max(profile.value(t) for t in candidates) >= sup - 1e-12

    # quad returns 0 for subnormal widths and rates, so the draws have none
    @settings(max_examples=40, deadline=None)
    @given(
        rate_models(),
        st.floats(0.0, 2.0, allow_subnormal=False),
        st.floats(0.0, 2.0, allow_subnormal=False),
        st.floats(0.0, 1.0),
    )
    def test_kappa_integral_matches_quadrature(self, model, s, t, alpha):
        s, t = sorted((s, t))
        ref, _ = quad(
            lambda tau: kappa(model, tau, alpha), s, t, epsabs=0.0, epsrel=1e-13, limit=500
        )
        assert kappa_integral(model, s, t, alpha) == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestWorkCount:
    def test_constant_rates_skip_rk4_and_build_steps_once(self, epistatic_model, epistatic_k0, monkeypatch):
        calls = {"evolution_u": 0, "grid_steps": 0, "expm_increment": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(kimura, "evolution_u", counted("evolution_u", kimura.evolution_u))
        monkeypatch.setattr(kimura, "expm_increment", counted("expm_increment", kimura.expm_increment))
        monkeypatch.setattr(
            KimuraEvolution, "grid_steps", counted("grid_steps", KimuraEvolution.grid_steps)
        )
        _, rep = solve(epistatic_model, epistatic_k0, n_steps=40)
        assert rep.iterations >= 2
        assert calls == {"evolution_u": 0, "grid_steps": 1, "expm_increment": 2}

    def test_constant_profiles_make_no_profile_calls_in_b(self, epistatic_model, monkeypatch):
        calls = []
        value = TimeProfile.value

        def counted(profile, t):
            calls.append(t)
            return value(profile, t)

        monkeypatch.setattr(TimeProfile, "value", counted)
        pert = KimuraPerturbation(epistatic_model)
        V = np.random.default_rng(5).uniform(-1.0, 1.0, (4, epistatic_model.dim))
        pert.apply(V, np.linspace(0.0, 1.0, 4))
        pert.apply(V[0], 0.3)
        assert calls == []

    def test_time_varying_solve_never_forms_a0_matrix(self, monkeypatch):
        # certificate, RK4 steps and batched B all work on the stacked components
        rates = RateData(
            np.full(3, 0.5), np.full((3, 3), 0.1), np.full(3, 0.2),
            h_profile=TimeProfile("sinusoidal", amp=0.5, freq=3.0),
            psi_profile=TimeProfile("exp_decay", rate=2.0),
        )
        model = KimuraModel(DiscreteSpace.uniform(3), rates, 3, WIN)
        calls = {"a0_matrix": 0, "a0_dot": 0}

        def counted(name):
            fn = getattr(KimuraModel, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(KimuraModel, name, counted(name))
        solve(model, CorrelationHierarchy.poisson(3, 3, np.full(3, 0.5)), n_steps=4)
        assert calls["a0_matrix"] == 0
        assert calls["a0_dot"] > 0


    def test_norm_calls_do_not_grow_with_the_grid(self, shipped_configs, monkeypatch):
        # every sup over the triangle makes one norm call for its whole table
        cfg = shipped_configs["desk-epistatic"]
        window = cli.parse_window(cfg)
        model = cli.parse_model(cfg, window)
        norm = KimuraModel.hierarchy_norm
        calls = []

        def counted(self, vec, alpha):
            calls.append(alpha)
            return norm(self, vec, alpha)

        # the problem binds the norm when it is built
        monkeypatch.setattr(KimuraModel, "hierarchy_norm", counted)
        problem = KimuraProblem.build(model, cli.parse_initial(cfg, model))
        counts = []
        for n_steps in (20, 80):
            calls.clear()
            _, rep = picard_solve(problem, SolverOptions(n_steps=n_steps, k_max=2))
            assert rep.iterations == 2
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_one_weight_table_per_solve(self, epistatic_problem, monkeypatch):
        # the grid builds its table once; every iterate, increment and monitor shares it
        from banachscale import solver

        grids, seen = [], []
        make_grid = solver.make_grid

        def counted_grid(*args, **kwargs):
            grids.append(make_grid(*args, **kwargs))
            return grids[-1]

        def spy(fn):
            def wrapper(u, *args):
                seen.append(u.weights)
                return fn(u, *args)

            return wrapper

        monkeypatch.setattr(solver, "make_grid", counted_grid)
        for name in ("integral_map", "weighted_gamma_norm", "monitor_m"):
            monkeypatch.setattr(solver, name, spy(getattr(solver, name)))
        u, rep = picard_solve(epistatic_problem, SolverOptions(n_steps=20, k_max=4))
        assert rep.iterations >= 3
        assert len(grids) == 1
        assert len(seen) == 3 * rep.iterations
        assert all(w is grids[0].weights for w in [*seen, u.weights])

    def test_verify_propagates_once_per_phase(self, shipped_configs, tmp_path, monkeypatch):
        # evolution_law_check propagates every row that starts from the sampled
        # k in one call (identity, direct, r <- s), then t <- r in a second;
        # bound_verifier propagates nothing
        from banachscale import oracles

        calls = []
        propagate = oracles.evolution_u

        def counted(model, t, s, k):
            calls.append(np.shape(k))
            return propagate(model, t, s, k)

        monkeypatch.setattr(oracles, "evolution_u", counted)
        config = tmp_path / "cfg.json"
        for samples in (20, 120):
            calls.clear()
            cfg = dict(shipped_configs["desk-smooth"], run={"samples": samples})
            config.write_text(json.dumps(cfg))
            assert cli.main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 0
            assert [shape[0] for shape in calls] == [3 * samples, samples]

    def test_verify_evaluates_b_once(self, shipped_configs, tmp_path, monkeypatch):
        # bound_verifier evaluates B on the B2 pair and the B3 datum of every
        # sample in one call; nothing else in verify evaluates B
        calls = []
        apply = KimuraPerturbation.apply

        def counted(self, V, ts):
            calls.append(np.shape(V))
            return apply(self, V, ts)

        monkeypatch.setattr(KimuraPerturbation, "apply", counted)
        cfg = dict(shipped_configs["desk-smooth"], run={"samples": 5})
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        assert cli.main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert calls == [(15, 8)]

    def test_residual_check_applies_the_generator_once(self, shipped_configs, monkeypatch):
        cfg = shipped_configs["desk-smooth"]
        window = cli.parse_window(cfg)
        model = cli.parse_model(cfg, window)
        problem = KimuraProblem.build(model, cli.parse_initial(cfg, model))
        u, _ = picard_solve(problem, SolverOptions(n_steps=20, k_max=2))
        calls = []
        generator_apply = KimuraEvolution.generator_apply

        def counted(self, t, V):
            calls.append(np.shape(V))
            return generator_apply(self, t, V)

        monkeypatch.setattr(KimuraEvolution, "generator_apply", counted)
        residual_check(u, problem)
        assert calls == [(19, model.dim)]


    def test_hot_products_skip_scipys_dispatch(self, shipped_configs, tmp_path, monkeypatch):
        # every sparse-times-dense product calls the CSR kernel directly; only
        # sparse-times-sparse products (expm_increment) go through the operator
        dense_operands = []
        matmul = sparse.csr_matrix.__matmul__

        def counted(self, other):
            if isinstance(other, np.ndarray):
                dense_operands.append(other.shape)
            return matmul(self, other)

        monkeypatch.setattr(sparse.csr_matrix, "__matmul__", counted)
        for config, subcommand in (("desk-smooth", "verify"), ("desk-epistatic", "solve")):
            path = tmp_path / f"{config}.json"
            path.write_text(json.dumps(shipped_configs[config]))
            out = tmp_path / subcommand
            assert cli.main([subcommand, "--config", str(path), "--out", str(out)]) == 0
        assert dense_operands == []

    def test_picard_evaluates_b_five_times_per_iteration(self, epistatic_problem, monkeypatch):
        # per iteration: the integral map's midpoints, three monitor times and
        # the new iterate's nodes, which its quadrature budget and the next
        # integral map share; the first iterate's nodes add one call
        calls = []
        apply = KimuraPerturbation.apply

        def counted(self, V, ts):
            calls.append(np.shape(V))
            return apply(self, V, ts)

        monkeypatch.setattr(KimuraPerturbation, "apply", counted)
        _, rep = picard_solve(epistatic_problem, SolverOptions(n_steps=20, k_max=4))
        assert rep.iterations >= 3
        assert len(calls) == 5 * rep.iterations + 1


class TestMemory:
    def test_evolution_law_check_retains_no_per_time_state(self, shipped_configs):
        # desk-smooth has time-varying rates: every RK4 substep sits at a new time
        cfg = shipped_configs["desk-smooth"]
        window = cli.parse_window(cfg)
        model = cli.parse_model(cfg, window)
        consts = KimuraProblem.build(model, cli.parse_initial(cfg, model)).consts
        gc.collect()
        tracemalloc.start()
        try:
            evolution_law_check(model, consts, 5, 0)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 256 * 1024


class TestHierarchyNorm:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 5), st.integers(2, 4), st.data())
    def test_alpha_table_equals_stacked_norms_bit_for_bit(self, m, n_max, data):
        model = KimuraModel(DiscreteSpace.uniform(m), RateData.constant(m, 1.0, 0.2, 0.5), n_max, WIN)
        shape = data.draw(st.sampled_from([(), (3,), (2, 4)])) + (model.dim,)
        size = math.prod(shape)
        values = st.floats(-1e3, 1e3, allow_subnormal=False)
        V = np.array(data.draw(st.lists(values, min_size=size, max_size=size))).reshape(shape)
        alphas = data.draw(st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=9))
        # the hierarchy norm and the scalar problem's norm
        for norm in (model.hierarchy_norm, flat_norm):
            table = norm(V, alphas)
            assert table.shape == shape[:-1] + (len(alphas),)
            assert np.array_equal(table, np.stack([norm(V, a) for a in alphas], axis=-1))

    @pytest.mark.parametrize("m, n_max", [(4, 3), (2, 3), (1, 2)])
    def test_matches_levelwise_norm_bit_for_bit(self, m, n_max):
        model = KimuraModel(DiscreteSpace.uniform(m), RateData.constant(m, 1.0, 0.2, 0.5), n_max, WIN)
        rng = np.random.default_rng(9)
        for _ in range(5):
            vec = rng.uniform(-2.0, 2.0, model.dim)
            alpha = rng.uniform(0.0, 1.0)
            k = CorrelationHierarchy.from_vector(m, n_max, vec)
            # reference: the levelwise maxima, one level at a time
            levelwise = max(
                math.exp(-alpha * n) * float(np.max(np.abs(lv)))
                for n, lv in enumerate(k.levels) if lv.size
            )
            assert model.hierarchy_norm(vec, alpha) == k.norm(alpha) == levelwise
            assert type(model.hierarchy_norm(vec, alpha)) is float
            # a batch gives the row-wise values, for any leading shape
            batch = rng.uniform(-2.0, 2.0, (2, 3, model.dim))
            rowwise = [
                [CorrelationHierarchy.from_vector(m, n_max, v).norm(alpha) for v in rows]
                for rows in batch
            ]
            assert np.array_equal(model.hierarchy_norm(batch, alpha), rowwise)


class TestModelConstants:
    def test_constants_are_python_floats(self, epistatic_problem):
        c = epistatic_problem.consts
        assert all(type(getattr(c, f)) is float for f in ("c1", "c2", "c3", "cx", "x_norm"))

    def test_dead_model(self, dead_model):
        k0 = CorrelationHierarchy.poisson(3, 3, np.full(3, 0.5))
        c = model_constants(dead_model, k0)
        assert c.c1 == pytest.approx(1.0)
        assert c.c2 == 0.0
        assert c.c3 == 0.0
        assert c.cx == 0.0

    def test_no_appearance_no_interaction_kills_a1_part(self):
        model = KimuraModel(
            DiscreteSpace.uniform(3), RateData.constant(3, 0.7, 0.0, 0.0), 3, WIN
        )
        from banachscale.kimura import a1_part_constant, rate_aggregates

        agg = rate_aggregates(model)
        assert a1_part_constant(0.5, agg) == 0.0

    def test_infinite_radius_rejected(self):
        # B is quadratic: its bounds hold in a ball of finite radius only, so c2 = inf
        win = ScaleWindow(0.0, 0.5, 1.0, r=math.inf, T=1.0)
        model = KimuraModel(DiscreteSpace.uniform(3), RateData.constant(3, 0.1, 0.0, 0.1), 3, win)
        k0 = CorrelationHierarchy.poisson(3, 3, np.full(3, 0.5))
        with pytest.raises(ModelValidationError, match=r"^window\.r: the admissible radius inf "):
            model_constants(model, k0)

    def test_c2_dominates_random_lipschitz_sweep(self, epistatic_model, epistatic_k0, epistatic_problem):
        # empirical scale-Lipschitz ratios never exceed the certificate
        rng = np.random.default_rng(5)
        c = epistatic_problem.consts
        pert = epistatic_problem.perturbation
        x = epistatic_k0.to_vector()
        for _ in range(50):
            lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
            if hi - lo < 1e-6:
                continue
            d1 = rng.uniform(-1, 1, x.shape) * rng.uniform(0, 1.0)
            d2 = rng.uniform(-1, 1, x.shape) * rng.uniform(0, 1.0)
            denom = epistatic_model.hierarchy_norm(d1 - d2, lo)
            if denom == 0:
                continue
            num = epistatic_model.hierarchy_norm(
                pert.apply(x + d1, 0.3) - pert.apply(x + d2, 0.3), hi
            )
            assert num * (hi - lo) / denom <= c.c2 * (1.0 + 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(rate_models(), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    # one site attains the Bdelta bound; this sample reads one ulp above it
    @example(
        KimuraModel(DiscreteSpace.uniform(1), RateData.constant(1, 1.0, 0.0, 0.5), 2, WIN), 0.5, 3
    )
    def test_certificate_dominates_bound_verifier_samples(self, model, rho, seed):
        k0 = CorrelationHierarchy.poisson(model.m, model.n_max, np.full(model.m, rho))
        report = bound_verifier(model, k0, 3, seed)
        assert report.clean, report.violations

    def test_kappa_closed_form(self, epistatic_model):
        # uniform weights 0.25: int h = 1, int int psi over distinct pairs
        alpha = 0.8
        int_h = 1.0
        int_psi = 0.2 * 0.25 * 0.25 * 12
        expected = math.exp(alpha) * int_h + 0.5 * math.exp(2 * alpha) * int_psi
        assert kappa(epistatic_model, 0.0, alpha) == pytest.approx(expected)


class TestSolveKimura:
    def test_unnormalized_datum_rejected(self, epistatic_model):
        k0 = CorrelationHierarchy.poisson(4, 3, np.full(4, 0.5))
        k0.levels[0][0] = 0.9
        with pytest.raises(DomainError):
            KimuraProblem.build(epistatic_model, k0)

    def test_frozen_dynamics_constant_trajectory(self, dead_model):
        k0 = CorrelationHierarchy.poisson(3, 3, np.full(3, 0.5))
        u, rep = solve(dead_model, k0, n_steps=20)
        assert rep.increments[0] == 0.0
        for j in range(len(u.t_grid)):
            assert np.allclose(u.values[j], k0.to_vector(), atol=1e-14)

    def test_normalization_conserved(self, epistatic_model, epistatic_k0):
        u, rep = solve(epistatic_model, epistatic_k0, n_steps=60)
        assert np.max(np.abs(u.values[:, 0] - 1.0)) <= 1e-12

    def test_truncation_consistency(self):
        # raising n_max from 3 to 4 moves levels 0..2 by less than the
        # level-3 magnitude times the horizon (one-sided raising structure)
        win = ScaleWindow(0.0, 0.5, 1.0, r=1.0, T=1.0)
        space = DiscreteSpace.uniform(5)
        rates = RateData.constant(5, 0.5, 0.1, 0.3)
        rho = np.full(5, 0.5)
        m3 = KimuraModel(space, rates, 3, win)
        m4 = KimuraModel(space, rates, 4, win)
        u3, _ = solve(m3, CorrelationHierarchy.poisson(5, 3, rho), n_steps=40)
        u4, _ = solve(m4, CorrelationHierarchy.poisson(5, 4, rho), n_steps=40)
        dim3 = sum(math.comb(5, n) for n in range(3))
        horizon = float(u3.t_grid[-1])
        top_mag = float(np.max(np.abs(u4.values[:, dim3:])))
        gap = float(np.max(np.abs(u3.values[:, :dim3] - u4.values[:, :dim3])))
        assert gap < top_mag * horizon
