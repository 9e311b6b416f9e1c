import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachscale.errors import DomainError
from banachscale.scalecore import (
    OvcyannikovConstants,
    ScaleWindow,
    lambda0,
    lambda0_audit,
    lambda0_terms,
    weighted_gamma_norm,
)
from banachscale.solver import make_grid


def unit_window(**kw):
    return ScaleWindow(0.0, 0.5, 1.0, **kw)


def unit_consts(**kw):
    base = dict(c1=1.0, beta=0.0, c2=1.0, c3=1.0, cx=1.0, x_norm=0.0)
    base.update(kw)
    return OvcyannikovConstants(**base)


class TestScaleWindow:
    def test_alpha_ordering_enforced(self):
        with pytest.raises(DomainError):
            ScaleWindow(0.5, 0.5, 1.0)
        with pytest.raises(DomainError):
            ScaleWindow(0.0, 1.0, 0.5)

    def test_gamma_range(self):
        for gamma in (0.0, 1.0):
            with pytest.raises(DomainError):
                unit_window(gamma=gamma)

    def test_positive_parameters(self):
        with pytest.raises(DomainError):
            unit_window(lam=0.0)
        with pytest.raises(DomainError):
            unit_window(T=0.0)
        with pytest.raises(DomainError):
            unit_window(r=-1.0)

    def test_infinite_radius_allowed(self):
        assert math.isinf(unit_window(r=math.inf).r)

    def test_horizon_requires_lam(self):
        with pytest.raises(DomainError):
            unit_window().horizon()
        assert unit_window(lam=2.0).horizon() == pytest.approx(0.25)


class TestOvcyannikovConstants:
    def test_c1_strictly_positive(self):
        with pytest.raises(DomainError):
            unit_consts(c1=0.0)

    def test_zero_c2_c3_allowed(self):
        # dead dynamics produce a legitimately vanishing perturbation
        c = unit_consts(c2=0.0, c3=0.0)
        assert c.c2 == 0.0 and c.c3 == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            unit_consts(c2=-1.0)
        with pytest.raises(DomainError):
            unit_consts(cx=-0.1)

    @pytest.mark.parametrize("name", ["c2", "c3", "cx", "x_norm"])
    def test_nan_rejected(self, name):
        with pytest.raises(DomainError):
            unit_consts(**{name: math.nan})


class TestLambda0:
    def test_reference_value(self):
        # unit constants, infinite radius: max{1, 8, 8 + 2^3.5, 0}
        val = lambda0(unit_window(r=math.inf), unit_consts())
        assert val == pytest.approx(8.0 + 2.0**3.5, rel=1e-12)

    def test_finite_radius_only_grows(self):
        base = lambda0(unit_window(r=math.inf), unit_consts())
        assert lambda0(unit_window(r=0.5), unit_consts()) >= base

    def test_large_T_no_change_when_dominated(self):
        short = lambda0(unit_window(r=math.inf, T=1.0), unit_consts())
        long = lambda0(unit_window(r=math.inf, T=1e9), unit_consts())
        assert long == pytest.approx(short)

    def test_beta_gamma_ranges(self):
        # beta is the certificate's; the window's gamma must lie in (beta, 1 - beta)
        with pytest.raises(DomainError):
            unit_consts(beta=0.5)
        with pytest.raises(DomainError):
            lambda0(unit_window(gamma=0.1), unit_consts(beta=0.2))
        with pytest.raises(DomainError):
            lambda0(unit_window(gamma=0.85), unit_consts(beta=0.2))
        lambda0(unit_window(gamma=0.5), unit_consts(beta=0.2))

    @given(
        st.floats(0.1, 5.0),
        st.floats(0.1, 5.0),
        st.floats(0.1, 5.0),
        st.floats(0.0, 5.0),
        st.floats(1.1, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_each_constant(self, c1, c2, c3, cx, factor):
        win = unit_window(r=1.0)
        base = unit_consts(c1=c1, c2=c2, c3=c3, cx=cx)
        v0 = lambda0(win, base)
        for key in ("c1", "c2", "c3", "cx"):
            kw = dict(c1=c1, c2=c2, c3=c3, cx=cx)
            kw[key] = kw[key] * factor if kw[key] > 0 else factor
            assert lambda0(win, unit_consts(**kw)) >= v0 - 1e-12

    def test_terms_consistent(self):
        win = unit_window(r=1.0)
        consts = unit_consts()
        terms = lambda0_terms(win, consts)
        assert set(terms) == {"time_span", "contraction", "monitor", "radius", "lambda0"}
        four = [terms[k] for k in ("time_span", "contraction", "monitor", "radius")]
        assert terms["lambda0"] == pytest.approx(max(four))
        assert terms["lambda0"] == pytest.approx(lambda0(win, consts))

    def test_audit_names_the_binding_term_and_its_horizon(self):
        # without a perturbation only the time span constrains the slope
        win = unit_window(r=math.inf, T=1.0)
        audit = lambda0_audit(win, unit_consts(c2=0.0))
        assert audit["binding"] == "time_span"
        assert audit["time_span"] == audit["lambda0"] == 1.0
        assert audit["certified_horizon"] == win.width / audit["lambda0"]

    def test_infinite_radius_kills_fourth_term(self):
        terms = lambda0_terms(unit_window(r=math.inf), unit_consts())
        assert terms["radius"] == 0.0


def grid_with(values_scale, lam=1.0, n_steps=4, n_alpha=4):
    win = unit_window(lam=lam)
    norm = lambda v, alpha: np.max(np.abs(v), axis=-1)  # noqa: E731
    g = make_grid(win, norm, 2, n_steps, n_alpha)
    g.values[:] = values_scale
    return g, win


class TestWeightedGammaNorm:
    def test_zero_function(self):
        g, win = grid_with(0.0)
        assert weighted_gamma_norm(g, win) == 0.0

    def test_constant_function_corner_value(self):
        # flat norm c: maximum weight at t=0, alpha=alpha_top
        g, win = grid_with(3.0)
        expected = 3.0 * (win.alpha_top - win.alpha0) ** win.gamma
        assert weighted_gamma_norm(g, win) == pytest.approx(expected)

    def test_single_node_hand_value(self):
        win = unit_window(lam=1.0)

        class OneNode:
            t_grid = np.array([0.0])
            alpha_grid = np.array([1.0])
            mask = np.array([[True]])
            values = np.zeros((1, 1))

            def norm(self, rows, alpha):
                return np.full(rows.shape[:-1], 2.0)

        assert weighted_gamma_norm(OneNode(), win) == pytest.approx(2.0 * 0.5**0.5)

    def test_empty_grid_rejected(self):
        win = unit_window(lam=1.0)

        class Empty:
            t_grid = np.array([])
            alpha_grid = np.array([])
            mask = np.zeros((0, 0), dtype=bool)
            values = np.zeros((0, 1))

            def norm(self, rows, alpha):
                return np.zeros(rows.shape[:-1])

        with pytest.raises(DomainError):
            weighted_gamma_norm(Empty(), win)

    @given(st.lists(st.floats(-5, 5), min_size=5, max_size=5),
           st.lists(st.floats(-5, 5), min_size=5, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, a_vals, b_vals):
        win = unit_window(lam=1.0)
        norm = lambda v, alpha: np.max(np.abs(v), axis=-1)  # noqa: E731
        ga = make_grid(win, norm, 1, 4, 4)
        gb = make_grid(win, norm, 1, 4, 4)
        ga.values[:, 0] = a_vals
        gb.values[:, 0] = b_vals
        gs = ga.with_values(ga.values + gb.values)
        assert weighted_gamma_norm(gs, win) <= (
            weighted_gamma_norm(ga, win) + weighted_gamma_norm(gb, win) + 1e-12
        )

    def test_larger_gamma_shrinks_norm(self):
        # window width <= 1, so weights decrease as gamma grows
        g_lo, win_lo = grid_with(2.0)
        win_hi = ScaleWindow(0.0, 0.5, 1.0, gamma=0.8, lam=1.0)
        assert weighted_gamma_norm(g_lo, win_hi) <= weighted_gamma_norm(g_lo, win_lo) + 1e-12
