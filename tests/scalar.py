"""The scalar closed-form test problem u' = -mu u + c u, exact solution
x0 exp((c - mu) t), with the flat norm max_i |v_i| at every scale."""

from __future__ import annotations

import math

import numpy as np

from banachscale.scalecore import OvcyannikovConstants, ScaleWindow
from banachscale.solver import EvolutionSystem, PerturbationMap, Problem
from banachscale.stability import PerturbedFamily


class ScalarEvolution(EvolutionSystem):
    """U(t,s) = exp(-mu (t-s)), applied componentwise."""

    def __init__(self, mu: float):
        self.mu = mu

    def apply(self, t: float | np.ndarray, s: float | np.ndarray, V: np.ndarray) -> np.ndarray:
        # one scalar exp per row, like the profiles of the hierarchy
        span = np.subtract(t, s)
        factors = np.array([math.exp(-self.mu * x) for x in np.ravel(span).tolist()])
        return factors.reshape(np.shape(span) + (1,)) * V

    def generator_apply(self, t: float | np.ndarray, V: np.ndarray) -> np.ndarray:
        return -self.mu * V


class ScalarPerturbation(PerturbationMap):
    """B(u, t) = c u."""

    def __init__(self, c: float):
        self.c = c

    def apply(self, V: np.ndarray, ts: float | np.ndarray) -> np.ndarray:
        return self.c * V


def flat_norm(V: np.ndarray, alpha: float | list[float]) -> np.ndarray | float:
    """max_i |v_i| of each row, the same at every scale; for a sequence of
    alphas, that value repeated in each column."""
    best = np.max(np.abs(V), axis=-1)
    return best if np.ndim(alpha) == 0 else np.repeat(best[..., None], len(alpha), axis=-1)


def scalar_problem(mu: float, c: float, x0: float, window: ScaleWindow) -> Problem:
    """Problem u' = -mu u + c u, exact solution x0 exp((c - mu) t).

    The certificate is sized to the declared window.
    """
    span = window.alpha_top - window.alpha_star
    consts = OvcyannikovConstants(
        c1=1.0 if mu >= 0 else math.inf,
        beta=0.0,
        c2=abs(c) * span,
        c3=abs(c) * abs(x0) * span,
        cx=abs(mu) * abs(x0),
        x_norm=abs(x0),
    )
    return Problem(
        np.array([x0]), ScalarEvolution(mu), ScalarPerturbation(c), flat_norm, window, consts
    )


def scalar_family(
    mu: float, c: float, x0: float, epsilons: list[float], window: ScaleWindow
) -> PerturbedFamily:
    """Initial-datum family x_n = x0 (1 + eps_n) for the scalar problem.

    Member n's perturbation size is |x_n - x0|.
    """
    data = [x0 * (1.0 + eps) for eps in epsilons]
    return PerturbedFamily(
        scalar_problem(mu, c, x0, window),
        [scalar_problem(mu, c, x_n, window) for x_n in data],
        [f"x0={x_n:g}" for x_n in data],
        [abs(x_n - x0) for x_n in data],
    )


def scalar_exact(mu: float, c: float, x0: float, t: float) -> float:
    """Closed-form solution of the scalar test problem."""
    return x0 * math.exp((c - mu) * t)
