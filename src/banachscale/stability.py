"""Stability of the fixed-point construction under data perturbation.

A convergent family of problem instances (x_n, U_n, B_n) with a uniform
constants certificate is solved next to its limit instance, and the sup-norm
deviations s_n = max_{t <= t'} ||u_n(t) - u(t)||_alpha are reported together
with the solver floor below which they are indistinguishable from the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, InfeasibleHorizonError
from .scalecore import OvcyannikovConstants, ScaleWindow, lambda0
from .solver import (
    EvolutionSystem,
    PerturbationMap,
    ScaleNorm,
    TriangleSolution,
    picard_solve,
)


@dataclass
class ProblemInstance:
    """One (x, U, B) triple with its constants certificate and scale norm."""

    x: np.ndarray
    evolution: EvolutionSystem
    perturbation: PerturbationMap
    consts: OvcyannikovConstants
    norm: ScaleNorm
    label: str = ""


@dataclass
class PerturbedFamily:
    """Limit instance plus members, sharing one window and one beta."""

    limit: ProblemInstance
    members: list[ProblemInstance]
    window: ScaleWindow

    def __post_init__(self):
        beta = self.limit.consts.beta
        for inst in self.members:
            if inst.consts.beta != beta:
                raise DomainError(
                    f"family member {inst.label!r} declares beta = {inst.consts.beta}, "
                    f"limit has beta = {beta}"
                )

    def uniform_constants(self) -> OvcyannikovConstants:
        """Componentwise maxima over the limit and every member."""
        insts = [self.limit, *self.members]
        return OvcyannikovConstants(
            c1=max(i.consts.c1 for i in insts),
            beta=self.limit.consts.beta,
            c2=max(i.consts.c2 for i in insts),
            c3=max(i.consts.c3 for i in insts),
            cx=max(i.consts.cx for i in insts),
            x_norm=max(i.consts.x_norm for i in insts),
        )


def lambda1(family: PerturbedFamily) -> float:
    """max{lambda0(limit), sup_n lambda0(member_n)} over the shared window."""
    if not family.members:
        raise DomainError("family has no members")
    return max(lambda0(family.window, inst.consts) for inst in (family.limit, *family.members))


@dataclass
class StabilityReport:
    """Deviations s_n, perturbation sizes and the achievable floor."""

    s_values: list[float]
    perturbation_sizes: list[float]
    floor: float
    alpha: float
    t_prime: float
    labels: list[str] = field(default_factory=list)

    def loglog_slope(self) -> float:
        """Least-squares slope of log s_n vs log perturbation size.

        Points at or below the floor are excluded; they carry no signal.
        """
        pts = [
            (math.log(p), math.log(s))
            for p, s in zip(self.perturbation_sizes, self.s_values)
            if s > self.floor and p > 0.0
        ]
        if len(pts) < 2:
            raise DomainError("fewer than 2 deviation points above the solver floor")
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        return float(np.polyfit(xs, ys, 1)[0])


def _sup_deviation(
    u: TriangleSolution, v: TriangleSolution, alpha: float, t_prime: float
) -> float:
    near = u.t_grid <= t_prime
    return float(np.max(u.norm(u.values[near] - v.values[near], alpha), initial=0.0))


def stability_experiment(
    family: PerturbedFamily,
    alpha: float,
    t_prime: float,
    tol: float = 1e-10,
    **solver_kwargs,
) -> StabilityReport:
    """Solve the limit and every member, report s_n at the diagnostic scale.

    Requires lam > lambda1 so every solve contracts under the shared slope,
    else :class:`InfeasibleHorizonError`.  The floor is twice the worst
    certified tail bound across all solves: two trajectories agreeing to
    solver accuracy cannot be told apart below it.
    """
    lam = family.window.require_lam()
    lam1 = lambda1(family)
    if lam <= lam1:
        raise InfeasibleHorizonError(f"lambda = {lam} <= lambda1 = {lam1}")
    if not (family.window.alpha0 < alpha <= family.window.alpha_top):
        raise DomainError(
            f"diagnostic alpha = {alpha} outside ({family.window.alpha0}, "
            f"{family.window.alpha_top}]"
        )
    if not (0.0 < t_prime < (alpha - family.window.alpha0) / lam):
        raise DomainError(
            f"t_prime = {t_prime} outside (0, {(alpha - family.window.alpha0) / lam})"
        )

    limit, members = family.limit, family.members
    # the limit first, then one member at a time: one solution held besides it
    solves = (
        picard_solve(
            inst.x, inst.evolution, inst.perturbation, family.window, inst.consts,
            inst.norm, tol=tol, **solver_kwargs,
        )
        for inst in (limit, *members)
    )
    u_lim, rep_lim = next(solves)
    s_values, tails = [], [rep_lim.tail_bound]
    for u_n, rep_n in solves:
        s_values.append(_sup_deviation(u_n, u_lim, alpha, t_prime))
        tails.append(rep_n.tail_bound)
    sizes = [float(limit.norm(inst.x - limit.x, family.window.alpha_star)) for inst in members]
    floor = 2.0 * max(*tails, tol)
    return StabilityReport(s_values, sizes, floor, alpha, t_prime, [inst.label for inst in members])


def propagator_convergence(
    family: PerturbedFamily, samples: int = 20, seed: int = 0
) -> list[float]:
    """Sampled surrogate for uniform convergence of the propagators U_n -> U.

    Compact-uniform convergence reduces to finite samples in the truncated
    state space: random unit-scaled vectors and (t, s) pairs are propagated by
    each member and by the limit, and the worst alpha_top-norm gap per member
    is returned.
    """
    rng = np.random.default_rng(seed)
    win = family.window
    dim = len(family.limit.x)
    vecs = rng.uniform(-1.0, 1.0, (samples, dim))
    s, t = np.sort(rng.uniform(0.0, win.T, (samples, 2)), axis=1).T
    limit = family.limit.evolution.apply(t, s, vecs)
    return [
        float(np.max(
            family.limit.norm(inst.evolution.apply(t, s, vecs) - limit, win.alpha_top),
            initial=0.0,
        ))
        for inst in family.members
    ]


# ---------------------------------------------------------------------------
# family builders


def kimura_h_family(problem, n_values: list[int]) -> PerturbedFamily:
    """Family with selection cost h_n = h * (1 + 2^(-n)), psi and a fixed.

    The limit is ``problem``, a built :class:`~banachscale.kimura.KimuraProblem`,
    with its certificate; every member gets its own.  The family shares the
    problem's window with its slope resolved for the family: the model's slope
    when one is set, else AUTO_LAMBDA * :func:`lambda1`.
    """
    from .kimura import AUTO_LAMBDA, KimuraProblem

    def as_instance(prob, label):
        return ProblemInstance(
            prob.k0.to_vector(), prob.evolution, prob.perturbation, prob.consts,
            prob.norm, label,
        )

    model = problem.model
    members = []
    for n in n_values:
        rates_n = replace(model.rates, h_base=model.rates.h_base * (1.0 + 2.0 ** (-n)))
        model_n = replace(model, rates=rates_n)
        members.append(as_instance(KimuraProblem.build(model_n, problem.k0), f"h*(1+2^-{n})"))
    family = PerturbedFamily(as_instance(problem, "limit"), members, problem.window)
    if model.window.lam is None:
        family.window = family.window.with_lam(AUTO_LAMBDA * lambda1(family))
    return family


# ---------------------------------------------------------------------------
# scalar closed-form test problem


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


def scalar_problem(
    mu: float, c: float, x0: float, window: ScaleWindow
) -> ProblemInstance:
    """Instance for u' = -mu u + c u, exact solution x0 exp((c - mu) t).

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
    norm = lambda v, alpha: np.max(np.abs(v), axis=-1)  # noqa: E731
    return ProblemInstance(
        np.array([x0]), ScalarEvolution(mu), ScalarPerturbation(c), consts, norm, f"x0={x0:g}"
    )


def scalar_family(
    mu: float, c: float, x0: float, epsilons: list[float], window: ScaleWindow
) -> PerturbedFamily:
    """Initial-datum family x_n = x0 (1 + eps_n) for the scalar problem."""
    limit = scalar_problem(mu, c, x0, window)
    members = [scalar_problem(mu, c, x0 * (1.0 + eps), window) for eps in epsilons]
    return PerturbedFamily(limit, members, window)


def scalar_exact(mu: float, c: float, x0: float, t: float) -> float:
    """Closed-form solution of the scalar test problem."""
    return x0 * math.exp((c - mu) * t)
