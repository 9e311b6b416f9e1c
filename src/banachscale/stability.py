"""Stability of the fixed-point construction under data perturbation.

A convergent family of problems (x_n, U_n, B_n) with a uniform constants
certificate is solved next to its limit problem, and the sup-norm
deviations s_n = max_{t <= t'} ||u_n(t) - u(t)||_alpha are reported together
with the solver floor below which they are indistinguishable from the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, InfeasibleHorizonError
from .scalecore import ScaleWindow, lambda0
from .solver import Problem, SolverOptions, TriangleSolution, picard_solve


@dataclass
class PerturbedFamily:
    """Limit problem plus members, sharing one window and one beta.

    ``labels[n]`` names member n and ``sizes[n]`` is the size of its
    perturbation, as stated by the builder that made it.
    """

    limit: Problem
    members: list[Problem]
    labels: list[str]
    sizes: list[float]

    def __post_init__(self):
        if not len(self.members) == len(self.labels) == len(self.sizes):
            raise DomainError("need one label and one perturbation size per family member")
        beta = self.limit.consts.beta
        for label, member in zip(self.labels, self.members):
            if member.window != self.window:
                raise DomainError(
                    f"family member {label!r} has window {member.window}, "
                    f"limit has {self.window}"
                )
            if member.consts.beta != beta:
                raise DomainError(
                    f"family member {label!r} declares beta = {member.consts.beta}, "
                    f"limit has beta = {beta}"
                )

    @property
    def window(self) -> ScaleWindow:
        return self.limit.window


def lambda1(family: PerturbedFamily) -> float:
    """max{lambda0(limit), sup_n lambda0(member_n)} over the shared window."""
    if not family.members:
        raise DomainError("family has no members")
    return max(lambda0(family.window, p.consts) for p in (family.limit, *family.members))


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
    t_prime: float | None = None,
    opts: SolverOptions = SolverOptions(),
) -> StabilityReport:
    """Solve the limit and every member with ``opts``, report s_n at the
    diagnostic scale ``alpha`` up to ``t_prime``, by default half the horizon
    (alpha - alpha0) / lam.

    Checks alpha in (alpha0, alpha_top], then t_prime inside the horizon,
    then lam > lambda1, so that every solve contracts under the shared slope,
    else :class:`InfeasibleHorizonError`.  The floor is twice the worst
    certified tail bound across all solves: two trajectories agreeing to
    solver accuracy cannot be told apart below it.
    """
    window = family.window
    lam = window.require_lam()
    if not (window.alpha0 < alpha <= window.alpha_top):
        raise DomainError(
            f"alpha must lie in ({window.alpha0}, {window.alpha_top}], got {alpha}", field="alpha"
        )
    horizon = (alpha - window.alpha0) / lam
    if t_prime is None:
        t_prime = 0.5 * horizon
    if not (0.0 < t_prime < horizon):
        raise DomainError(f"t_prime must lie in (0, {horizon}), got {t_prime}", field="t_prime")
    lam1 = lambda1(family)
    if lam <= lam1:
        raise InfeasibleHorizonError(f"lambda = {lam} <= lambda1 = {lam1}")

    # the limit first, then one member at a time: one solution held besides it
    solves = (picard_solve(p, opts) for p in (family.limit, *family.members))
    u_lim, rep_lim = next(solves)
    s_values, tails = [], [rep_lim.tail_bound]
    for u_n, rep_n in solves:
        s_values.append(_sup_deviation(u_n, u_lim, alpha, t_prime))
        tails.append(rep_n.tail_bound)
    floor = 2.0 * max(*tails, opts.tol)
    return StabilityReport(s_values, family.sizes, floor, alpha, t_prime, family.labels)


# ---------------------------------------------------------------------------
# family builders


def kimura_h_family(problem, n_values: list[int]) -> PerturbedFamily:
    """Family with selection cost h_n = h * (1 + 2^(-n)), psi and a fixed.

    The limit is ``problem``, a built :class:`~banachscale.kimura.KimuraProblem`,
    with its certificate; every member gets its own.  Member n's perturbation
    size is max |h_n - h| over the sites.  Every problem of the family gets the
    problem's window with its slope resolved for the family: the model's slope
    when one is set, else AUTO_LAMBDA * :func:`lambda1`.
    """
    from .kimura import AUTO_LAMBDA, KimuraProblem

    h = problem.model.rates.h_base
    members, labels, sizes = [], [], []
    for n in n_values:
        rates_n = replace(problem.model.rates, h_base=h * (1.0 + 2.0 ** (-n)))
        members.append(KimuraProblem.build(replace(problem.model, rates=rates_n), problem.k0))
        labels.append(f"h*(1+2^-{n})")
        sizes.append(float(np.max(np.abs(rates_n.h_base - h))))

    def at(window: ScaleWindow) -> PerturbedFamily:
        shared = [replace(p, window=window) for p in (problem, *members)]
        return PerturbedFamily(shared[0], shared[1:], labels, sizes)

    family = at(problem.window)
    if problem.model.window.lam is None:
        family = at(problem.window.with_lam(AUTO_LAMBDA * lambda1(family)))
    return family
