"""Generic fixed-point engine for u' = A(t)u + B(u,t) in a Banach scale.

The mild formulation u(t) = U(t,0)x + int_0^t U(t,s)B(u(s),s) ds is solved by
Picard iteration on a uniform time grid restricted to the admissible triangle
t < (alpha - alpha0)/lam.  Monitors certify the contraction ratio, the
a-priori bound and the classical-solution residual.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    AdmissibilityError,
    ContractionViolationError,
    DomainError,
    InfeasibleHorizonError,
    shown,
)
from .scalecore import (
    ROUNDOFF,
    OvcyannikovConstants,
    ScaleWindow,
    lambda0,
    triangle_sup,
    weighted_gamma_norm,
)

#: row-batched scale norm: ``norm(V, alpha)`` is one norm per row, an array of
#: shape ``V.shape[:-1]``, and a float for a single vector; ``norm(V, alphas)``
#: with a 1-D sequence of scales is the table of shape ``V.shape[:-1] + (k,)``
#: whose column i equals ``norm(V, alphas[i])``, from one pass over V
ScaleNorm = Callable[[np.ndarray, float | list[float]], np.ndarray | float]

#: step action on a time grid: ``step(V, j)`` is ``U.apply`` over grid step j
#: for one vector or every row of V; ``step(V)`` takes row j over step j
StepAction = Callable[..., np.ndarray]

#: round-off allowance on a measured contraction ratio, besides the
#: quadrature budget
RATIO_SLACK = 1e-9


class EvolutionSystem(abc.ABC):
    """Two-parameter propagator U(t,s) of the linear part A(t).

    Must satisfy U(t,t) = id, the cocycle law U(t,r)U(r,s) = U(t,s) up to
    integrator tolerance, and ||U(t,s)v||_alpha <= c1/(alpha-alpha')^beta
    * ||v||_{alpha'} with the c1, beta of the problem's certificate.
    Both methods are row-batched: row i of V goes with the times t[i] and
    s[i], a scalar time applies to every row, and a 1-D V is the one-row
    case.  :meth:`grid_steps` gives the steps of a Picard grid.
    """

    @abc.abstractmethod
    def apply(self, t: float | np.ndarray, s: float | np.ndarray, V: np.ndarray) -> np.ndarray:
        """Propagate row i of V from time s[i] to time t[i]."""

    @abc.abstractmethod
    def generator_apply(self, t: float | np.ndarray, V: np.ndarray) -> np.ndarray:
        """Apply A(t[i]) to row i of V (used by the residual monitor)."""

    def grid_steps(self, t_grid: np.ndarray) -> tuple[StepAction, StepAction]:
        """Full-step and half-step actions of U on the grid ``t_grid``.

        The full step j is U(t_{j+1}, t_j), the half step j is
        U(t_{j+1}, t_j + dt_j/2).  This default calls :meth:`apply`;
        subclasses with a cheaper precomputed step may override it.
        """
        t = np.asarray(t_grid, dtype=float)
        dt = t[1:] - t[:-1]

        def step(t_from: np.ndarray, t_to: np.ndarray) -> StepAction:
            def action(V: np.ndarray, j: int | slice = slice(None)) -> np.ndarray:
                return self.apply(t_to[j], t_from[j], V)

            return action

        return step(t[:-1], t[1:]), step(t[:-1] + 0.5 * dt, t[1:])


class PerturbationMap(abc.ABC):
    """Nonlinear part B(u,t), bounded by the c2, c3 of the problem's certificate
    inside the window's admissible ball of radius r.

    Row-batched like :class:`EvolutionSystem`: a scalar time applies to
    every row and a 1-D V is the one-row case.
    """

    @abc.abstractmethod
    def apply(self, V: np.ndarray, ts: float | np.ndarray) -> np.ndarray:
        """Evaluate B row by row: row i of the result is B(V[i], ts[i])."""


@dataclass
class Problem:
    """The data (x, U, B) the engine solves, with its certificate.

    ``norm`` is the row-batched scale norm of the state space, ``window``
    has its horizon slope resolved, and ``consts`` certify U and B on it.
    """

    x: np.ndarray
    evolution: EvolutionSystem
    perturbation: PerturbationMap
    norm: ScaleNorm
    window: ScaleWindow
    consts: OvcyannikovConstants


@dataclass(frozen=True)
class SolverOptions:
    """The discretisation of the fixed-point construction.

    Picard iteration stops once the increment is at most ``tol`` or after
    ``k_max`` iterates.  The grid has ``n_steps`` time steps and ``n_alpha``
    scale steps and ends at ``theta`` times the top horizon; theta < 1 keeps
    the degenerate weight at the horizon out of the grid.  Each field is
    checked on its own, so every check names its field.
    """

    tol: float = 1e-10
    k_max: int = 60
    n_steps: int = 100
    n_alpha: int = 8
    theta: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise DomainError(f"tol must be positive and finite, got {self.tol}", field="tol")
        for name in ("k_max", "n_steps", "n_alpha"):
            count = getattr(self, name)
            if not count >= 1:
                raise DomainError(f"{name} must be at least 1, got {shown(count)}", field=name)
        if not 0.0 < self.theta < 1.0:
            raise DomainError(f"theta must lie in (0, 1), got {self.theta}", field="theta")


@dataclass
class TriangleSolution:
    """Values of u on the (t, alpha) triangle grid of ``window``.

    ``values[j]`` is the scale-vector at ``t_grid[j]``; ``mask[j, i]`` marks
    whether t_j lies strictly below the alpha_grid[i]-horizon, and
    ``weights[j, i]`` is the node's weight (alpha_i - alpha0 - lam*t_j)^gamma.
    ``norm`` is the row-batched scale norm shared by all diagnostics.
    :meth:`with_values` shares everything but the values.
    """

    t_grid: np.ndarray
    values: np.ndarray
    alpha_grid: np.ndarray
    mask: np.ndarray
    norm: ScaleNorm
    window: ScaleWindow
    weights: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.t_grid[1] - self.t_grid[0]) if len(self.t_grid) > 1 else 0.0

    def with_values(self, values: np.ndarray) -> "TriangleSolution":
        return TriangleSolution(
            self.t_grid, values, self.alpha_grid, self.mask, self.norm, self.window, self.weights
        )


@dataclass
class ContractionReport:
    defined: bool
    measured: float | None
    bound: float
    slack: float
    violated: bool


@dataclass
class AprioriReport:
    worst_margin: float
    rhs: float
    worst_lhs: float
    samples: int


@dataclass
class ConvergenceReport:
    """Per-iterate diagnostics of a Picard run."""

    increments: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    rho: float = 0.0
    m_values: list[float] = field(default_factory=list)
    apriori_margin: float = 0.0
    iterations: int = 0
    tail_bound: float = 0.0
    quadrature_error_estimate: float = 0.0
    converged: bool = False


#: most entries one table of a Picard grid may hold: far above the grids its
#: dense tables are meant for
MAX_GRID = 2**24


def check_grid(opts: SolverOptions, dim: int) -> None:
    """Refuse options whose grid for a ``dim``-dimensional state has a table of
    more than MAX_GRID entries, with exact integers, before any is allocated:
    ``n_steps`` when its (n_steps + 1, dim) table of values is too large, else
    ``n_alpha`` when its (n_steps + 1, n_alpha + 1) tables of weights are."""
    rows = opts.n_steps + 1
    for name, cols in (("n_steps", dim), ("n_alpha", opts.n_alpha + 1)):
        if rows * cols > MAX_GRID:
            raise DomainError(
                f"n_steps = {shown(opts.n_steps)} and n_alpha = {shown(opts.n_alpha)} on a state "
                f"of dimension {dim} make a grid table of more than {MAX_GRID} entries",
                field=name,
            )


def make_grid(
    window: ScaleWindow, norm: ScaleNorm, dim: int, opts: SolverOptions
) -> TriangleSolution:
    """Empty triangle grid of ``opts`` on [0, theta*(alpha_top-alpha0)/lam],
    with its weights.

    The weights are scalar Python powers (numpy's vectorised power may differ in
    the last bit); a node on or past the horizon by round-off weighs 0.
    """
    lam, alpha0, gamma = window.require_lam(), window.alpha0, window.gamma
    t_end = opts.theta * (window.alpha_top - alpha0) / lam
    t_grid = np.linspace(0.0, t_end, opts.n_steps + 1)
    alpha_grid = np.linspace(alpha0, window.alpha_top, opts.n_alpha + 1)
    mask = t_grid[:, None] < (alpha_grid[None, :] - alpha0) / lam
    alphas = alpha_grid.tolist()
    weights = np.array([
        [max(alpha - alpha0 - lam * t, 0.0) ** gamma for alpha in alphas]
        for t in t_grid.tolist()
    ])
    values = np.zeros((opts.n_steps + 1, dim))
    return TriangleSolution(t_grid, values, alpha_grid, mask, norm, window, weights)


def _radius_check(u: TriangleSolution, x: np.ndarray) -> None:
    r = u.window.r
    if np.isinf(r):
        return
    dev = u.norm(u.values - x, u.alpha_grid.tolist())
    outside = u.mask & (dev > r * ROUNDOFF)
    if outside.any():
        j, i = np.unravel_index(np.argmax(np.where(outside, dev, -np.inf)), dev.shape)
        raise AdmissibilityError(
            f"||u - x||_alpha = {dev[j, i]} > r = {r} at node "
            f"(t = {u.t_grid[j]}, alpha = {u.alpha_grid[i]})"
        )


def integral_map(
    u: TriangleSolution,
    problem: Problem,
    steps: tuple[StepAction, StepAction] | None = None,
    g_nodes: np.ndarray | None = None,
) -> TriangleSolution:
    """T(u)(t) = int_0^t U(t,s) B(u(s),s) ds by composite Simpson.

    u is linearly interpolated at quadrature midpoints.  The running integral
    is advanced one step at a time via the cocycle law,
    acc_{j+1} = U(t_{j+1}, t_j) acc_j + c_j, which reproduces the direct
    node-by-node Simpson evaluation up to integrator tolerance.  The Simpson
    increments c_j are formed for all steps at once.  ``steps`` are the grid
    actions of :meth:`EvolutionSystem.grid_steps`, built here when omitted;
    ``g_nodes`` is B(u(t_j), t_j) at every node, evaluated here when omitted.
    u must stay in the ball of radius ``r`` of its grid's window around x.
    """
    _radius_check(u, problem.x)
    t = u.t_grid
    n = len(t) - 1
    out = np.zeros_like(u.values)
    if n < 0:
        raise DomainError("empty time grid")
    if n == 0:
        return u.with_values(out)
    full, half = problem.evolution.grid_steps(t) if steps is None else steps
    dt = t[1:] - t[:-1]
    B = problem.perturbation
    if g_nodes is None:
        g_nodes = B.apply(u.values, t)
    g_mid = B.apply(0.5 * (u.values[:-1] + u.values[1:]), t[:-1] + 0.5 * dt)
    incr = (dt / 6.0)[:, None] * (full(g_nodes[:-1]) + 4.0 * half(g_mid) + g_nodes[1:])
    acc = np.zeros_like(u.values[0])
    for j in range(n):
        acc = full(acc, j) + incr[j]
        out[j + 1] = acc
    return u.with_values(out)


def _weighted_diff_norm(u: TriangleSolution, v: TriangleSolution) -> float:
    return weighted_gamma_norm(u.with_values(u.values - v.values))


def monitor_m(u: TriangleSolution, B: PerturbationMap, n_tau: int = 3) -> float:
    """M(u): weighted sup of ||B(u(t), tau)||_alpha over the triangle and n_tau taus."""
    taus = np.linspace(0.0, u.window.horizon(), n_tau)
    b_vals = np.stack([B.apply(u.values, tau) for tau in taus])
    return triangle_sup(u, b_vals)


def apriori_bound_rhs(window: ScaleWindow, consts: OvcyannikovConstants) -> float:
    """Right-hand side of the a-priori estimate on M(u)."""
    return (
        (consts.c3 / (window.alpha0 - window.alpha_star) + consts.cx)
        * (window.alpha_top - window.alpha0) ** window.gamma
        * (1.0 + consts.x_norm)
    )


def _quadrature_estimate(u: TriangleSolution, g: np.ndarray) -> float:
    """Budget for the Simpson + linear-midpoint-interpolation error; ``g`` is
    the integrand B(u(t_j), t_j) at every node.

    Dominated by the interpolation of u at midpoints: dt^2/8 * max ||g''||
    accumulated over the horizon, with g'' estimated by second differences of
    the integrand along the trajectory.  A second difference is dt^2 g'', so
    the budget is t_end / 8 * max ||d2|| and no power of dt is ever formed.
    """
    t = u.t_grid
    if len(t) < 3:
        return 0.0
    d2 = g[2:] - 2.0 * g[1:-1] + g[:-2]
    return float(t[-1] / 8.0 * np.max(u.norm(d2, float(u.alpha_grid[-1]))))


def picard_solve(
    problem: Problem, opts: SolverOptions = SolverOptions(), u_init: np.ndarray | None = None
) -> tuple[TriangleSolution, ConvergenceReport]:
    """Iterate u_{k+1} = U(.,0)x + T(u_k) on the grid of ``opts`` until the
    increment drops to ``opts.tol`` or ``opts.k_max`` iterates are made.

    Requires lam > lambda0, else :class:`InfeasibleHorizonError`; measured
    increment ratios above lambda0/lam plus RATIO_SLACK abort with
    :class:`ContractionViolationError`.  ``u_init`` overrides the default
    starting iterate U(.,0)x (used by the uniqueness surrogate).
    """
    x, B, window = problem.x, problem.perturbation, problem.window
    lam = window.require_lam()
    lam0 = lambda0(window, problem.consts)
    if lam <= lam0:
        raise InfeasibleHorizonError(f"lambda = {lam} <= lambda0 = {lam0}")
    rho = lam0 / lam

    grid = make_grid(window, problem.norm, len(x), opts)
    t = grid.t_grid

    # the grid is the same for every iterate: build its step actions once
    steps = problem.evolution.grid_steps(t)
    full = steps[0]

    # propagate the free trajectory U(t,0)x once, stepwise via the cocycle
    u0_vals = np.zeros_like(grid.values)
    u0_vals[0] = x
    for j in range(len(t) - 1):
        u0_vals[j + 1] = full(u0_vals[j], j)
    u_free = grid.with_values(u0_vals)

    u = u_free if u_init is None else grid.with_values(
        np.broadcast_to(u_init, grid.values.shape).copy()
    )

    report = ConvergenceReport(rho=rho)
    prev_d = None
    quad_budget = 0.0
    # B at the current iterate's nodes: the quadrature budget of one iterate
    # and the integral map of the next share it
    g_nodes = None
    for k in range(opts.k_max):
        tu = integral_map(u, problem, steps, g_nodes)
        # released here, so the monitors' peak memory holds no extra node table
        g_nodes = None
        u_next = grid.with_values(u_free.values + tu.values)
        d = _weighted_diff_norm(u_next, u)
        report.increments.append(d)
        report.m_values.append(monitor_m(u_next, B))
        g_nodes = B.apply(u_next.values, t)
        quad_budget = _quadrature_estimate(u_next, g_nodes)
        if prev_d is not None and prev_d > 0:
            ratio = d / prev_d
            report.ratios.append(ratio)
            if d > opts.tol and ratio > rho + RATIO_SLACK + quad_budget:
                raise ContractionViolationError(
                    f"measured ratio {ratio} exceeds lambda0/lam = {rho} "
                    f"plus slack {RATIO_SLACK + quad_budget}"
                )
        u = u_next
        prev_d = d
        report.iterations = k + 1
        if d <= opts.tol:
            report.converged = True
            break

    last_d = report.increments[-1] if report.increments else 0.0
    report.tail_bound = last_d * rho / (1.0 - rho)
    report.quadrature_error_estimate = quad_budget
    report.apriori_margin = apriori_bound_rhs(window, problem.consts) - max(
        report.m_values, default=0.0
    )
    return u, report


def contraction_check(
    u: TriangleSolution, v: TriangleSolution, problem: Problem
) -> ContractionReport:
    """Measure ||T(u)-T(v)||^(gamma) / ||u-v||^(gamma) against lambda0/lam."""
    window = problem.window
    lam = window.require_lam()
    bound = lambda0(window, problem.consts) / lam
    denom = _weighted_diff_norm(u, v)
    if denom == 0.0:
        return ContractionReport(False, None, bound, RATIO_SLACK, False)
    steps = problem.evolution.grid_steps(u.t_grid)
    tu = integral_map(u, problem, steps)
    tv = integral_map(v, problem, steps)
    measured = _weighted_diff_norm(tu, tv) / denom
    B = problem.perturbation
    quad = max(_quadrature_estimate(w, B.apply(w.values, w.t_grid)) for w in (u, v))
    tol = RATIO_SLACK + quad
    return ContractionReport(True, measured, bound, tol, measured > bound + tol)


def apriori_check(u: TriangleSolution, problem: Problem, n_tau: int = 5) -> AprioriReport:
    """Margin of the a-priori bound: its right-hand side minus M(u) over n_tau taus."""
    rhs = apriori_bound_rhs(problem.window, problem.consts)
    worst_lhs = monitor_m(u, problem.perturbation, n_tau)
    return AprioriReport(rhs - worst_lhs, rhs, worst_lhs, n_tau * int(u.mask.sum()))


def residual_check(u: TriangleSolution, problem: Problem) -> float:
    """Max interior defect of u' = A(t)u + B(u,t) at alpha_top, central differences."""
    t = u.t_grid
    if len(t) < 3:
        raise DomainError("residual check needs at least 3 time nodes")
    b_vals = problem.perturbation.apply(u.values[1:-1], t[1:-1])
    dudt = (u.values[2:] - u.values[:-2]) / (2.0 * u.dt)
    a_vals = problem.evolution.generator_apply(t[1:-1], u.values[1:-1])
    return float(np.max(u.norm(dudt - a_vals - b_vals, problem.window.alpha_top)))
