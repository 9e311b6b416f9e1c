"""Independent ground truth: closed-form product solution, a direct reference
integrator for the full hierarchy equation, and seeded random verifiers for
every certified constant and operator inequality."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, OracleDomainError, shown
from .kimura import (
    CorrelationHierarchy,
    KimuraModel,
    KimuraPerturbation,
    a1_part_constant,
    apply_A0,
    apply_A1,
    apply_ldelta,
    bdelta,
    bdelta_constant,
    evolution_u,
    kappa_integral,
    model_constants,
    rate_aggregates,
)
from .scalecore import ROUNDOFF, OvcyannikovConstants, ScaleWindow

#: step-halving deviation above which the reference integrator warns of stiffness
HALVING_TOL = 1e-10

#: worst cocycle deviation |U(t,s) - U(t,r)U(r,s)| an evolution check accepts
COCYCLE_TOL = 1e-8


def _require_psi_zero(model: KimuraModel) -> None:
    if np.any(model.rates.psi_base):
        raise OracleDomainError("closed-form product oracle requires psi identically zero")


def relative_deviation(
    model: KimuraModel, values: np.ndarray, ref: np.ndarray, alpha: float
) -> np.ndarray | float:
    """||values - ref||_alpha / ||ref||_alpha per row, the reference norm floored at 1e-300."""
    return model.hierarchy_norm(values - ref, alpha) / np.maximum(
        model.hierarchy_norm(ref, alpha), 1e-300
    )


def _stack(hierarchies: list[CorrelationHierarchy]) -> np.ndarray:
    return np.array([k.vec for k in hierarchies])


def poisson_oracle(
    model: KimuraModel, rho0: np.ndarray, t: float | np.ndarray
) -> CorrelationHierarchy | list[CorrelationHierarchy]:
    """Product hierarchy k^(n)(eta) = prod rho_t(i) for the non-interacting case.

    Because the discrete raising sum skips sites already in the
    configuration, the exact per-site density equation of the product
    solution carries a quadratic self-term:

        rho'(i) = a(t,i) - h(t,i) rho(i) + w(i) h(t,i) rho(i)^2.

    Each scalar equation is integrated by an adaptive high-order method to
    1e-12.  ``t`` is one time, or an array of increasing times that one
    integration covers and for which a list of hierarchies is returned.  This
    closure is implementer-derived: validate it against
    :func:`bruteforce_oracle` (see :func:`validate_poisson_closure`) before
    relying on it.  The closure is exact only when the truncation is vacuous
    (n_max = m); the validation gate enforces that regime.
    """
    _require_psi_zero(model)
    rho0 = np.asarray(rho0, dtype=float)
    if np.any(rho0 < 0):
        raise OracleDomainError("initial densities must be nonnegative")
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if times.size and times[0] < 0:
        raise DomainError(f"t must be nonnegative, got {times[0]}")
    if np.any(np.diff(times) <= 0):
        raise DomainError("times must be increasing")
    rates = model.rates
    w = model.space.weights
    # the only user of scipy.integrate, whose import is a large share of the CLI's
    from scipy.integrate import solve_ivp

    def rhs(s, rho):
        h = rates.h(s)
        a = rates.a(s)
        return a - h * rho + w * h * rho**2

    # t = 0 is the exact initial product; the positive times share one run
    rhos = np.tile(rho0, (times.size, 1))
    later = times > 0.0
    if later.any():
        sol = solve_ivp(
            rhs, (0.0, times[-1]), rho0, method="DOP853", rtol=1e-12, atol=1e-14,
            t_eval=times[later],
        )
        if not sol.success:
            raise OracleDomainError(f"density integration failed: {sol.message}")
        rhos[later] = sol.y.T
    out = [CorrelationHierarchy.poisson(model.m, model.n_max, rho) for rho in rhos]
    return out if np.ndim(t) else out[0]


def bruteforce_oracle(
    model: KimuraModel,
    k0: CorrelationHierarchy,
    t_end: float,
    steps: int,
) -> tuple[np.ndarray, list[CorrelationHierarchy]]:
    """Reference trajectory of k' = L(t, k) by direct fixed-step RK4.

    No operator splitting and no fixed point: the full generator is applied as
    is, so the level-0 invariant is preserved exactly.  The result is computed
    at double resolution and compared against the single-resolution run; a
    mismatch above HALVING_TOL raises a stiffness warning with the
    measured ratio.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    t_grid = np.linspace(0.0, t_end, steps + 1)
    coarse = _rk4_ldelta(model, k0, t_end, steps)
    fine = _rk4_ldelta(model, k0, t_end, 2 * steps)
    dev = float(np.max(np.abs(_stack(coarse) - _stack(fine[::2]))))
    if dev > HALVING_TOL:
        warnings.warn(
            f"step-halving changed the trajectory by {dev:.3e} > {HALVING_TOL:.1e}; "
            "the hierarchy may be too stiff for this step count",
            RuntimeWarning,
            stacklevel=2,
        )
    return t_grid, fine[::2]


def _rk4_ldelta(
    model: KimuraModel, k0: CorrelationHierarchy, t_end: float, steps: int
) -> list[CorrelationHierarchy]:
    dt = t_end / steps
    traj = [k0.copy()]
    k = k0.copy()
    t = 0.0
    for _ in range(steps):
        k1 = apply_ldelta(model, t, k)
        k2 = apply_ldelta(model, t + 0.5 * dt, k + 0.5 * dt * k1)
        k3 = apply_ldelta(model, t + 0.5 * dt, k + 0.5 * dt * k2)
        k4 = apply_ldelta(model, t + dt, k + dt * k3)
        k = k + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        traj.append(k)
    return traj


def validate_poisson_closure(
    model: KimuraModel,
    rho0: np.ndarray,
    t_end: float,
    steps: int = 200,
    tol: float = 1e-8,
) -> float:
    """Gate for the product closure: worst deviation from the reference integrator.

    Raises if the closed form and the direct integration disagree beyond tol
    in the alpha_top norm (relative to the reference), so callers cannot use
    an unvalidated closure.
    """
    _require_psi_zero(model)
    if model.n_max < model.m:
        raise OracleDomainError(
            "closure validation needs a vacuous truncation (n_max >= m); "
            f"got n_max = {model.n_max} < m = {model.m}"
        )
    k0 = CorrelationHierarchy.poisson(model.m, model.n_max, rho0)
    t_grid, ref = bruteforce_oracle(model, k0, t_end, steps)
    closure = poisson_oracle(model, rho0, t_grid)
    worst = float(np.max(relative_deviation(
        model, _stack(closure), _stack(ref), model.window.alpha_top
    )))
    if worst > tol:
        raise OracleDomainError(
            f"product closure disagrees with the reference integrator: {worst:.3e} > {tol:.1e}"
        )
    return worst


def oracle_reference(
    model: KimuraModel, k0: CorrelationHierarchy, t_grid: np.ndarray
) -> tuple[str, np.ndarray]:
    """Independent reference trajectory on ``t_grid``, one row per time, and its name.

    With psi zero and a vacuous truncation (n_max >= m) it is the product
    solution (``"poisson"``), validated against the reference integrator
    first; otherwise the reference integrator itself (``"bruteforce"``).
    """
    t_end = float(t_grid[-1])
    if not np.any(model.rates.psi_base) and model.n_max >= model.m:
        rho0 = np.array([k0.value((i,)) for i in range(model.m)])
        validate_poisson_closure(model, rho0, t_end)
        return "poisson", _stack(poisson_oracle(model, rho0, t_grid))
    _, refs = bruteforce_oracle(model, k0, t_end, len(t_grid) - 1)
    return "bruteforce", _stack(refs)


# ---------------------------------------------------------------------------
# seeded inequality verifier


#: most entries, samples times the hierarchy's dimension, that one sample set
#: draws: 87 times the shipped configs' 1,500.  The verifiers' time and memory
#: grow with them.
MAX_SAMPLE_ENTRIES = 2**17


def check_samples(samples: int, dim: int) -> None:
    """Refuse fewer than one sample, or samples of hierarchies of ``dim`` entries
    that hold more than MAX_SAMPLE_ENTRIES in all, with exact integers, before
    any is drawn."""
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {shown(samples)}", field="samples")
    if samples * dim > MAX_SAMPLE_ENTRIES:
        raise DomainError(
            f"samples = {shown(samples)} on a hierarchy of dimension {dim} draw more than "
            f"{MAX_SAMPLE_ENTRIES} entries", field="samples",
        )


@dataclass
class BoundReport:
    """Worst observed/bound ratios per inequality plus any violations.

    A bound that is attained exactly (Bdelta on one site) can read a ratio one
    ulp above 1, so only ratios above the round-off allowance ROUNDOFF count
    as violations; ``worst`` keeps the unrounded ratios.  A NaN observation or
    bound gives a NaN ratio, which is a violation and, once seen, the worst.
    """

    seed: int
    samples: int
    #: entries of each sampled hierarchy
    dim: int
    worst: dict[str, float] = field(default_factory=dict)
    violations: list[tuple[str, int, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_samples(self.samples, self.dim)

    def record(self, name: str, index: int, observed: float, bound: float) -> None:
        ratio = observed / bound if not bound <= 0 else (0.0 if observed == 0.0 else math.inf)
        if math.isnan(ratio) or ratio > self.worst.get(name, 0.0):
            self.worst[name] = ratio
        if not ratio <= ROUNDOFF:
            self.violations.append((name, index, ratio))

    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def failed(self) -> list[str]:
        """Names of the violated inequalities, sorted."""
        return sorted({name for name, _, _ in self.violations})


def _random_hierarchy(
    rng: np.random.Generator, m: int, n_max: int, alpha: float, scale: float = 1.0
) -> CorrelationHierarchy:
    """Uniform level values scaled so the alpha-norm is at most ``scale``."""
    k = CorrelationHierarchy.zero(m, n_max)
    for n, level in enumerate(k.levels):
        level[:] = rng.uniform(-1.0, 1.0, level.size) * scale * math.exp(alpha * n)
    return k


def _scale_pair(rng: np.random.Generator, win: ScaleWindow) -> tuple[float, float]:
    """Scales alpha' < alpha drawn from the window, as Python floats; a pair closer
    than 1e-9 is widened to 1e-3, capped at alpha_top."""
    lo, hi = sorted(rng.uniform(win.alpha_star, win.alpha_top, 2).tolist())
    return lo, (hi if hi - lo >= 1e-9 else min(win.alpha_top, lo + 1e-3))


def bound_verifier(
    model: KimuraModel,
    k0: CorrelationHierarchy,
    samples: int,
    seed: int,
    consts: OvcyannikovConstants | None = None,
) -> BoundReport:
    """Check every operator and perturbation inequality on seeded random data.

    Covers the hierarchy-operator bounds A0, A1 and Bdelta (with the corrected
    x^2 e^(-bx) <= 4/(e b)^2 envelope for the quadratic part of the selection
    cost), the perturbation Lipschitz bound B2 with c2 and the initial-datum
    bound B3 with c3; :func:`evolution_law_check` checks the propagator's.
    ``consts`` may be injected to audit an externally supplied certificate.
    """
    report = BoundReport(seed=seed, samples=samples, dim=model.dim)
    win = model.window
    if consts is None:
        consts = model_constants(model, k0)
    agg = rate_aggregates(model)
    rng = np.random.default_rng(seed)
    x_vec = k0.vec
    r_ball = win.r if math.isfinite(win.r) else 1.0
    # B3 draws its scale from 1e-3 above alpha_star, or from the window's upper
    # half when the window is narrower
    b3_low = win.alpha_star + 1e-3
    if b3_low > win.alpha_top:
        b3_low = win.alpha_star + 0.5 * (win.alpha_top - win.alpha_star)

    # draw every sample in seeded order, evaluate B on all at once, record in sample order
    draws = []
    for _ in range(samples):
        lo, hi = _scale_pair(rng, win)
        t = float(rng.uniform(0.0, win.T))
        k = _random_hierarchy(rng, model.m, model.n_max, lo)
        d1 = _random_hierarchy(rng, model.m, model.n_max, lo, rng.uniform(0, r_ball))
        d2 = _random_hierarchy(rng, model.m, model.n_max, lo, rng.uniform(0, r_ball))
        alpha_b3 = float(rng.uniform(b3_low, win.alpha_top))
        draws.append((lo, hi, t, k, d1, d2, alpha_b3))
    _, _, ts, _, d1s, d2s, _ = zip(*draws)
    # per sample the B2 pair x + d1, x + d2, then the B3 datum x, at its time t
    b_args = np.array([
        [x_vec + d1.vec, x_vec + d2.vec, x_vec] for d1, d2 in zip(d1s, d2s)
    ])
    b_vals = KimuraPerturbation(model).apply(
        b_args.reshape(3 * samples, -1), np.repeat(ts, 3)
    ).reshape(b_args.shape)

    for idx, (draw, (k1, k2, _), (b1, b2, b3)) in enumerate(zip(draws, b_args, b_vals)):
        lo, hi, t, k, _, _, alpha_b3 = draw
        b = hi - lo
        k_norm_lo = k.norm(lo)

        # selection-cost envelope + raising terms
        a0_bound = (
            agg.h_sup / (math.e * b)
            + 4.0 * agg.psi_sup / (math.e * b) ** 2
            + bdelta_constant(lo, agg)
        ) * k_norm_lo
        report.record("A0", idx, apply_A0(model, t, k).norm(hi), a0_bound)

        a1_bound = a1_part_constant(lo, agg) / b * k_norm_lo
        report.record("A1", idx, apply_A1(model, t, k).norm(hi), a1_bound)

        report.record(
            "Bdelta", idx, abs(bdelta(model, t, k)), bdelta_constant(lo, agg) * k_norm_lo
        )

        # Lipschitz bound of the nonlinear part inside the admissible ball
        diff_norm = model.hierarchy_norm(k1 - k2, lo)
        if diff_norm > 0:
            observed = model.hierarchy_norm(b1 - b2, hi)
            report.record("B2", idx, observed, consts.c2 / b * diff_norm)

        # bound at the initial datum
        report.record(
            "B3", idx, model.hierarchy_norm(b3, alpha_b3), consts.c3 / (alpha_b3 - win.alpha_star)
        )
    return report


@dataclass
class EvolutionLawReport:
    """U on one sample set: exact identity, worst cocycle deviation, A2 and growth bounds."""

    identity_exact: bool
    cocycle_worst: float
    bounds: BoundReport

    @property
    def growth_violations(self) -> int:
        return sum(name == "growth" for name, _, _ in self.bounds.violations)

    @property
    def failed(self) -> list[str]:
        """Names of the laws that fail: identity, cocycle, then the violated bounds, sorted.

        A cocycle deviation fails unless it is at most COCYCLE_TOL, so NaN fails.
        """
        failed = [] if self.identity_exact else ["evolution-identity"]
        if not self.cocycle_worst <= COCYCLE_TOL:
            failed.append("evolution-cocycle")
        return failed + self.bounds.failed


def evolution_law_check(
    model: KimuraModel, consts: OvcyannikovConstants, samples: int, seed: int
) -> EvolutionLawReport:
    """Identity, cocycle, A2 and growth laws of U on one seeded sample set.

    Each sample draws scales alpha' < alpha, k at alpha' and times s < r < t:
    ||U(t,s) k||_alpha is bounded by c1 ||k||_alpha' (A2) and by
    exp(int_s^t kappa(alpha)) ||k||_alpha (growth), and U(t,s) k is compared
    with U(t,r) U(r,s) k (cocycle).
    """
    bounds = BoundReport(seed=seed, samples=samples, dim=model.dim)
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(samples):
        lo, hi = _scale_pair(rng, model.window)
        k = _random_hierarchy(rng, model.m, model.n_max, lo)
        # Python floats, so the growth bound's kappa_integral is scalar math
        draws.append((lo, hi, k, sorted(rng.uniform(0.0, model.window.T, 3).tolist())))
    V = np.array([k.vec for _, _, k, _ in draws])
    s, r_mid, t = np.array([times for *_, times in draws]).T
    # every row from V in one call: identity t <- t, direct t <- s and r <- s;
    # the direct spans are the longest, so they set the substep count they
    # would set alone.  Then t <- r.
    identity, direct, first_leg = evolution_u(
        model, np.concatenate([t, t, r_mid]), np.concatenate([t, s, s]), np.tile(V, (3, 1))
    ).reshape(3, *V.shape)
    identity_exact = bool(np.array_equal(identity, V))
    chained = evolution_u(model, t, r_mid, first_leg)
    cocycle_worst = float(np.max(model.hierarchy_norm(direct - chained, model.window.alpha_top)))
    for idx, ((lo, hi, k, (s_i, _, t_i)), v) in enumerate(zip(draws, direct)):
        uk = model.hierarchy_norm(v, hi)
        bounds.record("A2", idx, uk, consts.c1 * k.norm(lo))
        bounds.record("growth", idx, uk, math.exp(kappa_integral(model, s_i, t_i, hi)) * k.norm(hi))
    if cocycle_worst > COCYCLE_TOL:
        msg = f"cocycle deviation {cocycle_worst:.3e} exceeds {COCYCLE_TOL:.1e}"
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return EvolutionLawReport(identity_exact, cocycle_worst, bounds)
