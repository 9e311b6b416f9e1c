"""Mutation-selection hierarchy on a discrete site space.

The state is a truncated family of symmetric correlation-type level functions
k^(0), ..., k^(N_max) indexed by subsets of sites.  The generator splits as
L = -A0 + A1 + Bdelta*k, where -A0 drives the evolution system and
B(k, t) = A1 k + Bdelta(k) k is the nonlinear perturbation fed to the generic
fixed-point solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import accumulate, combinations, repeat

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .errors import ConfigurationError, DomainError, ModelValidationError
from .scalecore import OvcyannikovConstants, ScaleWindow, lambda0_terms
from .solver import EvolutionSystem, PerturbationMap, Problem, StepAction


@lru_cache(maxsize=None)
def level_configs(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical (sorted) configurations of n distinct sites out of m."""
    return tuple(combinations(range(m), n))


@lru_cache(maxsize=None)
def config_index(m: int, n: int) -> dict[tuple[int, ...], int]:
    return {eta: i for i, eta in enumerate(level_configs(m, n))}


@lru_cache(maxsize=None)
def level_starts(m: int, n_max: int) -> tuple[int, ...]:
    """Position of each level 0..n_max in the flattened hierarchy."""
    return tuple(accumulate((math.comb(m, n) for n in range(n_max)), initial=0))


@dataclass(frozen=True)
class DiscreteSpace:
    """Finite site set with strictly positive quadrature weights."""

    points: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if len(self.points) < 1 or len(self.points) != len(w):
            raise ModelValidationError("points and weights must be nonempty and aligned")
        if not np.all(np.isfinite(w)) or not np.all(w > 0):
            raise ModelValidationError(
                "weights must be finite and strictly positive", field="weights"
            )

    @classmethod
    def uniform(cls, m: int) -> "DiscreteSpace":
        return cls(tuple(f"x{i}" for i in range(m)), np.full(m, 1.0 / m))

    @property
    def m(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class TimeProfile:
    """Built-in time dependence of a rate: constant, exp decay or sinusoidal."""

    kind: str = "constant"
    rate: float = 0.0
    amp: float = 0.0
    freq: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "exp_decay", "sinusoidal"):
            raise ModelValidationError(f"unknown time profile {self.kind!r}", field="kind")
        if self.kind == "exp_decay" and self.rate < 0:
            raise ModelValidationError("exp_decay rate must be nonnegative", field="rate")
        if self.kind == "sinusoidal" and not (0.0 <= self.amp <= 1.0):
            raise ModelValidationError("sinusoidal amplitude must lie in [0, 1]", field="amp")

    def value(self, t: float) -> float:
        if self.kind == "constant":
            return 1.0
        if self.kind == "exp_decay":
            return math.exp(-self.rate * t)
        return 1.0 + self.amp * math.sin(self.freq * t)

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant" or (self.kind == "sinusoidal" and self.amp == 0.0)

    def at(self, t: float | np.ndarray) -> float | np.ndarray | None:
        """The profile at t, or at each time of an array t; None when constant
        (exactly 1, so its product is skipped).  Each value is one scalar ``math``
        evaluation: numpy's vectorised sin and exp may differ in the last bit."""
        if self.is_constant:
            return None
        if np.ndim(t) == 0:
            return self.value(t)
        t = np.asarray(t, dtype=float)
        # value()'s formulas, inlined: a map over value() makes verify-smooth about
        # 12 % slower; test_at_is_value_per_element_bit_for_bit keeps the two equal.
        # An overflowing product is -inf or inf, as in value(): exp gives 0, sin raises
        with np.errstate(over="ignore"):
            x = -self.rate * t if self.kind == "exp_decay" else self.freq * t
        fn = math.exp if self.kind == "exp_decay" else math.sin
        y = np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)
        return y if self.kind == "exp_decay" else 1.0 + self.amp * y

    def describe(self) -> str:
        """The profile's kind and its parameters, as a config names them."""
        if self.kind == "exp_decay":
            return f"exp_decay, rate {self.rate}"
        if self.kind == "sinusoidal":
            return f"sinusoidal, amp {self.amp}, freq {self.freq}"
        return "constant"

    def integral(self, t: float, s: float = 0.0) -> float:
        """Exact int_s^t profile(tau) dtau, free of cancellation for t near s."""
        dt = t - s
        # dt times (1 - e^-x)/x or sin(y)/y, both accurate down to subnormal x, y
        if self.kind == "exp_decay":
            x = self.rate * dt
            if math.isinf(x):
                # e^-x is below every double, so the integral is e^(-rate s) / rate
                return math.exp(-self.rate * s) / self.rate
            return math.exp(-self.rate * s) * dt * (-math.expm1(-x) / x if x else 1.0)
        if self.kind == "sinusoidal":
            y = 0.5 * self.freq * dt
            phase = 0.5 * self.freq * (t + s)
            if math.isinf(phase) or math.isinf(y):
                raise OverflowError("the phase of a sinusoidal profile overflows")
            ratio = math.sin(y) / y if y else 1.0
            return dt + self.amp * math.sin(phase) * dt * ratio
        return dt

    def sup(self, T: float) -> float:
        """Exact maximum of the profile on [0, T]."""
        if self.kind != "sinusoidal":
            return 1.0
        lo, hi = sorted((0.0, self.freq * T))
        if hi - lo >= 2.0 * math.pi:
            # a full period holds a peak, also when freq * T overflows
            return 1.0 + self.amp
        # the first peak pi/2 + 2 pi k of sin at or above lo
        peak = 0.5 * math.pi + 2.0 * math.pi * math.ceil((lo - 0.5 * math.pi) / (2.0 * math.pi))
        top = 1.0 if peak <= hi else max(math.sin(lo), math.sin(hi))
        return 1.0 + self.amp * top


@dataclass(frozen=True)
class RateData:
    """Site rates h (selection cost), psi (pair interaction) and a (appearance).

    Each rate is a nonnegative base array scaled by a built-in time profile.
    psi must be symmetric; its diagonal is validated, then set to 0, because
    every quadrature sum skips coincident sites.
    """

    h_base: np.ndarray
    psi_base: np.ndarray
    a_base: np.ndarray
    h_profile: TimeProfile = TimeProfile()
    psi_profile: TimeProfile = TimeProfile()
    a_profile: TimeProfile = TimeProfile()

    def __post_init__(self):
        h = np.asarray(self.h_base, dtype=float)
        psi = np.asarray(self.psi_base, dtype=float)
        a = np.asarray(self.a_base, dtype=float)
        object.__setattr__(self, "h_base", h)
        object.__setattr__(self, "psi_base", psi)
        object.__setattr__(self, "a_base", a)
        m = len(h)
        if psi.shape != (m, m) or len(a) != m:
            raise ModelValidationError("rate arrays must share the site dimension")
        for arr, name in ((h, "h"), (psi, "psi"), (a, "a")):
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ModelValidationError(
                    f"rate {name} must be finite and nonnegative", field=name
                )
        if not np.array_equal(psi, psi.T):
            raise ModelValidationError("psi must be symmetric in its site arguments", field="psi")
        object.__setattr__(self, "psi_base", psi * ~np.eye(m, dtype=bool))

    @classmethod
    def constant(cls, m: int, h: float, psi: float, a: float) -> "RateData":
        return cls(np.full(m, h), np.full((m, m), psi), np.full(m, a))

    def h(self, t: float) -> np.ndarray:
        return self.h_base * self.h_profile.value(t)

    def psi(self, t: float) -> np.ndarray:
        return self.psi_base * self.psi_profile.value(t)

    def a(self, t: float) -> np.ndarray:
        return self.a_base * self.a_profile.value(t)


def graded_norm(
    vec: np.ndarray, m: int, n_max: int, alpha: float | list[float]
) -> np.ndarray | float:
    """max_n e^(-alpha n) max_eta |k^(n)(eta)| of each flattened hierarchy along the last axis.

    Returns an array of shape ``vec.shape[:-1]``, a float for one vector; for
    a 1-D sequence of alphas, the table of shape ``vec.shape[:-1] + (k,)``
    whose column i is the norm at ``alpha[i]``, from one pass over ``vec``.
    Levels n > m are empty and contribute 0; they sit at the tail, so the
    starts of the nonempty levels are the first min(m, n_max) + 1 starts.
    The level weights are scalar ``math.exp`` values; numpy's vectorised exp
    may differ from it in the last bit.
    """
    level_max = np.maximum.reduceat(np.abs(vec), level_starts(m, n_max)[: m + 1], axis=-1)
    alphas = alpha if np.ndim(alpha) else [alpha]
    weights = np.array([[math.exp(-a * n) for n in range(level_max.shape[-1])] for a in alphas])
    table = np.max(level_max[..., None, :] * weights, axis=-1)
    if np.ndim(alpha):
        return table
    best = table[..., 0]
    return float(best) if best.ndim == 0 else best


class CorrelationHierarchy:
    """Truncated hierarchy: one table per level n, indexed by sorted subsets."""

    def __init__(self, m: int, n_max: int, levels: list[np.ndarray]):
        if len(levels) != n_max + 1:
            raise DomainError("need one table per level 0..n_max")
        self.m = m
        self.n_max = n_max
        self.levels = [np.asarray(lv, dtype=float).copy() for lv in levels]
        for n, lv in enumerate(self.levels):
            if lv.shape != (math.comb(m, n),):
                raise DomainError(
                    f"level {n} must have binomial({m},{n}) = {math.comb(m, n)} entries"
                )

    @classmethod
    def zero(cls, m: int, n_max: int) -> "CorrelationHierarchy":
        return cls(m, n_max, [np.zeros(math.comb(m, n)) for n in range(n_max + 1)])

    @classmethod
    def poisson(cls, m: int, n_max: int, rho: np.ndarray) -> "CorrelationHierarchy":
        """Product hierarchy k(eta) = prod_{i in eta} rho_i, with k(empty) = 1."""
        rho = np.asarray(rho, dtype=float)
        levels = []
        for n in range(n_max + 1):
            levels.append(
                np.array([float(np.prod(rho[list(eta)])) for eta in level_configs(m, n)])
            )
        return cls(m, n_max, levels)

    def copy(self) -> "CorrelationHierarchy":
        return CorrelationHierarchy(self.m, self.n_max, self.levels)

    def value(self, eta: tuple[int, ...]) -> float:
        n = len(eta)
        if n > self.n_max:
            return 0.0
        return float(self.levels[n][config_index(self.m, n)[tuple(sorted(eta))]])

    def to_vector(self) -> np.ndarray:
        return np.concatenate(self.levels)

    @classmethod
    def from_vector(cls, m: int, n_max: int, vec: np.ndarray) -> "CorrelationHierarchy":
        levels, pos = [], 0
        for n in range(n_max + 1):
            size = math.comb(m, n)
            levels.append(np.asarray(vec[pos : pos + size]))
            pos += size
        return cls(m, n_max, levels)

    def norm(self, alpha: float) -> float:
        """max_n e^(-alpha n) max_eta |k^(n)(eta)|, by :func:`graded_norm`."""
        return graded_norm(self.to_vector(), self.m, self.n_max, alpha)

    def __add__(self, other):
        return CorrelationHierarchy(
            self.m, self.n_max, [a + b for a, b in zip(self.levels, other.levels)]
        )

    def __rmul__(self, c: float):
        return CorrelationHierarchy(self.m, self.n_max, [c * lv for lv in self.levels])


@dataclass
class KimuraModel:
    """Discrete space, rates, truncation level and the working scale window.

    Each rate is a base array times a scalar profile, so with four sparse
    components assembled once, A0(t) = p_h(t) A0_h + p_psi(t) A0_psi and
    A1(t) = p_psi(t) A1_psi + p_a(t) A1_a.  ``_a0`` stacks [A0_h; A0_psi], so
    A0(t) v costs one product; ``_b`` stacks [A1_psi; A1_a] and row 0 of A0_h
    and of A0_psi, the two parts of the Bdelta functional.
    """

    space: DiscreteSpace
    rates: RateData
    n_max: int
    window: ScaleWindow
    _a0: sparse.csr_matrix = field(init=False, repr=False, compare=False)
    _b: sparse.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_max < 2:
            raise ModelValidationError(
                f"n_max must be at least 2 (pair term of Bdelta), got {self.n_max}", field="n_max"
            )
        if len(self.rates.h_base) != self.space.m:
            raise ModelValidationError("rates and space disagree on the site count")
        _check_sums(self)
        a0_h, a0_psi, a1_psi, a1_a = _assemble_components(self)
        self._a0 = sparse.vstack([a0_h, a0_psi], format="csr")
        self._b = sparse.vstack([a1_psi, a1_a, a0_h[0], a0_psi[0]], format="csr")

    @property
    def m(self) -> int:
        return self.space.m

    @property
    def dim(self) -> int:
        return sum(math.comb(self.m, n) for n in range(self.n_max + 1))

    def hierarchy_norm(self, vec: np.ndarray, alpha: float | list[float]) -> np.ndarray | float:
        """Scale norm of each flattened hierarchy vector, by :func:`graded_norm`
        (a table for a sequence of alphas)."""
        return graded_norm(vec, self.m, self.n_max, alpha)

    def a0_factors(self, t: float | np.ndarray) -> tuple:
        """Profile values (p_h, p_psi) at t by :meth:`TimeProfile.at`."""
        return self.rates.h_profile.at(t), self.rates.psi_profile.at(t)

    def a0_dot(
        self, t: float | np.ndarray, V: np.ndarray, factors: tuple | None = None
    ) -> np.ndarray:
        """A0(t[i]) V[i] for every row of V, from one product with the stacked components.

        ``t`` holds one time per row; a scalar t with one vector is the
        one-row case.  ``factors`` are the :meth:`a0_factors` of t when the
        caller has them already (RK4 stages share their times).  The product
        is :func:`_csr_product`, scipy's CSR kernel without the ``@``
        dispatch, so each row is ``_a0 @ V[i]`` bit for bit.
        """
        p_h, p_psi = self.a0_factors(t) if factors is None else factors
        d = V.shape[-1]
        Y = _csr_product(self._a0, V.T)
        return (_scaled(p_h, Y[:d]) + _scaled(p_psi, Y[d:])).T

    def a0_matrix(self, t: float) -> sparse.csr_matrix:
        d = self._a0.shape[1]
        p_h, p_psi = self.a0_factors(t)
        return _scaled(p_h, self._a0[:d]) + _scaled(p_psi, self._a0[d:])


def _check_sums(model: KimuraModel) -> None:
    """Refuse rates or weights whose sums or products overflow a double.

    Bounds, in Python floats and before numpy forms them, the largest sums
    over the sites and site pairs of a configuration and the weighted entries
    of :func:`_assemble_components`, and the aggregates of
    :func:`rate_aggregates`.  Each bound is attained but psi's: its largest
    pair rates need not share a configuration.  A rate whose own sums
    overflow is named first (``rates.h``, ``rates.psi``, ``rates.a``), then
    the weights that scale it (``space.weights``).
    """
    rates, T = model.rates, model.window.T
    m, sites = model.m, min(model.m, model.n_max)
    w = model.space.weights.tolist()
    h, psi, a = rates.h_base.tolist(), rates.psi_base.tolist(), rates.a_base.tolist()
    profiles = (rates.h_profile, rates.psi_profile, rates.a_profile)
    sup_h, sup_psi, sup_a = (p.sup(T) for p in profiles)

    def top(values, k: int) -> float:
        """The largest sum of k of the nonnegative values."""
        return sum(sorted(values, reverse=True)[:k])

    def dot(x, y) -> float:
        return sum(p * q for p, q in zip(x, y))

    pairs = [psi[i][j] for i in range(m) for j in range(i + 1, m)]
    row_ints = [dot(row, w) for row in psi]
    checks = (
        ("rates.h", top(h, sites), f"a sum of h over {sites} sites"),
        ("rates.h", max(h) * sup_h, "h at the peak of its profile"),
        ("rates.psi", top(pairs, math.comb(sites, 2)), f"a sum of psi over {sites} sites"),
        ("rates.psi", max(pairs, default=0.0) * sup_psi, "psi at the peak of its profile"),
        ("rates.a", max(a) * sup_a, "a at the peak of its profile"),
        # a product w_i w_j psi_ij is then a term of the double integral
        ("space.weights", max(w) * max(w), "a product of two weights"),
        # w_j times site j's psi summed over the other sites of a configuration
        ("space.weights", max(
            w[j] * top((psi[i][j] for i in range(m) if i != j), sites - 1) for j in range(m)
        ), "a weight times a sum of psi"),
        ("space.weights", dot(w, h) * sup_h, "the integral of h"),
        ("space.weights", max(row_ints) * sup_psi, "an integral of a row of psi"),
        ("space.weights", dot(w, row_ints) * sup_psi, "the double integral of psi"),
    )
    for field_name, value, what in checks:
        if not math.isfinite(value):
            raise ModelValidationError(f"{what} overflows a double", field=field_name)


def _scaled(p, x):
    """p x for a profile value p, x itself for a constant profile (p is None)."""
    return x if p is None else p * x


def _csr_product(mat: sparse.csr_matrix, X: np.ndarray) -> np.ndarray:
    """mat @ X for a float CSR matrix and a dense vector or block, by scipy's own kernel.

    ``csr_matvec`` for a vector or a one-column block, ``csr_matvecs`` for a
    wider block, on a C-contiguous X and a zeroed float output, as scipy's
    ``_matmul_vector`` and ``_matmul_multivector`` call them: the result is
    ``mat @ X`` bit for bit, without the operator's dispatch, which costs
    more than the product at the hierarchy's desk sizes.
    """
    M, N = mat.shape
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim not in (1, 2) or X.shape[0] != N:
        raise ValueError(f"cannot multiply a {M}x{N} matrix by an array of shape {X.shape}")
    if X.ndim == 1 or X.shape[1] == 1:
        out = np.zeros(M)
        _sparsetools.csr_matvec(M, N, mat.indptr, mat.indices, mat.data, X.ravel(), out)
        return out if X.ndim == 1 else out[:, None]
    out = np.zeros((M, X.shape[1]))
    _sparsetools.csr_matvecs(
        M, N, X.shape[1], mat.indptr, mat.indices, mat.data, X.ravel(), out.ravel()
    )
    return out


def _assemble_components(model: KimuraModel) -> list[sparse.csr_matrix]:
    """A0_h, A0_psi, A1_psi and A1_a: the operators at unit profiles.

    Same index maps as the structural actions, built level by level from the
    level's configurations as an (C(m, n), n) array of sorted rows.  Every
    entry links a configuration to a parent that lacks one or two of its
    sites: dropping columns of a sorted row leaves the parent sorted, and its
    column is its lexicographic rank.  Each entry is the value the structural
    loop forms, and every sum over the sites of a configuration is
    accumulated position by position in ascending order, as the loop adds
    them (``np.sum`` may reorder 8 or more terms).  psi is symmetric, so the
    pair raising of A0 and the pair part of the selection cost, both half
    sums over ordered pairs, are sums over unordered pairs.
    """
    m, n_max, d = model.m, model.n_max, model.dim
    off = level_starts(m, n_max)
    w = model.space.weights
    h, psi, a = model.rates.h_base, model.rates.psi_base, model.rates.a_base
    w_h = w * h
    w_w_psi = w[:, None] * w[None, :] * psi
    # equals -w, since w > 0; np.negative would page in a numpy kernel that a
    # verify or stability run otherwise never runs (about 0.13 MiB of peak RSS)
    minus_w = 0.0 - w
    # C(c, k) for c < m and k <= n_max: no larger binomial than the dimension
    binom = np.array([[math.comb(c, k) for k in range(n_max + 1)] for c in range(m)])

    def rank(configs: np.ndarray) -> np.ndarray:
        """Position of each sorted row in level_configs(m, len(row))."""
        n = configs.shape[1]
        return math.comb(m, n) - 1 - binom[m - 1 - configs, n - np.arange(n)].sum(axis=1)

    # (rows, cols, values) arrays per component
    a0_h, a0_psi, a1_psi, a1_a = ([] for _ in range(4))
    for n in range(min(m, n_max) + 1):
        size = math.comb(m, n)
        C = np.array(level_configs(m, n), dtype=np.intp).reshape(size, n)
        idx = off[n] + np.arange(size)
        h_sum, psi_sum = np.zeros(size), np.zeros(size)
        for p in range(n):
            h_sum = h_sum + h[C[:, p]]
        for p, q in combinations(range(n), 2):
            psi_sum = psi_sum + psi[C[:, p], C[:, q]]
        a0_h.append((idx, idx, h_sum))
        a0_psi.append((idx, idx, psi_sum))
        # the parent without site j: A0_h and A1_psi raise it into C, A1_a lowers C into it
        for p in range(n):
            keep = [q for q in range(n) if q != p]
            parent, j = off[n - 1] + rank(C[:, keep]), C[:, p]
            psi_in = np.zeros(size)
            for q in keep:
                psi_in = psi_in + psi[C[:, q], j]
            a0_h.append((parent, idx, w_h[j]))
            a1_psi.append((parent, idx, minus_w[j] * psi_in))
            a1_a.append((idx, parent, a[j]))
        # the parent without sites i < j: A0_psi raises it into C
        for p, q in combinations(range(n), 2):
            keep = [r for r in range(n) if r not in (p, q)]
            parent = off[n - 2] + rank(C[:, keep])
            a0_psi.append((parent, idx, w_w_psi[C[:, p], C[:, q]]))
    mats = []
    for parts in (a0_h, a0_psi, a1_psi, a1_a):
        rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
        mat = sparse.csr_matrix((vals, (rows, cols)), shape=(d, d), dtype=float)
        mat.eliminate_zeros()
        mats.append(mat)
    return mats


def _check_config(model: KimuraModel, eta) -> tuple[int, ...]:
    eta = tuple(eta)
    if len(set(eta)) != len(eta):
        raise ModelValidationError(f"configuration {eta} repeats a site index")
    if any(i < 0 or i >= model.m for i in eta):
        raise ModelValidationError(f"configuration {eta} indexes outside the space")
    return tuple(sorted(eta))


def selection_cost(model: KimuraModel, t: float, eta) -> float:
    """Phi(t, eta) = sum_i h(t,i) + (1/2) sum_{i != j in eta} psi(t,i,j)."""
    eta = _check_config(model, eta)
    h = model.rates.h(t)
    psi = model.rates.psi(t)
    total = 0.0
    for i in eta:
        total += h[i]
    pair = 0.0
    for i in eta:
        for j in eta:
            if j != i:
                pair += psi[i, j]
    return total + 0.5 * pair


def _raising_sum(model: KimuraModel, t: float, k: CorrelationHierarchy, eta) -> float:
    """sum_{i not in eta} w_i h_i k(eta+i) + (1/2) sum_{i != j not in eta} w_i w_j psi_ij k(eta+i+j).

    Shared by the A0 action and Bdelta so that the level-0 cancellation of the
    full generator is exact in floating point.  Sums run in ascending index
    order; weights multiply after rate evaluation.
    """
    w = model.space.weights
    h = model.rates.h(t)
    psi = model.rates.psi(t)
    outside = [i for i in range(model.m) if i not in eta]
    total = 0.0
    for i in outside:
        total += w[i] * h[i] * k.value(eta + (i,))
    pair = 0.0
    for i in outside:
        for j in outside:
            if j != i:
                pair += w[i] * w[j] * psi[i, j] * k.value(eta + (i, j))
    return total + 0.5 * pair


def apply_A0(model: KimuraModel, t: float, k: CorrelationHierarchy) -> CorrelationHierarchy:
    """Multiplication by Phi plus the two raising (quadrature) terms."""
    out = CorrelationHierarchy.zero(model.m, model.n_max)
    for n in range(model.n_max + 1):
        for idx, eta in enumerate(level_configs(model.m, n)):
            out.levels[n][idx] = selection_cost(model, t, eta) * k.levels[n][
                idx
            ] + _raising_sum(model, t, k, eta)
    return out


def apply_A1(model: KimuraModel, t: float, k: CorrelationHierarchy) -> CorrelationHierarchy:
    """Lowering/exchange part: -psi raising over occupied sites plus a-lowering."""
    out = CorrelationHierarchy.zero(model.m, model.n_max)
    w = model.space.weights
    psi = model.rates.psi(t)
    a = model.rates.a(t)
    for n in range(model.n_max + 1):
        for idx, eta in enumerate(level_configs(model.m, n)):
            val = 0.0
            for i in eta:
                for j in range(model.m):
                    if j not in eta:
                        val -= w[j] * psi[i, j] * k.value(eta + (j,))
            for i in eta:
                val += a[i] * k.value(tuple(x for x in eta if x != i))
            out.levels[n][idx] = val
    return out


def bdelta(model: KimuraModel, t: float, k: CorrelationHierarchy) -> float:
    """Scalar multiplier: weighted level-1 h-sum plus weighted level-2 psi-sum."""
    return float(_raising_sum(model, t, k, ()))


def apply_ldelta(model: KimuraModel, t: float, k: CorrelationHierarchy) -> CorrelationHierarchy:
    """Full generator -A0 k + A1 k + Bdelta(k) k; level 0 vanishes when k(empty)=1."""
    a0 = apply_A0(model, t, k)
    a1 = apply_A1(model, t, k)
    b = bdelta(model, t, k)
    out = CorrelationHierarchy.zero(model.m, model.n_max)
    for n in range(model.n_max + 1):
        out.levels[n] = -a0.levels[n] + a1.levels[n] + b * k.levels[n]
    return out


#: step-halving tolerance of the propagator, per unit time
EVOLUTION_TOL = 1e-10

#: most RK4 steps one propagation may take over all its runs, and the length of its first substep
_MAX_STEPS = 2**16
_FIRST_SUBSTEP = 0.05

#: longest interval the propagator accepts: its first coarse and fine runs fit in _MAX_STEPS
MAX_SPAN = _MAX_STEPS // 3 * _FIRST_SUBSTEP


def evolution_u(
    model: KimuraModel, t: float | np.ndarray, s: float | np.ndarray, V: np.ndarray
) -> np.ndarray:
    """Propagate v' = -A0(tau) v from s to t by step-doubling RK4, one interval per row.

    ``V`` is a matrix with one vector per row and ``t``, ``s`` hold one
    interval per row (a scalar applies to every row); one vector is the
    one-row case.  All rows of one RK4 run take the same number of substeps,
    each over its own interval; each row returns the finer result of the
    first pair of runs whose step-halving comparison is below its own
    tolerance, EVOLUTION_TOL per unit time.  A row depends on the other rows
    only through the longest span, which sets the first substep count:
    permuting rows permutes the result, and a batched row agrees with its
    one-row call to the tolerance, not bit for bit.  A row with t = s is an
    exact copy; a row with t < s raises :class:`DomainError`.
    """
    v0 = np.asarray(V, dtype=float)
    V0 = np.atleast_2d(v0)
    T, S = (np.broadcast_to(np.asarray(x, dtype=float), len(V0)) for x in (t, s))
    span = T - S
    bad = np.flatnonzero(~(span >= 0.0))
    if bad.size:
        i = bad[0]
        where = "" if v0.ndim == 1 else f" in row {i}"
        raise DomainError(f"evolution requires t >= s, got t = {T[i]}, s = {S[i]}{where}")
    out = V0.copy()
    moving = np.flatnonzero(span > 0.0)
    if moving.size:
        out[moving] = _rk4_doubling(model, S[moving], span[moving], V0[moving])
    return out[0] if v0.ndim == 1 else out


def _rk4_doubling(
    model: KimuraModel, s: np.ndarray, span: np.ndarray, V0: np.ndarray
) -> np.ndarray:
    """Rows of V0 propagated over [s, s + span], span > 0, by step doubling.

    Every run steps all its rows n times, row i with substep span[i] / n; the
    first run takes n from the longest span, and each later run doubles n and
    carries only the rows whose halving comparison is still above tolerance.
    A run that would take the RK4 steps of all runs past _MAX_STEPS raises.
    """
    longest = span.max()
    if longest > MAX_SPAN:
        raise DomainError(
            f"an interval of length {longest} is longer than the propagator's limit {MAX_SPAN}"
        )
    n = max(1, math.ceil(longest / _FIRST_SUBSTEP))
    # round-off floor: halving comparisons cannot resolve below a few ulps
    scale = np.maximum(1.0, np.max(np.abs(V0), axis=1))
    tol = EVOLUTION_TOL * span * scale + 64.0 * np.finfo(float).eps * scale
    coarse = _rk4(model, s, span / n, V0, n)
    steps = n
    out = np.empty_like(V0)
    active = np.arange(len(span))
    while True:
        steps += 2 * n
        if steps > _MAX_STEPS:
            raise DomainError(
                f"an interval of length {longest} needs more than {_MAX_STEPS} RK4 steps; "
                f"{_a0_rates(model)}"
            )
        fine = _rk4(model, s[active], span[active] / (2 * n), V0[active], 2 * n)
        done = np.max(np.abs(fine - coarse), axis=1) <= tol[active]
        out[active[done]] = fine[done]
        keep = ~done
        active, coarse, n = active[keep], fine[keep], 2 * n
        if not active.size:
            return out


def _a0_rates(model: KimuraModel) -> str:
    """The config fields that make A0 hard to resolve: its time profiles, else its rates."""
    rates = model.rates
    varying = [
        f"model.rates.{name} ({profile.describe()})"
        for name, profile in (("h_profile", rates.h_profile), ("psi_profile", rates.psi_profile))
        if not profile.is_constant
    ]
    if varying:
        return "A0 varies in time through " + " and ".join(varying)
    return "A0 is constant in time, so its rates model.rates.h and model.rates.psi are too stiff"


#: most RK4 steps whose stage times one profile table holds
_BLOCK = 64


def _rk4(model: KimuraModel, s: np.ndarray, h: np.ndarray, V0: np.ndarray, n: int) -> np.ndarray:
    """Classical RK4: row i of V0 takes n steps of h[i] from s[i].

    Stage times are s + (j / 2) h, j = 0..2n: step k starts at j = 2k, has its
    midpoint at 2k + 1 and ends at 2k + 2 (j / 2 is exact, so these are the
    doubles s + (k + 0.5) h and s + (k + 1) h).  The profile values of a
    block of at most _BLOCK steps come from one :meth:`KimuraModel.a0_factors`
    call on its (2 block + 1, rows) table of stage times, so memory grows
    with the rows, not the steps.  The state holds one column per row, so a
    stage is one sparse product on a contiguous block.  Stages hold A0 v
    rather than -A0 v: negation is exact, so v - c (A0 v) rounds as v + c (-A0 v).
    """
    half, sixth = 0.5 * h, h / 6.0
    x = V0.T.copy()
    for k0 in range(0, n, _BLOCK):
        steps = min(_BLOCK, n - k0)
        times = s + (0.5 * np.arange(2 * k0, 2 * (k0 + steps) + 1))[:, None] * h
        # the (p_h, p_psi) row of each stage time; a constant profile stays None
        table = model.a0_factors(times)
        f = list(zip(*(repeat(None, len(times)) if p is None else p for p in table)))
        for i in range(0, 2 * steps, 2):
            k1 = model.a0_dot(times[i], x.T, f[i]).T
            k2 = model.a0_dot(times[i + 1], (x - half * k1).T, f[i + 1]).T
            k3 = model.a0_dot(times[i + 1], (x - half * k2).T, f[i + 1]).T
            k4 = model.a0_dot(times[i + 2], (x - h * k3).T, f[i + 2]).T
            x = x - sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x.T


def _norm1(mat: sparse.csr_matrix) -> float:
    """Largest column sum of |mat|.  np.bincount adds each column's entries in
    storage order, as scipy's ``abs(mat).sum(axis=0)`` does, so the value is
    the same bit for bit, without a new matrix and a product per call."""
    return float(np.bincount(mat.indices, np.abs(mat.data), mat.shape[1]).max())


def expm_increment(a0: sparse.csr_matrix, h: float) -> sparse.csr_matrix:
    """D = exp(-h A0) - I by a Taylor series with scaling and squaring.

    -h A0 is scaled by 2^-s so its 1-norm is at most 1/2, the series of
    exp - I is summed until a term drops below the unit roundoff of the sum,
    and exp(2X) - I = 2D + D^2 undoes the scaling.  The identity is never
    formed, so a step applied as v + D v keeps unit entries exact that the
    small terms of D would otherwise round.  (Moler and Van Loan, SIAM Rev.
    45(1), 2003.)
    """
    norm = h * _norm1(a0)
    s = math.ceil(math.log2(2.0 * norm)) if norm > 0.5 else 0
    x = a0 * (-h / 2.0**s)
    d = x.copy()
    term = x
    for k in range(2, 64):
        term = (term @ x) / k
        d = d + term
        if _norm1(term) <= np.finfo(float).eps * _norm1(d):
            break
    for _ in range(s):
        d = 2.0 * d + d @ d
    return d


def _increment_step(d: sparse.csr_matrix) -> StepAction:
    """Step action V -> V + D V of a time-invariant step, on one vector or on rows.

    D V is one :func:`_csr_product`, equal to ``D @ V.T`` bit for bit; the
    cocycle loops of the Picard grid call it once per step, where scipy's
    dispatch would cost more than the product.
    """

    def action(V: np.ndarray, j: int | slice = slice(None)) -> np.ndarray:
        return V + _csr_product(d, V.T).T

    return action


# ---------------------------------------------------------------------------
# rate aggregates and certified constants


@dataclass(frozen=True)
class RateAggregates:
    """sup-in-time scalars the certified constants are built from.

    Double psi sums run over distinct site pairs only; coincident sites are
    excluded throughout, matching the quadrature sums of the operators.
    """

    h_sup: float
    psi_sup: float
    a_sup: float
    int_h_sup: float
    int_psi_sup: float
    psi_row_int_sup: float


def _site_sums(model: KimuraModel) -> tuple[float, float, np.ndarray]:
    """int h_base, int int psi_base over distinct pairs, and the psi row integrals."""
    w = model.space.weights
    row_ints = model.rates.psi_base @ w
    return float(w @ model.rates.h_base), float(w @ row_ints), row_ints


def rate_aggregates(model: KimuraModel) -> RateAggregates:
    """Exact suprema over [0, T]: nonnegative base aggregates times profile maxima,
    each a finite double (``KimuraModel`` refuses rates and weights otherwise)."""
    rates, T = model.rates, model.window.T
    sup_h, sup_psi, sup_a = (p.sup(T) for p in (rates.h_profile, rates.psi_profile, rates.a_profile))
    int_h, int_psi, row_ints = _site_sums(model)
    return RateAggregates(
        float(np.max(rates.h_base)) * sup_h,
        float(np.max(rates.psi_base)) * sup_psi,
        float(np.max(rates.a_base)) * sup_a,
        int_h * sup_h,
        int_psi * sup_psi,
        float(np.max(row_ints)) * sup_psi,
    )


def _growth(model: KimuraModel, alpha: float, h_factor: float, psi_factor: float) -> float:
    """e^alpha * int h_base * h_factor + (e^(2 alpha)/2) * int int psi_base * psi_factor."""
    int_h, int_psi, _ = _site_sums(model)
    return math.exp(alpha) * int_h * h_factor + 0.5 * math.exp(2.0 * alpha) * int_psi * psi_factor


def kappa(model: KimuraModel, t: float, alpha: float) -> float:
    """Growth rate e^alpha * int h + (e^(2 alpha)/2) * int int psi at time t."""
    rates = model.rates
    return _growth(model, alpha, rates.h_profile.value(t), rates.psi_profile.value(t))


def kappa_integral(model: KimuraModel, s: float, t: float, alpha: float) -> float:
    """Exact integral of kappa over [s, t] at fixed alpha."""
    if t <= s:
        return 0.0
    rates = model.rates
    return _growth(model, alpha, rates.h_profile.integral(t, s), rates.psi_profile.integral(t, s))


def a1_part_constant(alpha: float, agg: RateAggregates) -> float:
    """Scale-Lipschitz constant of A1 with the 1/(alpha-alpha') factor stripped."""
    return (math.exp(alpha) * agg.psi_row_int_sup + math.exp(-alpha) * agg.a_sup) / math.e


def bdelta_constant(alpha: float, agg: RateAggregates) -> float:
    """|Bdelta(t,k)| <= this * ||k||_alpha; also bounds the A0 raising terms."""
    return math.exp(alpha) * agg.int_h_sup + 0.5 * math.exp(2.0 * alpha) * agg.int_psi_sup


def model_constants(model: KimuraModel, k0: CorrelationHierarchy) -> OvcyannikovConstants:
    """Certified solver constants extracted from rate data.

    Window-wide suprema are taken so one certificate covers every
    (alpha', alpha) pair; the growth rate is evaluated at alpha_top, the worst
    scale index.
    """
    win = model.window
    agg = rate_aggregates(model)
    try:
        c1 = math.exp(kappa_integral(model, 0.0, win.T, win.alpha_top))
    except OverflowError:
        c1 = math.inf
    # an integral that overflows to inf makes exp return inf without raising
    if math.isinf(c1):
        raise ModelValidationError(
            "c1 = exp(int_0^T kappa(t, alpha_top) dt) overflows a double: "
            "shorten T or lower alpha_top or the rates"
        )

    x_norm = k0.norm(win.alpha_star)
    ball = win.r + x_norm
    cb_top = bdelta_constant(win.alpha_top, agg)
    # termwise sup of the A1 constant over alpha' in the window
    a1_sup = (
        math.exp(win.alpha_top) * agg.psi_row_int_sup
        + math.exp(-win.alpha_star) * agg.a_sup
    ) / math.e
    c2 = a1_sup + cb_top * (win.alpha_top - win.alpha_star) * ball + cb_top * ball
    try:
        c3 = (
            a1_part_constant(win.alpha_star, agg) * x_norm
            + cb_top * (win.alpha_top - win.alpha_star) * x_norm**2
        )
    except OverflowError:
        c3 = math.inf
    # |A0(t) k0| <= sup p_h |A0_h k0| + sup p_psi |A0_psi k0| entrywise on [0, T]
    a0_h_k0, a0_psi_k0 = np.abs(_csr_product(model._a0, k0.to_vector())).reshape(2, -1)
    rates = model.rates
    a0k0_sup = rates.h_profile.sup(win.T) * a0_h_k0 + rates.psi_profile.sup(win.T) * a0_psi_k0
    cx = c1 * model.hierarchy_norm(a0k0_sup, win.alpha0)
    if not all(map(math.isfinite, (c2, c3, cx))):
        # they grow with the rate constants, the radius and the datum: name the largest
        made = f"c2 = {c2}, c3 = {c3}, cx = {cx}, not all finite"
        causes = (
            (max(c1, cb_top, a1_sup), f"model.rates: the rate constants c1 = {c1}, "
             f"cb = {cb_top}, a1 = {a1_sup} make {made}: lower the rates"),
            (win.r, f"window.r: the admissible radius {win.r} makes {made}: lower window.r"),
            (x_norm, f"initial: the initial hierarchy, of norm {x_norm} at alpha_star, makes "
             f"{made}: lower the initial densities"),
        )
        raise ModelValidationError(max(causes, key=lambda cause: cause[0])[1])
    return OvcyannikovConstants(
        c1=c1, beta=0.0, c2=float(c2), c3=float(c3), cx=cx, x_norm=float(x_norm)
    )


# ---------------------------------------------------------------------------
# solver adapters


class KimuraEvolution(EvolutionSystem):
    """Evolution system generated by -A0 on the flattened hierarchy.

    Propagations integrate with step-doubling RK4, a batch of intervals in
    one call whose runs share one substep count (:func:`evolution_u`).
    A0 involves h and psi only; with constant profiles for both,
    U(t,s) = exp(-(t-s) A0) is a semigroup, so the grid steps of the Picard
    engine are two precomputed sparse increments.
    """

    def __init__(self, model: KimuraModel):
        self.model = model

    def apply(self, t: float | np.ndarray, s: float | np.ndarray, V: np.ndarray) -> np.ndarray:
        return evolution_u(self.model, t, s, V)

    def generator_apply(self, t: float | np.ndarray, V: np.ndarray) -> np.ndarray:
        return -self.model.a0_dot(t, V)

    def grid_steps(self, t_grid: np.ndarray) -> tuple[StepAction, StepAction]:
        t = np.asarray(t_grid, dtype=float)
        n = len(t) - 1
        rates = self.model.rates
        if not (rates.h_profile.is_constant and rates.psi_profile.is_constant) or n < 1:
            return super().grid_steps(t)
        # nominal step: the grid's steps differ from it by rounding only, and
        # keying on each float step would cost one exponential per distinct step
        dt = (t[-1] - t[0]) / n
        if not np.allclose(t[1:] - t[:-1], dt, rtol=1e-9, atol=0.0):
            return super().grid_steps(t)
        a0 = self.model.a0_matrix(0.0)
        return (
            _increment_step(expm_increment(a0, dt)),
            _increment_step(expm_increment(a0, 0.5 * dt)),
        )


class KimuraPerturbation(PerturbationMap):
    """B(k, t) = A1(t) k + Bdelta(t, k) k on the flattened hierarchy."""

    def __init__(self, model: KimuraModel):
        self.model = model

    def apply(self, V: np.ndarray, ts: float | np.ndarray) -> np.ndarray:
        """Rows B(V[i], ts[i]) from one product with the stacked components.

        Row 0 of A0 is the Bdelta functional, because selection_cost(()) = 0.
        """
        rows = np.atleast_2d(V)
        rates = self.model.rates
        p_h, p_psi, p_a = (p.at(ts) for p in (rates.h_profile, rates.psi_profile, rates.a_profile))
        d = rows.shape[1]
        Y = _csr_product(self.model._b, rows.T)
        a1_v = _scaled(p_psi, Y[:d]) + _scaled(p_a, Y[d : 2 * d])
        bdelta_v = _scaled(p_h, Y[2 * d]) + _scaled(p_psi, Y[2 * d + 1])
        out = (a1_v + bdelta_v * rows.T).T
        return out[0] if np.ndim(V) == 1 else out


#: an unset horizon slope is this multiple of its threshold (lambda0, or lambda1)
AUTO_LAMBDA = 2.0


@dataclass
class KimuraProblem(Problem):
    """The hierarchy problem: a :class:`~banachscale.solver.Problem` built from
    a model and its initial hierarchy by :meth:`build`."""

    model: KimuraModel
    k0: CorrelationHierarchy

    @classmethod
    def build(
        cls,
        model: KimuraModel,
        k0: CorrelationHierarchy,
        override: dict[str, float] | None = None,
    ) -> "KimuraProblem":
        """Certify, with ``override`` replacing named constants (the config's
        ``certificate_override``), and set an unset slope to AUTO_LAMBDA * lambda0.

        ``k0`` must be normalized, k0(empty) = 1.
        """
        if k0.levels[0][0] != 1.0:
            raise DomainError("initial hierarchy must be normalized: k0(empty) = 1")
        consts = model_constants(model, k0)
        try:
            consts = replace(consts, **(override or {}))
            terms = lambda0_terms(model.window, consts)
        except DomainError as exc:
            # model_constants certifies beta = 0, which every window admits
            raise ConfigurationError(f"certificate_override: {exc}") from exc
        lam0 = terms.pop("lambda0")
        for name, term in terms.items():
            if not math.isfinite(term):
                # time_span is (alpha_top - alpha_star) / T; the others grow with T
                fix = ("lengthen window.T" if name == "time_span" else
                       "shorten window.T or lower window.alpha_top or the rates")
                raise ModelValidationError(f"lambda0 overflows a double in its {name} term: {fix}")
        window = model.window
        if window.lam is None:
            window = window.with_lam(AUTO_LAMBDA * lam0)
        return cls(
            k0.to_vector(), KimuraEvolution(model), KimuraPerturbation(model),
            model.hierarchy_norm, window, consts, model, k0,
        )
