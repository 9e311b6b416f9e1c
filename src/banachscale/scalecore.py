"""Scale-window arithmetic, the horizon-slope threshold and the weighted norm.

A scale of Banach spaces is indexed by alpha in [alpha_star, alpha_top] with
norms decreasing in alpha.  Solutions live on the triangle
t < (alpha - alpha0) / lam, and all contraction arguments happen in the
weighted sup-norm  sup (alpha - alpha0 - lam*t)^gamma * ||u(t)||_alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError

#: factor a certified bound may be exceeded by before a measurement counts as a
#: violation: a bound attained exactly can read one ulp above it
ROUNDOFF = 1.0 + 1e-12


@dataclass(frozen=True)
class ScaleWindow:
    """Bookkeeping for the alpha-interval and the derived horizons.

    ``lam`` is the horizon slope (1/time); ``r`` may be ``math.inf`` for an
    unconstrained admissible ball.
    """

    alpha_star: float
    alpha0: float
    alpha_top: float
    gamma: float = 0.5
    lam: float | None = None
    r: float = math.inf
    T: float = 1.0

    def __post_init__(self):
        if not (self.alpha_star < self.alpha0 < self.alpha_top):
            raise DomainError(
                f"need alpha_star < alpha0 < alpha_top, got "
                f"{self.alpha_star}, {self.alpha0}, {self.alpha_top}"
            )
        if not (0.0 < self.gamma < 1.0):
            raise DomainError(f"gamma must lie in (0, 1), got {self.gamma}", field="gamma")
        if self.lam is not None and not self.lam > 0.0:
            raise DomainError(f"horizon slope must be positive, got {self.lam}", field="lam")
        if not self.T > 0.0:
            raise DomainError(f"T must be positive, got {self.T}", field="T")
        if not self.r > 0.0:
            raise DomainError(f"r must be positive, got {self.r}", field="r")

    @property
    def width(self) -> float:
        """Width alpha_top - alpha0 of the working window."""
        return self.alpha_top - self.alpha0

    def with_lam(self, lam: float) -> "ScaleWindow":
        return replace(self, lam=lam)

    def require_lam(self) -> float:
        if self.lam is None:
            raise DomainError("horizon slope lam is unset; resolve it first")
        return self.lam

    def horizon(self) -> float:
        """Blow-up time (alpha_top - alpha0)/lam of the triangle at the top scale."""
        return self.width / self.require_lam()


@dataclass(frozen=True)
class OvcyannikovConstants:
    """Everything the horizon-slope threshold needs.

    c1/beta bound the evolution system, c2 is the scale-Lipschitz constant of
    the perturbation, c3 bounds the perturbation at the initial datum, cx is
    the Lipschitz constant of t -> U(t,0)x and x_norm = ||x||_{alpha_star}.
    """

    c1: float
    beta: float
    c2: float
    c3: float
    cx: float
    x_norm: float

    def __post_init__(self):
        if not self.c1 > 0:
            raise DomainError("c1 must be strictly positive")
        # "not >= 0" also rejects NaN
        if not (self.c2 >= 0 and self.c3 >= 0):
            # zero is allowed: a vanishing perturbation is a legitimate model
            raise DomainError("c2 and c3 must be nonnegative")
        if not (self.cx >= 0 and self.x_norm >= 0):
            raise DomainError("cx and x_norm must be nonnegative")
        if not (0.0 <= self.beta < 0.5):
            raise DomainError(f"beta must lie in [0, 1/2), got {self.beta}")


def lambda0(window: ScaleWindow, consts: OvcyannikovConstants) -> float:
    """Smallest admissible horizon slope, as a four-term maximum.

    Any slope strictly above this value makes the integral map a contraction
    on the weighted space; 1/inf is read as 0 when the radius r is infinite.
    The terms are those of :func:`lambda0_terms`.
    """
    return lambda0_terms(window, consts)["lambda0"]


def lambda0_terms(window: ScaleWindow, consts: OvcyannikovConstants) -> dict[str, float]:
    """Audit trail: the four individual max-terms behind :func:`lambda0`.

    ``beta`` is the certificate's; the window's ``gamma`` must lie in
    (beta, 1 - beta).
    """
    beta = consts.beta
    gamma = window.gamma
    if not (beta < gamma < 1.0 - beta):
        raise DomainError(
            f"gamma must lie in (beta, 1-beta) = ({beta}, {1 - beta}), got {gamma}"
        )
    a_width = window.alpha_top - window.alpha0
    r = window.r
    if math.isinf(r):
        t4 = 0.0
    else:
        t4 = (
            consts.cx * a_width / r
            + consts.c1
            * (consts.c3 / (window.alpha0 - window.alpha_star) + consts.cx)
            * a_width
            * (1.0 + consts.x_norm)
            / ((1.0 - gamma) * r)
        )
    terms = {
        "time_span": (window.alpha_top - window.alpha_star) / window.T,
        "contraction": 2.0 ** (2.0 * gamma + 1.0 - beta)
        * consts.c1
        * consts.c2
        / (gamma - beta),
        "monitor": 4.0 ** (1.0 - beta)
        * consts.c2
        * a_width**beta
        / (gamma * (1.0 + consts.x_norm))
        + 2.0 ** (2.0 + gamma) * consts.c1 * consts.c2 / gamma,
        "radius": t4,
    }
    terms["lambda0"] = max(terms.values())
    return terms


def lambda0_audit(window: ScaleWindow, consts: OvcyannikovConstants) -> dict:
    """The terms of :func:`lambda0_terms`, the ``binding`` one (the first, in
    that order, that attains ``lambda0``) and the ``certified_horizon``
    (alpha_top - alpha0) / lambda0 that it implies."""
    terms = lambda0_terms(window, consts)
    binding = max(("time_span", "contraction", "monitor", "radius"), key=terms.__getitem__)
    return {**terms, "binding": binding, "certified_horizon": window.width / terms["lambda0"]}


def triangle_sup(u, rows: np.ndarray) -> float:
    """max of (alpha - alpha0 - lam*t_j)^gamma * ||rows[..., j, :]||_alpha over the triangle.

    ``u`` supplies ``t_grid``, ``alpha_grid``, ``mask`` (node admissibility),
    ``weights`` (the grid's table of node weights) and the row-batched
    ``norm``; ``rows`` has shape (..., len(t_grid), dim), and leading axes
    share the grid.  The (time node x alpha) table of norms comes from one
    norm call on the whole alpha grid.
    """
    if u.weights.size == 0:
        raise DomainError("empty (t, alpha) grid")
    table = u.norm(rows, u.alpha_grid.tolist())
    return float(np.max(u.weights * table, where=u.mask, initial=0.0))


def weighted_gamma_norm(u) -> float:
    """Discrete surrogate of the weighted sup-norm over the (t, alpha) triangle.

    ``u`` must expose what :func:`triangle_sup` reads and ``values`` (one row
    per time node).  Returns the maximum of (alpha - alpha0 - lam*t)^gamma *
    ||u(t)||_alpha over admissible nodes of u's window.
    """
    return triangle_sup(u, u.values)
