"""Seeded workload configs for the benchmark and the independent output checks.

A workload seed draws per-site ``h``, a symmetric zero-diagonal ``psi``, ``a``
and the initial densities ``rho``, each uniformly within +-50 % of the shipped
desk values.  The CLI only ever reads the generated config file.
"""

from __future__ import annotations

import numpy as np

# desk-epistatic and desk-smooth rate levels (configs/*.json)
EPISTATIC = {"h": 1.0, "psi": 0.2, "a": 0.5, "rho": 0.5}
SMOOTH = {"h": 0.1, "psi": 0.02, "a": 0.05, "rho": 0.5}

WINDOW = {
    "alpha_star": 0.0, "alpha0": 0.5, "alpha_top": 1.0, "gamma": 0.5,
    "lambda": "auto", "r": 1.0, "T": 1.0,
}
SOLVER = {"tol": 1e-10, "k_max": 60, "n_steps": 100, "n_alpha": 8, "theta": 0.9}
SINUSOID = {"kind": "sinusoidal", "amp": 1.0, "freq": 40.0}

# name -> subcommand, m, n_max, desk rate levels and config blocks; the "smoke"
# entries replace their keys to give a dim-8/15 problem that runs in about a second.
WORKLOADS = {
    "solve-large": {
        "subcommand": "solve", "m": 12, "n_max": 4, "desk": EPISTATIC,
        "solver": {"n_steps": 100},
        "smoke": {"m": 4, "n_max": 3, "solver": {"n_steps": 20}},
    },
    "verify-smooth": {
        "subcommand": "verify", "m": 3, "n_max": 3, "desk": SMOOTH,
        "profiles": {"h_profile": SINUSOID, "a_profile": SINUSOID},
        "window": {"T": 0.5}, "solver": {"n_steps": 50}, "run": {"samples": 20},
        "smoke": {"run": {"samples": 2}},
    },
    "stability-desk": {
        "subcommand": "stability", "m": 4, "n_max": 3, "desk": EPISTATIC,
        "family": {"n_values": [1, 2, 3, 4, 5], "alpha": 1.0},
        "smoke": {"family": {"n_values": [1, 2, 3], "alpha": 1.0}, "solver": {"n_steps": 20}},
    },
}


def _spec(name: str, smoke: bool) -> dict:
    spec = dict(WORKLOADS[name])
    shrink = spec.pop("smoke")
    if smoke:
        spec.update(shrink)
    return spec


def subcommand(name: str) -> str:
    return WORKLOADS[name]["subcommand"]


def make_config(name: str, seed: int, smoke: bool = False) -> dict:
    """The CLI config of workload ``name`` for ``seed`` (same seed, same config)."""
    spec = _spec(name, smoke)
    m, desk = spec["m"], spec["desk"]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])

    def jitter(level, shape):
        return level * rng.uniform(0.5, 1.5, shape)

    h = jitter(desk["h"], m)
    upper = np.triu(jitter(desk["psi"], (m, m)), 1)
    psi = upper + upper.T
    a = jitter(desk["a"], m)
    rho = jitter(desk["rho"], m)
    cfg = {
        "model": {
            "m": m, "weights": "uniform", "n_max": spec["n_max"],
            "rates": {"h": h.tolist(), "psi": psi.tolist(), "a": a.tolist(),
                      **spec.get("profiles", {})},
        },
        "window": {**WINDOW, **spec.get("window", {})},
        "solver": {**SOLVER, **spec.get("solver", {})},
        "initial": {"rho": rho.tolist()},
    }
    for key in ("run", "family"):
        if key in spec:
            cfg[key] = spec[key]
    return cfg
