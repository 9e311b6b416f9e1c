"""Independent checks of the CLI's outputs.

Each check reads what the CLI wrote and returns ``(figures, problems)``: the
figures it measured and a list of reasons the output is wrong (empty when it
passes).  The solve-large reference integrates the structural generator
``apply_ldelta`` with scipy's DOP853, which shares no code path with the
solver's dense RK4 propagator and Picard iteration.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np

REF_TOL = 1e-6  # the oracle-compare default
COCYCLE_TOL = 1e-8  # the verify subcommand's own cocycle tolerance


class OutputError(Exception):
    """An output file is missing, truncated or malformed."""


def _graded_norm(vec: np.ndarray, m: int, n_max: int, alpha: float) -> float:
    """max_n e^(-alpha n) max |level n| of a flattened hierarchy."""
    best, pos = 0.0, 0
    for n in range(n_max + 1):
        size = math.comb(m, n)
        if size:
            best = max(best, math.exp(-alpha * n) * float(np.max(np.abs(vec[pos:pos + size]))))
        pos += size
    return best


def read_trajectory(path: Path, m: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(t_grid, values) from trajectory.csv, checking every row's position."""
    labels = [
        (str(n), "|".join(map(str, eta)))
        for n in range(n_max + 1)
        for eta in combinations(range(m), n)
    ]
    dim = len(labels)
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise OutputError(f"cannot read {path.name}: {exc}") from exc
    if not rows or rows[0] != ["t", "level", "config", "value"]:
        raise OutputError(f"{path.name}: bad header")
    body = rows[1:]
    if not body or len(body) % dim:
        raise OutputError(f"{path.name}: {len(body)} rows is not a whole number of {dim}-row time slices")
    n_t = len(body) // dim
    t_grid = np.empty(n_t)
    values = np.empty((n_t, dim))
    try:
        for j in range(n_t):
            block = body[j * dim:(j + 1) * dim]
            t_grid[j] = float(block[0][0])
            for i, row in enumerate(block):
                if len(row) != 4 or float(row[0]) != t_grid[j] or (row[1], row[2]) != labels[i]:
                    raise OutputError(f"{path.name}: row {j * dim + i + 2} is out of place: {row}")
                values[j, i] = float(row[3])
    except ValueError as exc:
        raise OutputError(f"{path.name}: {exc}") from exc
    return t_grid, values


def reference_deviation(cfg: dict, t_grid: np.ndarray, values: np.ndarray) -> float:
    """max_j ||u - u_ref||_top / ||u_ref - x||_top over the nodes with t > 0.

    The increment ``u_ref - x`` is the normaliser: level 0 is identically 1,
    so the plain relative norm would read round-off whatever the error.
    """
    from scipy.integrate import solve_ivp

    from banachscale import cli
    from banachscale.kimura import CorrelationHierarchy, apply_ldelta

    window = cli.parse_window(cfg)
    model = cli.parse_model(cfg, window)
    x = cli.parse_initial(cfg, model).to_vector()
    m, n_max, top = model.m, model.n_max, window.alpha_top

    def rhs(t, y):
        k = CorrelationHierarchy.from_vector(m, n_max, y)
        return apply_ldelta(model, t, k).to_vector()

    sol = solve_ivp(rhs, (0.0, float(t_grid[-1])), x, method="DOP853",
                    t_eval=t_grid, rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise OutputError(f"reference integration failed: {sol.message}")
    ref = sol.y.T
    return max(
        _graded_norm(values[j] - ref[j], m, n_max, top)
        / max(_graded_norm(ref[j] - x, m, n_max, top), 1e-300)
        for j in range(1, len(t_grid))
    )


def check_output(workload: str, cfg: dict, config_sha: str, seed: int, out: Path) -> tuple[dict, list[str]]:
    """Figures and problems of one CLI output directory."""
    problems: list[str] = []
    figures: dict = {}
    try:
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return figures, [f"summary.json unreadable: {exc}"]
    if summary.get("config_sha256") != config_sha:
        problems.append("summary.json names another config")
    if summary.get("seed") != seed:
        problems.append("summary.json names another seed")
    win = cfg["window"]
    try:
        figures["lambda0"] = float(summary["lambda0_audit"]["lambda0"])
        figures["certified_horizon"] = (win["alpha_top"] - win["alpha0"]) / figures["lambda0"]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"lambda0_audit unusable: {exc!r}")

    if workload == "solve-large":
        if summary.get("converged") is not True:
            problems.append("Picard iteration did not converge")
        model = cfg["model"]
        try:
            t_grid, values = read_trajectory(out / "trajectory.csv", model["m"], model["n_max"])
            figures["ref_dev"] = reference_deviation(cfg, t_grid, values)
        except OutputError as exc:
            problems.append(str(exc))
        else:
            if not figures["ref_dev"] <= REF_TOL:
                problems.append(f"ref_dev {figures['ref_dev']:.3e} > {REF_TOL:.0e}")
    elif workload == "verify-smooth":
        if summary.get("violations") != []:
            problems.append(f"bound violations: {summary.get('violations')}")
        if summary.get("evolution_identity_exact") is not True:
            problems.append("U(t, t) is not the exact identity")
        cocycle = summary.get("evolution_cocycle_worst")
        if not (isinstance(cocycle, float) and cocycle <= COCYCLE_TOL):
            problems.append(f"cocycle deviation {cocycle!r} > {COCYCLE_TOL:.0e}")
    elif workload == "stability-desk":
        if summary.get("strictly_decreasing") is not True:
            problems.append("stability deviations are not strictly decreasing")
    return figures, problems
