"""Batch experiment runner.

Subcommands ``solve``, ``stability``, ``verify`` and ``oracle-compare`` ingest
one JSON configuration file, run the corresponding pipeline and write CSV
tables plus a JSON summary to the output directory.  Output is byte-identical
across reruns with the same config and seed.

Exit codes: 0 success, 2 an unreadable config or unusable ``--out``, 5 a
failed check; a library error exits with its type's ``exit_code`` (``errors``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .errors import BanachScaleError, ConfigurationError
from .kimura import (
    MAX_SPAN,
    CorrelationHierarchy,
    DiscreteSpace,
    KimuraModel,
    KimuraProblem,
    RateData,
    TimeProfile,
    level_configs,
)
from .oracles import bound_verifier, evolution_law_check, oracle_reference, relative_deviation
from .scalecore import OvcyannikovConstants, ScaleWindow, lambda0_audit
from .solver import SolverOptions, picard_solve
from .stability import kimura_h_family, lambda1, stability_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BOUND = 5

_PROFILE = tuple(f.name for f in fields(TimeProfile))
#: the fields of each config block, "" the top level; no other field is accepted
FIELDS = {
    "": ("model", "window", "solver", "initial", "run", "family", "certificate_override"),
    "model": ("m", "weights", "n_max", "rates"),
    "model.rates": ("h", "psi", "a", "h_profile", "psi_profile", "a_profile"),
    **{f"model.rates.{k}_profile": _PROFILE for k in ("h", "psi", "a")},
    "window": ("alpha_star", "alpha0", "alpha_top", "gamma", "lambda", "r", "T"),
    "solver": tuple(f.name for f in fields(SolverOptions)),
    "initial": ("rho",),
    "run": ("samples", "compare_tol"),
    "family": ("n_values", "alpha", "t_prime"),
    "certificate_override": tuple(f.name for f in fields(OvcyannikovConstants)),
}

#: largest x with e^x finite in double precision
_LOG_MAX = math.log(sys.float_info.max)

#: the config name of a library field where the two differ
_CONFIG_NAMES = {"lam": "lambda", "space.weights": "weights"}


# ---------------------------------------------------------------------------
# configuration parsing


def _fail(path: str, message: str) -> ConfigurationError:
    return ConfigurationError(f"{path}: {message}")


def _checked(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``: a library type or call, given values read
    from the block at ``path``.  A refusal that names its field exits 2 as
    ``<path>.<field>``; any other refusal by a type is about several of the
    block's values and exits 2 as ``<path>``; a call's other errors pass on."""
    try:
        return make(*args, **kwargs)
    except BanachScaleError as exc:
        if exc.field is not None:
            raise _fail(f"{path}.{_CONFIG_NAMES.get(exc.field, exc.field)}", str(exc)) from exc
        if isinstance(make, type):
            raise _fail(path, str(exc)) from exc
        raise


def _required(block: dict, path: str):
    """The field at ``path``, read from ``block``, the object at its parent path."""
    key = path.rpartition(".")[2]
    if key not in block:
        raise _fail(path, "required field is missing")
    return block[key]


def _block(cfg: dict, path: str, required: bool = False) -> dict:
    """The object at ``path`` ("" the top level), holding only the fields that
    ``FIELDS`` names; unless ``required``, an absent or null one reads as {}.
    Its parent blocks are checked on the way."""
    value = cfg
    if path:
        parent, _, name = path.rpartition(".")
        block = _block(cfg, parent)
        value = _required(block, path) if required else block.get(name)
        if value is None and not required:
            value = {}
    if not isinstance(value, dict):
        raise _fail(path or "config", f"expected an object, got {value!r}")
    for key in value:
        if key not in FIELDS[path]:
            field = f"{path}.{key}" if path else key
            raise _fail(field, f"unknown field; expected one of {', '.join(FIELDS[path])}")
    return value


def _as_float(value, path: str) -> float:
    # json reads NaN and Infinity literals as floats
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise _fail(path, f"expected a finite number, got {value!r}")
    return float(value)


def _as_int(value, path: str, positive: bool = True) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or (positive and value < 1):
        kind = "a positive integer" if positive else "an integer"
        raise _fail(path, f"expected {kind}, got {value!r}")
    return value


def _as_array(value, path: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise _fail(path, f"expected numbers, got {value!r}") from exc


def _rate_array(value, m: int, path: str, square: bool = False) -> np.ndarray:
    """Accept a scalar or a full per-site table."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        v = float(value)
        return np.full((m, m), v) if square else np.full(m, v)
    arr = _as_array(value, path)
    want = (m, m) if square else (m,)
    if arr.shape != want:
        raise _fail(path, f"expected scalar or shape {want}, got shape {arr.shape}")
    return arr


def _profile(cfg: dict, path: str) -> TimeProfile:
    block = _block(cfg, path)
    values = {k: v if k == "kind" else _as_float(v, f"{path}.{k}") for k, v in block.items()}
    return _checked(path, TimeProfile, **values)


def parse_window(cfg: dict) -> ScaleWindow:
    """The window the config sets; ``ScaleWindow`` supplies ``gamma`` and ``T``.
    ``"lambda": "auto"`` leaves the slope unset, for ``KimuraProblem.build``."""
    w = _block(cfg, "window", required=True)
    # r too: the hierarchy's B is quadratic, so its bounds hold in a finite ball only
    for name in ("alpha_star", "alpha0", "alpha_top", "r"):
        _required(w, f"window.{name}")
    opts = {
        "lam" if key == "lambda" else key: _as_float(value, f"window.{key}")
        for key, value in w.items()
        if (key, value) != ("lambda", "auto")
    }
    return _checked("window", ScaleWindow, **opts)


def parse_model(cfg: dict, window: ScaleWindow) -> KimuraModel:
    block = _block(cfg, "model", required=True)
    m = _as_int(_required(block, "model.m"), "model.m")
    weights = block.get("weights", "uniform")
    if weights == "uniform":
        space = DiscreteSpace.uniform(m)
    else:
        arr = _as_array(weights, "model.weights")
        if arr.shape != (m,):
            raise _fail("model.weights", f"expected {m} weights, got shape {arr.shape}")
        space = _checked("model", DiscreteSpace, tuple(f"x{i}" for i in range(m)), arr)

    rate_block = _block(cfg, "model.rates", required=True)
    rate_data = {}
    for key in ("h", "psi", "a"):
        path = f"model.rates.{key}"
        rate_data[f"{key}_base"] = _rate_array(_required(rate_block, path), m, path, key == "psi")
        rate_data[f"{key}_profile"] = _profile(cfg, f"{path}_profile")
    rates = _checked("model.rates", RateData, **rate_data)

    n_max = _as_int(_required(block, "model.n_max"), "model.n_max", positive=False)
    # the scale weights e^(-alpha n) and the growth rate's e^alpha, e^(2 alpha)
    # are scalar math.exp values, which raise once they overflow
    top = max(2, n_max)
    for name in ("alpha_star", "alpha_top"):
        alpha = getattr(window, name)
        if abs(alpha) * top > _LOG_MAX:
            raise _fail(f"window.{name}", f"e^({alpha} * {top}) overflows a double")
    return _checked("model", KimuraModel, space, rates, n_max, window)


def parse_initial(cfg: dict, model: KimuraModel) -> CorrelationHierarchy:
    """The Poisson hierarchy of ``initial.rho``: a density, or one per site."""
    rho = _rate_array(_block(cfg, "initial").get("rho", 1.0), model.m, "initial.rho")
    if not np.all(np.isfinite(rho) & (rho >= 0)):
        raise _fail("initial.rho", "densities must be finite and nonnegative")
    with np.errstate(over="ignore"):
        k0 = CorrelationHierarchy.poisson(model.m, model.n_max, rho)
    if not np.all(np.isfinite(k0.to_vector())):
        raise _fail("initial.rho", "a product of densities overflows a double")
    return k0


def parse_solver_opts(cfg: dict) -> SolverOptions:
    """The solver options the config sets; ``SolverOptions`` supplies the rest."""
    opts = {}
    for key, value in _block(cfg, "solver").items():
        path = f"solver.{key}"
        # a field's default has the field's type
        if isinstance(getattr(SolverOptions, key), float):
            opts[key] = _as_float(value, path)
        else:
            opts[key] = _as_int(value, path, positive=False)
    return _checked("solver", SolverOptions, **opts)


def parse_override(cfg: dict) -> dict[str, float]:
    """Optional certificate override block, used for fault injection."""
    block = _block(cfg, "certificate_override")
    return {key: _as_float(v, f"certificate_override.{key}") for key, v in block.items()}


# ---------------------------------------------------------------------------
# deterministic output helpers


def csv_line(cells) -> str:
    """One CSV line of Python natives: a float as its repr, an int as str, a
    string as is.  No cell ever needs quoting: a string holding a delimiter,
    quote or line break is refused."""
    parts = []
    for cell in cells:
        if isinstance(cell, str):
            assert not any(ch in cell for ch in ',"\r\n'), f"unquotable CSV cell {cell!r}"
            parts.append(cell)
        elif isinstance(cell, float):
            parts.append(repr(cell))
        else:
            parts.append(str(cell))
    return ",".join(parts) + "\n"


def write_csv(path: Path, header: list[str], lines) -> None:
    """Write the header, then ``lines``: formatted CSV lines, each ending in a
    newline (``csv_line`` for a row of cells), consumed as they are written."""
    with open(path, "w", newline="") as fh:
        fh.write(csv_line(header))
        fh.writelines(lines)


def write_summary(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_sanitize(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sanitize(obj):
    """json cannot carry inf/nan; replace them by strings recursively."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def trajectory_lines(u, model: KimuraModel):
    """``trajectory.csv`` one time slice at a time: a line per (t, level,
    configuration), lexicographic inside a level, floats as their repr."""
    prefixes = []
    for n in range(model.n_max + 1):
        for eta in level_configs(model.m, n):
            label = "|".join(str(s) for s in eta)
            # digits and "|" only, so csv quoting never applied to a label
            assert set(label) <= set("0123456789|"), label
            prefixes.append(f"{n},{label},")
    for t, values in zip(u.t_grid.tolist(), u.values.tolist()):
        tp = f"{t!r},"
        yield "".join([f"{tp}{p}{v!r}\n" for p, v in zip(prefixes, values)])


# ---------------------------------------------------------------------------
# subcommands: each writes its CSV tables and returns the certified problem,
# its own summary fields and the exit code


def _prepare(cfg: dict) -> tuple[KimuraProblem, SolverOptions]:
    """Parse the config and certify the problem: its horizon slope is resolved.
    Every block is checked, also one that this subcommand does not read."""
    for path in FIELDS:
        _block(cfg, path)
    window = parse_window(cfg)
    model = parse_model(cfg, window)
    k0 = parse_initial(cfg, model)
    opts = parse_solver_opts(cfg)
    override = parse_override(cfg)
    return KimuraProblem.build(model, k0, override), opts


def _solve(cfg: dict):
    """Prepare, certify and solve: the problem, the trajectory and its report."""
    problem, opts = _prepare(cfg)
    u, report = picard_solve(problem, opts)
    return problem, u, report


def run_solve(cfg: dict, out: Path, seed: int) -> tuple[KimuraProblem, dict, int]:
    problem, u, report = _solve(cfg)
    write_csv(
        out / "trajectory.csv",
        ["t", "level", "config", "value"],
        trajectory_lines(u, problem.model),
    )
    conv_rows = []
    for k, d in enumerate(report.increments):
        conv_rows.append([
            k + 1,
            d,
            report.ratios[k - 1] if k >= 1 else "",
            report.m_values[k],
            report.apriori_margin,
        ])
    write_csv(
        out / "convergence.csv",
        ["iteration", "increment", "ratio", "monitor", "apriori_margin"],
        map(csv_line, conv_rows),
    )
    return problem, {
        "lambda": problem.window.lam,
        "horizon": problem.window.horizon(),
        "grid_horizon": float(u.t_grid[-1]),
        "iterations": report.iterations,
        "converged": report.converged,
        "tail_bound": report.tail_bound,
        "rho": report.rho,
        "apriori_margin": report.apriori_margin,
        "quadrature_error_estimate": report.quadrature_error_estimate,
        "constants": asdict(problem.consts),
        "level0_max_drift": float(np.max(np.abs(u.values[:, 0] - 1.0))),
    }, EXIT_OK


def run_stability(cfg: dict, out: Path, seed: int) -> tuple[KimuraProblem, dict, int]:
    problem, opts = _prepare(cfg)
    fam_cfg = _block(cfg, "family", required=True)
    n_values = fam_cfg.get("n_values")
    if not isinstance(n_values, list) or not n_values:
        raise _fail("family.n_values", "need a nonempty list of family indices")
    h_max = float(np.max(problem.model.rates.h_base))
    for i, n in enumerate(n_values):
        _as_int(n, f"family.n_values[{i}]", positive=False)
        # member n scales h by 1 + 2^-n (kimura_h_family)
        try:
            finite = math.isfinite(h_max * (1.0 + 2.0 ** -n))
        except OverflowError:
            finite = False
        if not finite:
            raise _fail(f"family.n_values[{i}]", f"h * (1 + 2^-n) overflows a double for n = {n}")
    family = kimura_h_family(problem, n_values)
    window = family.window
    alpha = _as_float(fam_cfg.get("alpha", window.alpha_top), "family.alpha")
    t_prime = None
    if "t_prime" in fam_cfg:
        t_prime = _as_float(fam_cfg["t_prime"], "family.t_prime")
    rep = _checked("family", stability_experiment, family, alpha, t_prime, opts)
    rows = [
        [n, rep.labels[i], rep.perturbation_sizes[i], rep.s_values[i], rep.floor]
        for i, n in enumerate(n_values)
    ]
    write_csv(
        out / "stability.csv",
        ["n", "label", "perturbation", "deviation", "floor"],
        map(csv_line, rows),
    )
    return problem, {
        "lambda": window.lam,
        "lambda1": lambda1(family),
        "alpha": alpha,
        "t_prime": rep.t_prime,
        "floor": rep.floor,
        "deviations": rep.s_values,
        "strictly_decreasing": all(
            rep.s_values[i + 1] < rep.s_values[i] for i in range(len(rep.s_values) - 1)
        ),
    }, EXIT_OK


def run_verify(cfg: dict, out: Path, seed: int) -> tuple[KimuraProblem, dict, int]:
    problem, _ = _prepare(cfg)
    samples = _as_int(_block(cfg, "run").get("samples", 100), "run.samples")
    T = problem.window.T
    if T > MAX_SPAN:
        raise _fail(
            "window.T",
            f"verify propagates over intervals drawn from [0, {T}], "
            f"longer than the propagator accepts ({MAX_SPAN})",
        )
    report = bound_verifier(problem.model, problem.k0, samples, seed, consts=problem.consts)
    law = evolution_law_check(problem.model, problem.consts, samples, seed)
    failed = report.failed + law.failed
    if failed:
        print("bound violation: " + ", ".join(failed), file=sys.stderr)
    return problem, {
        "samples": samples,
        "worst_ratios": dict(sorted({**report.worst, **law.bounds.worst}.items())),
        "violations": [
            {"inequality": name, "sample": idx, "ratio": ratio}
            for name, idx, ratio in report.violations + law.bounds.violations
        ],
        "evolution_identity_exact": law.identity_exact,
        "evolution_cocycle_worst": law.cocycle_worst,
        "evolution_growth_violations": law.growth_violations,
    }, EXIT_BOUND if failed else EXIT_OK


def run_oracle_compare(cfg: dict, out: Path, seed: int) -> tuple[KimuraProblem, dict, int]:
    tol = _as_float(_block(cfg, "run").get("compare_tol", 1e-6), "run.compare_tol")
    if not tol > 0.0:
        raise _fail("run.compare_tol", f"tolerance must be positive, got {tol}")
    problem, u, _ = _solve(cfg)
    oracle_name, ref = oracle_reference(problem.model, problem.k0, u.t_grid)
    rel = relative_deviation(problem.model, u.values, ref, problem.window.alpha_top)
    worst = float(np.max(rel, initial=0.0))
    rows = zip(u.t_grid.tolist(), rel.tolist())
    write_csv(out / "comparison.csv", ["t", "relative_deviation"], map(csv_line, rows))
    if worst > tol:
        print(
            f"oracle mismatch: worst relative deviation {worst:.3e} > {tol:.1e}",
            file=sys.stderr,
        )
    return problem, {
        "oracle": oracle_name,
        "worst_relative_deviation": worst,
        "tolerance": tol,
        "passed": worst <= tol,
    }, EXIT_BOUND if worst > tol else EXIT_OK


# ---------------------------------------------------------------------------
# entry point


_DISPATCH = {
    "solve": run_solve,
    "stability": run_stability,
    "verify": run_verify,
    "oracle-compare": run_oracle_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banachscale",
        description="Scale-of-Banach-spaces hierarchy solver and verifier",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default="./out", help="output directory")
        p.add_argument("--seed", type=int, default=42)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = Path(args.config).read_bytes()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on bytes
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        # an unnamed probe file: the directory takes files, and none is left behind
        tempfile.TemporaryFile(dir=out).close()
    except OSError as exc:
        print(f"cannot write output: --out: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        problem, summary, code = _DISPATCH[args.subcommand](cfg, out, args.seed)
    except BanachScaleError as exc:
        print(f"{exc.verdict}: {exc}", file=sys.stderr)
        return exc.exit_code
    write_summary(out / "summary.json", {
        "subcommand": args.subcommand,
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "seed": args.seed,
        "lambda0_audit": lambda0_audit(problem.window, problem.consts),
        **summary,
    })
    return code


if __name__ == "__main__":
    sys.exit(main())
