"""Batch experiment runner.

Subcommands ``solve``, ``stability``, ``verify`` and ``oracle-compare`` ingest
one JSON configuration file, run the corresponding pipeline and write CSV
tables plus a JSON summary to the output directory.  Output is byte-identical
across reruns with the same config and seed.

Exit codes: 0 success, 2 invalid configuration or ``--out``, 3 measured
contraction violation, 4 infeasible horizon slope, 5 certified bound violated.
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

from .errors import (
    AdmissibilityError,
    BanachScaleError,
    ConfigurationError,
    ContractionViolationError,
    DomainError,
    InfeasibleHorizonError,
    ModelValidationError,
)
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
from .solver import picard_solve
from .stability import kimura_h_family, lambda1, stability_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONTRACTION = 3
EXIT_HORIZON = 4
EXIT_BOUND = 5

#: largest x with e^x finite in double precision
_LOG_MAX = math.log(sys.float_info.max)


# ---------------------------------------------------------------------------
# configuration parsing


def _fail(path: str, message: str) -> ConfigurationError:
    return ConfigurationError(f"{path}: {message}")


def _get(cfg: dict, path: str, default=None, required: bool = False):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise _fail(path, "required field is missing")
            return default
        node = node[part]
    return node


def _block(cfg: dict, path: str, default=None, required: bool = False) -> dict:
    """The object at ``path``; an absent or null one reads as ``default`` (or {})."""
    value = _get(cfg, path, required=required)
    if value is None and not required:
        value = {} if default is None else default
    if not isinstance(value, dict):
        raise _fail(path, f"expected an object, got {value!r}")
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


def _profile(cfg, path: str) -> TimeProfile:
    if cfg is None:
        return TimeProfile()
    if not isinstance(cfg, dict):
        raise _fail(path, "expected an object with a 'kind' field")
    try:
        return TimeProfile(
            kind=cfg.get("kind", "constant"),
            rate=_as_float(cfg.get("rate", 0.0), path + ".rate"),
            amp=_as_float(cfg.get("amp", 0.0), path + ".amp"),
            freq=_as_float(cfg.get("freq", 1.0), path + ".freq"),
        )
    except ModelValidationError as exc:
        raise _fail(path, str(exc)) from exc


def parse_window(cfg: dict) -> ScaleWindow:
    w = _block(cfg, "window", required=True)
    lam_raw = w.get("lambda", "auto")
    if lam_raw == "auto":
        lam = None
    else:
        lam = _as_float(lam_raw, "window.lambda")
    r_raw = w.get("r", "inf")
    r = math.inf if r_raw in ("inf", None) else _as_float(r_raw, "window.r")
    # beta belongs to the certificate, and model_constants declares 0
    beta = _as_float(w.get("beta", 0.0), "window.beta")
    if beta != 0.0:
        raise _fail("window.beta", f"the certificate declares beta = 0, got {beta}")
    try:
        return ScaleWindow(
            alpha_star=_as_float(_get(cfg, "window.alpha_star", required=True), "window.alpha_star"),
            alpha0=_as_float(_get(cfg, "window.alpha0", required=True), "window.alpha0"),
            alpha_top=_as_float(_get(cfg, "window.alpha_top", required=True), "window.alpha_top"),
            gamma=_as_float(w.get("gamma", 0.5), "window.gamma"),
            lam=lam,
            r=r,
            T=_as_float(w.get("T", 1.0), "window.T"),
        )
    except DomainError as exc:
        raise _fail("window", str(exc)) from exc


def parse_model(cfg: dict, window: ScaleWindow) -> KimuraModel:
    m = _as_int(_get(cfg, "model.m", required=True), "model.m")
    weights = _get(cfg, "model.weights", "uniform")
    try:
        if weights == "uniform":
            space = DiscreteSpace.uniform(m)
        else:
            arr = _as_array(weights, "model.weights")
            if arr.shape != (m,):
                raise _fail("model.weights", f"expected {m} weights, got shape {arr.shape}")
            space = DiscreteSpace(tuple(f"x{i}" for i in range(m)), arr)
    except ModelValidationError as exc:
        raise _fail("model.weights", str(exc)) from exc

    rates_cfg = _block(cfg, "model.rates", required=True)
    try:
        rates = RateData(
            h_base=_rate_array(_get(cfg, "model.rates.h", required=True), m, "model.rates.h"),
            psi_base=_rate_array(_get(cfg, "model.rates.psi", required=True), m, "model.rates.psi", square=True),
            a_base=_rate_array(_get(cfg, "model.rates.a", required=True), m, "model.rates.a"),
            h_profile=_profile(rates_cfg.get("h_profile"), "model.rates.h_profile"),
            psi_profile=_profile(rates_cfg.get("psi_profile"), "model.rates.psi_profile"),
            a_profile=_profile(rates_cfg.get("a_profile"), "model.rates.a_profile"),
        )
    except ModelValidationError as exc:
        raise _fail("model.rates", str(exc)) from exc

    n_max = _as_int(_get(cfg, "model.n_max", required=True), "model.n_max", positive=False)
    # the scale weights e^(-alpha n) and the growth rate's e^alpha, e^(2 alpha)
    # are scalar math.exp values, which raise once they overflow
    top = max(2, n_max)
    for name in ("alpha_star", "alpha_top"):
        alpha = getattr(window, name)
        if abs(alpha) * top > _LOG_MAX:
            raise _fail(f"window.{name}", f"e^({alpha} * {top}) overflows a double")
    try:
        return KimuraModel(space, rates, n_max, window)
    except ModelValidationError as exc:
        raise _fail("model", str(exc)) from exc


def parse_initial(cfg: dict, model: KimuraModel) -> CorrelationHierarchy:
    block = _block(cfg, "initial", {"poisson_z": 1.0})
    if "poisson_z" in block:
        z = _as_float(block["poisson_z"], "initial.poisson_z")
        if z < 0:
            raise _fail("initial.poisson_z", "density must be nonnegative")
        rho = np.full(model.m, z)
    elif "rho" in block:
        rho = _as_array(block["rho"], "initial.rho")
        if rho.shape != (model.m,):
            raise _fail("initial.rho", f"expected {model.m} densities, got shape {rho.shape}")
        if not np.all(np.isfinite(rho) & (rho >= 0)):
            raise _fail("initial.rho", "densities must be finite and nonnegative")
    else:
        raise _fail("initial", "need 'poisson_z' or 'rho'")
    with np.errstate(over="ignore"):
        k0 = CorrelationHierarchy.poisson(model.m, model.n_max, rho)
    if not np.all(np.isfinite(k0.to_vector())):
        path = "initial.poisson_z" if "poisson_z" in block else "initial.rho"
        raise _fail(path, "a product of densities overflows a double")
    return k0


def parse_solver_opts(cfg: dict) -> dict:
    s = _block(cfg, "solver")
    opts = {
        "tol": _as_float(s.get("tol", 1e-10), "solver.tol"),
        "k_max": _as_int(s.get("k_max", 60), "solver.k_max"),
        "n_steps": _as_int(s.get("n_steps", 100), "solver.n_steps"),
        "n_alpha": _as_int(s.get("n_alpha", 8), "solver.n_alpha"),
        "theta": _as_float(s.get("theta", 0.9), "solver.theta"),
    }
    if not opts["tol"] > 0.0:
        raise _fail("solver.tol", f"tolerance must be positive, got {opts['tol']}")
    if not (0.0 < opts["theta"] < 1.0):
        raise _fail("solver.theta", f"safety factor must lie in (0, 1), got {opts['theta']}")
    return opts


def parse_override(cfg: dict) -> dict[str, float]:
    """Optional certificate override block, used for fault injection."""
    known = {f.name for f in fields(OvcyannikovConstants)}
    override = {}
    for key, value in _block(cfg, "certificate_override").items():
        if key not in known:
            raise _fail(f"certificate_override.{key}", "unknown constant")
        override[key] = _as_float(value, f"certificate_override.{key}")
    return override


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


def config_digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


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


def _prepare(cfg: dict) -> tuple[KimuraProblem, dict]:
    """Parse the config and certify the problem: its horizon slope is resolved."""
    window = parse_window(cfg)
    model = parse_model(cfg, window)
    k0 = parse_initial(cfg, model)
    opts = parse_solver_opts(cfg)
    override = parse_override(cfg)
    return KimuraProblem.build(model, k0, override), opts


def _solve(cfg: dict):
    """Prepare, certify and solve: the problem, the trajectory and its report."""
    problem, opts = _prepare(cfg)
    u, report = picard_solve(problem, **opts)
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
    if not (window.alpha0 < alpha <= window.alpha_top):
        raise _fail(
            "family.alpha",
            f"diagnostic scale must lie in ({window.alpha0}, {window.alpha_top}], got {alpha}",
        )
    horizon = (alpha - window.alpha0) / window.lam
    t_prime = 0.5 * horizon
    if "t_prime" in fam_cfg:
        t_prime = _as_float(fam_cfg["t_prime"], "family.t_prime")
        if not (0.0 < t_prime < horizon):
            raise _fail("family.t_prime", f"must lie in (0, {horizon}), got {t_prime}")
    rep = stability_experiment(family, alpha, t_prime, **opts)
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
        "t_prime": t_prime,
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
    law = evolution_law_check(problem.model, min(samples, 100), seed)
    failed = report.failed + law.failed
    if failed:
        print("bound violation: " + ", ".join(failed), file=sys.stderr)
    return problem, {
        "samples": samples,
        "worst_ratios": dict(sorted(report.worst.items())),
        "violations": [
            {"inequality": name, "sample": idx, "ratio": ratio}
            for name, idx, ratio in report.violations
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banachscale",
        description="Scale-of-Banach-spaces hierarchy solver and verifier",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("solve", "stability", "verify", "oracle-compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default="./out", help="output directory")
        p.add_argument("--seed", type=int, default=42)
    return parser


_DISPATCH = {
    "solve": run_solve,
    "stability": run_stability,
    "verify": run_verify,
    "oracle-compare": run_oracle_compare,
}


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
    except AdmissibilityError as exc:
        # the slope exceeds lambda0, so the certificate guarantees the ball
        print(f"bound violation: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except InfeasibleHorizonError as exc:
        print(f"infeasible horizon slope: {exc}", file=sys.stderr)
        return EXIT_HORIZON
    except (ConfigurationError, DomainError, ModelValidationError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ContractionViolationError as exc:
        print(f"contraction violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACTION
    except BanachScaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    write_summary(out / "summary.json", {
        "subcommand": args.subcommand,
        "config_sha256": config_digest(raw),
        "seed": args.seed,
        "lambda0_audit": lambda0_audit(problem.window, problem.consts),
        **summary,
    })
    return code


if __name__ == "__main__":
    sys.exit(main())
