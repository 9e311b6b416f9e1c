import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import banachscale
from banachscale import kimura
from banachscale.cli import (
    FIELDS,
    _prepare,
    main,
    parse_initial,
    parse_model,
    parse_solver_opts,
    parse_window,
    trajectory_lines,
    write_csv,
)
from banachscale.errors import BanachScaleError, ConfigurationError, ModelValidationError
from banachscale.kimura import KimuraProblem, level_configs
from banachscale.scalecore import ScaleWindow
from banachscale.solver import SolverOptions, picard_solve

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def run(subcommand, config, out, extra=()):
    return main([subcommand, "--config", str(config), "--out", str(out), *extra])


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_outputs(out):
    """The lines of each file a run wrote, but the summary's config digest."""
    return {
        path.name: [line for line in path.read_bytes().splitlines()
                    if b'"config_sha256"' not in line]
        for path in sorted(out.iterdir())
    }


def base_config(**overrides):
    cfg = {
        "model": {"m": 3, "weights": "uniform", "n_max": 3,
                  "rates": {"h": 0.5, "psi": 0.1, "a": 0.2}},
        "window": {"alpha_star": 0.0, "alpha0": 0.5, "alpha_top": 1.0,
                   "lambda": "auto", "r": 1.0, "T": 1.0},
        "solver": {"tol": 1e-10, "n_steps": 40},
        "initial": {"rho": 0.5},
        "run": {"samples": 30},
        "family": {"n_values": [1, 2, 3]},
    }
    cfg.update(overrides)
    return cfg


def leaves(block, path=""):
    """The path of every value in a config that is not an object, depth first."""
    for key, value in block.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from leaves(value, sub)
        else:
            yield sub


def set_field(cfg, path, value):
    *parents, leaf = path.split(".")
    for part in parents:
        cfg = cfg[part]
    cfg[leaf] = value


# (subcommand, field set, its value, field path the message must start with)
MALFORMED = [
    ("solve", "window", [0.0, 0.5, 1.0], "window"),
    ("solve", "solver", [40], "solver"),
    ("solve", "initial", 3, "initial"),
    ("solve", "certificate_override", [1.0], "certificate_override"),
    ("stability", "family", [1, 2], "family"),
    ("stability", "family.n_values", "12", "family.n_values"),
    ("stability", "family.n_values", [1, True], "family.n_values[1]"),
    ("solve", "model.rates", 0.5, "model.rates"),
    ("solve", "model.rates.h", "abc", "model.rates.h"),
    ("solve", "model.weights", "abc", "model.weights"),
    ("solve", "initial", {"rho": "x"}, "initial.rho"),
    ("solve", "model.m", True, "model.m"),
    ("solve", "model.n_max", True, "model.n_max"),
    ("solve", "solver.k_max", True, "solver.k_max"),
    ("solve", "solver.n_steps", True, "solver.n_steps"),
    ("solve", "solver.n_alpha", True, "solver.n_alpha"),
    ("verify", "run.samples", True, "run.samples"),
    ("verify", "run", [30], "run"),
    ("solve", "initial.rho", float("nan"), "initial.rho"),
    # extreme values and ranges the library used to report without a field path
    ("solve", "window.alpha_top", 1e308, "window.alpha_top"),
    ("verify", "window.alpha_top", 1e308, "window.alpha_top"),
    ("solve", "solver.tol", 0, "solver.tol"),
    ("stability", "family.alpha", 0.4, "family.alpha"),
    ("stability", "family.t_prime", -1, "family.t_prime"),
    ("solve", "window.beta", 0.2, "window.beta"),
    ("oracle-compare", "run.compare_tol", -1, "run.compare_tol"),
    ("oracle-compare", "run.compare_tol", 0, "run.compare_tol"),
    # member n scales h by 1 + 2^-n, which must stay a finite double
    ("stability", "family.n_values", [1, -1100], "family.n_values[1]"),
    ("stability", "family.n_values", [1, 10**400], "family.n_values[1]"),
    # initial data that is not finite, or whose hierarchy or certificate overflows
    ("solve", "initial", {"rho": [float("nan"), 0.5, 0.5]}, "initial.rho"),
    ("verify", "initial", {"rho": [float("nan"), 0.5, 0.5]}, "initial.rho"),
    ("solve", "initial", {"rho": [float("inf"), 0.5, 0.5]}, "initial.rho"),
    ("verify", "initial", {"rho": [float("inf"), 0.5, 0.5]}, "initial.rho"),
    ("solve", "initial.rho", 1e300, "initial.rho"),
    ("verify", "initial.rho", 1e300, "initial.rho"),
    ("solve", "initial", {"rho": [1e200, 0.5, 0.5]}, "initial"),
    ("verify", "initial", {"rho": [1e200, 0.5, 0.5]}, "initial"),
    # ranges that SolverOptions and parse_window check, named by field
    ("solve", "solver.theta", 1.5, "solver.theta"),
    ("solve", "solver.k_max", 0, "solver.k_max"),
    ("solve", "window.r", 0, "window.r"),
    ("solve", "window.r", -1, "window.r"),
    # ranges the library types check, named by the field their refusal names
    ("solve", "window.gamma", 1.5, "window.gamma"),
    ("solve", "window.T", 0, "window.T"),
    ("solve", "window.lambda", -1, "window.lambda"),
    ("solve", "model.n_max", 1, "model.n_max"),
    ("solve", "model.rates.h", -1, "model.rates.h"),
    ("solve", "model.rates.psi", [[0, 1, 0], [0, 0, 0], [0, 0, 0]], "model.rates.psi"),
    ("solve", "model.rates.h_profile", {"kind": "exp_decay", "rate": -1},
     "model.rates.h_profile.rate"),
    ("solve", "model.rates.h_profile", {"kind": "sinusoidal", "amp": 2},
     "model.rates.h_profile.amp"),
    ("solve", "model.n_max", -1, "model.n_max"),
]

# the junk values of the config fuzz, set on one leaf of a config at a time
JUNK = [None, True, "x", [], {}, -1, 0, 1e308, -1e308, math.nan, 1e-320, 1e-300]

# one undeclared field in each config block, the top level first:
# (field set, its value, field path the message must start with)
UNKNOWN_FIELDS = [
    ("extra_block", {}, "extra_block"),
    ("model.n_maxx", 3, "model.n_maxx"),
    ("model.rates.h_profil", {"kind": "exp_decay", "rate": 1.0}, "model.rates.h_profil"),
    ("model.rates.h_profile", {"kind": "exp_decay", "rat": 1.0}, "model.rates.h_profile.rat"),
    ("window.alpha_to", 1.0, "window.alpha_to"),
    # beta is the certificate's, which declares 0: a field with one legal value
    ("window.beta", 0.0, "window.beta"),
    ("solver.nsteps", 3, "solver.nsteps"),
    ("initial.poisson", 0.5, "initial.poisson"),
    ("run.sample", 10, "run.sample"),
    ("family.alphas", 1.0, "family.alphas"),
    ("certificate_override", {"c4": 1.0}, "certificate_override.c4"),
]

# (fields set on desk-epistatic, exit code of solve, verdict the message starts with)
FAILURE_EXITS = [
    ({"solver.nsteps": 3}, 2, "invalid configuration"),
    # a certificate far below the true constants: the measured ratio exceeds it
    ({"certificate_override": {"c1": 1, "c2": 1e-9, "c3": 1e-9, "cx": 1e-9},
      "window.lambda": 2.0, "window.T": 100}, 3, "contraction violation"),
    ({"window.lambda": 1.0}, 4, "infeasible horizon slope"),
    ({"certificate_override": {"c2": 1e-9, "c3": 1e-9, "cx": 1e-9}, "window.r": 0.01},
     5, "bound violation"),
]


class TestContract:
    @pytest.mark.parametrize("subcommand", ["solve", "stability", "verify", "oracle-compare"])
    @pytest.mark.parametrize("field, value, named", UNKNOWN_FIELDS,
                             ids=[named for _, _, named in UNKNOWN_FIELDS])
    def test_unknown_field_exit_2_names_it(
        self, tmp_path, capsys, shipped_configs, subcommand, field, value, named
    ):
        # an ignored field would certify another problem than the one written,
        # also in a subcommand that does not read its block
        cfg = shipped_configs["desk-epistatic"]
        set_field(cfg, field, value)
        out = tmp_path / "out"
        assert run(subcommand, write_config(tmp_path, cfg), out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid configuration: {named}: unknown field; expected one of ")
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("changes, code, verdict", FAILURE_EXITS,
                             ids=[f"exit-{code}" for _, code, _ in FAILURE_EXITS])
    def test_failure_exit_code_and_verdict(
        self, tmp_path, capsys, shipped_configs, changes, code, verdict
    ):
        cfg = shipped_configs["desk-epistatic"]
        for field, value in changes.items():
            set_field(cfg, field, value)
        assert run("solve", write_config(tmp_path, cfg), tmp_path / "out") == code
        assert capsys.readouterr().err.startswith(f"{verdict}: ")

    def test_explicit_weights_equal_uniform_bit_for_bit(self, tmp_path, shipped_configs):
        cfg = shipped_configs["desk-epistatic"]
        assert run("solve", write_config(tmp_path, cfg, "uniform.json"), tmp_path / "uniform") == 0
        cfg["model"]["weights"] = [0.25, 0.25, 0.25, 0.25]
        assert run("solve", write_config(tmp_path, cfg, "array.json"), tmp_path / "array") == 0
        assert run_outputs(tmp_path / "uniform") == run_outputs(tmp_path / "array")

    def test_scalar_rho_equals_one_density_per_site(self, tmp_path, shipped_configs):
        cfg = shipped_configs["desk-epistatic"]
        assert cfg["initial"] == {"rho": 0.5}
        assert run("solve", write_config(tmp_path, cfg, "scalar.json"), tmp_path / "scalar") == 0
        cfg["initial"]["rho"] = [0.5, 0.5, 0.5, 0.5]
        assert run("solve", write_config(tmp_path, cfg, "array.json"), tmp_path / "array") == 0
        assert run_outputs(tmp_path / "scalar") == run_outputs(tmp_path / "array")

    @pytest.mark.parametrize("block, defaults", [
        ("solver", {f.name: f.default for f in fields(SolverOptions)}),
        ("window", {f.name: f.default for f in fields(ScaleWindow) if f.name in ("gamma", "T")}),
    ], ids=["solver", "window"])
    def test_unset_fields_take_the_library_defaults(
        self, tmp_path, shipped_configs, block, defaults
    ):
        # the defaults are stated once, by SolverOptions and ScaleWindow; the
        # stability floor reads the solver's tol too
        cfg = shipped_configs["desk-epistatic"]
        for key in defaults:
            del cfg[block][key]
        if not cfg[block]:
            del cfg[block]
        unset = write_config(tmp_path, cfg, "unset.json")
        cfg[block] = {**cfg.get(block, {}), **defaults}
        configs = {"unset": unset, "set": write_config(tmp_path, cfg, "set.json")}
        for subcommand in ("solve", "stability"):
            outs = {name: tmp_path / f"{subcommand}-{name}" for name in configs}
            for name, config in configs.items():
                assert run(subcommand, config, outs[name]) == 0
            assert run_outputs(outs["unset"]) == run_outputs(outs["set"])

    @pytest.mark.parametrize("subcommand", ["solve", "stability", "verify", "oracle-compare"])
    @pytest.mark.parametrize("r", [..., "inf", None], ids=["absent", "inf", "null"])
    def test_window_r_is_required_and_finite(
        self, tmp_path, capsys, shipped_configs, subcommand, r
    ):
        # B is quadratic: its bounds hold in a ball of finite radius r around x only
        cfg = shipped_configs["desk-epistatic"]
        if r is ...:
            del cfg["window"]["r"]
        else:
            cfg["window"]["r"] = r
        out = tmp_path / "out"
        assert run(subcommand, write_config(tmp_path, cfg), out) == 2
        assert capsys.readouterr().err.startswith("invalid configuration: window.r: ")
        assert not (out / "summary.json").exists()

    def test_readme_config_sketch_solves(self, tmp_path):
        readme = (ROOT / "README.md").read_text()
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        sketch = section.split("Config sketch (JSON):\n\n```json\n", 1)[1].split("```", 1)[0]
        assert run("solve", write_config(tmp_path, json.loads(sketch)), tmp_path / "out") == 0

    def test_weights_of_the_wrong_length_exit_2(self, tmp_path, capsys, shipped_configs):
        cfg = shipped_configs["desk-epistatic"]
        cfg["model"]["weights"] = [0.5, 0.5]
        assert run("solve", write_config(tmp_path, cfg), tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(
            "invalid configuration: model.weights: expected 4 weights"
        )


class TestSolve:
    def test_shipped_config_succeeds(self, tmp_path):
        out = tmp_path / "out"
        assert run("solve", CONFIG_DIR / "desk-free.json", out) == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "convergence.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"]
        assert "lambda0_audit" in summary
        assert set(summary["lambda0_audit"]) == {
            "time_span", "contraction", "monitor", "radius", "lambda0",
            "binding", "certified_horizon",
        }

    @pytest.mark.parametrize("name", ["desk-epistatic", "desk-free", "desk-smooth"])
    def test_lambda0_audit_names_the_binding_term(self, tmp_path, shipped_configs, name):
        out = tmp_path / "out"
        assert run("solve", CONFIG_DIR / f"{name}.json", out) == 0
        audit = json.loads((out / "summary.json").read_text())["lambda0_audit"]
        assert audit["binding"] == "monitor"
        assert audit["monitor"] == audit["lambda0"]
        window = shipped_configs[name]["window"]
        assert audit["certified_horizon"] == (
            (window["alpha_top"] - window["alpha0"]) / audit["lambda0"]
        )

    def test_byte_identical_rerun(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run("solve", CONFIG_DIR / "desk-free.json", out1)
        run("solve", CONFIG_DIR / "desk-free.json", out2)
        for name in ("trajectory.csv", "convergence.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_trajectory_row_ordering(self, tmp_path):
        out = tmp_path / "out"
        run("solve", CONFIG_DIR / "desk-free.json", out)
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        keys = [
            (float(r["t"]), int(r["level"]), r["config"]) for r in rows
        ]
        assert keys == sorted(keys)

    def test_dead_model_constant_trajectory(self, tmp_path):
        cfg = base_config()
        cfg["model"]["rates"] = {"h": 0.0, "psi": 0.0, "a": 0.0}
        out = tmp_path / "out"
        assert run("solve", write_config(tmp_path, cfg), out) == 0
        with open(out / "convergence.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["increment"]) == 0.0

    def test_slope_below_lambda0_exit_4(self, tmp_path, capsys):
        cfg = base_config()
        cfg["window"]["lambda"] = 0.01
        assert run("solve", write_config(tmp_path, cfg), tmp_path / "out") == 4
        err = capsys.readouterr().err
        assert "0.01" in err and "lambda0" in err

    def test_invalid_gamma_exit_2_with_field_path(self, tmp_path, capsys):
        cfg = base_config()
        cfg["window"]["gamma"] = 1.5
        assert run("solve", write_config(tmp_path, cfg), tmp_path / "out") == 2
        assert "window" in capsys.readouterr().err

    def test_overridden_beta_must_admit_gamma(self, tmp_path, capsys):
        # beta is declared once, by the certificate: gamma must lie in (beta, 1 - beta)
        cfg = base_config(certificate_override={"beta": 0.2})
        assert run("solve", write_config(tmp_path, cfg), tmp_path / "ok") == 0
        cfg["window"]["gamma"] = 0.9
        assert run("solve", write_config(tmp_path, cfg), tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(
            "invalid configuration: certificate_override: gamma must lie in (beta, 1-beta)"
        )

    @pytest.mark.parametrize("key", ["h", "psi"])
    def test_rate_whose_site_sums_overflow_is_named(self, shipped_configs, key):
        # desk-epistatic sums h over 3 sites and psi over 3 site pairs; the
        # refusal comes before numpy overflows, and a third of the rate passes
        # on to the certificate
        cfg = shipped_configs["desk-epistatic"]
        cfg["model"]["rates"][key] = 1e308
        with pytest.raises(ConfigurationError, match=rf"^model\.rates\.{key}: "):
            _prepare(cfg)
        cfg["model"]["rates"][key] = 1e308 / 3
        with pytest.raises(ModelValidationError, match="^c1 = "):
            _prepare(cfg)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name, changes, named", [
        # the outer product of the weights, the integral of h, the double integral of psi
        ("desk-epistatic", {"model.weights": [1e300] * 4}, "model.weights"),
        ("desk-epistatic", {"model.weights": [1e200] * 4, "model.rates.h": 1e200},
         "model.weights"),
        ("desk-epistatic", {"model.weights": [1e150] * 4, "model.rates.h": 1e200},
         "model.weights"),
        ("desk-epistatic", {"model.weights": [1e150] * 4, "model.rates.psi": 1e10},
         "model.weights"),
        # a sinusoidal profile of amplitude 1 doubles a at its peak
        ("desk-smooth", {"model.rates.a": 1e308}, "model.rates.a"),
    ], ids=["weights", "weights-h", "weights-times-h", "weights-psi", "a-at-peak"])
    def test_overflowing_weighted_sum_is_named(self, shipped_configs, name, changes, named):
        cfg = shipped_configs[name]
        for field, value in changes.items():
            set_field(cfg, field, value)
        with pytest.raises(ConfigurationError, match=rf"^{named}: "):
            _prepare(cfg)

    @pytest.mark.parametrize("changes, named", [
        # the initial norm is 1, the smallest there is, since k0(empty) = 1;
        # MALFORMED holds the initial densities whose norm is the largest factor
        ({"window.r": 1e308}, "window.r: the admissible radius 1e+308 makes c2 = inf"),
        ({"model.rates.h": 2e307, "window.T": 1e-307}, "model.rates: the rate constants "),
    ], ids=["window.r", "model.rates"])
    def test_overflowing_certificate_names_its_largest_factor(
        self, tmp_path, capsys, shipped_configs, changes, named
    ):
        cfg = shipped_configs["desk-epistatic"]
        for field, value in changes.items():
            set_field(cfg, field, value)
        assert run("solve", write_config(tmp_path, cfg), tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(f"invalid configuration: {named}")

    def test_missing_field_exit_2(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["model"]["rates"]["h"]
        assert run("solve", write_config(tmp_path, cfg), tmp_path / "out") == 2
        assert "model.rates.h" in capsys.readouterr().err

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        for content in (b"{not json", b"\xff\xfe{"):  # bad syntax, bad encoding
            path.write_bytes(content)
            assert run("solve", path, tmp_path / "out") == 2

    @pytest.mark.parametrize("subcommand, field, value, named", MALFORMED)
    def test_malformed_field_exit_2_names_it(
        self, tmp_path, capsys, subcommand, field, value, named
    ):
        cfg = base_config()
        set_field(cfg, field, value)
        assert run(subcommand, write_config(tmp_path, cfg), tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(f"invalid configuration: {named}: ")

    @pytest.mark.parametrize("subcommand", ["solve", "stability", "oracle-compare"])
    def test_huge_fixed_slope_exit_0(self, tmp_path, subcommand):
        # a horizon of 5e-309 gives a subnormal grid step; nothing divides by its square
        cfg = base_config()
        cfg["window"]["lambda"] = 1e308
        assert run(subcommand, write_config(tmp_path, cfg), tmp_path / "out") == 0

    @pytest.mark.parametrize(
        "field, value, h_profile",
        [
            ("window.T", 1e6, None),
            ("window.alpha_top", 200.0, None),
            # the growth integral itself overflows to inf
            ("window.T", 1e308, None),
            # the phase freq * T of a sinusoidal rate overflows first
            ("window.T", 1e308, {"kind": "sinusoidal", "amp": 1.0, "freq": 40.0}),
        ],
        ids=[
            "window.T-1000000.0", "window.alpha_top-200.0", "window.T-1e308",
            "window.T-1e308-sinusoidal",
        ],
    )
    def test_overflowing_certificate_exit_2(self, tmp_path, capsys, field, value, h_profile):
        # c1 = exp of the growth integral over [0, T] at alpha_top
        cfg = base_config()
        set_field(cfg, field, value)
        if h_profile is not None:
            cfg["model"]["rates"]["h_profile"] = h_profile
        assert run("solve", write_config(tmp_path, cfg), tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("invalid configuration: c1 = exp(")

    def test_overflowing_time_span_term_exit_2(self, tmp_path, capsys, shipped_configs):
        # lambda0's time_span term is (alpha_top - alpha_star) / T
        cfg = shipped_configs["desk-epistatic"]
        cfg["window"]["T"] = 1e-320
        assert run("solve", write_config(tmp_path, cfg), tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(
            "invalid configuration: lambda0 overflows a double in its time_span term: "
            "lengthen window.T"
        )

    def test_override_resolves_auto_lambda_from_overridden_certificate(self, tmp_path):
        cfg = base_config()
        assert run("solve", write_config(tmp_path, cfg), tmp_path / "plain") == 0
        plain = json.loads((tmp_path / "plain" / "summary.json").read_text())
        cfg["certificate_override"] = {"c2": 2.0 * plain["constants"]["c2"]}
        assert run("solve", write_config(tmp_path, cfg, "raised.json"), tmp_path / "raised") == 0
        raised = json.loads((tmp_path / "raised" / "summary.json").read_text())
        assert raised["lambda"] == 2.0 * raised["lambda0_audit"]["lambda0"]
        assert raised["lambda"] != plain["lambda"]

    def test_library_solve_matches_cli_bit_for_bit(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "desk-epistatic.json").read_text())
        model = parse_model(cfg, parse_window(cfg))
        problem = KimuraProblem.build(model, parse_initial(cfg, model))
        u, _ = picard_solve(problem, parse_solver_opts(cfg))
        out = tmp_path / "out"
        assert run("solve", CONFIG_DIR / "desk-epistatic.json", out) == 0
        with open(out / "trajectory.csv") as fh:
            values = [float(r["value"]) for r in csv.DictReader(fh)]
        assert values == u.values.ravel().tolist()

    @given(
        shape=st.tuples(st.integers(1, 3), st.integers(0, 3)).filter(lambda mn: mn[1] <= mn[0]),
        n_times=st.integers(1, 4),
        data=st.data(),
    )
    # every example overwrites the one file, so a shared tmp_path is safe
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_trajectory_bytes_match_the_csv_module(self, tmp_path, shape, n_times, data):
        m, n_max = shape
        labels = [
            (n, "|".join(str(s) for s in eta))
            for n in range(n_max + 1)
            for eta in level_configs(m, n)
        ]
        # repr's exponent, signed-zero, subnormal and special forms
        special = [0.0, -0.0, 5e-324, 2.2e-308, 1e-05, 1e-4, 1e16, 1e15,
                   -1e300, math.inf, -math.inf, math.nan]
        floats = st.one_of(st.sampled_from(special), st.floats(allow_nan=True))
        t_grid = np.array(data.draw(st.lists(floats, min_size=n_times, max_size=n_times)))
        values = np.array(
            data.draw(st.lists(floats, min_size=n_times * len(labels),
                               max_size=n_times * len(labels)))
        ).reshape(n_times, len(labels))
        header = ["t", "level", "config", "value"]
        path = tmp_path / "trajectory.csv"
        u = SimpleNamespace(t_grid=t_grid, values=values)
        write_csv(path, header, trajectory_lines(u, SimpleNamespace(m=m, n_max=n_max)))
        # the csv module over the [t, level, config, value] rows is the reference
        ref = io.StringIO(newline="")
        writer = csv.writer(ref, lineterminator="\n")
        writer.writerow(header)
        for t, row in zip(t_grid.tolist(), values.tolist()):
            writer.writerows([t, n, label, v] for (n, label), v in zip(labels, row))
        assert path.read_bytes() == ref.getvalue().encode()

    def test_import_leaves_scipy_integrate_unloaded(self):
        # scipy.integrate is a large share of start-up and only poisson_oracle needs it
        src = str(Path(banachscale.__file__).resolve().parent.parent)
        path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        code = (
            "import banachscale.cli, sys; "
            "sys.exit('scipy.integrate' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr or "import banachscale.cli loaded scipy.integrate"

    def test_unusable_out_exit_2_names_the_flag(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        for out in (taken, taken / "sub"):
            assert run("solve", CONFIG_DIR / "desk-free.json", out) == 2
            assert capsys.readouterr().err.startswith("cannot write output: --out: ")
        assert taken.read_text() == ""

    def test_iterate_leaving_the_ball_exit_5(self, tmp_path, capsys):
        # with lambda > lambda0 the certificate guarantees the ball: a certified bound failed
        cfg = json.loads((CONFIG_DIR / "desk-epistatic.json").read_text())
        cfg["certificate_override"] = {"c2": 1e-9, "c3": 1e-9, "cx": 1e-9}
        cfg["window"]["r"] = 0.01
        assert run("solve", write_config(tmp_path, cfg), tmp_path / "out") == 5
        assert capsys.readouterr().err.startswith("bound violation: ||u - x||_alpha = ")

    def test_step_budget_names_the_profile(self, tmp_path, capsys, monkeypatch):
        # p_h falls from 1 to 0 inside the first substep of a grid step, so the
        # propagation runs out of RK4 steps; the message names the profile
        cfg = json.loads((CONFIG_DIR / "desk-epistatic.json").read_text())
        cfg["model"]["rates"]["h_profile"] = {"kind": "exp_decay", "rate": 1e308}
        monkeypatch.setattr(kimura, "_MAX_STEPS", 2**10)
        assert run("solve", write_config(tmp_path, cfg), tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "needs more than 1024 RK4 steps" in err
        assert "model.rates.h_profile (exp_decay, rate 1e+308)" in err

    def test_missing_file_exit_2(self, tmp_path):
        assert run("solve", tmp_path / "nope.json", tmp_path / "out") == 2

    def test_threads_flag_is_not_accepted(self, tmp_path):
        # the thread count of numpy's BLAS is fixed when numpy loads, so a flag
        # read afterwards could not set it; the environment variables can
        with pytest.raises(SystemExit):
            run("solve", CONFIG_DIR / "desk-free.json", tmp_path / "out", ["--threads", "2"])


class TestConfigFuzz:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["desk-epistatic", "desk-free", "desk-smooth"])
    def test_junk_leaf_is_certified_or_refused_by_path(self, name):
        # every leaf set to every junk value: parsing and certifying either
        # succeed or raise a library error, with no warning, and a config error
        # starts with a path that cli.FIELDS declares
        declared = {path for path in FIELDS if path} | {
            f"{path}.{key}" if path else key for path, keys in FIELDS.items() for key in keys
        }
        text = (CONFIG_DIR / f"{name}.json").read_text()
        wrong = []
        for path in leaves(json.loads(text)):
            for junk in JUNK:
                cfg = json.loads(text)
                set_field(cfg, path, junk)
                try:
                    _prepare(cfg)
                except ConfigurationError as exc:
                    if str(exc).split(": ", 1)[0] not in declared:
                        wrong.append((path, junk, str(exc)))
                except BanachScaleError:
                    pass
                except Exception as exc:  # any other failure is a finding
                    wrong.append((path, junk, repr(exc)))
        assert wrong == []


class TestStability:
    def test_shipped_config_decreasing(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config()
        cfg["solver"]["n_steps"] = 20
        assert run("stability", write_config(tmp_path, cfg), out) == 0
        with open(out / "stability.csv") as fh:
            rows = list(csv.DictReader(fh))
        devs = [float(r["deviation"]) for r in rows]
        assert all(b < a for a, b in zip(devs, devs[1:]))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["strictly_decreasing"]

    def test_empty_family_exit_2(self, tmp_path):
        cfg = base_config(family={"n_values": []})
        assert run("stability", write_config(tmp_path, cfg), tmp_path / "out") == 2

    def test_fixed_slope_below_lambda1_exit_4(self, tmp_path, capsys):
        cfg = base_config()
        cfg["window"]["lambda"] = 50.0
        assert run("stability", write_config(tmp_path, cfg), tmp_path / "out") == 4
        err = capsys.readouterr().err
        assert err.startswith("infeasible horizon slope: lambda = 50.0 <= lambda1 = ")

    def test_overflowing_member_lambda0_exit_2(self, tmp_path, capsys, shipped_configs):
        # the limit's certificate is finite, but members with a larger h
        # overflow lambda0 in its radius term
        cfg = shipped_configs["desk-epistatic"]
        cfg["window"]["T"] = 100
        config = write_config(tmp_path, cfg)
        assert run("solve", config, tmp_path / "solve") == 0
        assert run("stability", config, tmp_path / "stability") == 2
        assert capsys.readouterr().err.startswith(
            "invalid configuration: lambda0 overflows a double in its radius term: "
            "shorten window.T"
        )


class TestVerify:
    def test_clean_run(self, tmp_path):
        out = tmp_path / "out"
        assert run("verify", CONFIG_DIR / "desk-epistatic.json", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violations"] == []
        assert summary["evolution_identity_exact"]

    def test_minimal_single_sample(self, tmp_path):
        cfg = base_config(run={"samples": 1})
        out = tmp_path / "out"
        assert run("verify", write_config(tmp_path, cfg), out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["samples"] == 1

    @pytest.mark.parametrize("seed", [1, 2, 3, 42])
    def test_one_site_attained_bound_is_clean(self, tmp_path, seed):
        # on one site the Bdelta bound is attained; round-off is no violation
        cfg = base_config(
            model={"m": 1, "weights": "uniform", "n_max": 2,
                   "rates": {"h": 1.0, "psi": 0.0, "a": 0.5}},
            run={"samples": 20},
        )
        out = tmp_path / "out"
        assert run("verify", write_config(tmp_path, cfg), out, ("--seed", str(seed))) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violations"] == []
        assert summary["worst_ratios"]["Bdelta"] <= 1.0 + 1e-12

    def test_corrupted_certificate_exit_5_names_b2(self, tmp_path, capsys):
        cfg = base_config()
        cfg["certificate_override"] = {"c2": 0.001}
        out = tmp_path / "out"
        assert run("verify", write_config(tmp_path, cfg), out) == 5
        assert "B2" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert any(v["inequality"] == "B2" for v in summary["violations"])

    @pytest.mark.parametrize("T", [5e4, 1e5, 1e300, 1e308])
    def test_horizon_beyond_propagator_limit_exit_2(self, tmp_path, capsys, T):
        # solve certifies and solves this window; verify would sample intervals
        # longer than the propagator accepts
        cfg = json.loads((CONFIG_DIR / "desk-free.json").read_text())
        cfg["model"]["rates"]["h_profile"] = {"kind": "exp_decay", "rate": 2}
        cfg["window"]["T"] = T
        config = write_config(tmp_path, cfg)
        assert run("solve", config, tmp_path / "solve") == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("verify", config, tmp_path / "verify") == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.startswith("invalid configuration: window.T: ")

    def test_collapsing_profile_is_no_overflow(self, tmp_path):
        # rate * (t - s) overflows in the growth bound's profile integral: with
        # Python float times it is a silent inf, not a numpy warning (an error
        # under this suite's warning filter, so verify would not exit 0)
        cfg = json.loads((CONFIG_DIR / "desk-free.json").read_text())
        cfg["model"]["rates"]["h_profile"] = {"kind": "exp_decay", "rate": 1e308}
        cfg["window"]["T"] = 5
        cfg["run"] = {"samples": 3}
        assert run("verify", write_config(tmp_path, cfg), tmp_path / "out") == 0

    def test_deterministic_report(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run("verify", CONFIG_DIR / "desk-free.json", out1)
        run("verify", CONFIG_DIR / "desk-free.json", out2)
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


class TestOracleCompare:
    def test_free_config_uses_poisson(self, tmp_path):
        out = tmp_path / "out"
        assert run("oracle-compare", CONFIG_DIR / "desk-free.json", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["oracle"] == "poisson"
        assert summary["worst_relative_deviation"] <= 1e-6

    def test_truncated_free_config_uses_bruteforce(self, tmp_path):
        # psi = 0 but n_max < m: the product closure is not exact there
        cfg = json.loads((CONFIG_DIR / "desk-free.json").read_text())
        cfg["model"]["m"] = 4
        out = tmp_path / "out"
        assert run("oracle-compare", write_config(tmp_path, cfg), out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["oracle"] == "bruteforce"
        assert summary["worst_relative_deviation"] <= 1e-12

    def test_epistatic_config_uses_bruteforce(self, tmp_path):
        out = tmp_path / "out"
        assert run("oracle-compare", CONFIG_DIR / "desk-epistatic.json", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["oracle"] == "bruteforce"
        assert summary["passed"]
