"""The benchmark's tracer rebinds program names; a renamed one must fail here."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_cleanly(tmp_path):
    from banachscale.cli import main

    tracer = load_tracer()
    before = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in tracer.TRACE_POINTS}
    tr = tracer.Tracer()
    tr.install()
    try:
        for (owner, attr), original in before.items():
            assert owner.__dict__[attr] is not original
        config = ROOT / "configs" / "desk-free.json"
        assert main(["solve", "--config", str(config), "--out", str(tmp_path)]) == 0
    finally:
        tr.uninstall()
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original
    for name in ("solver.picard", "solver.monitor", "scalecore.weighted_norm", "kimura.norm"):
        assert tr.calls[name] > 0, name
    # the problem is certified once, through the traced name
    assert tr.calls["kimura.certify"] == 1


def test_stability_certifies_the_limit_once(tmp_path):
    from banachscale.cli import main

    cfg = json.loads((ROOT / "configs" / "desk-free.json").read_text())
    cfg["family"]["n_values"] = [1, 2]
    cfg["solver"]["n_steps"] = 20
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    tr = load_tracer().Tracer()
    tr.install()
    try:
        assert main(["stability", "--config", str(config), "--out", str(tmp_path)]) == 0
    finally:
        tr.uninstall()
    assert tr.calls["stability.family_build"] == 1
    assert tr.calls["stability.experiment"] == 1
    # the limit reuses the run's certificate; each member gets its own
    assert tr.calls["kimura.certify"] == 1 + len(cfg["family"]["n_values"])


def test_traced_verify_sees_one_propagation_per_phase(tmp_path):
    from banachscale.cli import main

    cfg = json.loads((ROOT / "configs" / "desk-smooth.json").read_text())
    cfg["run"] = {"samples": 5}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    tracer = load_tracer()
    before = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in tracer.TRACE_POINTS}
    tr = tracer.Tracer()
    tr.install()
    try:
        assert main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 0
    finally:
        tr.uninstall()
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original
    # the batched propagations go through the oracles' evolution_u name, two
    # for evolution_law_check; bound_verifier propagates nothing
    assert tr.calls["kimura.propagator"] == 2
    prop = tr.names.index("kimura.propagator")
    callers = [
        tr.names[tr.span_name[parent]]
        for name, parent in zip(tr.span_name, tr.span_parent)
        if name == prop
    ]
    assert callers == ["oracles.evolution_law"] * 2
