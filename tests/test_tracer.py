"""The benchmark's tracer rebinds program names; a renamed one must fail here."""

import importlib.util
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
