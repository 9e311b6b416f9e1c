"""The benchmark's output checks import program names; a moved one must fail here."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from banachscale.cli import main

ROOT = Path(__file__).resolve().parent.parent


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_bench("workloads")
checks = load_bench("checks")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_workload_passes_the_bench_checks(workload, tmp_path):
    cfg = workloads.make_config(workload, 3, smoke=True)
    raw = (json.dumps(cfg, indent=1, sort_keys=True) + "\n").encode()
    config = tmp_path / "cfg.json"
    config.write_bytes(raw)
    out = tmp_path / "out"
    argv = [workloads.subcommand(workload), "--config", str(config), "--out", str(out)]
    assert main([*argv, "--seed", "42"]) == 0
    sha = hashlib.sha256(raw).hexdigest()
    figures, problems = checks.check_output(workload, cfg, sha, 42, out)
    assert problems == []
    assert figures["certified_horizon"] > 0.0
