"""Smoke test of the benchmark itself, on dim-8/15 variants of the workloads.

    PYTHONPATH=src python3 -m pytest -q bench/test_smoke.py

Checks that every declared metric is emitted with its unit, that the report
names all six end-to-end figures, and that a corrupted output is counted as
failed.  Takes about forty seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    expected = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "fail_frac": "ratio",
                "certified_horizon": "time"}
    if workload == "solve-large":
        expected["ref_dev"] = "ratio"
    for name, unit in expected.items():
        line = next((ln for ln in report if ln.split()[:1] == [name]), None)
        assert line is not None, f"{name} missing from the report"
        assert f" {unit} " in f"{line} " and " n " in line, line


def _truncate(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def test_truncated_first_output_fails_every_call():
    def corrupt(i, out):
        if i == 0:
            _truncate(out / "trajectory.csv")

    r = run.run_workload("solve-large", 3, 1.0, False, smoke=True, mutate=corrupt)
    assert not r["correct"]
    assert r["failed"] == r["attempted"] >= 1
    assert any("trajectory.csv" in p for p in r["problems"])


def test_output_differing_from_the_first_call_fails_that_call():
    def corrupt(i, out):
        if i == 1:
            _truncate(out / "trajectory.csv")

    r = run.run_workload("solve-large", 3, 3.0, False, smoke=True, mutate=corrupt)
    assert r["attempted"] >= 2
    assert r["failed"] == 1 and not r["correct"]
