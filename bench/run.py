"""Benchmark of the banachscale CLI on three seeded workloads.

    python3 bench/run.py --workload solve-large --seed 1 --seconds 32 --trace 0

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src/``.  Every measured step runs in a fresh child interpreter,
one at a time.  The run

1. writes the workload's config, drawn from ``--seed``, and records its SHA-256;
2. times set-up (interpreter start to a certified problem) several times;
3. calls ``banachscale.cli.main`` in fresh processes until ``--seconds`` of
   calls are spent (``--trace 1`` alternates untraced and traced calls);
4. checks the first output against an independent reference and every later
   output for byte identity with the first;
5. prints a report and, as the last line, one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
   ``--trace 0``, per-layer metrics with ``--trace 1``).

See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

SETUP_REPS = 5
CHILD_TIMEOUT_S = 90  # keeps a hung call inside the 180 s a run may take
THREADS = "1"  # BLAS threads per child; at most nproc, and the steadiest choice
# The CLI's own --seed picks verify's sample points and interval lengths, and so
# its amount of work; it stays fixed so that the workload seed (which draws every
# rate and density) does not also change how much work a call does.
CLI_SEED = 42

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_frac") else "count"


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": THREADS,
        "OMP_NUM_THREADS": THREADS,
        "MKL_NUM_THREADS": THREADS,
    })
    return env


def run_child(mode: str, config: Path, result: Path, *rest: str) -> dict | None:
    """Run ``child.py mode config result *rest``; its JSON result, or None if it failed."""
    result.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), mode, str(config), str(result), *rest],
            env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"child {mode} killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        print(f"child {mode} exited {proc.returncode}: {tail[0]}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def output_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(p, value): the highest percentile with at least 10 samples above it."""
    k = len(values) - 10
    if k < 1:
        return None
    return 100.0 * k / len(values), sorted(values)[k - 1]


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            caches[level] = int(subprocess.run(
                ["getconf", level], capture_output=True, text=True, check=True
            ).stdout)
        except (OSError, ValueError, subprocess.CalledProcessError):
            caches[level] = None
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "l2_bytes": caches["LEVEL2_CACHE_SIZE"],
        "l3_bytes": caches["LEVEL3_CACHE_SIZE"],
        "blas_threads": int(THREADS),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, mutate=None) -> dict:
    """Measure one workload; ``mutate(i, out_dir)`` may alter call i's output (tests)."""
    from checks import check_output
    from workloads import make_config, subcommand

    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = make_config(workload, seed, smoke)
    raw = (json.dumps(cfg, indent=1, sort_keys=True) + "\n").encode()
    config = work / "config.json"
    config.write_bytes(raw)
    config_sha = hashlib.sha256(raw).hexdigest()

    setups = [run_child("setup", config, work / "setup.json")
              for _ in range(3 if smoke else SETUP_REPS)]
    setup_ok = [s for s in setups if s is not None]

    calls = []  # one dict per attempted call
    start = time.perf_counter()
    while True:
        traced = trace and len(calls) % 2 == 1
        i = len(calls)
        out = work / f"out-{i}"
        rest = [subcommand(workload), str(out), str(CLI_SEED)]
        if traced:
            rest.append(str(work / "spans.json"))
        t0 = time.perf_counter()
        res = run_child("call", config, work / "call.json", *rest)
        step = time.perf_counter() - t0
        record = {"traced": traced, "step_s": step, "result": res, "problems": []}
        if res is None:
            record["problems"].append("child failed")
        elif res["rc"] != 0:
            record["problems"].append(f"exit code {res['rc']}")
        if out.is_dir():
            if mutate is not None:
                mutate(i, out)
            record["digest"] = output_digest(out)
        calls.append(record)
        elapsed = time.perf_counter() - start
        per_call = statistics.median(c["step_s"] for c in calls)
        done = not trace or (len(calls) % 2 == 0)
        if done and elapsed + per_call * (2 if trace else 1) > seconds:
            break

    # untimed: check the first output, then byte identity of the rest
    figures, first_problems = {}, ["no output"]
    first = next((c for c in calls if "digest" in c), None)
    if first is not None:
        figures, first_problems = check_output(
            workload, cfg, config_sha, CLI_SEED, work / f"out-{calls.index(first)}")
    if any(s["lambda0"] != figures.get("lambda0") for s in setup_ok):
        first_problems.append("set-up lambda0 differs from the run's audited lambda0")
    for i, c in enumerate(calls):
        if c.get("digest") is None:
            c["problems"].append("no output")
        elif c["digest"] != first["digest"]:
            c["problems"].append("output differs from the first call's")
        else:
            c["problems"].extend(first_problems)
        if i and (work / f"out-{i}").is_dir():
            shutil.rmtree(work / f"out-{i}")

    failed = sum(1 for c in calls if c["problems"])
    problems = sorted({p for c in calls for p in c["problems"]} | set(first_problems))
    if len(setup_ok) < len(setups):
        problems.append("a set-up step failed")
    untraced = [c["result"] for c in calls if c["result"] and not c["traced"]]
    traced_res = [c["result"] for c in calls if c["result"] and c["traced"]]
    samples = {
        "wall_s": [r["wall_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "setup_s": [s["setup_s"] for s in setup_ok],
    }
    e2e = {k: statistics.median(v) for k, v in samples.items() if v}
    layers = {}
    if traced_res:
        for name in traced_res[0]["layers"]:
            layers[name] = statistics.median(r["layers"][name] for r in traced_res)
        if "wall_s" in e2e:
            traced_wall = statistics.median(r["wall_s"] for r in traced_res)
            layers["trace.overhead_frac"] = traced_wall / e2e["wall_s"] - 1.0
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "config_sha256": config_sha,
        "environment": environment(),
        "attempted": len(calls),
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems,
        "figures": figures,
        "samples": samples,
        "end_to_end": e2e,
        "layers": layers,
    }


def report_lines(r: dict) -> list[str]:
    env = r["environment"]
    lines = [
        f"workload {r['workload']}  seed {r['seed']}  cli seed {CLI_SEED}  seconds {r['seconds']}  "
        f"trace {int(r['trace'])}  config sha256 {r['config_sha256']}",
        "environment " + "  ".join(f"{k} {v}" for k, v in env.items()),
    ]
    for name, values in r["samples"].items():
        if not values:
            continue
        tail = tail_percentile(values)
        tail_txt = f"p{tail[0]:.0f} {tail[1]:.6g}" if tail else "p_tail n/a (n < 11)"
        lines.append(f"{name:18s} median {statistics.median(values):.6g} {E2E_UNITS[name]}  "
                     f"{tail_txt}  n {len(values)}")
    lines.append(f"{'fail_frac':18s} {r['failed'] / max(r['attempted'], 1):.6g} ratio  "
                 f"n {r['attempted']}")
    if "ref_dev" in r["figures"]:
        lines.append(f"{'ref_dev':18s} {r['figures']['ref_dev']:.6g} ratio  n 1")
    if "certified_horizon" in r["figures"]:
        lines.append(f"{'certified_horizon':18s} {r['figures']['certified_horizon']:.6g} time  n 1")
    for name, value in r["layers"].items():
        lines.append(f"{name:32s} {value:.6g} {_layer_unit(name)}")
    for p in r["problems"]:
        lines.append(f"PROBLEM {p}")
    return lines


def result_line(r: dict) -> str:
    if r["trace"]:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in r["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in r["end_to_end"].items()}
    return json.dumps({
        "correct": r["correct"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="dim-8/15 variant of the workload, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not (SRC / "banachscale" / "__init__.py").is_file():
        print(f"no banachscale sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    r = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    (WORK / args.workload / "result.json").write_text(json.dumps(r, indent=1) + "\n")
    for line in report_lines(r):
        print(line)
    print(result_line(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
