"""Paired timing of benchmark workloads: a git ref against the working tree.

    python3 tools/ab_bench.py REF WORKLOAD [WORKLOAD ...] --pairs 10 --seed 1

Checks REF out in a detached ``git worktree`` in a temporary directory, then,
for each workload in turn, runs ``bench/run.py --workload WORKLOAD --seed S
--trace 0`` for the ``run_seconds`` that ``BENCHMARK.json`` sets, once per
side for each of ``--pairs`` pairs, alternating which side goes first.  Each
side runs its own ``bench/run.py`` as a subprocess.  Per workload it prints
every run, then each side's median and quartiles per end-to-end metric, the
number of pairs the working tree wins (ties count for neither) and whether
the gain rule holds: a win in at least nine tenths of the pairs and medians
further apart than the ref's interquartile range.  A metric whose ref
interquartile range is wider than its bound times the ref's median is
reported unresolved, unless every change run beats every ref run: such a
spread cannot tell a change within the bound from one beyond it.  The exit
status does not depend on it.  It exits 1 when, on any
workload, a metric's median is worse than the ref's by more than the
metric's bound, or the working tree fails a larger share of calls or a
correctness check.  The worktree is removed at exit (``reftree``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one ``bench/run.py --trace 0`` run in ``tree``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(metrics: list[dict], runs: dict[str, list[dict]]) -> bool:
    """Print medians, quartiles and wins per metric; True when every metric holds
    its bound and the change fails no larger share of calls and no correctness check."""
    ref, new = runs["ref"], runs["change"]
    ok = True
    print(f"{'metric':12s} {'side':7s} {'median':>10s} {'q1':>10s} {'q3':>10s}")
    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        a = [r["metrics"][name]["value"] for r in ref]
        b = [r["metrics"][name]["value"] for r in new]
        for side, values in (("ref", a), ("change", b)):
            q1, med, q3 = quartiles(values)
            print(f"{name:12s} {side:7s} {med:10.6g} {q1:10.6g} {q3:10.6g}")
        wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        q1, med_a, q3 = quartiles(a)
        med_b = statistics.median(b)
        gain = wins >= 0.9 * len(a) and sign * (med_a - med_b) > q3 - q1
        within = sign * (med_b - med_a) <= m["bound"] * abs(med_a)
        ok = ok and within
        beats_all = max(sign * y for y in b) < min(sign * x for x in a)
        bound = f"the {m['bound']:.0%} bound"
        if q3 - q1 <= m["bound"] * abs(med_a) or beats_all:
            verdict = f"{'within' if within else 'BEYOND'} {bound}"
        else:
            verdict = f"unresolved: the ref IQR is wider than {bound}" + (
                "" if within else ", and the median is BEYOND it")
        print(f"{name}: change better in {wins} of {len(a)} pairs; medians {med_a:.6g} -> "
              f"{med_b:.6g} ({med_b / med_a - 1:+.1%}), ref IQR {q3 - q1:.3g}; "
              f"gain rule {'holds' if gain else 'not met'}; {verdict}")
    shares = {}
    for side, rs in (("ref", ref), ("change", new)):
        failed, attempted = sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)
        correct = all(r["correct"] for r in rs)
        shares[side] = failed / attempted if attempted else 0.0
        print(f"{side}: {failed} of {attempted} calls failed; every run correct: {correct}")
    return ok and shares["change"] <= shares["ref"] and all(r["correct"] for r in new)


def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git ref to compare the working tree against")
    parser.add_argument("workloads", nargs="+", metavar="WORKLOAD",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)

    # a sibling module: a tool run as a script has its directory on sys.path
    from reftree import ref_worktree

    ok = True
    with ref_worktree(args.ref, prefix="ab_bench-") as tree:
        sides = {"ref": tree, "change": ROOT}
        for workload in args.workloads:
            print(f"== {workload}", flush=True)
            runs: dict[str, list[dict]] = {"ref": [], "change": []}
            for i in range(args.pairs):
                order = ("ref", "change") if i % 2 == 0 else ("change", "ref")
                for side in order:
                    r = bench(sides[side], workload, args.seed, spec["run_seconds"])
                    runs[side].append(r)
                    values = "  ".join(f"{k} {v['value']:.6g}" for k, v in r["metrics"].items())
                    print(f"pair {i + 1} {side:6s} {values}  failed {r['failed']}", flush=True)
            ok = summarize(spec["end_to_end"], runs) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
