"""Digests of every CLI output, to show that a change leaves them byte-identical.

    python3 tools/output_digest.py [REF]

Runs ``solve``, ``stability``, ``verify`` and ``oracle-compare`` on each
``configs/desk-*.json``, and each benchmark workload's own subcommand on its
seed-1 config (``bench/workloads.make_config(name, 1)``).  Each run is a fresh
interpreter with ``PYTHONPATH=<tree>/src``, started in an empty directory that
holds only its config, so no path differs between trees.  It prints one line
per run: the run's name, its exit code, then the SHA-256 of its stdout, of its
stderr and of each file it wrote.

With REF it makes the same runs, on the same config files, in a detached
``git worktree`` of REF in a temporary directory.  It then prints only the
lines that differ (``-`` for REF, ``+`` for the working tree) and their
count, and exits 1 if any differ.  The worktree is removed at exit (``reftree``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("solve", "stability", "verify", "oracle-compare")


def runs() -> list[tuple[str, str, bytes]]:
    """(name, subcommand, config bytes) of every run, in a fixed order."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = [
        (f"{path.stem}/{sub}", sub, path.read_bytes())
        for path in sorted((ROOT / "configs").glob("desk-*.json"))
        for sub in SUBCOMMANDS
    ]
    for name in workloads.WORKLOADS:
        cfg = json.dumps(workloads.make_config(name, 1)).encode()
        out.append((f"{name}-1/{workloads.subcommand(name)}", workloads.subcommand(name), cfg))
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(tree: Path, name: str, subcommand: str, config: bytes) -> str:
    """One run of ``subcommand`` on ``config`` with the program in ``tree``, as a line."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryDirectory(prefix="output_digest-run-") as cwd:
        (Path(cwd) / "config.json").write_bytes(config)
        proc = subprocess.run(
            [sys.executable, "-m", "banachscale.cli", subcommand,
             "--config", "config.json", "--out", "out"],
            cwd=cwd, env=env, capture_output=True,
        )
        out = Path(cwd) / "out"
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
        cells = [name, f"exit={proc.returncode}", f"stdout={sha256(proc.stdout)}",
                 f"stderr={sha256(proc.stderr)}"]
        cells += [f"{p.relative_to(out)}={sha256(p.read_bytes())}" for p in files]
    return " ".join(cells)


def differences(ref: list[str], change: list[str]) -> list[str]:
    """The lines of runs whose digests differ, REF's first."""
    out = []
    for a, b in zip(ref, change, strict=True):
        if a != b:
            out += [f"- {a}", f"+ {b}"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?", help="git ref to compare the working tree against")
    args = parser.parse_args(argv)
    todo = runs()
    if args.ref is None:
        for run in todo:
            print(digest(ROOT, *run), flush=True)
        return 0

    # a sibling module: a tool run as a script has its directory on sys.path
    from reftree import ref_worktree

    with ref_worktree(args.ref, prefix="output_digest-") as tree:
        ref = [digest(tree, *run) for run in todo]
        change = [digest(ROOT, *run) for run in todo]
    diff = differences(ref, change)
    for line in diff:
        print(line)
    print(f"{len(diff) // 2} of {len(todo)} runs differ from {args.ref}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
