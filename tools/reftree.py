"""A git ref checked out next to the working tree, for the tools that compare them.

    with ref_worktree("HEAD~", prefix="ab_bench-") as tree:
        ...  # tree is a Path holding the files of HEAD~

The checkout is a detached ``git worktree`` in a temporary directory.  On leaving
the block, also on SIGTERM, the directory is removed and git's record of the
worktree pruned.
"""

from __future__ import annotations

import contextlib
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


@contextlib.contextmanager
def ref_worktree(ref: str, prefix: str):
    # a termination signal unwinds through the finally below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = Path(tempfile.mkdtemp(prefix=prefix))
    try:
        git("worktree", "add", "--detach", str(tmp / "ref"), ref)
        yield tmp / "ref"
    finally:
        # pruning drops the worktree's record once its directory is gone
        shutil.rmtree(tmp, ignore_errors=True)
        git("worktree", "prune")
