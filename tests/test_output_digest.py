"""tools/output_digest.py: one digest line per run, equal on a rerun, without a git worktree."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_output_digest():
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "tools" / "output_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fifteen_runs_in_a_fixed_order():
    runs = load_output_digest().runs()
    names = [name for name, _, _ in runs]
    assert len(runs) == 15 and len(set(names)) == 15
    assert names[:4] == [f"desk-epistatic/{sub}" for sub in
                         ("solve", "stability", "verify", "oracle-compare")]
    assert names[-3:] == ["solve-large-1/solve", "verify-smooth-1/verify",
                          "stability-desk-1/stability"]


def test_a_rerun_gives_the_same_line():
    tool = load_output_digest()
    run = ("desk-epistatic/solve", "solve", (ROOT / "configs" / "desk-epistatic.json").read_bytes())
    first, second = tool.digest(ROOT, *run), tool.digest(ROOT, *run)
    assert first == second
    cells = first.split()
    assert cells[:2] == ["desk-epistatic/solve", "exit=0"]
    assert [c.split("=")[0] for c in cells[2:]] == [
        "stdout", "stderr", "convergence.csv", "summary.json", "trajectory.csv",
    ]


def test_differences_lists_both_sides_of_each_changed_run():
    diff = load_output_digest().differences(["a 0", "b 0", "c 0"], ["a 0", "b 1", "c 0"])
    assert diff == ["- b 0", "+ b 1"]
