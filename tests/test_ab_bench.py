"""tools/ab_bench.py: its arguments and its exit decision, without a git worktree."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def load_ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestArguments:
    def test_several_workloads_in_one_run(self):
        args = load_ab_bench().parse_args(["HEAD~", *WORKLOADS, "--pairs", "3", "--seed", "1"], SPEC)
        assert (args.ref, args.workloads, args.pairs, args.seed) == ("HEAD~", WORKLOADS, 3, 1)

    def test_pairs_default_to_ten(self):
        args = load_ab_bench().parse_args(["HEAD~", WORKLOADS[0], "--seed", "7"], SPEC)
        assert args.workloads == [WORKLOADS[0]] and args.pairs == 10

    @pytest.mark.parametrize("argv", [
        ["HEAD~", "--seed", "1"],
        ["HEAD~", WORKLOADS[0], "no-such-workload", "--seed", "1"],
        ["HEAD~", WORKLOADS[0], "--pairs", "0", "--seed", "1"],
        ["HEAD~", WORKLOADS[0]],
    ], ids=["no-workload", "unknown-workload", "no-pairs", "no-seed"])
    def test_bad_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            load_ab_bench().parse_args(argv, SPEC)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


def run(scale=1.0, failed=0):
    """A bench/run.py result line whose every end-to-end metric is scale times its base."""
    metrics = {m["name"]: {"value": scale * (1.0 + i)} for i, m in enumerate(SPEC["end_to_end"])}
    return {"metrics": metrics, "attempted": 100, "failed": failed, "correct": failed == 0}


class TestExitDecision:
    def summarize(self, ref, change):
        return load_ab_bench().summarize(SPEC["end_to_end"], {"ref": ref, "change": change})

    def test_equal_runs_hold(self, capsys):
        assert self.summarize([run(), run()], [run(), run()])
        assert "BEYOND" not in capsys.readouterr().out

    def test_a_metric_beyond_its_bound_fails(self, capsys):
        bound = min(m["bound"] for m in SPEC["end_to_end"])
        assert not self.summarize([run(), run()], [run(1.0 + 2 * bound)] * 2)
        assert "BEYOND" in capsys.readouterr().out

    def test_a_faster_change_holds(self):
        assert self.summarize([run(), run()], [run(0.5), run(0.5)])

    def test_more_failed_calls_fail(self):
        assert not self.summarize([run(), run()], [run(), run(failed=1)])

    def test_a_ref_spread_wider_than_the_bound_is_unresolved(self, capsys):
        # quartiles 0.625 and 1.875 around a median of 1.25, for every metric
        wide = [run(0.5), run(1.0), run(1.5), run(2.0)]
        assert self.summarize(wide, [run(1.0)] * 4)
        verdicts = [line.rsplit("; ", 1)[-1] for line in capsys.readouterr().out.splitlines()
                    if "pairs;" in line]
        assert len(verdicts) == len(SPEC["end_to_end"])
        assert all(v.startswith("unresolved") for v in verdicts)

    def test_a_wide_spread_beyond_the_bound_still_fails(self, capsys):
        assert not self.summarize([run(0.5), run(1.0), run(1.5), run(2.0)], [run(3.0)] * 4)
        out = capsys.readouterr().out
        assert "unresolved" in out and "BEYOND" in out

    def test_a_change_beating_every_ref_run_is_resolved(self, capsys):
        assert self.summarize([run(0.5), run(1.0), run(1.5), run(2.0)], [run(0.4)] * 4)
        out = capsys.readouterr().out
        assert "unresolved" not in out and "within" in out
