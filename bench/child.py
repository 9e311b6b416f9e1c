"""One measured step, run in a fresh interpreter by ``run.py``.

    child.py setup  CONFIG RESULT
        time from interpreter start to a certified problem: import
        banachscale, parse the config with the public cli.parse_* functions,
        KimuraProblem.build, then lambda0.
    child.py call   CONFIG RESULT SUBCOMMAND OUT SEED [SPANS]
        wall time of one cli.main call (imports excluded) and the process's
        peak RSS; with SPANS, the call is traced and the spans go to SPANS.

The result is one JSON object written to RESULT.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(config: str) -> dict:
    from banachscale import cli
    from banachscale.kimura import KimuraProblem
    from banachscale.scalecore import lambda0

    with open(config, "rb") as fh:
        cfg = json.loads(fh.read())
    window = cli.parse_window(cfg)
    model = cli.parse_model(cfg, window)
    k0 = cli.parse_initial(cfg, model)
    cli.parse_solver_opts(cfg)
    problem = KimuraProblem.build(model, k0)
    lam0 = lambda0(window, problem.consts)
    return {"setup_s": time.perf_counter() - _T0, "lambda0": lam0}


def call(config: str, subcommand: str, out: str, seed: str, spans: str | None) -> dict:
    from banachscale import cli

    argv = [subcommand, "--config", config, "--out", out, "--seed", seed]
    main = cli.main
    tracer = None
    if spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        main = tracer.wrap("cli.main", cli.main)
    start = time.perf_counter()
    rc = main(argv)
    wall = time.perf_counter() - start
    result = {"rc": rc, "wall_s": wall, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(spans)
    return result


def main(argv: list[str]) -> int:
    mode, config, result_path, *rest = argv
    if mode == "setup":
        result = setup(config)
    else:
        subcommand, out, seed, *spans = rest
        result = call(config, subcommand, out, seed, spans[0] if spans else None)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
