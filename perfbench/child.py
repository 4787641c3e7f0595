"""Run one experiment in a fresh interpreter, as `kwalks run` would.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds root, experiment (name, kind, config, trials), seed,
workers, smoke, output (CSV path) and trace_dir (null for an untraced run).
Prints one JSON object on stdout: monotonic timestamps at set-up end and
work end, the data rows and check verdicts, the signs the configs call for,
peak RSS and versions.  The caller's own clock at spawn marks set-up start.
"""

from __future__ import annotations

import json
import os
import sys
import time

from workloads import SMOKE_TRIALS


def _data_lines(path) -> list[str]:
    """Header and data rows of a result CSV, without the '#' footer."""
    with open(path) as src:
        return [line for line in src.read().splitlines()
                if not line.startswith("#")]


def _verdicts(checks) -> list[tuple[str, bool, str]]:
    return [(c.name, c.passed, c.detail) for c in checks]


def _config_experiment(experiments, spec):
    exp = spec["experiment"]
    config = experiments.ExperimentConfig.from_file(f"{spec['root']}/{exp['config']}")
    config.seed = spec["seed"]
    config.workers = spec["workers"]
    config.output = spec["output"]
    if exp["trials"] is not None:
        config.trials = exp["trials"]
    if spec["smoke"]:
        config.trials = min(config.trials, SMOKE_TRIALS)

    def body():
        table = experiments.run(config)
        return _data_lines(config.output), _verdicts(table.checks)

    return config, body


def _verify_experiment(experiments):
    def body():
        checks = experiments.verify_suite()
        return [c.line() for c in checks], _verdicts(checks)
    return body


def _interval_trees_experiment(spec):
    import numpy as np

    from kwalks import maximal_inequality as mi
    from kwalks.experiments import ResultTable
    from kwalks.rng import substream
    from workloads import TREE_COUNT, TREE_N, TREE_REALIZATIONS

    seed = spec["seed"]

    def body():
        table = ResultTable(header=["tree", "n", "nodes", "max_rank",
                                    "bad_nodes", "problems",
                                    "telescoping_defect", "seed"])
        for t in range(TREE_COUNT):
            rng = substream(seed, t)
            tree = mi.classify_and_rank(
                mi.build_tree(mi.random_profile(TREE_N, 4.0, rng)))
            problems = mi.check_invariants(tree)
            steps = rng.integers(0, 2, size=(TREE_REALIZATIONS, TREE_N)) * 2 - 1
            sums = np.zeros((TREE_REALIZATIONS, TREE_N + 1), dtype=np.int64)
            np.cumsum(steps, axis=1, out=sums[:, 1:])
            defect = mi.telescoping_defect(tree, sums)
            table.add(t, TREE_N, len(tree.nodes), mi.max_rank(tree),
                      sum(nd.bad for nd in tree.nodes), len(problems), defect,
                      seed)
            table.check(f"tree {t} invariants", not problems,
                        "; ".join(problems[:3]))
            table.check(f"tree {t} telescoping exact", defect == 0,
                        f"defect {defect}")
        table.write_csv(spec["output"])
        return _data_lines(spec["output"]), _verdicts(table.checks)

    return body


def _signs(config, stream_generators) -> int:
    """Monte Carlo signs the config asks for: trials x domain size, summed."""
    if config is None:
        return 0
    if config.kind == "walk-scaling":
        return config.trials * sum(config.int_list("n_list", "16 64 256 1024 4096"))
    if config.kind == "maximal-mc":
        return config.trials * config.get_int("n", 1024)
    if config.kind == "family-verify":
        return config.trials * sum(config.int_list("n_list", "16"))
    if config.kind in ("stream-track", "net-audit"):
        gens = config.params.get("generators", "identity").split()
        m_values = config.int_list("m_list", "64 256 1024 4096 16384")
        per_draw = sum(stream_generators[g](m).n for g in gens for m in m_values)
        if config.kind == "stream-track":
            return config.trials * per_draw
        return config.get_int("realizations", 100) * per_draw
    return 0


def main() -> int:
    spec = json.loads(sys.argv[1])
    import kwalks
    from kwalks import experiments, streams

    if not kwalks.__file__.startswith(f"{spec['root']}/src/"):
        raise SystemExit(f"kwalks imported from {kwalks.__file__}, "
                         f"not from {spec['root']}/src")
    kind = spec["experiment"]["kind"]
    config = None
    if kind == "config":
        config, body = _config_experiment(experiments, spec)
    elif kind == "verify":
        body = _verify_experiment(experiments)
    else:
        body = _interval_trees_experiment(spec)
    tracer = None
    if spec["trace_dir"]:
        import tracer as tracing
        tracer = tracing.install(spec["trace_dir"])

    ready_ns = time.monotonic_ns()
    error = None
    lines, checks = [], []
    try:
        lines, checks = body()
    except Exception as exc:        # reported to the caller as a failed run
        import traceback
        error = "".join(traceback.format_exception(exc))
    done_ns = time.monotonic_ns()
    if tracer is not None:
        tracer.write()

    import multiprocessing
    import resource

    import numpy
    import scipy

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({
        "pid": os.getpid(), "kind": config.kind if config else kind,
        "ready_ns": ready_ns, "done_ns": done_ns,
        "lines": lines, "checks": checks, "error": error,
        "signs": _signs(config, streams.STREAM_GENERATORS),
        "peak_rss_kb": peak_kb,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "kwalks": kwalks.__version__},
        "start_method": multiprocessing.get_start_method(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
