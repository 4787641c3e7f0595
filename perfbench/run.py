"""kwalks benchmark: one workload, end-to-end or layer by layer.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in perfbench/workloads.py.  A pass runs each of the
workload's experiments in a fresh interpreter, as `kwalks run` would;
passes repeat until --seconds have gone by, and at least three run
untraced.  With --trace 0 the last stdout line reports the end-to-end
metrics (medians over passes); with --trace 1 passes alternate untraced and
traced, and it reports the per-layer metrics of the traced passes and the
tracing overhead.  Every pass is checked against perfbench/reference.json,
against the first pass and, for a workload with more than one worker,
against a workers=1 pass; the last line counts the experiment runs
attempted and failed.  Outputs and traces go to .perfbench_out/ in the checkout, and the
result is compared, for information only, with the previous result file.
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

import layers
import reference
import tracer
from workloads import DEFAULT_SEED, SMOKE_TRIALS, WORKLOADS

MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
# BLAS and OpenMP pools pinned to one thread in every experiment process.
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "signs_per_s": "1/s",
}


def checkout_root() -> Path:
    return Path(__file__).resolve().parent.parent


def missing_inputs(root: Path) -> list[str]:
    """Files the workloads need that the checkout lacks."""
    needed = [Path("src/kwalks/__init__.py")]
    needed += [Path(exp.config) for w in WORKLOADS.values()
               for exp in w.experiments if exp.config]
    return [str(p) for p in needed if not (root / p).is_file()]


def source_digest(root: Path) -> str:
    """sha256 over the library sources and configs, in path order."""
    digest = hashlib.sha256()
    for path in sorted([*root.glob("src/kwalks/*.py"), *root.glob("configs/*.cfg")]):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable (not a git checkout)"


class Bench:
    """Runs passes of one workload and keeps their raw results."""

    def __init__(self, root: Path, workload, seed: int, smoke: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.out_dir = root / ".perfbench_out" / workload.name
        shutil.rmtree(self.out_dir / "passes", ignore_errors=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_PINS)

    def run_pass(self, workers: int, traced: bool, index: int) -> dict[str, dict]:
        pass_dir = self.out_dir / "passes" / f"{index:03d}"
        results = {}
        for exp in self.workload.experiments:
            spec = {
                "root": str(self.root), "seed": self.seed, "workers": workers,
                "experiment": {"name": exp.name, "kind": exp.kind,
                               "config": exp.config, "trials": exp.trials},
                "smoke": self.smoke,
                "output": str(pass_dir / f"{exp.name}.csv"),
                "trace_dir": str(pass_dir / f"{exp.name}.trace") if traced else None,
            }
            results[exp.name] = self._spawn(spec)
        return results

    def _spawn(self, spec: dict) -> dict:
        child = str(Path(__file__).with_name("child.py"))
        start_ns = time.monotonic_ns()
        try:
            proc = subprocess.run([sys.executable, child, json.dumps(spec)],
                                  env=self.env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        res = json.loads(lines[-1])
        res["setup_s"] = (res["ready_ns"] - start_ns) * layers.NS
        res["work_s"] = (res["done_ns"] - res["ready_ns"]) * layers.NS
        res["trace_dir"] = spec["trace_dir"]
        return res


class Gate:
    """Counts experiment runs and the ones that failed any check."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.ref = None if bench.smoke else reference.load()
        self.first: dict[str, list[str]] = {}
        self.attempted = self.failed = 0
        self.notes: set[str] = set()

    def judge(self, results: dict[str, dict], label: str) -> None:
        for name, res in results.items():
            self.attempted += 1
            problems = [res["error"]] if res["error"] else self._problems(name, res)
            if problems:
                self.failed += 1
                for problem in problems:
                    print(f"FAILED {name} ({label}): {problem}")

    def _problems(self, name: str, res: dict) -> list[str]:
        problems = []
        first = self.first.setdefault(name, res["lines"])
        if res["lines"] != first:
            problems.append("data rows differ from the first pass"
                            + (" (workers=1)" if self.bench.workload.workers > 1
                               else ""))
        if self.ref is not None:
            found, notes = reference.compare(
                self.ref["experiments"][name], res["kind"], res["lines"],
                res["checks"], self.bench.seed, self.ref["seed"])
            problems += found
            self.notes.update(f"{name}: {note}" for note in notes)
        return problems


def end_to_end(passes: list[dict[str, dict]]) -> dict[str, float]:
    """Workload metrics of the given passes.

    Times are each experiment's median over passes, summed over the
    workload's experiments: a stall during one experiment of one pass then
    moves no median.
    """
    def summed_median(key):
        return sum(statistics.median(p[name][key] for p in passes)
                   for name in passes[0])

    wall = summed_median("work_s")
    return {
        "wall_s": wall,
        "setup_s": summed_median("setup_s"),
        "peak_rss_mb": statistics.median(
            max(r["peak_rss_kb"] for r in p.values()) for p in passes) / 1024,
        "signs_per_s": sum(r["signs"] for r in passes[0].values()) / wall,
    }


def per_layer(traced: list[dict[str, dict]], untraced: list[dict[str, dict]]
              ) -> dict[str, float]:
    names = [e.name for w in WORKLOADS.values() for e in w.experiments]
    units = layers.metric_units(names)
    samples: dict[str, list[float]] = {name: [] for name in units}
    for results in traced:
        spans = [sp for res in results.values()
                 for sp in tracer.load_spans(Path(res["trace_dir"]))]
        for name, value in layers.pass_metrics(spans, results).items():
            samples[name].append(value)
    out = {name: statistics.median(values) if values else 0.0
           for name, values in samples.items()}
    out["trace.overhead_s"] = (end_to_end(traced)["wall_s"]
                               - end_to_end(untraced)["wall_s"])
    return out


def compare_previous(path: Path, metrics: dict[str, dict]) -> None:
    """Print each metric's change against a previous result file."""
    if not path.is_file():
        print(f"no previous results at {path}")
        return
    try:
        with open(path) as src:
            previous = json.load(src)["metrics"]
    except (json.JSONDecodeError, KeyError) as exc:
        print(f"previous results at {path} are unreadable: {exc!r}")
        return
    print(f"change against {path} (information only):")
    for name, cur in metrics.items():
        old = previous.get(name, {}).get("value")
        if old is None:
            print(f"  {name}: new, {cur['value']:.6g} {cur['unit']}")
        elif old == 0:
            print(f"  {name}: {old:.6g} -> {cur['value']:.6g} {cur['unit']}")
        else:
            change = 100 * (cur["value"] - old) / abs(old)
            print(f"  {name}: {old:.6g} -> {cur['value']:.6g} {cur['unit']} "
                  f"({change:+.1f}%)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_TRIALS} trials per sampling experiment, "
                             "no reference check, one pass: for the tests")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must fit in 64 bits")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = checkout_root()
    missing = missing_inputs(root)
    if missing:
        print(f"error: checkout at {root} lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    bench = Bench(root, workload, args.seed, args.smoke)
    gate = Gate(bench)
    # Per-layer metrics have no bound: one traced and one untraced pass do.
    min_passes = 1 if args.smoke or args.trace else MIN_PASSES
    started = time.monotonic()

    def run_pass(workers, traced, index, label):
        results = bench.run_pass(workers, traced, index)
        gate.judge(results, label)
        if any(res["error"] for res in results.values()):
            return None
        print(f"{label}: wall {sum(r['work_s'] for r in results.values()):.3f} s, "
              f"setup {sum(r['setup_s'] for r in results.values()):.3f} s")
        return results

    # A workers=1 pass first gives the rows every later pass must repeat at
    # the workload's own worker count; it also warms the file cache.
    if workload.workers > 1 and not run_pass(1, False, 0, "pass 0 workers=1"):
        return 1
    untraced, traced = [], []
    clock = time.monotonic()
    while True:
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        index = len(untraced) + len(traced) + 1
        results = run_pass(workload.workers, trace_this, index,
                           f"pass {index}{' traced' if trace_this else ''}")
        if results is None:
            return 1
        (traced if trace_this else untraced).append(results)
        last, clock = time.monotonic() - clock, time.monotonic()
        enough = len(untraced) >= min_passes and (not args.trace or traced)
        # Stop where another pass would end more than half a pass late.
        if enough and clock - started + last / 2 > args.seconds:
            break

    first = next(iter(untraced[0].values()))
    provenance = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "workers": workload.workers, "smoke": args.smoke,
        "trial_overrides": {e.name: e.trials for e in workload.experiments
                            if e.trials is not None},
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "git_revision": git_revision(root), "source_digest": source_digest(root),
        "versions": first["versions"], "start_method": first["start_method"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for note in sorted(gate.notes):
        print(f"note: {note}")
    print(f"failed_ops_frac = {gate.failed}/{gate.attempted} experiment runs")
    for name in untraced[0]:
        setups = [p[name]["setup_s"] for p in untraced]
        works = [p[name]["work_s"] for p in untraced]
        print(f"experiment {name}: setup {statistics.median(setups):.3f} s, "
              f"work {statistics.median(works):.3f} s (median of {len(works)})")

    if args.trace:
        units = layers.metric_units(
            [e.name for w in WORKLOADS.values() for e in w.experiments])
        values = per_layer(traced, untraced)
    else:
        units = END_TO_END
        values = end_to_end(untraced)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")

    result_file = (bench.out_dir
                   / f"results{'-smoke' if args.smoke else ''}-trace{args.trace}.json")
    compare_previous(result_file, metrics)
    result_file.parent.mkdir(parents=True, exist_ok=True)
    with open(result_file, "w") as out:
        json.dump({"provenance": provenance, "metrics": metrics}, out, indent=1)
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
