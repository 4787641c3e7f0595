"""The benchmark's workloads: which experiments run, at what size, and why.

Every experiment runs in a fresh interpreter, as `kwalks run CONFIG` would,
so each one pays interpreter start, `import kwalks`, config parsing and its
own sampler and cache set-up.  Trial counts are overrides of the configs'
own values, chosen so that one pass over a workload takes seconds while the
workload's dominant layer stays dominant.  The walk-scaling configs keep
their own 10^4 trials: their growth-fit verdicts (acceptance criteria 2
and 3) are statistical, and at fewer trials they would flip with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 20250810     # the seed every shipped config carries


@dataclass(frozen=True)
class Experiment:
    """One experiment, run in its own interpreter.

    kind is "config" (a kwalks experiment config), "verify" (the exact
    invariant suite behind `kwalks verify`) or "interval-trees" (seeded
    variance interval trees, owned by the benchmark).  config is a path
    relative to the checkout root; trials, when set, overrides the config's
    trial count.
    """

    name: str
    kind: str = "config"
    config: str | None = None
    trials: int | None = None


@dataclass(frozen=True)
class Workload:
    """Experiments run together; BENCHMARK.json says why each was chosen."""

    name: str
    workers: int
    # At workers > 1 every pass must repeat the rows of a workers=1 pass.
    experiments: tuple[Experiment, ...]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="kwise-mc",
            workers=1,
            experiments=(
                Experiment("maximal_mc", config="configs/maximal_mc.cfg",
                           trials=10000),
                Experiment("walk_scaling_4wise",
                           config="configs/walk_scaling_4wise.cfg"),
                Experiment("stream_track_4wise",
                           config="configs/stream_track_4wise.cfg", trials=500),
            )),
        Workload(
            name="adversarial-mc",
            workers=2,
            experiments=(
                Experiment("walk_scaling_h", config="configs/walk_scaling_h.cfg"),
                Experiment("family_verify", config="configs/family_verify.cfg",
                           trials=250000),
                Experiment("walk_scaling_h1",
                           config="perfbench/configs/walk_scaling_h1.cfg"),
                Experiment("walk_scaling_h2",
                           config="perfbench/configs/walk_scaling_h2.cfg"),
                Experiment("walk_scaling_h3",
                           config="perfbench/configs/walk_scaling_h3.cfg"),
            )),
        Workload(
            name="exact-verify",
            workers=1,
            experiments=(
                Experiment("verify", kind="verify"),
                Experiment("matrix_check", config="configs/matrix_check.cfg"),
                Experiment("net_audit", config="configs/net_audit.cfg"),
                Experiment("family_verify_exact",
                           config="perfbench/configs/family_verify_exact.cfg"),
                Experiment("interval_trees", kind="interval-trees"),
            )),
    )
}

# Seeded interval trees: size, count and telescoped realizations per tree.
TREE_N = 4096
TREE_COUNT = 4
TREE_REALIZATIONS = 32

# Trial count of every sampling experiment in a smoke run (the benchmark's
# own tests); 100 is the smallest count the Monte Carlo estimators accept.
SMOKE_TRIALS = 100
