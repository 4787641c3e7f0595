"""Correctness gate: compare an experiment's output with the recorded reference.

reference.json was recorded once, at the default seed and the benchmark's
own trial counts, by running `python3 perfbench/reference.py` in a checkout.
Each data row falls into one of three classes:

* exact rows (family-verify moment identities, matrix-check, net-audit and
  the `kwalks verify` lines) must stay byte-identical, at any seed, once the
  seed column is masked: none of their values depend on the seed;
* Monte Carlo estimates (walk-scaling and stream-track means, maximal-mc
  tail frequencies) may change with the random stream, but each must stay
  within Z_BOUND combined standard errors of the reference row; the other
  columns of these rows, less those computed from the estimate, are exact;
* seeded rows (the empirical moment deviation of family-verify, the
  interval trees, and maximal-mc's lambda grid and variance bound, which
  come from the seed's profile) are compared byte for byte, seed column
  masked, at the reference seed only.

A recorded PASS that turns FAIL fails the experiment; a recorded FAIL that
turns PASS is reported.  Verdicts drawn from Monte Carlo estimates (every
check of a walk-scaling, maximal-mc or stream-track run, and family-verify's
empirical check) are judged that way at the reference seed only: at another
seed they are another random experiment, and a flip there is reported, not
failed.  For example, walk_scaling_h's fit quality (R^2 >= 0.9) fails at
seed 106.  The walk-scaling configs carry acceptance criteria 2 and 3, which
fail at the seed commit; their FAIL verdicts are recorded as they stand.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from pathlib import Path

Z_BOUND = 5.0
REFERENCE = Path(__file__).with_name("reference.json")

# experiment kind -> (value column, stderr column, columns computed from
# the estimate) of its Monte Carlo rows.  The rest of such a row (sizes,
# trial counts, maximal-mc's lambda grid and variance bound) is exact.
MC_COLUMNS = {
    "walk-scaling": ("mean", "stderr", ()),
    "stream-track": ("mean", "stderr", ("normalized",)),
    "maximal-mc": ("empirical_p", "stderr", ("hits", "fitted_constant")),
}
# Monte Carlo kinds whose exact columns come from the seed's own variance
# profile (substream(seed, 0)), so they are compared as seeded rows.
SEEDED_PROFILE = {"maximal-mc"}


def split_rows(kind: str, lines: list[str]) -> dict:
    """Sort the data rows of one output into exact, Monte Carlo and seeded."""
    if kind == "verify":        # check lines, no header and no seed
        return {"header": "", "rows": len(lines), "exact": _digest(lines),
                "seeded": _digest([]), "mc": []}
    rows = list(csv.reader(lines))
    header, data = rows[0], rows[1:]
    value, stderr, derived = MC_COLUMNS.get(kind, (None, None, ()))
    estimate = {value, stderr, *derived}
    exact, seeded, mc = [], [], []
    for row in data:
        fields = dict(zip(header, row))
        if "seed" in fields:
            fields["seed"] = "*"
        if kind in MC_COLUMNS:
            mc.append([float(fields[value]), float(fields[stderr])])
        rest = ",".join(v for name, v in fields.items() if name not in estimate)
        if (kind == "interval-trees" or kind in SEEDED_PROFILE
                or fields.get("quantity") == "max_moment_deviation"):
            seeded.append(rest)
        else:
            exact.append(rest)
    return {"header": ",".join(header), "rows": len(data),
            "exact": _digest(exact), "seeded": _digest(seeded), "mc": mc}


def statistical(kind: str, check: str) -> bool:
    """Whether a check's verdict rests on a Monte Carlo estimate."""
    return kind in MC_COLUMNS or "empirical" in check


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def record_entry(kind: str, lines: list[str], checks) -> dict:
    entry = split_rows(kind, lines)
    entry["checks"] = {name: passed for name, passed, _ in checks}
    return entry


def compare(ref: dict, kind: str, lines: list[str], checks, seed: int,
            ref_seed: int) -> tuple[list[str], list[str]]:
    """Problems that fail the experiment, and notes that are only reported."""
    got = split_rows(kind, lines)
    problems, notes = [], []
    if got["header"] != ref["header"] or got["rows"] != ref["rows"]:
        problems.append(f"layout changed: {got['rows']} rows under "
                        f"{got['header']!r}, reference {ref['rows']} under "
                        f"{ref['header']!r}")
        return problems, notes
    if got["exact"] != ref["exact"]:
        problems.append("exact rows differ from the reference")
    if seed == ref_seed and got["seeded"] != ref["seeded"]:
        problems.append("seeded rows differ from the reference")
    for i, ((value, se), (ref_value, ref_se)) in enumerate(zip(got["mc"], ref["mc"])):
        limit = Z_BOUND * (se * se + ref_se * ref_se) ** 0.5
        if abs(value - ref_value) > limit:
            problems.append(f"row {i + 1}: {value!r} is {abs(value - ref_value):.3g} "
                            f"from reference {ref_value!r}, beyond {Z_BOUND:g} "
                            f"combined stderr ({limit:.3g})")
    now = {name: passed for name, passed, _ in checks}
    for name, passed in ref["checks"].items():
        if name not in now:
            problems.append(f"check {name!r} is missing")
        elif passed and not now[name]:
            if seed == ref_seed or not statistical(kind, name):
                problems.append(f"check {name!r} turned PASS -> FAIL")
            else:
                notes.append(f"check {name!r} turned PASS -> FAIL at seed "
                             f"{seed} (Monte Carlo verdict, judged at seed "
                             f"{ref_seed} only)")
        elif not passed and now[name]:
            notes.append(f"check {name!r} turned FAIL -> PASS")
    notes.extend(f"new check {name!r}" for name in now if name not in ref["checks"])
    return problems, notes


def load() -> dict:
    with open(REFERENCE) as src:
        return json.load(src)


def main() -> int:
    """Record reference.json from one workers=1 pass of every workload."""
    import run
    from workloads import DEFAULT_SEED, WORKLOADS

    root = run.checkout_root()
    reference = {"seed": DEFAULT_SEED, "z_bound": Z_BOUND,
                 "source_digest": run.source_digest(root), "experiments": {}}
    for workload in WORKLOADS.values():
        bench = run.Bench(root, workload, DEFAULT_SEED, smoke=False)
        for name, res in bench.run_pass(workers=1, traced=False, index=0).items():
            if res["error"]:
                print(res["error"], file=sys.stderr)
                return 1
            reference["experiments"][name] = record_entry(
                res["kind"], res["lines"], res["checks"])
            print(f"recorded {name}: {len(res['lines'])} lines, "
                  f"{len(res['checks'])} checks")
    with open(REFERENCE, "w") as out:
        json.dump(reference, out, indent=1, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
