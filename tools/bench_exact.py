"""Kernel timings of the exact layer, written to BENCH_exact_<date>.json.

Usage, from the root of a checkout:

  python3 tools/bench_exact.py [--repeats R] [--moment-n N ...] [--tree-n N]
                               [--out-dir DIR]

Times, in one process, the exact kernels the exact-verify workload spends
its time in: `exact_moments` of stage H at each --moment-n, family-verify's
H2 check (`_exact_stage_check`) at the largest --moment-n,
`VarianceProfile.from_sigmas`, `build_tree` and `check_invariants` on one
seeded variance profile of --tree-n steps, matrix-check's
`prefix_quadratic_minima` at n = 1024, net-audit's `chain_forms` on
100 seeded rows of the identity stream at m = 4096, and the k-wise
Monte Carlo kernels at n = 1024 and 4096 on one packed tile of
`tile_rows(n / 8)` rows: the 4-wise evaluator `signs_from_tables` and the
packed supremum `sup_abs_prefix_packed`, each also in ns per sign.  The
kernels run
interleaved, one call of each per repeat, so a drift in machine speed
spreads over all of them alike.  Each kernel's inputs (the adversarial
constants, the H2 moment tables, the float variances, the profile, the
tree, the nets and the rows W) are built before the first repeat, so a
timing holds the kernel alone; the minima keep no cache, so each of their
calls builds and factors the matrix again.  After a warm-up call, one
untimed pass of each kernel runs under `tracemalloc`.

A warm call and tracemalloc cannot see what the first call in a process
pays: loading LAPACK and the memory that OpenBLAS and the shared library
allocate, or building a sampler's tables.  So each repeat also starts
fresh interpreters that import kwalks, read their peak resident size,
time one `prefix_quadratic_minima(1024)` or one 4-wise sampler set-up
at n = 16384, and read the peak again.  The peak is
Linux's VmHWM, not `ru_maxrss`, which keeps the peak of the process that
started the interpreter across the exec.

The file records the revision, the Python and numpy versions and the core
count; per kernel the median and quartiles of its seconds over the
repeats and its peak traced bytes; and for the cold call the median and
quartiles of its seconds and the medians of both peak readings, in KiB.
A second run on the same day writes BENCH_exact_<date>_2.json, and so
on, rather than overwrite the first.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from kwalks import maximal_inequality as mi  # noqa: E402
from kwalks import streams  # noqa: E402
from kwalks.dyadic_matrix import prefix_quadratic_minima  # noqa: E402
from kwalks.experiments import _exact_stage_check  # noqa: E402
from kwalks.rng import substream  # noqa: E402
from kwalks.gf2 import signs_from_tables  # noqa: E402
from kwalks.sign_families import (ADVERSARIAL_STAGE, POLYNOMIAL_KWISE,  # noqa: E402
                                  FamilySpec, adversarial_params,
                                  exact_moments, make_sampler, tile_rows)
from kwalks.walks import sup_abs_prefix_packed  # noqa: E402

PROFILE_SEED = 20250810
PROFILE_DECADES = 4.0
MINIMA_N = 1024
CHAIN_M, CHAIN_ROWS = 4096, 100
KWISE_NS, KWISE_K, COLD_KWISE_N = (1024, 4096), 4, 16384

# One first call in a fresh interpreter: peak resident KiB before, seconds,
# peak resident KiB after.
COLD_CALL = """
import time
{setup}
def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:"))
before = peak_kib()
start = time.perf_counter()
{call}
seconds = time.perf_counter() - start
print(before, seconds, peak_kib())
"""
COLD = {
    f"prefix_minima_n{MINIMA_N}": COLD_CALL.format(
        setup="from kwalks.dyadic_matrix import prefix_quadratic_minima",
        call=f"prefix_quadratic_minima({MINIMA_N})"),
    f"kwise_sampler_n{COLD_KWISE_N}": COLD_CALL.format(
        setup="from kwalks.sign_families import FamilySpec, make_sampler",
        call=f"make_sampler(FamilySpec(kind='PolynomialKWise', n={COLD_KWISE_N}, "
             f"k={KWISE_K}))"),
}


def kernels(moment_ns, tree_n) -> tuple[dict, dict]:
    """Name -> zero-argument call of one kernel on inputs built here, and
    name -> signs per call of the k-wise kernels."""
    calls, signs = {}, {}
    for n in moment_ns:
        spec = FamilySpec(kind=ADVERSARIAL_STAGE, n=n, stage="H")
        adversarial_params(n)
        calls[f"exact_moments_H_n{n}"] = lambda spec=spec: exact_moments(spec)
    h2 = FamilySpec(kind=ADVERSARIAL_STAGE, n=max(moment_ns), stage="H2")
    h2_moments = exact_moments(h2)
    calls[f"h2_check_n{h2.n}"] = lambda: _exact_stage_check(h2, h2_moments)
    sigmas = mi.random_variances(tree_n, PROFILE_DECADES, substream(PROFILE_SEED, 0))
    profile = mi.VarianceProfile.from_sigmas(sigmas)
    tree = mi.build_tree(profile)
    calls[f"from_sigmas_n{tree_n}"] = lambda: mi.VarianceProfile.from_sigmas(sigmas)
    calls[f"build_tree_n{tree_n}"] = lambda: mi.build_tree(profile)
    calls[f"check_invariants_n{tree_n}"] = lambda: mi.check_invariants(tree)
    calls[f"prefix_minima_n{MINIMA_N}"] = lambda: prefix_quadratic_minima(MINIMA_N)
    stream = streams.STREAM_GENERATORS["identity"](CHAIN_M)
    nets = streams.build_nets(stream)
    rows = (make_sampler(FamilySpec(kind="FullyIndependent", n=stream.n))
            .sample_batch(substream(PROFILE_SEED, CHAIN_M), CHAIN_ROWS))
    w = stream.prefix_inner_rows(rows)
    calls[f"chain_forms_identity_m{CHAIN_M}"] = lambda: streams.chain_forms(nets, w, 4)
    for n in KWISE_NS:
        tables = make_sampler(FamilySpec(kind=POLYNOMIAL_KWISE, n=n, k=KWISE_K)).tables
        rows = tile_rows(-(-n // 8))
        coeffs = substream(PROFILE_SEED, n).integers(
            0, 1 << 64, size=(rows, KWISE_K), dtype=np.uint64)
        packed = signs_from_tables(tables, coeffs)
        calls[f"kwise_signs_n{n}"] = lambda t=tables, c=coeffs: signs_from_tables(t, c)
        calls[f"sup_packed_n{n}"] = lambda p=packed, n=n: sup_abs_prefix_packed(p, n)
        signs[f"kwise_signs_n{n}"] = signs[f"sup_packed_n{n}"] = rows * n
    return calls, signs


def cold_call(script: str) -> tuple[int, float, int]:
    """Peak resident KiB before, seconds and peak resident KiB after one
    first call in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         check=True, capture_output=True, text=True).stdout
    before, seconds, after = out.split()
    return int(before), float(seconds), int(after)


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees during one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "repeats": len(samples)}


def revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                           text=True, capture_output=True).stdout.strip()
    return out.stdout.strip() + ("+dirty-src" if dirty else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--moment-n", type=int, nargs="+", default=[256, 1024, 4096])
    parser.add_argument("--tree-n", type=int, default=4096)
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2, for quartiles")

    calls, signs = kernels(args.moment_n, args.tree_n)
    for call in calls.values():         # warm every cache the run would
        call()
    peaks = {name: traced_peak(call) for name, call in calls.items()}
    samples = {name: [] for name in calls}
    cold = {name: [] for name in COLD}
    for _ in range(args.repeats):
        for name, call in calls.items():
            start = time.perf_counter()
            call()
            samples[name].append(time.perf_counter() - start)
        for name, script in COLD.items():
            cold[name].append(cold_call(script))
    kernel_stats = {name: {**quartiles(s), "tracemalloc_peak_bytes": peaks[name]}
                    for name, s in samples.items()}
    for name, count in signs.items():
        kernel_stats[name]["signs"] = count
        kernel_stats[name]["ns_per_sign"] = kernel_stats[name]["median_s"] / count * 1e9

    today = datetime.date.today().isoformat()
    result = {
        "harness": "tools/bench_exact.py",
        "date": today,
        "revision": revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "profile": {"seed": PROFILE_SEED, "decades": PROFILE_DECADES,
                    "n": args.tree_n},
        "kernels": kernel_stats,
        "cold": {name: {**quartiles([s for _, s, _ in runs]),
                        "vmhwm_before_kib": statistics.median(b for b, _, _ in runs),
                        "vmhwm_after_kib": statistics.median(a for _, _, a in runs)}
                 for name, runs in cold.items()},
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path, run = args.out_dir / f"BENCH_exact_{today}.json", 1
    while path.exists():                # keep an earlier run's file of the day
        run += 1
        path = args.out_dir / f"BENCH_exact_{today}_{run}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    for name, stats in result["kernels"].items():
        per_sign = (f"  {stats['ns_per_sign']:.3f} ns/sign"
                    if "ns_per_sign" in stats else "")
        print(f"{name:32s} median {stats['median_s'] * 1e3:9.3f} ms  "
              f"[{stats['q1_s'] * 1e3:.3f}, {stats['q3_s'] * 1e3:.3f}]  "
              f"peak {stats['tracemalloc_peak_bytes'] / 2 ** 20:.2f} MiB{per_sign}")
    for name, stats in result["cold"].items():
        print(f"{name + ' cold':32s} median {stats['median_s'] * 1e3:9.3f} ms  "
              f"[{stats['q1_s'] * 1e3:.3f}, {stats['q3_s'] * 1e3:.3f}]  "
              f"VmHWM {stats['vmhwm_before_kib'] / 1024:.1f} -> "
              f"{stats['vmhwm_after_kib'] / 1024:.1f} MiB")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
