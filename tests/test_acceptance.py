"""Acceptance suite: one test per criterion, one printed line per check.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines as they
are produced.  Every tolerance is fixed here; Monte Carlo pieces use fixed
seeds, so the outcomes are reproducible bit for bit.
"""

import time
from fractions import Fraction

import numpy as np

from kwalks import dyadic_matrix, maximal_inequality as mi, streams, walks
from kwalks.parallel import mc_moments
from kwalks.rng import mix64, substream
from kwalks.sign_families import (H_BRANCHES, FamilySpec, adversarial_params,
                                  exact_moments, make_sampler)

SEED = 20250810

WALK_NS = [16, 64, 256, 1024, 4096]
STREAM_MS = [1 << e for e in range(6, 15)]          # 2^6 .. 2^14
POWER4_MS = [1 << e for e in range(6, 15, 2)]       # power-of-4 subset


def report(criterion: str, name: str, passed: bool, detail: str = "") -> bool:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[criterion {criterion}] {name}: {status}{suffix}")
    return passed


def finish(failures: list[str]):
    assert not failures, "failed checks: " + "; ".join(failures)


def test_criterion_1_exact_pairwise_independence():
    started = time.time()
    failures = []
    for n in (16, 64, 256):
        spec = FamilySpec(kind="AdversarialStage", n=n, stage="H")
        ok = exact_moments(spec).is_identity()
        if not report("1", f"exact mean 0 and covariance identity, n={n}", ok):
            failures.append(f"identity n={n}")
    elapsed = time.time() - started
    if not report("1", "runtime under 10 s", elapsed < 10, f"{elapsed:.2f}s"):
        failures.append("runtime")
    finish(failures)


def _scaling(kind_kwargs, order, seed):
    """One estimate of E[sup^order] per n of WALK_NS, as ColumnMoments."""
    spec = FamilySpec(n=WALK_NS[0], **kind_kwargs)
    return walks.scaling_table(spec, WALK_NS, order, 10 ** 4, seed)


def _fit(table, order=1):
    return walks.fit_log_growth(WALK_NS, [est.mean[0] for est in table],
                                [est.stderr[0] for est in table], order)


def independent_sup_mean(n: int) -> float:
    """E[max_{1<=t<=n} |S_t|] of the fully independent +-1 walk, computed
    from the exact law of S_n, not sampled.

    The walk cannot jump over the barriers +-m, so reflection in them gives
    P(max_t |S_t| >= m) = P(|S_n| >= m)
        + 2 sum_{k>=1} (-1)^(k+1) P((2k-1) m < S_n < (2k+1) m),
    and E[max] is the sum of that over m = 1..n.  Only upper tails of S_n
    enter, each summed from its small end, so nothing cancels badly.
    """
    total = 1 << n
    tail = [0.0] * (2 * n + 2)        # tail[s + n] = P(S_n >= s)
    count = 1                         # C(n, j): S_n = n - 2j
    for j in range(n + 1):
        tail[2 * (n - j)] = count / total
        count = count * (n - j) // (j + 1)
    for i in range(2 * n - 1, -1, -1):
        tail[i] += tail[i + 1]

    def upper(s):
        return tail[s + n] if s <= n else 0.0

    expectation = 0.0
    for m in range(1, n + 1):
        p = 2 * upper(m)
        k = 1
        while (2 * k - 1) * m < n:
            sign = 1 if k % 2 else -1
            p += sign * 2 * (upper((2 * k - 1) * m + 1) - upper((2 * k + 1) * m))
            k += 1
        expectation += p
    return expectation


def test_independent_sup_mean_matches_enumeration():
    # brute force over all 2^n paths, exact rationals
    for n in range(1, 13):
        total = 0
        for mask in range(1 << n):
            s = best = 0
            for t in range(n):
                s += 1 if mask >> t & 1 else -1
                best = max(best, abs(s))
            total += best
        assert abs(independent_sup_mean(n) - Fraction(total, 1 << n)) <= 1e-12


def _branch_tables(order, seed):
    """Scaling tables of stage H conditioned on each of its branches."""
    return {branch: _scaling(dict(kind="AdversarialStage", stage="H",
                                  branch=branch), order, mix64(seed, b))
            for b, branch in enumerate(H_BRANCHES)}


def _report_branches(criterion, table_h, branches, normalize):
    """Print stage H and its branches per n, and check that the direct
    estimate of H equals the branch estimates mixed with the exact branch
    weights, within 4 combined standard errors."""
    failures = []
    for idx, (n, est) in enumerate(zip(WALK_NS, table_h)):
        weights = adversarial_params(n).branch_weights
        parts = [(float(weights[b]), branches[b][idx]) for b in H_BRANCHES]
        mean, stderr = est.mean[0], est.stderr[0]
        print(f"[criterion {criterion}] family H      n={n:5d} "
              f"E={mean:11.3f} +-{stderr:.3f} "
              f"normalized={normalize(n, mean):.4f} "
              f"(drift branch weight p/g_scale = {parts[0][0]:.4f})")
        print(f"[criterion {criterion}]   branches    n={n:5d} " + "  ".join(
            f"{b} w={w:.4f} normalized={normalize(n, e.mean[0]):.4f}"
            for b, (w, e) in zip(H_BRANCHES, parts)))
        mixed = sum(w * e.mean[0] for w, e in parts)
        combined = (stderr ** 2
                    + sum((w * e.stderr[0]) ** 2 for w, e in parts)) ** 0.5
        if not report(criterion, f"family H equals its branch mixture, n={n}",
                      abs(mean - mixed) <= 4 * combined,
                      f"direct {mean:.3f} vs mixture {mixed:.3f}, "
                      f"4 x combined stderr {4 * combined:.3f}"):
            failures.append(f"mixture n={n}")
    return failures


def _normalized_mean(n, value):
    return value / n ** 0.5


def _normalized_second(n, value):
    return value / (n * np.log2(n) ** 2)


def test_criterion_2_lower_bound_growth():
    # Stage H mixes in its drift branch with weight p/g_scale, which falls
    # from 0.17 to 0.05 over these n, so the whole family's normalized mean
    # declines here.  The lower bound rests on the drift branch growing and
    # on H being exactly that mixture; both are checked.
    table_h = _scaling(dict(kind="AdversarialStage", stage="H"), 1, SEED)
    branches = _branch_tables(1, mix64(SEED, 20))
    failures = _report_branches("2", table_h, branches, _normalized_mean)
    fit_h = _fit(table_h)
    print(f"[criterion 2] family H whole-family fit: slope {fit_h.slope:.4f} "
          f"+- {fit_h.slope_stderr:.4f}, R^2 {fit_h.r_squared:.4f}")
    fit_d = _fit(branches["drift"])
    detail = (f"slope {fit_d.slope:.4f} +- {fit_d.slope_stderr:.4f}, "
              f"R^2 {fit_d.r_squared:.4f}")
    if not report("2", "pairwise family, drift branch: positive slope",
                  fit_d.slope > 0, detail):
        failures.append("drift slope")
    if not report("2", "pairwise family, drift branch: R^2 >= 0.9",
                  fit_d.r_squared >= 0.9, detail):
        failures.append("drift fit quality")

    # E[sup|S|]/sqrt(n) of an O(sqrt n) walk still rises toward its limit
    # at these n; the fully independent walk's exact values are the yardstick.
    table_k = _scaling(dict(kind="PolynomialKWise", k=4), 1, mix64(SEED, 4))
    fit_k = _fit(table_k)
    reference = [independent_sup_mean(n) for n in WALK_NS]
    fit_ref = walks.fit_log_growth(WALK_NS, reference, [0.0] * len(WALK_NS), 1)
    for n, est, ref in zip(WALK_NS, table_k, reference):
        print(f"[criterion 2] 4-wise family n={n:5d} "
              f"E[sup|S|]={est.mean[0]:9.3f} +-{est.stderr[0]:.3f} "
              f"normalized={est.mean[0] / n ** 0.5:.4f} "
              f"(independent walk, exact: {ref / n ** 0.5:.4f})")
    margin = 2 * fit_k.slope_stderr_propagated
    detail = (f"slope {fit_k.slope:.4f} vs independent walk "
              f"{fit_ref.slope:.4f} + 2 x propagated stderr {margin:.4f}")
    if not report("2", "4-wise family: slope within 2 standard errors "
                  "of the independent walk's", fit_k.slope - fit_ref.slope
                  <= margin, detail):
        failures.append("4-wise slope")
    finish(failures)


def test_criterion_3_pairwise_second_moment_shape():
    # As in criterion 2: the Theta(n) branches dominate the whole family's
    # second moment at these n, so the n lg^2 n shape is checked on the
    # drift branch, and H is tied to it through the exact mixture.
    table = _scaling(dict(kind="AdversarialStage", stage="H"), 2, mix64(SEED, 3))
    branches = _branch_tables(2, mix64(SEED, 30))
    failures = _report_branches("3", table, branches, _normalized_second)
    whole = [_normalized_second(n, est.mean[0])
             for n, est in zip(WALK_NS, table)]
    print(f"[criterion 3] family H whole-family /(n lg^2 n) max/min ratio "
          f"{max(whole) / min(whole):.2f}")
    normalized = [_normalized_second(n, est.mean[0])
                  for n, est in zip(WALK_NS, branches["drift"])]
    ratio = max(normalized) / min(normalized)
    if not report("3", "drift branch: normalized second moment max/min "
                  "ratio <= 3", ratio <= 3, f"ratio {ratio:.2f}"):
        failures.append("ratio")
    finish(failures)


def test_criterion_4_matrix_certificate():
    started = time.time()
    failures = []

    trace_ns = [1 << e for e in range(2, 13)]
    ok = all(dyadic_matrix.trace(n) == n * (n.bit_length() - 1)
             for n in trace_ns)
    if not report("4", "trace equals n lg n for n in 4..4096", ok):
        failures.append("trace")

    reference = np.array([
        [3, 2, 1, 1, 0, 0, 0, 0], [2, 3, 1, 1, 0, 0, 0, 0],
        [1, 1, 3, 2, 0, 0, 0, 0], [1, 1, 2, 3, 0, 0, 0, 0],
        [0, 0, 0, 0, 3, 2, 1, 1], [0, 0, 0, 0, 2, 3, 1, 1],
        [0, 0, 0, 0, 1, 1, 3, 2], [0, 0, 0, 0, 1, 1, 2, 3]])
    ok = (dyadic_matrix.dense_matrix(8) == reference).all()
    if not report("4", "n=8 matrix matches the reference entries", bool(ok)):
        failures.append("dense 8")

    for n in (16, 64, 256):
        lg = n.bit_length() - 1
        rng = substream(SEED, n)
        rows = rng.standard_normal((1000, n))
        forms = dyadic_matrix.quadratic_form_rows(n, rows)
        best = (np.cumsum(rows, axis=1) ** 2).max(axis=1)
        ok = bool((forms >= best / lg - 1e-9).all())
        half = rows[:1, :n // 2].sum()
        ok = ok and bool(dyadic_matrix.quadratic_form_rows(n, rows[:1])[0]
                         >= half * half / lg - 1e-9)
        if not report("4", f"prefix lower bound, 1000 gaussians x all i, n={n}",
                      ok):
            failures.append(f"prefix bound n={n}")

    for n in (4, 8, 16, 32, 64, 128, 256, 512, 1024):
        lg = n.bit_length() - 1
        minima = dyadic_matrix.prefix_quadratic_minima(n)
        ok = bool(minima.min() >= 1 / lg - 1e-9)
        if not ok and not report("4", f"constrained minimum floor n={n}", ok):
            failures.append(f"constrained min n={n}")
        ratio = dyadic_matrix.corollary_ratio(n, minima) / (n * lg * lg)
        ok_ratio = 0 < ratio <= 1 + 1e-12
        if not ok_ratio:
            report("4", f"corollary ratio in (0, 1], n={n}", False,
                   f"{ratio:.4f}")
            failures.append(f"corollary n={n}")
    report("4", "constrained minima >= 1/lg n for all i, n <= 1024",
           not any(f.startswith("constrained") for f in failures))
    report("4", "corollary ratio normalized within (0, 1] for tested n",
           not any(f.startswith("corollary") for f in failures))

    elapsed = time.time() - started
    if not report("4", "runtime under 60 s", elapsed < 60, f"{elapsed:.2f}s"):
        failures.append("runtime")
    finish(failures)


def test_criterion_5_interval_machinery():
    started = time.time()
    failures = []
    rng = substream(SEED, 5)
    profiles = 200
    realizations = 100
    bad_invariants = bad_mass_fail = defect_fail = hop_violations = 0
    for _ in range(profiles):
        profile = mi.random_profile(256, 4.0, rng)
        tree = mi.build_tree(profile)
        if mi.check_invariants(tree):
            bad_invariants += 1
        for q in range(1, mi.max_rank(tree) + 1):
            mass = Fraction(mi._rank_mass(tree).get(q, 0),
                            tree.profile.nums[-1])
            if mass > Fraction(9, 10) ** q:
                bad_mass_fail += 1
        steps = (rng.integers(0, 2, size=(realizations, 256)) * 2 - 1)
        sums = np.concatenate(
            [np.zeros((realizations, 1), dtype=np.int64),
             np.cumsum(steps, axis=1)], axis=1)
        if mi.telescoping_defect(tree, sums) != 0:
            defect_fail += 1
        hop_violations += mi.hop_rule_violations(tree, sums)
    if not report("5", "interval invariants on 200 seeded profiles",
                  bad_invariants == 0, f"{bad_invariants} violations"):
        failures.append("invariants")
    if not report("5", "rank mass bound 0.9^q on every profile",
                  bad_mass_fail == 0):
        failures.append("rank mass")
    if not report("5", "chain decomposition telescopes exactly, "
                  "100 realizations x all prefixes per profile",
                  defect_fail == 0):
        failures.append("telescoping")
    if not report("5", "hop rule: equal, good-min and bad hops with distinct "
                  "ranks, 100 realizations x every hop per profile",
                  hop_violations == 0, f"{hop_violations} violations"):
        failures.append("hop rule")
    elapsed = time.time() - started
    if not report("5", "runtime under 60 s", elapsed < 60, f"{elapsed:.2f}s"):
        failures.append("runtime")
    finish(failures)


def test_criterion_6_fourwise_tail_bound():
    failures = []
    n = 1024
    rng = substream(SEED, 6)
    sigmas = np.sqrt(10.0 ** (-4.0 * rng.random(n)))
    total = float((sigmas ** 2).sum())
    lambdas = [m * total ** 0.5 for m in (2, 4, 8)]
    spec = FamilySpec(kind="PolynomialKWise", n=n, k=4)
    rows = mi.mc_tail(spec, sigmas, lambdas, 10 ** 5, seed=mix64(SEED, 6))
    for mult, row in zip((2, 4, 8), rows):
        ok = row.empirical_p <= row.variance_bound + 3 * row.stderr
        detail = (f"p={row.empirical_p:.5f} bound={row.variance_bound:.5f} "
                  f"fitted constant {row.fitted_constant:.3f}")
        if not report("6", f"tail bound at lambda = {mult} sqrt(sum var)", ok,
                      detail):
            failures.append(f"lambda {mult}")
    finish(failures)


def test_criterion_7_nets_and_chaining():
    failures = []

    # deterministic: sizes, coverage, dominance on every generator and m
    for name in sorted(streams.STREAM_GENERATORS):
        gen = streams.STREAM_GENERATORS[name]
        sizes_ok = coverage_ok = dom2_ok = dom4_ok = True
        for m in STREAM_MS:
            stream = gen(m)
            nets = streams.build_nets(stream)
            sizes_ok &= nets.sizes_within_cap()
            coverage_ok &= all(streams.coverage_check(nets, r)
                               for r in range(len(nets.levels)))
            rng = substream(SEED, m)
            batch = (make_sampler(FamilySpec(kind="FullyIndependent", n=stream.n))
                     .sample_batch(rng, 100))
            w = stream.prefix_inner_rows(batch)
            sups = np.abs(w[:, 1:]).max(axis=1)
            forms2, forms4 = streams.chain_forms(nets, w, 4)
            dom2_ok &= bool(
                (forms2[:, None] >= w ** 2 / (2 * np.log2(m) + 1) - 1e-9).all())
            floor = streams.chain_dominance_floor(4, m)
            dom4_ok &= bool((forms4 >= floor * sups ** 4 - 1e-9).all())
        for label, ok in [("net sizes d_r <= 2^r", sizes_ok),
                          ("coverage exact", coverage_ok),
                          ("quadratic chain dominance", dom2_ok),
                          ("4th-power chain dominance", dom4_ok)]:
            if not report("7", f"{name}: {label}", ok):
                failures.append(f"{name} {label}")

    # MC, pairwise family on identity streams: normalized second moment
    # stays under the explicit chain constant 2 (2 lg m + 1)^2 / lg^2 m
    normalized = []
    capped = True
    for m in POWER4_MS:
        stream = streams.identity_stream(m)
        spec = FamilySpec(kind="AdversarialStage", n=m, stage="H")
        (est,) = mc_moments([streams.sup_moment_job(
            stream, spec, 2, 2000, seed=mix64(SEED, m))])
        lg = np.log2(m)
        value = est.mean[0] / (stream.norm_sq() * lg * lg)
        cap = 2 * (2 * lg + 1) ** 2 / lg ** 2
        slack = 4 * est.stderr[0] / (stream.norm_sq() * lg * lg)
        capped &= value <= cap + slack
        normalized.append(value)
        print(f"[criterion 7] family H identity m={m:6d} "
              f"E[sup^2]/(|z|^2 lg^2 m)={value:.4f} vs chain cap {cap:.2f}")
    ratio = max(normalized) / min(normalized)
    if not report("7", "pairwise second moment bounded by the chain constant",
                  capped, f"max/min ratio {ratio:.2f}"):
        failures.append("H chain cap")

    # MC, 4-wise family: normalized fourth moment stable per generator
    for name in sorted(streams.STREAM_GENERATORS):
        gen = streams.STREAM_GENERATORS[name]
        normalized = []
        for m in STREAM_MS:
            stream = gen(m)
            if stream.n >= 4:
                spec = FamilySpec(kind="PolynomialKWise", n=stream.n, k=4)
            else:
                # one live coordinate: every family is the same Rademacher
                spec = FamilySpec(kind="FullyIndependent", n=stream.n)
            (est,) = mc_moments([streams.sup_moment_job(
                stream, spec, 4, 4000, seed=mix64(SEED, 7 * m))])
            normalized.append(est.mean[0] / float(stream.norm_sq()) ** 2)
        ratio = max(normalized) / min(normalized)
        if not report("7", f"{name}: 4th-moment max/min ratio <= 3",
                      ratio <= 3, f"ratio {ratio:.2f}"):
            failures.append(f"{name} ratio")
    finish(failures)


def test_criterion_8_exhaustive_moment_oracle():
    started = time.time()
    failures = []
    rng = substream(SEED, 8)
    bad = 0
    for _ in range(20):
        v = [int(x) for x in rng.integers(-9, 10, size=16)]
        if not any(v):
            v[0] = 1
        moment, bound = streams.mz_moment_check(v, 4)
        norm_sq = sum(x * x for x in v)
        expected = 3 * Fraction(norm_sq) ** 2 - 2 * sum(Fraction(x) ** 4 for x in v)
        if moment != expected or moment > bound:
            bad += 1
    if not report("8", "exhaustive 4th moment matches the closed form "
                  "on 20 integer vectors", bad == 0):
        failures.append("moment oracle")
    elapsed = time.time() - started
    if not report("8", "runtime under 10 s", elapsed < 10, f"{elapsed:.2f}s"):
        failures.append("runtime")
    finish(failures)
