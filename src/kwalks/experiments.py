"""Config-driven experiments with deterministic CSV output.

A config file holds one experiment: an [experiment] section with the kind
and run controls, a [family] section for the kinds that draw signs, and a
[params] section for kind-specific knobs, as EXPERIMENT_KINDS lists.  Data
rows are byte-reproducible for a fixed config; run metadata travels in
'#'-prefixed footer lines and in the JSON summary.
"""

from __future__ import annotations

import configparser
import csv
import io
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from operator import mul
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import (__version__, dyadic_matrix, maximal_inequality as mi, parallel,
               sign_families, streams, walks)
from .rng import BIT_GENERATOR, TRIAL_CHUNK, mix64, substream
from .sign_families import (ADVERSARIAL_STAGE, FULLY_INDEPENDENT,
                            POLYNOMIAL_KWISE, FamilySpec, MomentSummary,
                            _numerators, adversarial_params, exact_moments,
                            g_table, h2_cross_term_ratio, make_sampler,
                            parse_number, tile_rows)

@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {status}{detail}"


@dataclass
class ResultTable:
    header: list[str]
    rows: list[list] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, *values) -> None:
        self.rows.append([_fmt(v) for v in values])

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(name=name, passed=bool(passed), detail=detail))

    def write_csv(self, path: str | Path) -> None:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.header)
        writer.writerows(self.rows)
        for key in sorted(self.metadata):
            out.write(f"# {key}={self.metadata[key]}\n")
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(out.getvalue())

    def summary(self) -> dict:
        return {
            "checks": [asdict(c) for c in self.checks],
            "all_passed": self.all_passed,
            "rows": len(self.rows),
            "metadata": self.metadata,
        }


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))      # plain shortest-roundtrip form, numpy included
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


@dataclass
class ExperimentConfig:
    kind: str
    family: dict[str, str] = field(default_factory=dict)
    params: dict[str, str] = field(default_factory=dict)
    trials: int = 10000
    seed: int = 0
    output: str | None = None
    workers: int = 1

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        # no config uses interpolation, so a '%' in a value is literal
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ValueError(f"malformed config {path}: {exc}") from None
        if not read:
            raise ValueError(f"cannot read config {path}")
        if "experiment" not in parser:
            raise ValueError("config needs an [experiment] section")
        exp = parser["experiment"]
        kind = exp.get("kind", "")
        if kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {kind!r}; "
                             f"choose from {tuple(EXPERIMENT_KINDS)}")
        reads = EXPERIMENT_KINDS[kind]
        _reject_unknown("sections", parser.sections(), reads.sections, kind)
        _reject_unknown("experiment keys", exp, reads.experiment, kind)
        params = dict(parser["params"]) if "params" in parser else {}
        _reject_unknown("params keys", params, reads.params, kind)
        return cls(
            kind=kind,
            family=dict(parser["family"]) if "family" in parser else {},
            params=params,
            trials=parse_number(int, "trials", exp.get("trials", "10000")),
            seed=parse_number(int, "seed", exp.get("seed", "0")),
            output=exp.get("output", fallback=None),
            workers=parse_number(int, "workers", exp.get("workers", "1")),
        )

    def family_spec(self, n: int, default: FamilySpec | None = None) -> FamilySpec:
        """The [family] section's spec at size n, or default without one."""
        if self.family or default is None:
            return FamilySpec.from_config(self.family, n)
        return default

    def str_list(self, key: str, default: str) -> list[str]:
        tokens = self.params.get(key, default).replace(",", " ").split()
        if not tokens:
            raise ValueError(f"param {key} needs at least one value")
        return tokens

    def int_list(self, key: str, default: str) -> list[int]:
        return [parse_number(int, key, tok) for tok in self.str_list(key, default)]

    def float_list(self, key: str, default: str) -> list[float]:
        return [parse_number(float, key, tok) for tok in self.str_list(key, default)]

    def generators(self, default: str) -> list[tuple]:
        """(name, stream generator) per name in the generators param."""
        names = self.str_list("generators", default)
        unknown = [name for name in names if name not in streams.STREAM_GENERATORS]
        if unknown:
            raise ValueError(f"unknown generators {unknown}; choose from "
                             f"{sorted(streams.STREAM_GENERATORS)}")
        return [(name, streams.STREAM_GENERATORS[name]) for name in names]

    def get_int(self, key: str, default: int) -> int:
        return parse_number(int, key, self.params.get(key, default))

    def get_float(self, key: str, default: float) -> float:
        return parse_number(float, key, self.params.get(key, default))


def _positive(key: str, value):
    """value, a number or a list of them, or a ValueError naming the key
    when any entry is not above 0."""
    for v in value if isinstance(value, list) else [value]:
        if not v > 0:
            raise ValueError(f"{key} must be positive, got {key}={v}")
    return value


def _reject_unknown(what: str, names, known, kind: str) -> None:
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} for {kind}: {unknown}")


def run(config: ExperimentConfig) -> ResultTable:
    """Dispatch to the named experiment and write its CSV if requested."""
    if config.workers < 1:
        raise ValueError(f"workers must be at least 1, got workers={config.workers}")
    if config.trials < 0:
        raise ValueError(f"trials must be at least 0, got trials={config.trials}")
    started = time.time()
    table = EXPERIMENT_KINDS[config.kind].runner(config)
    table.metadata.update(
        experiment=config.kind, seed=config.seed, trials=config.trials,
        version=__version__, workers=config.workers,
        # what the random stream depends on, beside the seed
        rng_bit_generator=BIT_GENERATOR.__name__, trial_chunk=TRIAL_CHUNK,
        tile_signs=sign_families.TILE_SIGNS, numpy_version=np.__version__,
        wall_time_s=f"{time.time() - started:.3f}", peak_rss_mb=_peak_rss_mb())
    # an exact kind's footer names no run control it never read
    for key in {"trials", "workers"} - set(EXPERIMENT_KINDS[config.kind].experiment):
        del table.metadata[key]
    if config.output:
        table.write_csv(config.output)
    return table


def _peak_rss_mb() -> str:
    """Peak RSS in MB of this process or of its largest finished child, such
    as a pool worker; ru_maxrss is in KB on Linux."""
    import resource

    peak = max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return f"{peak / 1024:.1f}"


# --------------------------------------------------------------------------
# experiment runners

def _run_family_verify(config: ExperimentConfig) -> ResultTable:
    table = ResultTable(header=["n", "stage", "quantity", "value", "expected",
                                "seed", "trials"])
    n_values = config.int_list("n_list", "16")
    spec0 = config.family_spec(n_values[0], FamilySpec(
        kind=ADVERSARIAL_STAGE, n=n_values[0], stage="H"))
    if spec0.kind != ADVERSARIAL_STAGE:
        raise ValueError(f"family-verify checks {ADVERSARIAL_STAGE} families; "
                         f"got kind {spec0.kind}")
    specs = [spec0.with_n(n) for n in n_values]
    samples = ([None] * len(specs) if config.trials == 0
               else parallel.empirical_moments_batch(specs, config.trials,
                                                     config.seed, config.workers))
    for spec, emp in zip(specs, samples):
        n, moments = spec.n, exact_moments(spec)
        quantity, name, ok = _exact_stage_check(spec, moments)
        table.add(n, spec.stage, quantity, ok, True, config.seed, config.trials)
        table.check(f"n={n} {name}", ok)
        if emp is not None:
            # the largest of n^2 entry deviations grows like sqrt(2 ln n^2)
            # standard errors: keep n = 64's margin (factor exactly 1) above it
            tol = 5.0 / config.trials ** 0.5 * max(1.0, (np.log(n) / np.log(64)) ** 0.5)
            worst = float(np.abs(emp.covariance
                                 - moments.second_moments_float()).max())
            table.add(n, spec.stage, "max_moment_deviation", worst, tol,
                      config.seed, config.trials)
            table.check(f"n={n} empirical moments within {tol:.2g}", worst <= tol,
                        f"max deviation {worst:.2g}")
    return table


def _exact_stage_check(spec: FamilySpec,
                       moments: MomentSummary) -> tuple[str, str, bool]:
    """(quantity, check name, verdict) for a stage's exact moment tables,
    each checked against what they must equal by another route."""
    params = adversarial_params(spec.n)
    root, f = params.root, params.f
    mean, pair = moments.block_mean, moments.block_pair
    if spec.stage == "H":
        return "covariance_identity", "covariance=identity", moments.is_identity()
    if spec.stage == "H1":
        # the sampler draws +1 in block c with probability 0.5 + f_c / 2
        bias = params.h1_bias.reshape(root, root)
        ok = all((row == 0.5 + float(m) / 2).all() for row, m in zip(bias, mean))
        return "mean_matches_bias_profile", "H1 means", ok
    if spec.stage == "H2":
        # E[h_i h_j] averages f_{c1+d} f_{c2+d} over the root rotations d;
        # summed per entry in integers, f and the table each in numerators
        # over one common denominator
        f_nums, f_den = _numerators(f)
        rotated = [f_nums[c:] + f_nums[:c] for c in range(root)]
        nums, den = _numerators([v for row in pair for v in row])
        scale = root * f_den * f_den
        ok = all(v == 0 for v in mean) and all(
            nums[c1 * root + c2] * scale
            == sum(map(mul, rotated[c1], rotated[c2])) * den
            for c1 in range(root) for c2 in range(root))
        return "centered_with_g_correlations", "H2 moments", ok
    same_block = params.c6 / root
    ok = all(v == (same_block if c1 == c2 else 0)
             for c1, row in enumerate(pair) for c2, v in enumerate(row))
    return "within_block_correlation", "H3 correlations", ok


def _run_walk_scaling(config: ExperimentConfig) -> ResultTable:
    table = ResultTable(
        header=["n", "moment_order", "mean", "stderr", "trials", "seed"])
    n_values = config.int_list("n_list", "16 64 256 1024 4096")
    order = config.get_int("moment_order", 1)
    spec = config.family_spec(n_values[0])
    # the gates and the fit's size count are checked before any draw
    gates = {key: parse_number(float, key, config.params[key])
             for key in ("min_slope", "min_r2", "max_slope_se_mult")
             if key in config.params}
    if len(n_values) < 3:
        raise ValueError(f"n_list needs at least 3 sizes to fit a growth "
                         f"slope, got {len(n_values)}")
    estimates = walks.scaling_table(spec, n_values, order, config.trials,
                                    config.seed, workers=config.workers)
    means = [est.mean[0] for est in estimates]
    stderrs = [est.stderr[0] for est in estimates]
    for n, mean, stderr in zip(n_values, means, stderrs):
        table.add(n, order, mean, stderr, config.trials, config.seed)
    fit = walks.fit_log_growth(n_values, means, stderrs, order)
    table.metadata.update(
        slope=repr(fit.slope), intercept=repr(fit.intercept),
        r_squared=repr(fit.r_squared), slope_stderr=repr(fit.slope_stderr),
        slope_stderr_propagated=repr(fit.slope_stderr_propagated))
    if "min_slope" in gates:
        table.check("slope above threshold", fit.slope >= gates["min_slope"],
                    f"slope {fit.slope:.4f}")
    if "min_r2" in gates:
        table.check("fit quality", fit.r_squared >= gates["min_r2"],
                    f"R^2 {fit.r_squared:.4f}")
    if "max_slope_se_mult" in gates:
        mult = gates["max_slope_se_mult"]
        table.check("slope consistent with zero",
                    abs(fit.slope) <= mult * fit.slope_stderr,
                    f"slope {fit.slope:.4f} vs {mult} x {fit.slope_stderr:.4f}")
    return table


REFERENCE_8 = np.array([
    [3, 2, 1, 1, 0, 0, 0, 0], [2, 3, 1, 1, 0, 0, 0, 0],
    [1, 1, 3, 2, 0, 0, 0, 0], [1, 1, 2, 3, 0, 0, 0, 0],
    [0, 0, 0, 0, 3, 2, 1, 1], [0, 0, 0, 0, 2, 3, 1, 1],
    [0, 0, 0, 0, 1, 1, 3, 2], [0, 0, 0, 0, 1, 1, 2, 3]])


def _run_matrix_check(config: ExperimentConfig) -> ResultTable:
    table = ResultTable(header=["n", "quantity", "value", "bound", "seed"])
    n_values = config.int_list("n_list", "8 64 256")
    gaussians = _positive("gaussian_vectors",
                          config.get_int("gaussian_vectors", 1000))
    dyadic_matrix.check_dense_size(max(n_values))
    for n in n_values:
        lg = int(np.log2(n))
        tr = dyadic_matrix.trace(n)
        diag_sum = sum(dyadic_matrix.entry(n, i, i) for i in range(1, n + 1))
        table.add(n, "trace", tr, n * lg, config.seed)
        table.check(f"n={n} trace", tr == n * lg == diag_sum)
        if n == 8:
            match = bool((dyadic_matrix.dense_matrix(8) == REFERENCE_8).all())
            table.add(n, "reference_match", match, True, config.seed)
            table.check("n=8 displayed-matrix match", match)
        minima = dyadic_matrix.prefix_quadratic_minima(n)
        floor = 1.0 / lg - 1e-9
        table.add(n, "min_constrained_min", float(minima.min()), floor,
                  config.seed)
        table.check(f"n={n} constrained minimum", bool(minima.min() >= floor),
                    f"min {minima.min():.6f} vs 1/lg n {1 / lg:.6f}")
        ratio = dyadic_matrix.corollary_ratio(n, minima) / (n * lg * lg)
        table.add(n, "corollary_ratio_normalized", ratio, 1.0, config.seed)
        table.check(f"n={n} trace x max inverse-form within (0, 1]",
                    0.0 < ratio <= 1.0 + 1e-12, f"ratio {ratio:.4f}")
        # row tiles continue one stream, and each row's check is row-local
        rng, step, ok = substream(config.seed, n), tile_rows(n), True
        for start in range(0, gaussians, step):
            rows = rng.standard_normal((min(step, gaussians - start), n))
            forms = dyadic_matrix.quadratic_form_rows(n, rows)
            best = (np.cumsum(rows, axis=1) ** 2).max(axis=1)
            ok &= bool((forms >= best / lg - 1e-9).all())
        table.add(n, "gaussian_prefix_bound", ok, True, config.seed)
        table.check(f"n={n} prefix lower bound on {gaussians} gaussians", ok)
    return table


def _run_maximal_mc(config: ExperimentConfig) -> ResultTable:
    table = ResultTable(header=["lambda", "hits", "trials", "empirical_p",
                                "stderr", "variance_bound", "fitted_constant",
                                "seed"])
    n = config.get_int("n", 1024)
    decades = config.get_float("sigma_decades", 4.0)
    rng = substream(config.seed, 0)
    sigmas = np.sqrt(mi.random_variances(n, decades, rng))
    total_var = float((sigmas ** 2).sum())
    mults = _positive("lambda_mults", config.float_list("lambda_mults", "2 4 8"))
    lambdas = [m * total_var ** 0.5 for m in mults]
    spec = config.family_spec(n, FamilySpec(kind=POLYNOMIAL_KWISE, n=n, k=4))
    est = mi.mc_tail(spec, sigmas, lambdas, config.trials, config.seed,
                     workers=config.workers)
    for mult, lam, hits, p, stderr in zip(mults, lambdas, est.totals, est.mean,
                                          est.stderr):
        # the paper's second-moment bound sum sigma_i^2 / lambda^2
        bound = total_var / lam ** 2
        table.add(lam, int(hits), config.trials, p, stderr, bound,
                  p / bound if bound else 0.0, config.seed)
        table.check(f"lambda={mult}sqrt(var) tail bound",
                    p <= bound + 3 * stderr, f"p {p:.5f} vs bound {bound:.5f}")
    return table


def _run_stream_track(config: ExperimentConfig) -> ResultTable:
    table = ResultTable(header=["generator", "m", "k", "mean", "stderr",
                                "normalized", "trials", "seed"])
    m_values = config.int_list("m_list", "64 256 1024 4096 16384")
    k = _positive("k", config.get_int("k", 2))
    if k == 2 and min(m_values) < 2:
        # lg^2 m in the k = 2 normalization is 0 at m = 1
        raise ValueError(f"m_list needs m >= 2 at k=2, got m={min(m_values)}")
    max_ratio = (_positive("max_norm_ratio", config.get_float("max_norm_ratio", 0.0))
                 if "max_norm_ratio" in config.params else None)
    gens = config.generators("identity")
    runs = [[gen(m) for m in m_values] for _, gen in gens]
    jobs = [streams.sup_moment_job(stream, config.family_spec(stream.n), k,
                                   config.trials, mix64(config.seed, m))
            for row in runs for m, stream in zip(m_values, row)]
    estimates = iter(parallel.mc_moments(jobs, config.workers))
    for (gen_name, _), row in zip(gens, runs):
        normalized = []
        for m, stream in zip(m_values, row):
            est = next(estimates)
            norm_sq = stream.norm_sq()
            denom = (norm_sq * np.log2(m) ** 2 if k == 2
                     else float(norm_sq) ** (k / 2))
            normalized.append(est.mean[0] / denom)
            table.add(gen_name, m, k, est.mean[0], est.stderr[0], normalized[-1],
                      config.trials, config.seed)
        if max_ratio is not None:
            ratio = max(normalized) / min(normalized)
            table.check(f"{gen_name} normalized order-{k} ratio",
                        ratio <= max_ratio, f"max/min {ratio:.2f}")
    return table


def _run_net_audit(config: ExperimentConfig) -> ResultTable:
    table = ResultTable(header=["generator", "m", "level", "d_r", "cap",
                                "coverage_ok", "seed", "realizations"])
    m_values = config.int_list("m_list", "64 256 1024 4096 16384")
    realizations = _positive("realizations", config.get_int("realizations", 100))
    for gen_name, gen in config.generators(
            "identity single-item two-phase uniform dyadic-bursts"):
        for m in m_values:
            stream = gen(m)
            nets = streams.build_nets(stream)
            coverage_ok = True
            for r, lvl in enumerate(nets.levels):
                cov = streams.coverage_check(nets, r)
                coverage_ok &= cov
                table.add(gen_name, m, r, lvl.size, 1 << r, cov,
                          config.seed, realizations)
            table.check(f"{gen_name} m={m} net sizes", nets.sizes_within_cap())
            table.check(f"{gen_name} m={m} coverage", coverage_ok)
            rng = substream(config.seed, m)
            batch = (make_sampler(FamilySpec(kind=FULLY_INDEPENDENT, n=stream.n))
                     .sample_batch(rng, realizations))
            w = stream.prefix_inner_rows(batch)
            sups = np.abs(w[:, 1:]).max(axis=1)
            quad, form4 = streams.chain_forms(nets, w, 4)
            # quad and sups hold integers below 2^53, so this is exact
            hops = 2 * int(np.log2(m)) + 1
            dom_q = bool((quad.astype(np.int64) * hops
                          >= sups.astype(np.int64) ** 2).all())
            floor = streams.chain_dominance_floor(4, m)
            dom_4 = bool((form4 >= floor * sups ** 4 - 1e-9).all())
            table.check(f"{gen_name} m={m} quadratic dominance", dom_q)
            table.check(f"{gen_name} m={m} 4th-power dominance", dom_4)
    return table


class KindReads(NamedTuple):
    """A kind's runner, and the config sections and keys that it reads."""

    runner: Callable[[ExperimentConfig], ResultTable]
    sections: tuple[str, ...]
    experiment: tuple[str, ...]
    params: tuple[str, ...]


# Monte Carlo kinds draw signs from a [family]; exact kinds draw none.
_SAMPLED = (("experiment", "family", "params"),
            ("kind", "trials", "seed", "output", "workers"))
_EXACT = (("experiment", "params"), ("kind", "seed", "output"))

# The one list of experiment kinds ([family] keys are FamilySpec.from_config's).
EXPERIMENT_KINDS = {
    "family-verify": KindReads(_run_family_verify, *_SAMPLED, ("n_list",)),
    "walk-scaling": KindReads(_run_walk_scaling, *_SAMPLED, (
        "n_list", "moment_order", "min_slope", "min_r2", "max_slope_se_mult")),
    "matrix-check": KindReads(_run_matrix_check, *_EXACT,
                              ("n_list", "gaussian_vectors")),
    "maximal-mc": KindReads(_run_maximal_mc, *_SAMPLED,
                            ("n", "sigma_decades", "lambda_mults")),
    "stream-track": KindReads(_run_stream_track, *_SAMPLED,
                              ("generators", "m_list", "k", "max_norm_ratio")),
    "net-audit": KindReads(_run_net_audit, *_EXACT,
                           ("generators", "m_list", "realizations")),
}


# --------------------------------------------------------------------------
# deterministic verification suite

def verify_suite() -> list[Check]:
    """Exact, deterministic invariants; no Monte Carlo, runs in seconds."""
    table = ResultTable(header=[])
    check = table.check

    from .sign_families import f_values

    f4 = f_values(4)
    check("block mean profile (root 4)",
          [str(v) for v in f4] == ["1/2", "1", "-1", "-1/2"])
    check("block mean profile sums to zero",
          all(sum(f_values(r), Fraction(0)) == 0 for r in (2, 4, 8, 16, 32)))

    g4 = g_table(4)
    check("rotated-stage correlations (root 4)",
          (g4[0][0], g4[0][2], g4[0][1], g4[0][3]) ==
          (Fraction(5, 8), Fraction(-1, 2), Fraction(-1, 16), Fraction(-1, 16)))
    shift_ok = True
    for root in (4, 8, 16):
        g = g_table(root)
        for c1 in range(root):
            for c2 in range(root):
                if g[c1][c2] != g[(c1 + 1) % root][(c2 + 1) % root]:
                    shift_ok = False
                if g[c1][c2] != g[c2][c1]:
                    shift_ok = False
    check("correlation table symmetric and shift invariant", shift_ok)

    params16 = adversarial_params(16)
    check("mixing constants at n=16",
          (params16.g_scale, params16.c6, params16.p) ==
          (Fraction(9, 4), Fraction(20, 9), Fraction(3, 8)))
    check("zero-covariance balance exact", all(
        (q := adversarial_params(n)).p * q.c6 / q.root == (1 - q.p) / (q.root - 1)
        for n in (16, 64, 256)))

    for n in (16, 64, 256):
        spec = FamilySpec(kind=ADVERSARIAL_STAGE, n=n, stage="H")
        check(f"exact moments identity n={n}", exact_moments(spec).is_identity())

    ratios = [h2_cross_term_ratio(n) for n in (16, 64, 256, 1024)]
    check("rotated-stage cross terms below recorded constant 13",
          all(r < 13 for r in ratios),
          "ratios " + ", ".join(f"{float(r):.3f}" for r in ratios))

    check("certificate matrix n=8 matches reference entries",
          bool((dyadic_matrix.dense_matrix(8) == REFERENCE_8).all()))
    check("trace identity n in 4..4096",
          all(dyadic_matrix.trace(n) == n * int(np.log2(n))
              for n in (4, 8, 16, 64, 256, 1024, 4096)))

    rng = substream(20240101, 0)
    tree_ok = True
    for _ in range(10):
        profile = mi.random_profile(64, 4.0, rng)
        tree = mi.build_tree(profile)
        if mi.check_invariants(tree):
            tree_ok = False
    check("interval invariants on 10 seeded profiles", tree_ok)

    stream = streams.identity_stream(64)
    nets = streams.build_nets(stream)
    check("net sizes within 2^r (identity m=64)", nets.sizes_within_cap())
    check("net coverage exact (identity m=64)",
          all(streams.coverage_check(nets, r) for r in range(len(nets.levels))))

    from .gf2 import all_polynomial_signs

    signs = all_polynomial_signs(2, 4, 2)
    pair_ok = True
    for i in range(4):
        for j in range(i + 1, 4):
            pattern = (signs[:, i] == 1) * 2 + (signs[:, j] == 1)
            counts = np.bincount(pattern, minlength=4)
            if not (counts == len(signs) // 4).all():
                pair_ok = False
    check("pairwise family exactly uniform on GF(4)", pair_ok)

    return table.checks
