"""Per-layer metrics derived from the spans of one traced pass.

Times are summed over every process of the workload, pool workers
included, so at workers=2 a layer's seconds are busy time and may exceed
the wall time.  Rates divide a layer's time by the work its probes counted
(signs, prefix entries); a layer the workload never calls reports 0.
"""

from __future__ import annotations

from tracer import LAYERS, self_times, uncovered_ns

NS = 1e-9
STAGES = ("H1", "H2", "H3", "H")
SAMPLERS = ("sign_families.KWiseSampler", "sign_families.AdversarialSampler",
            "sign_families.IndependentSampler")

# metric -> spans whose summed duration it reports, in seconds
DURATIONS = {
    "gf2.point_table_s": ("gf2.point_lsb_vectors",),
    "rng.substream_s": ("rng.substream",),
    "parallel.map_reduce_s": ("parallel.map_reduce_chunks",),
    "sign_families.exact_moments_s": ("sign_families.exact_moments",),
    "sign_families.is_identity_s": ("sign_families.MomentSummary.is_identity",),
    "sign_families.empirical_moments_s": ("sign_families.empirical_moments",),
    "sign_families.params_s": ("sign_families.adversarial_params",),
    "walks.estimate_s": ("walks.estimate_sup_moment",),
    "streams.mc_sup_moment_s": ("streams.mc_sup_moment",),
    "streams.build_nets_s": ("streams.build_nets",),
    "streams.coverage_s": ("streams.coverage_check",),
    "streams.chain_form_s": ("streams.chain_form_quadratic",
                             "streams.chain_form_quadratic_rows",
                             "streams.chain_form_k", "streams.chain_form_k_rows"),
    "maximal_inequality.mc_tail_s": ("maximal_inequality.mc_tail",),
    "maximal_inequality.tree_s": ("maximal_inequality.build_tree",
                                  "maximal_inequality.classify_and_rank"),
    "maximal_inequality.invariants_s": ("maximal_inequality.check_invariants",),
    "maximal_inequality.telescoping_s": ("maximal_inequality.telescoping_defect",),
    "dyadic_matrix.minima_s": ("dyadic_matrix.prefix_quadratic_minima",),
    "dyadic_matrix.quadratic_form_s": ("dyadic_matrix.quadratic_form",
                                       "dyadic_matrix.quadratic_form_rows"),
    "experiments.csv_write_s": ("experiments.ResultTable.write_csv",),
}

# metric -> (span, attr) whose attr values it sums
COUNTS = {
    "gf2.point_table_entries": ("gf2.point_lsb_vectors", "entries"),
    "gf2.temp_bytes": ("gf2.signs_from_coefficients", "temp_bytes"),
    "parallel.arg_bytes": ("parallel.pool_submit", "arg_bytes"),
}

# metric -> (span, attr): ns of the span per unit of the attr
RATES = {
    "gf2.signs_ns_per_sign": ("gf2.signs_from_coefficients", "signs"),
    "sign_families.kwise_ns_per_sign": ("sign_families.KWiseSampler.sample_batch",
                                        "signs"),
    "walks.sup_ns_per_sign": ("walks.sup_abs_prefix_batch", "signs"),
    "streams.prefix_inner_ns_per_entry": (
        "streams.InsertionStream.prefix_inner_rows", "entries"),
}


def metric_units(experiment_names) -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = dict.fromkeys(DURATIONS, "s")
    units.update({
        "gf2.point_table_entries": "count",
        "gf2.temp_bytes": "bytes",
        "parallel.chunks": "count",
        "parallel.pools_started": "count",
        "parallel.arg_bytes": "bytes",
        "rng.substreams": "count",
        "sign_families.signs_sampled": "count",
        "sign_families.sampler_builds": "count",
        "streams.prefix_inner_ns_per_entry": "ns/entry",
        "trace.overhead_s": "s",
        "trace.uncovered_frac": "frac",
        "trace.spans": "count",
        "trace.worker_spans": "count",
    })
    for name in ("gf2.signs_ns_per_sign", "sign_families.kwise_ns_per_sign",
                 "walks.sup_ns_per_sign"):
        units[name] = "ns/sign"
    for stage in STAGES:
        units[f"sign_families.adv_ns_per_sign.{stage}"] = "ns/sign"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for name in experiment_names:
        units[f"experiments.run_s.{name}"] = "s"
    return dict(sorted(units.items()))


def pass_metrics(spans: list[dict], experiments: dict[str, dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    spans: every span of the pass, from all processes.  experiments: the
    child results of the pass by experiment name (pid, ready_ns, done_ns).
    """
    by_name: dict[str, list[dict]] = {}
    for sp in spans:
        by_name.setdefault(sp["name"], []).append(sp)

    def duration(name):
        return sum(sp["end"] - sp["start"] for sp in by_name.get(name, ()))

    def attr(name, key):
        return sum(sp["attrs"][key] for sp in by_name.get(name, ())
                   if sp["attrs"])

    out = {metric: NS * sum(duration(n) for n in names)
           for metric, names in DURATIONS.items()}
    out.update({metric: attr(*source) for metric, source in COUNTS.items()})
    for metric, (name, key) in RATES.items():
        work = attr(name, key)
        out[metric] = duration(name) / work if work else 0.0
    adv = "sign_families.AdversarialSampler.sample_batch"
    for stage in STAGES:
        stage_spans = [sp for sp in by_name.get(adv, ())
                       if sp["attrs"] and sp["attrs"]["stage"] == stage]
        signs = sum(sp["attrs"]["signs"] for sp in stage_spans)
        busy = sum(sp["end"] - sp["start"] for sp in stage_spans)
        out[f"sign_families.adv_ns_per_sign.{stage}"] = busy / signs if signs else 0.0
    out["sign_families.signs_sampled"] = sum(
        attr(f"{cls}.sample_batch", "signs") for cls in SAMPLERS)
    out["sign_families.sampler_builds"] = sum(
        len(by_name.get(f"{cls}.__init__", ())) for cls in SAMPLERS)
    out["rng.substreams"] = len(by_name.get("rng.substream", ()))
    out["parallel.chunks"] = len(by_name.get("parallel._run_chunk", ()))
    out["parallel.pools_started"] = len(by_name.get("parallel.pool_start", ()))

    selfs = self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = NS * sum(
            selfs[sp["id"]] for sp in spans if sp["name"].split(".", 1)[0] == layer)

    # Share of each experiment's work interval that no span of a library
    # layer below the experiment runner covers, in its own process.
    work_ns = uncovered = 0
    for res in experiments.values():
        pid = str(res["pid"])
        library = [sp for sp in spans
                   if sp["id"].split(":", 1)[0] == pid
                   and not sp["name"].startswith("experiments.")]
        uncovered += uncovered_ns(library, res["ready_ns"], res["done_ns"])
        work_ns += res["done_ns"] - res["ready_ns"]
    out["trace.uncovered_frac"] = uncovered / work_ns if work_ns else 0.0
    pids = {str(res["pid"]) for res in experiments.values()}
    out["trace.spans"] = len(spans)
    out["trace.worker_spans"] = sum(sp["id"].split(":", 1)[0] not in pids
                                    for sp in spans)
    for name, res in experiments.items():
        out[f"experiments.run_s.{name}"] = NS * (res["done_ns"] - res["ready_ns"])
    return out
