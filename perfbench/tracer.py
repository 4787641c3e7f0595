"""Spans around the library's layer boundaries, recorded from outside.

Nothing under src/ changes: `install` replaces functions of the kwalks
modules with timing wrappers, in every module namespace that holds them
and in the classes that define them.  Each call records one span
(id, parent, name, start_ns, end_ns, attrs); attrs carry the work counts
that a probe reads off the call's arguments, such as signs drawn.

Spans stay in memory and are written as JSON lines when the experiment
ends.  Pool workers are forked, so they inherit both the wrappers and the
caller's open span stack: their outermost spans hang under the
`map_reduce_chunks` span that started the pool.  A worker leaves through
os._exit, which skips exit hooks, so it appends its spans to its own file
each time its outermost span closes.

Process pools are counted where they start: `kwalks.parallel` sees a
ProcessPoolExecutor subclass that records a `parallel.pool_start` span per
pool and a `parallel.pool_submit` span per dispatch, with the pickled size
of what the dispatch sends to a worker.  Neither span is a parent, so the
workers a submit forks still hang under the dispatching span.

Functions reached only through a dict (the stream generators, the
experiment runners) keep their originals there and record no span; their
time is their caller's self time.

Timestamps are CLOCK_MONOTONIC, shared by every process on the machine.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import pickle
import time
from pathlib import Path

# Modules whose functions are layers, in dependency order.
LAYERS = ("gf2", "rng", "parallel", "sign_families", "walks", "streams",
          "maximal_inequality", "dyadic_matrix", "experiments")

# Inner-loop helpers: a span per call would cost more than the work.
SKIP = {
    "gf2.GF2Field",             # per-element field arithmetic
    "rng.splitmix64",
    "maximal_inequality.VarianceProfile.original_position",
    "maximal_inequality.VarianceProfile.reduced_position",
    "maximal_inequality.IntervalTree.t_length",
}

# Private functions that are layer boundaries all the same: the per-chunk
# kernels that run inside pool workers, cached builders and sampler builds.
EXTRA = {
    "parallel._run_chunk",
    "sign_families._cached_kwise", "sign_families._cached_adversarial",
    "sign_families.KWiseSampler.__init__",
    "sign_families.AdversarialSampler.__init__",
    "sign_families.IndependentSampler.__init__",
    "walks._sup_moment_chunk",
    "streams._sup_inner_chunk", "streams._mz_chunk",
    "maximal_inequality._tail_chunk",
    "dyadic_matrix._cholesky",
}


def _result_size(key):
    return lambda bound, result: {key: int(result.size)}


def _signs_from_coefficients(bound, result):
    vectors, coeffs = bound.arguments["vectors"], bound.arguments["coeffs"]
    batch, (n, k) = len(coeffs), vectors.shape
    return {"signs": batch * n, "temp_bytes": batch * n * k * 8}


def _adversarial_batch(bound, result):
    return {"signs": int(result.size), "stage": bound.arguments["self"].stage}


def _sup_batch(bound, result):
    return {"signs": int(bound.arguments["batch"].size)}


# Work counts read off a call: qualified name -> probe(bound args, result).
PROBES = {
    "gf2.point_lsb_vectors": _result_size("entries"),
    "gf2.signs_from_coefficients": _signs_from_coefficients,
    "sign_families.KWiseSampler.sample_batch": _result_size("signs"),
    "sign_families.AdversarialSampler.sample_batch": _adversarial_batch,
    "sign_families.IndependentSampler.sample_batch": _result_size("signs"),
    "walks.sup_abs_prefix_batch": _sup_batch,
    "streams.InsertionStream.prefix_inner_rows": _result_size("entries"),
}


class Tracer:
    """Records spans for one experiment process and its forked workers."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.worker = False
        self.base_depth = 0
        self.next_id = 0
        self.stack: list[str] = []
        self.spans: list[tuple] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.worker = True
        self.base_depth = len(self.stack)
        self.next_id = 0
        self.spans = []

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = f"{tracer.pid}:{tracer.next_id}"
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            start = time.monotonic_ns()
            result = attrs = None
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs = probe(bound, result)
                return result
            finally:
                end = time.monotonic_ns()
                tracer.stack.pop()
                tracer.spans.append((sid, parent, name, start, end, attrs))
                if tracer.worker and len(tracer.stack) == tracer.base_depth:
                    tracer.write()

        return traced

    def leaf(self, name: str, start: int, attrs=None) -> None:
        """Record a span from start to now that no span nests in."""
        sid = f"{self.pid}:{self.next_id}"
        self.next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.spans.append((sid, parent, name, start, time.monotonic_ns(), attrs))

    def write(self) -> None:
        """Append the buffered spans to this process's file."""
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as out:
            for sid, parent, name, start, end, attrs in self.spans:
                out.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                      "start": start, "end": end,
                                      "attrs": attrs}) + "\n")
        self.spans = []


def _selected(qualname: str, attr: str) -> bool:
    return qualname not in SKIP and (qualname in EXTRA or not attr.startswith("_"))


def install(out_dir: Path) -> Tracer:
    """Wrap the layer functions of every kwalks module; return the tracer."""
    import importlib

    tracer = Tracer(out_dir)
    modules = {name: importlib.import_module(f"kwalks.{name}") for name in LAYERS}
    replaced: dict[int, object] = {}    # id(original) -> wrapper
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            qualname = f"{layer}.{attr}"
            if inspect.isclass(obj):
                if qualname not in SKIP:
                    _wrap_class(tracer, qualname, obj)
            elif (callable(obj) and not inspect.isgeneratorfunction(obj)
                  and _selected(qualname, attr)):
                replaced[id(obj)] = tracer.wrap(qualname, obj)
    # Rebind every reference, including names imported into other modules.
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, attr, replaced[id(obj)])
    modules["parallel"].ProcessPoolExecutor = _counting_pool(
        tracer, modules["parallel"].ProcessPoolExecutor)
    return tracer


def _counting_pool(tracer: Tracer, base):
    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            start = time.monotonic_ns()
            super().__init__(*args, **kwargs)
            tracer.leaf("parallel.pool_start", start)

        def submit(self, fn, /, *args, **kwargs):
            start = time.monotonic_ns()
            future = super().submit(fn, *args, **kwargs)
            sent = len(pickle.dumps((fn, args, kwargs)))
            tracer.leaf("parallel.pool_submit", start, {"arg_bytes": sent})
            return future

    return CountingPool


def _wrap_class(tracer: Tracer, qualname: str, cls) -> None:
    for attr, member in list(vars(cls).items()):
        name = f"{qualname}.{attr}"
        if not _selected(name, attr):
            continue
        if isinstance(member, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, member.__func__)))
        elif inspect.isfunction(member) and not inspect.isgeneratorfunction(member):
            setattr(cls, attr, tracer.wrap(name, member))


# --------------------------------------------------------------------------
# reading spans back

def load_spans(trace_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as src:
            spans.extend(json.loads(line) for line in src)
    return spans


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cursor = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[dict]) -> dict[str, int]:
    """Span id -> self time in ns: its duration minus the part of its
    interval that its children cover.  Children may run in parallel (pool
    workers under one dispatching span), so their union is what counts."""
    children: dict[str, list[tuple[int, int]]] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    return {sp["id"]: sp["end"] - sp["start"]
            - _covered(children.get(sp["id"], []), sp["start"], sp["end"])
            for sp in spans}


def uncovered_ns(spans: list[dict], lo: int, hi: int) -> int:
    """Part of [lo, hi] that no given span covers."""
    return hi - lo - _covered([(sp["start"], sp["end"]) for sp in spans], lo, hi)
