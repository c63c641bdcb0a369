"""Per-layer spans around bdcutoff's public functions, recorded from outside.

Tracer.install() rebinds each traced function wherever a bdcutoff module
holds a reference to it (including the probe registry), so calls made
inside the package are timed too; uninstall() restores the originals.
Spans stay in memory; layer_metrics() turns them into the per-layer
figures named in BENCHMARK.json.
"""

import functools
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _gibbs_info(args, kwargs, trace):
    cfg = args[0] if args else kwargs["config"]
    return {"updates": trace.block_updates, "tries": trace.block_tries,
            "k": cfg.k}


def _coupled_info(args, kwargs, trace):
    return {"coalesced_at": trace.coalesced_at}


# span name, defining module, function, result -> span info
TARGETS = (
    ("lab.cli.main", "bdcutoff.lab.cli", "cli_main", None),
    ("dist.build", "bdcutoff.dist", "make_distribution", None),
    ("sampler.equilibrate", "bdcutoff.sampler", "run_gibbs", _gibbs_info),
    ("sampler.collect", "bdcutoff.sampler", "collect_window", None),
    ("sampler.coupled", "bdcutoff.sampler", "run_coupled_pair",
     _coupled_info),
    ("kernel.assemble", "bdcutoff.kernel", "kernel_from_superdiagonal", None),
    ("analysis.analyze", "bdcutoff.analysis", "analyze", None),
    ("analysis.gap", "bdcutoff.analysis", "spectral_gap", None),
    ("analysis.miclo", "bdcutoff.analysis", "miclo_bounds", None),
    ("analysis.hit", "bdcutoff.analysis", "expected_hitting_time", None),
    ("analysis.tau", "bdcutoff.analysis", "mixing_time", None),
    ("lab.ensemble.replicate", "bdcutoff.lab.ensemble", "run_replicate", None),
    ("lab.tableio.write", "bdcutoff.lab.tableio", "write_table", None),
)
PROBE_SPAN = "lab.probes.probe"

# per-layer timings: metric name, unit, span name, sample extractor
TIMINGS = (
    ("dist.build_ms", "ms", "dist.build", "ms"),
    ("sampler.equilibrate_ms", "ms", "sampler.equilibrate", "direct_ms"),
    ("sampler.update_ns", "ns", "sampler.equilibrate", "update_ns"),
    ("sampler.collect_ms", "ms", "sampler.collect", "ms"),
    ("sampler.coupled_ms", "ms", "sampler.coupled", "ms"),
    ("kernel.assemble_ms", "ms", "kernel.assemble", "ms"),
    ("analysis.analyze_ms", "ms", "analysis.analyze", "ms"),
    ("analysis.gap_ms", "ms", "analysis.gap", "ms"),
    ("analysis.miclo_ms", "ms", "analysis.miclo", "ms"),
    ("analysis.hit_ms", "ms", "analysis.hit", "ms"),
    ("analysis.tau_ms", "ms", "analysis.tau", "ms"),
    ("lab.ensemble.replicate_ms", "ms", "lab.ensemble.replicate", "ms"),
    ("lab.ensemble.replicate_self_ms", "ms", "lab.ensemble.replicate",
     "self_ms"),
    ("lab.probes.probe_ms", "ms", PROBE_SPAN, "ms"),
    ("lab.probes.probe_self_ms", "ms", PROBE_SPAN, "self_ms"),
    ("lab.tableio.write_ms", "ms", "lab.tableio.write", "ms"),
    ("lab.cli.main_ms", "ms", "lab.cli.main", "ms"),
    ("lab.cli.self_ms", "ms", "lab.cli.main", "self_ms"),
)
COUNTS = (
    ("sampler.updates", "count"),
    ("sampler.coalesce_updates", "count"),
    ("sampler.tries_per_update", "ratio"),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn, describe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if describe is not None:
                span.info = describe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name.split(".")[0] == "bdcutoff" and m is not None]
        for name, modname, attr, describe in TARGETS:
            fn = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, fn, describe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod.__dict__, key, fn))
                        setattr(mod, key, wrapper)
        registry = sys.modules["bdcutoff.lab.probes"].PROBES
        for key, fn in list(registry.items()):
            self._restore.append((registry, key, fn))
            registry[key] = self._wrap(PROBE_SPAN, fn, None)

    def uninstall(self) -> None:
        while self._restore:
            namespace, key, fn = self._restore.pop()
            namespace[key] = fn


def summarize(samples) -> dict:
    """Median, the highest order statistic with ten samples above it
    (the maximum when there are fewer than eleven), and the count."""
    if not samples:
        return {"p50": 0.0, "tail": 0.0, "count": 0, "tail_pct": None}
    xs = sorted(samples)
    n = len(xs)
    if n >= 11:
        tail, pct = xs[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = xs[-1], 100.0
    return {"p50": statistics.median(xs), "tail": tail, "count": n,
            "tail_pct": pct}


def layer_metrics(spans: list[Span], job_ranges) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and the tail percentiles."""
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_ms[s.parent] += s.ms
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def extract(i, how):
        s = spans[i]
        if how == "ms":
            return s.ms
        if how == "self_ms":
            return s.ms - child_ms[i]
        if how == "direct_ms":
            inside = s.parent is not None \
                and spans[s.parent].name == "sampler.collect"
            return None if inside else s.ms
        if how == "update_ns":
            u = s.info.get("updates")
            return (s.end - s.start) * 1e9 / u if u else None
        raise ValueError(how)

    metrics, tails = {}, {}
    for metric, unit, span_name, how in TIMINGS:
        vals = [v for i in by_name[span_name]
                if (v := extract(i, how)) is not None]
        st = summarize(vals)
        metrics[metric + ".p50"] = (st["p50"], unit)
        metrics[metric + ".tail"] = (st["tail"], unit)
        metrics[metric + ".count"] = (st["count"], "count")
        tails[metric] = st["tail_pct"]

    # a call that raised has no info; it counts as no work
    gibbs = [spans[i].info for i in by_name["sampler.equilibrate"]
             if spans[i].info]
    per_job = [sum(spans[i].info.get("updates", 0) for i in range(a, b)
                   if spans[i].name == "sampler.equilibrate")
               for a, b in job_ranges]
    coalesce = [spans[i].info["coalesced_at"] for i in
                by_name["sampler.coupled"]
                if spans[i].info.get("coalesced_at") is not None]
    blocks = [g for g in gibbs if g["k"] >= 2]
    updates = sum(g["updates"] for g in blocks)
    metrics["sampler.updates"] = (
        statistics.median(per_job) if per_job else 0, "count")
    metrics["sampler.coalesce_updates"] = (
        statistics.median(coalesce) if coalesce else 0, "count")
    # k = 1 draws exactly one proposal per update, so 1.0 when no
    # block (k >= 2) run happened
    metrics["sampler.tries_per_update"] = (
        sum(g["tries"] for g in blocks) / updates if updates else 1.0,
        "ratio")
    return metrics, tails
