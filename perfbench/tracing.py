"""Per-layer tracing of the program from outside.

A traced run wraps each layer's public functions where the program
looks them up (``repro.core.algorithm2.batched_hgemm``, methods on
their classes) and restores them afterwards; nothing in the program
changes.  Every call of a wrapped function records a span: name, layer,
host start and end, parent span and request id (the index of the
serving group the call belongs to; -1 during set-up).  Spans are kept
in memory and written out when the run ends.

A layer's self time is the time of its spans minus the time of their
child spans.  ``*.host_s`` metrics are inclusive times of a layer's
outermost spans; ``*.self_host_s`` metrics are self times.  Every
metric covers one traced replay: set-up plus the nominal phase.

Less obvious definitions: ``cluster.node_calls_per_request`` is node
calls per cluster call (one cluster call serves one serving group);
``cluster.straggler_ratio`` is, per query, the slowest shard's simulated
time over the mean shard's, averaged over queries;
``routing.candidate_frac`` is nominated references over the router's
corpus, averaged over nominations; ``routing.pruned_frac`` is the share
of the corpus's images a routed search did not sweep;
``engine.dead_slot_frac`` counts cached slots whose id is no longer
live, at the end of the replay; ``blas.gflop`` and ``blas.bytes_in``
are computed from operand shapes, not measured.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core import algorithm2, kernels, query_batching
from repro.core.engine import TextureSearchEngine
from repro.blas import gemm
from repro.distributed import cluster as cluster_mod
from repro.distributed.loadbalancer import WebTier
from repro.distributed.node import SearchNode
from repro.distributed.rest import Router
from repro.gpusim.engine_model import GPUDevice
from repro.obs import default_registry
from repro.routing.router import CandidateRouter
from repro.serving import percentile

import workloads

#: (name, unit) of every per-layer metric a traced run prints.
PER_LAYER = [
    ("web.calls", "count"),
    ("web.self_host_s", "s"),
    ("web.non_2xx", "count"),
    ("serving.groups", "count"),
    ("serving.group_size_mean", "requests"),
    ("serving.queue_wait_p50_us", "us"),
    ("serving.queue_wait_p90_us", "us"),
    ("serving.peak_queue_depth", "count"),
    ("serving.shed", "count"),
    ("serving.self_host_s", "s"),
    ("cluster.calls", "count"),
    ("cluster.self_host_s", "s"),
    ("cluster.node_calls_per_request", "calls"),
    ("cluster.retries", "count"),
    ("cluster.unsearched_shards", "count"),
    ("cluster.straggler_ratio", "ratio"),
    ("routing.calls", "count"),
    ("routing.host_s", "s"),
    ("routing.candidate_frac", "fraction"),
    ("routing.pruned_frac", "fraction"),
    ("node.calls", "count"),
    ("node.self_host_s", "s"),
    ("engine.sweeps", "count"),
    ("engine.self_host_s", "s"),
    ("engine.images_swept", "count"),
    ("engine.dead_slot_frac", "fraction"),
    ("engine.sweep_sim_us", "us"),
    ("cache.gpu_hit_frac", "fraction"),
    ("cache.h2d_bytes", "B"),
    ("cache.h2d_sim_us", "us"),
    ("cache.host_batches", "count"),
    ("kernel.calls", "count"),
    ("kernel.self_host_s", "s"),
    ("kernel.gemm_sim_us", "us"),
    ("kernel.top2_sim_us", "us"),
    ("kernel.sqrt_sim_us", "us"),
    ("kernel.d2h_sim_us", "us"),
    ("blas.calls", "count"),
    ("blas.host_s", "s"),
    ("blas.gflop", "GFLOP"),
    ("blas.bytes_in", "B"),
    ("topk.calls", "count"),
    ("topk.host_s", "s"),
    ("topk.elements", "count"),
    ("ratio_test.host_s", "s"),
    ("gpusim.host_s", "s"),
    ("write.enrolls", "count"),
    ("write.deletes", "count"),
    ("write.host_s", "s"),
    ("write.serialize_host_s", "s"),
    ("write.bytes_serialized", "B"),
    ("write.replica_applies", "count"),
    ("obs.tracing_overhead_frac", "fraction"),
]

#: gpusim profiler step -> per-layer metric of its simulated time.
_SIM_STEPS = {
    "GEMM": "kernel.gemm_sim_us",
    "Top-2 sort": "kernel.top2_sim_us",
    "sqrt": "kernel.sqrt_sim_us",
    "D2H copy": "kernel.d2h_sim_us",
    "H2D copy": "cache.h2d_sim_us",
}


def clock_of(name: str) -> str:
    """``*_us`` metrics are simulated time, ``*host_s`` metrics host wall
    time; the rest are counts and ratios, which have no clock."""
    if name.endswith("_us"):
        return "sim"
    return "host" if name.endswith("host_s") else "none"


class SpanRecorder:
    """In-memory span store plus the counters observed at wrapped calls."""

    def __init__(self) -> None:
        #: [name, layer, start_s, end_s, parent_index, request_id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)

    def wrap(self, fn, name: str, layer: str, observe=None, opens_request=False):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if opens_request:
                recorder.request_id += 1
            index = len(recorder.spans)
            parent = recorder._stack[-1] if recorder._stack else -1
            span = [name, layer, time.perf_counter(), None, parent, recorder.request_id]
            recorder.spans.append(span)
            recorder._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(recorder, args, result)
                return result
            finally:
                recorder._stack.pop()
                span[3] = time.perf_counter()

        return traced

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per layer: self time, inclusive time and count of the
        outermost spans (a span whose parent is in another layer)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "host_s": 0.0, "calls": 0}
        )
        for i, (_name, layer, start, end, parent, _rid) in enumerate(self.spans):
            entry = out[layer]
            entry["self_s"] += (end - start) - child[i]
            if parent < 0 or self.spans[parent][1] != layer:
                entry["host_s"] += end - start
                entry["calls"] += 1
        return out

    def write(self, path: Path, groups: list[list[int]]) -> None:
        """Write the spans (times relative to the first span) and the
        request ids of every serving group."""
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [
            [name, layer, start - origin, end - origin, parent, rid]
            for name, layer, start, end, parent, rid in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "columns": ["name", "layer", "start_s", "end_s", "parent", "request_id"],
            "spans": rows,
            "groups": groups,
        }))


# -- observers: counts taken where the work happens -------------------------
def _on_web(rec, args, record):
    if not record.response.ok:
        rec.counts["web.non_2xx"] += 1


def _on_cluster(rec, args, result):
    system = args[0]
    results = result.results if hasattr(result, "results") else [result]
    rec.counts["cluster.retries"] += result.retries
    rec.counts["cluster.unsearched_shards"] += len(result.unsearched_shards)
    for r in results:
        shard_us = [p.elapsed_us for p in r.per_node.values()]
        if shard_us and sum(shard_us) > 0:
            rec.samples["straggler"].append(max(shard_us) / (sum(shard_us) / len(shard_us)))
        if r.routed:
            # pruned: skipped inside nominated shards plus every image
            # of the shards the router did not nominate
            unrouted = sum(system.groups[s].n_references for s in r.unrouted_shards)
            rec.counts["routing.images_pruned"] += r.images_pruned + unrouted
            rec.counts["routing.images_seen"] += r.images_pruned + unrouted + r.images_searched


def _on_nominate(rec, args, decision):
    router = args[0]
    frac = 1.0 if decision.exhaustive else decision.n_candidates / max(router.n_images, 1)
    rec.samples["candidate_frac"].append(frac)


def _on_engine(rec, args, result):
    rec.counts["engine.images_swept"] += result.images_searched
    rec.counts["engine.sweep_sim_us"] += result.elapsed_us


def _on_hgemm(rec, args, result):
    a, b = np.asarray(args[1]), np.asarray(args[2])
    batch, k, m = a.shape
    rec.counts["blas.gflop"] += 2.0 * batch * m * b.shape[1] * k / 1e9
    rec.counts["blas.bytes_in"] += a.nbytes + b.nbytes


def _on_topk(rec, args, result):
    rec.counts["topk.elements"] += np.asarray(args[0]).size


def _on_serialize(rec, args, blob):
    rec.counts["write.bytes_serialized"] += len(blob)


def _count(metric):
    def observe(rec, args, result):
        rec.counts[metric] += 1
    return observe


def _targets():
    """(owner, attribute, layer, observer) of every wrapped function.
    A call of the first target starts a new request id."""
    return [
        (workloads.GuardedExecutor, "execute", "serving", None),
        (workloads, "simulate_serving", "serving", None),
        (WebTier, "handle", "web", _on_web),
        (Router, "handle", "web", None),
        (cluster_mod.DistributedSearchSystem, "search", "cluster", _on_cluster),
        (cluster_mod.DistributedSearchSystem, "search_group", "cluster", _on_cluster),
        (CandidateRouter, "nominate", "routing", _on_nominate),
        (SearchNode, "search", "node", None),
        (SearchNode, "search_many", "node", None),
        (TextureSearchEngine, "search", "engine", _on_engine),
        (TextureSearchEngine, "search_group", "engine", _on_engine),
        (kernels.Algorithm2Kernel, "match_batch", "kernel", None),
        (kernels.Algorithm2Kernel, "match_batch_multi", "kernel", None),
        (kernels, "knn_algorithm2", "kernel", None),
        (query_batching, "knn_algorithm2_multiquery", "kernel", None),
        (algorithm2, "batched_hgemm", "blas", _on_hgemm),
        (gemm, "batched_hgemm", "blas", _on_hgemm),
        (algorithm2, "functional_topk", "topk", _on_topk),
        (query_batching, "functional_topk", "topk", _on_topk),
        (kernels, "batch_ratio_test_masks", "ratio_test", None),
        (kernels, "match_images_batch", "ratio_test", None),
        (GPUDevice, "submit", "gpusim", None),
        (cluster_mod.DistributedSearchSystem, "add", "write", None),
        (cluster_mod.DistributedSearchSystem, "enroll", "write", _count("write.enrolls")),
        (cluster_mod.DistributedSearchSystem, "delete", "write", _count("write.deletes")),
        (SearchNode, "add", "write", _count("write.replica_applies")),
        (SearchNode, "remove", "write", _count("write.replica_applies")),
        (cluster_mod, "serialize_record", "serialize", _on_serialize),
    ]


@contextmanager
def installed(recorder: SpanRecorder):
    """Wrap every target for the duration of the block."""
    originals = []
    try:
        for i, (owner, attr, layer, observe) in enumerate(_targets()):
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            name = f"{owner.__name__}.{attr}"
            wrapper = recorder.wrap(original, name, layer, observe, opens_request=i == 0)
            setattr(owner, attr, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# -- counters read from the program's own state -----------------------------
def registry_counters() -> dict[str, float]:
    reg = default_registry()
    lookups = reg.get("repro_cache_sweep_lookups_total")
    return {
        "hit": lookups.labels(result="hit").value,
        "miss": lookups.labels(result="miss").value,
        "h2d_bytes": reg.get("repro_engine_h2d_bytes_total").value,
    }


def engine_state(system) -> dict[str, float]:
    """Cache residency, dead slots and simulated step totals over every
    node of one cluster."""
    state = defaultdict(float)
    for node in system.nodes:
        engine = node.engine
        state["host_batches"] += engine.cache.host_batches
        for cached in engine.cache.batches():
            for slot_id in cached.batch.ids:
                state["slots"] += 1
                state["dead"] += not engine.has_reference(slot_id)
        for step, total in engine.device.profiler.as_dict().items():
            state[step] += total
    return state


def layer_metrics(recorder, report, system, before, after, overhead_frac) -> dict:
    """Every per-layer metric of one traced replay."""
    times = recorder.layer_times()
    counts = recorder.counts
    state = engine_state(system)
    metrics: dict[str, float] = {}

    def put(name, value):
        metrics[name] = float(value)

    for layer in ("web", "cluster", "node", "kernel"):
        put(f"{layer}.calls", times[layer]["calls"])
    for layer in ("web", "serving", "cluster", "node", "engine", "kernel"):
        put(f"{layer}.self_host_s", times[layer]["self_s"])
    put("web.non_2xx", counts["web.non_2xx"])
    waits = [r.queue_wait_us for r in report.records]
    put("serving.groups", len(report.groups))
    put("serving.group_size_mean", report.mean_group_size)
    put("serving.queue_wait_p50_us", percentile(waits, 50))
    put("serving.queue_wait_p90_us", percentile(waits, 90))
    put("serving.peak_queue_depth", report.peak_queue_depth)
    put("serving.shed", len(report.rejected))
    put("cluster.node_calls_per_request",
        times["node"]["calls"] / times["cluster"]["calls"] if times["cluster"]["calls"] else 0.0)
    put("cluster.retries", counts["cluster.retries"])
    put("cluster.unsearched_shards", counts["cluster.unsearched_shards"])
    straggler = recorder.samples["straggler"]
    put("cluster.straggler_ratio", sum(straggler) / len(straggler) if straggler else 0.0)
    put("routing.calls", times["routing"]["calls"])
    put("routing.host_s", times["routing"]["host_s"])
    cand = recorder.samples["candidate_frac"]
    put("routing.candidate_frac", sum(cand) / len(cand) if cand else 0.0)
    seen = counts["routing.images_seen"]
    put("routing.pruned_frac", counts["routing.images_pruned"] / seen if seen else 0.0)
    put("engine.sweeps", times["engine"]["calls"])
    put("engine.images_swept", counts["engine.images_swept"])
    put("engine.dead_slot_frac", state["dead"] / state["slots"] if state["slots"] else 0.0)
    put("engine.sweep_sim_us", counts["engine.sweep_sim_us"])
    hits = after["hit"] - before["hit"]
    misses = after["miss"] - before["miss"]
    put("cache.gpu_hit_frac", hits / (hits + misses) if hits + misses else 0.0)
    put("cache.h2d_bytes", after["h2d_bytes"] - before["h2d_bytes"])
    put("cache.host_batches", state["host_batches"])
    for step, name in _SIM_STEPS.items():
        put(name, state[step])
    for layer in ("blas", "topk"):
        put(f"{layer}.calls", times[layer]["calls"])
        put(f"{layer}.host_s", times[layer]["host_s"])
    put("blas.gflop", counts["blas.gflop"])
    put("blas.bytes_in", counts["blas.bytes_in"])
    put("topk.elements", counts["topk.elements"])
    put("ratio_test.host_s", times["ratio_test"]["host_s"])
    put("gpusim.host_s", times["gpusim"]["host_s"])
    put("write.enrolls", counts["write.enrolls"])
    put("write.deletes", counts["write.deletes"])
    put("write.host_s", times["write"]["host_s"])
    put("write.serialize_host_s", times["serialize"]["host_s"])
    put("write.bytes_serialized", counts["write.bytes_serialized"])
    put("write.replica_applies", counts["write.replica_applies"])
    put("obs.tracing_overhead_frac", overhead_frac)
    return {name: metrics[name] for name, _unit in PER_LAYER}
