"""Workloads of the two-clock serving benchmark.

Inputs are generated from the seed before any timing starts; the
program under test only ever receives the generated inputs.  Set-up and
serving go through the program's public entry points: ``WebTier.handle``,
``simulate_serving``, the serving executors and
``DistributedSearchSystem``.

Every workload is open-loop Poisson traffic on the *simulated* clock,
served by the deterministic ``simulate_serving`` event loop.  A phase
is one arrival rate; each phase runs on a freshly built cluster, so its
simulated outputs depend only on the seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import DistributedSearchSystem, EngineConfig
from repro.data import SyntheticFeatureModel
from repro.distributed.cluster import ClusterSearchResult
from repro.distributed.enrollment import DeletionAck, EnrollmentAck
from repro.distributed.loadbalancer import WebTier
from repro.distributed.node import NodeConfig
from repro.distributed.rest import Request, Response
from repro.gpusim.device import TESLA_P100
from repro.routing import RouterPolicy
from repro.serving import (
    BatchPolicy,
    MixedClusterExecutor,
    WebTierBatchExecutor,
    build_trace,
    percentile,
    poisson_arrivals,
    simulate_serving,
)

SPEC_PATH = Path(__file__).with_name("spec.json")

#: references returned per search response; the deleted-id check
#: inspects every one of them.
TOP = 5

#: never-enrolled bricks that impostor queries are captured from.
IMPOSTOR_BRICKS = 8
IMPOSTOR_BASE = 1_000_000


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def ref_id(brick: int) -> str:
    return f"b{brick:07d}"


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Op:
    """One generated request.

    ``brick`` is the reference id the request is about: the brick a
    search query was captured from (which may never have been enrolled,
    or may be deleted by the time the search runs), or the id an enroll
    or delete mutates.
    """

    kind: str  # "search" | "enroll" | "delete"
    payload: object
    brick: str


@dataclass
class Phase:
    rate_per_s: float
    arrivals: list[float]
    ops: list[Op]


@dataclass
class Inputs:
    corpus: dict[str, np.ndarray]
    phases: list[Phase]  # in ascending rate order; the first is nominal


class _Captures:
    """Seeded captures, with a fresh capture index for every query."""

    def __init__(self, seed: int, m: int, n: int) -> None:
        self.model = SyntheticFeatureModel(seed=seed)
        self.m = m
        self.n = n
        self._next_index: dict[int, int] = {}

    # ``Capture.top`` slices a view; copying lets the full capture go
    def reference(self, brick: int) -> np.ndarray:
        return self.model.capture(brick, "reference").top(self.m).descriptors.copy()

    def query(self, brick: int) -> np.ndarray:
        index = self._next_index.get(brick, 0)
        self._next_index[brick] = index + 1
        capture = self.model.capture(brick, "query", capture_index=index)
        return capture.top(self.n).descriptors.copy()


def _pick_query_brick(rng, live: list[str], impostor_share: float) -> str:
    if rng.random() < impostor_share:
        return ref_id(IMPOSTOR_BASE + int(rng.integers(IMPOSTOR_BRICKS)))
    return live[int(rng.integers(len(live)))]


def _search_op(captures, brick: str) -> Op:
    return Op("search", captures.query(int(brick[1:])), brick)


def _churn_ops(captures, rng, corpus_ids: list[str], w) -> list[Op]:
    """Searches interleaved with enrolls of new bricks and deletes of
    random live ones; some searches probe bricks deleted earlier.

    The share of each kind is exact; the seed places them in the
    sequence and picks the bricks."""
    n = w["requests_per_phase"]
    counts = {
        "enroll": round(n * w["enroll_share"]),
        "delete": round(n * w["delete_share"]),
        "probe": round(n * w["deleted_probe_share"]),
        "impostor": round(n * w["impostor_share"]),
    }
    kinds = [kind for kind, count in counts.items() for _ in range(count)]
    kinds += ["search"] * (n - len(kinds))
    live = list(corpus_ids)
    deleted: list[str] = []
    next_brick = w["corpus_refs"]
    ops: list[Op] = []
    for i in rng.permutation(n):
        kind = kinds[i]
        if kind == "enroll":
            rid = ref_id(next_brick)
            ops.append(Op("enroll", ("enroll", rid, captures.reference(next_brick)), rid))
            live.append(rid)
            next_brick += 1
        elif kind == "delete":
            rid = live.pop(int(rng.integers(len(live))))
            deleted.append(rid)
            ops.append(Op("delete", ("delete", rid), rid))
        else:
            if kind == "probe" and deleted:
                rid = deleted[int(rng.integers(len(deleted)))]
            elif kind == "impostor":
                rid = ref_id(IMPOSTOR_BASE + int(rng.integers(IMPOSTOR_BRICKS)))
            else:
                rid = live[int(rng.integers(len(live)))]
            ops.append(_search_op(captures, rid))
    return ops


def generate(name: str, spec: dict, seed: int) -> Inputs:
    """All inputs of one workload, as a pure function of the seed.

    The corpus and the search query set are drawn from
    ``SyntheticFeatureModel(spec["data_seed"])``, the same in every run,
    so runs with different seeds serve the same evaluation set; the seed
    draws the traffic: the order queries are sent in, the Poisson
    arrival times, and on the churn workload which bricks are enrolled,
    deleted and searched for, and when.
    """
    w = spec["workloads"][name]
    engine = spec["engine"]
    tag = zlib.crc32(name.encode())
    data_rng = np.random.default_rng(np.random.SeedSequence([spec["data_seed"], tag]))
    traffic_rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
    captures = _Captures(spec["data_seed"], engine["m"], engine["n"])
    corpus = {ref_id(b): captures.reference(b) for b in range(w["corpus_refs"])}
    corpus_ids = list(corpus)
    phases = []
    for rate in w["rates_per_s"]:
        if name == "churn-replicated":
            ops = _churn_ops(captures, traffic_rng, corpus_ids, w)
        else:
            # each distinct query is sent requests_per_phase / distinct_queries times
            distinct = [
                _search_op(captures, _pick_query_brick(data_rng, corpus_ids, w["impostor_share"]))
                for _ in range(w["distinct_queries"])
            ]
            queries = [distinct[i % len(distinct)] for i in range(w["requests_per_phase"])]
            ops = [queries[i] for i in traffic_rng.permutation(len(queries))]
        arrivals = poisson_arrivals(len(ops), rate, seed=int(traffic_rng.integers(2**31)))
        phases.append(Phase(rate, arrivals, ops))
    return Inputs(corpus, phases)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Failed:
    """Payload standing in for a request whose group raised."""

    error: str


class GuardedExecutor:
    """Counts a group that raised as failed requests instead of
    aborting the run; the failed group holds the backend for 0 µs.

    Also marks the host time at which each group returns in ``marks``
    (see ``run_phase``)."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.marks: list[float] = []

    def execute(self, queries):
        try:
            out = self.inner.execute(queries)
        except Exception as exc:  # every failure is counted, none aborts the run
            out = [Failed(f"{type(exc).__name__}: {exc}")] * len(queries), 0.0
        self.marks.append(time.perf_counter())
        return out


class RestSearchExecutor:
    """Sends each request of a group as its own single-query
    ``POST /search`` through the web tier, encoding the JSON body as
    ``WebTierBatchExecutor`` does for ``POST /search/batch``."""

    def __init__(self, tier: WebTier, nprobe: int) -> None:
        self.tier = tier
        self.nprobe = nprobe

    def execute(self, queries):
        records = [
            self.tier.handle(Request("POST", "/search", {
                "descriptors": np.asarray(q).tolist(), "top": TOP, "nprobe": self.nprobe,
            }))
            for q in queries
        ]
        return [r.response for r in records], sum(r.latency_us for r in records)


@dataclass
class Deployment:
    system: DistributedSearchSystem
    executor: GuardedExecutor
    policy: BatchPolicy


def deploy(name: str, spec: dict, corpus: dict[str, np.ndarray]) -> Deployment:
    """Build the cluster, enroll the corpus, fit the router and seal
    pending batches."""
    w = spec["workloads"][name]
    config = EngineConfig(**spec["engine"])
    node_config = None
    if w["gpu_batches_per_shard"] is not None:
        # leave room on each card for exactly that many reference
        # batches; the older batches of the shard spill to the host cache
        batch_bytes = config.feature_matrix_bytes() * config.batch_size
        free = w["gpu_batches_per_shard"] * batch_bytes + batch_bytes // 2
        node_config = NodeConfig(engine_reserved_bytes=TESLA_P100.mem_bytes - free)
    router = w["router"]
    router_policy = (
        RouterPolicy(kind=router["kind"], n_lists=router["n_lists"], seed=0)
        if router is not None else None
    )
    system = DistributedSearchSystem(
        n_nodes=spec["shards"],
        engine_config=config,
        node_config=node_config,
        router_policy=router_policy,
        replication_factor=w["replicas"],
    )
    for rid, descriptors in corpus.items():
        system.add(rid, descriptors)
    if router_policy is not None:
        system.build_router()
    for node in system.nodes:
        node.engine.flush()
    if name == "fused-exhaustive":
        executor = WebTierBatchExecutor(WebTier(system), top=TOP)
    elif name == "routed-single":
        executor = RestSearchExecutor(WebTier(system), router["nprobe"])
    else:
        executor = MixedClusterExecutor(system)
    # max_wait_us=0: a group launches as soon as the backend frees up
    policy = BatchPolicy(max_batch=w["max_batch"], max_wait_us=0.0)
    return Deployment(system, GuardedExecutor(executor), policy)


def timed_deploy(name: str, spec: dict, corpus: dict, samples: list[float]) -> Deployment:
    """Deploy repeatedly for at least ``spec["setup_batch_s"]`` of host
    time and append the fastest set-up time of the batch to ``samples``;
    returns the last deployment.  Calling this before every phase
    spreads the batches over the whole run.  Every set-up does the same
    work and lasts 10-40 ms, so the fastest of a batch drops the dips in
    host speed that a whole-run median keeps."""
    batch: list[float] = []
    while sum(batch) < spec["setup_batch_s"]:
        gc.collect()
        started = time.perf_counter()
        deployment = deploy(name, spec, corpus)
        batch.append(time.perf_counter() - started)
    samples.append(min(batch))
    return deployment


def run_phase(deployment: Deployment, phase: Phase):
    """Serve one phase; returns ``(report, host_seconds)``.

    Afterwards ``deployment.executor.marks`` holds the start time, the
    time each group returned and the end time (see ``group_seconds``)."""
    trace = build_trace(phase.arrivals, [op.payload for op in phase.ops])
    gc.collect()
    marks = deployment.executor.marks
    marks.clear()
    started = time.perf_counter()
    marks.append(started)
    report = simulate_serving(deployment.executor, trace, deployment.policy)
    ended = time.perf_counter()
    marks.append(ended)
    return report, ended - started


def group_seconds(marks: list[float]) -> list[float]:
    """Host seconds of each group of a phase served by ``run_phase``:
    the time from the previous group's return to its own, the serving
    loop's work before the first group and after the last included, so
    the groups' times add up to the phase's."""
    spans = [end - start for start, end in zip(marks, marks[1:])]
    spans[-2] += spans.pop()
    return spans


# ---------------------------------------------------------------------------
# outputs and ground truth
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Outcome:
    ok: bool
    top1: str | None
    good_matches: int
    returned: tuple[str, ...]
    images: int
    detail: str = ""


def _ranked_outcome(ok: bool, results: list[dict], images: int) -> Outcome:
    top = results[0] if results else None
    return Outcome(
        ok,
        None if top is None else top["id"],
        0 if top is None else int(top["good_matches"]),
        tuple(r["id"] for r in results),
        int(images),
    )


def outcome(payload) -> Outcome:
    """Normalise any executor payload to what the client observed."""
    if isinstance(payload, Failed):
        return Outcome(False, None, 0, (), 0, payload.error)
    if isinstance(payload, Response):  # POST /search
        body = payload.body
        if not payload.ok:
            return Outcome(False, None, 0, (), 0, f"status {payload.status}")
        return _ranked_outcome(not body["partial"], body["results"], body["images_searched"])
    if isinstance(payload, dict):  # one query of POST /search/batch
        return _ranked_outcome(not payload["partial"], payload["results"], payload["images_searched"])
    if isinstance(payload, ClusterSearchResult):
        ranked = payload.top(len(payload.matches))
        results = [{"id": m.reference_id, "good_matches": m.good_matches} for m in ranked]
        return _ranked_outcome(not payload.partial, results, payload.images_searched)
    if isinstance(payload, EnrollmentAck):
        return Outcome(True, payload.ref_id, 0, (), 0, f"epoch={payload.epoch}")
    if isinstance(payload, DeletionAck):
        return Outcome(payload.deleted, payload.ref_id, 0, (), 0, f"epoch={payload.epoch}")
    return Outcome(False, None, 0, (), 0, f"unexpected payload {type(payload).__name__}")


@dataclass
class PhaseEval:
    requests: int
    failed: int
    searches: int
    correct: int
    p50_us: float
    p90_us: float
    holds: bool
    images_per_s: float
    lateness_us: float
    violations: list[str]
    digest: str


def evaluate(phase: Phase, report, corpus_ids, min_matches: int, limit_us: float) -> PhaseEval:
    """Score one served phase against ground truth.

    Groups run mutations before searches, so the oracle replays the
    groups in launch order: a search expects its brick iff the brick is
    live once the mutations of its own group have been applied, and
    expects no reference at or above ``min_matches`` otherwise.  A
    returned id that is not live at that point (deleted or never
    enrolled) is a correctness violation.
    """
    records = {r.request_id: r for r in report.records}
    outcomes = {rid: outcome(r.result) for rid, r in records.items()}
    live = set(corpus_ids)
    violations: list[str] = []
    correct = 0
    for group in report.groups:
        for rid in group.request_ids:
            op, out = phase.ops[rid], outcomes[rid]
            if op.kind == "enroll" and out.ok:
                live.add(op.brick)
            elif op.kind == "delete" and out.ok:
                live.discard(op.brick)
        for rid in group.request_ids:
            op, out = phase.ops[rid], outcomes[rid]
            if op.kind != "search":
                continue
            stale = [r for r in out.returned if r not in live]
            if stale:
                violations.append(f"request {rid} returned ids not live: {stale}")
            expected = op.brick if op.brick in live else None
            answer = out.top1 if out.good_matches >= min_matches else None
            correct += int(out.ok and answer == expected)
    searches = sum(op.kind == "search" for op in phase.ops)

    n = len(phase.ops)
    ok_ids = [rid for rid in range(n) if rid in outcomes and outcomes[rid].ok]
    latencies = [records[rid].latency_us for rid in ok_ids]
    within = sum(lat <= limit_us for lat in latencies)
    # a growing backlog shows as the last arrivals waiting longest
    tail = range(n - max(1, n // 10), n)
    tail_lat = [
        records[rid].latency_us if rid in ok_ids else float("inf") for rid in tail
    ]
    holds = within >= 0.9 * n and sum(tail_lat) / len(tail_lat) <= limit_us
    busy_us = sum(g.execute_us for g in report.groups)
    images = sum(outcomes[rid].images for rid in ok_ids if phase.ops[rid].kind == "search")
    lateness = max(
        (abs(r.arrival_us - phase.arrivals[rid]) for rid, r in records.items()), default=0.0
    )

    digest = hashlib.sha256()
    for rid in range(n):
        out = outcomes.get(rid)
        latency = repr(records[rid].latency_us) if rid in records else "shed"
        digest.update(
            f"{rid}|{phase.ops[rid].kind}|{out}|{latency}\n".encode()
        )
    return PhaseEval(
        requests=n,
        failed=n - len(ok_ids),
        searches=searches,
        correct=correct,
        p50_us=percentile(latencies, 50),
        p90_us=percentile(latencies, 90),
        holds=holds,
        images_per_s=images / (busy_us / 1e6) if busy_us > 0 else 0.0,
        lateness_us=lateness,
        violations=violations,
        digest=digest.hexdigest(),
    )
