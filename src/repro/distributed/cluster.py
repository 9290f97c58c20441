"""The distributed texture search system (Sec. 8, Fig. 6).

``DistributedSearchSystem`` shards reference matrices round-robin over
its GPU containers (the paper allocates them "equally to those 14 GPU
containers"), persists every record in the Redis-like store, and
answers searches by scatter-gather: the query fans out to all nodes,
each scans its shard, and the best match wins globally.

Simulated wall-clock of one search is the *maximum* node time (the
nodes run concurrently) plus a fixed web/network overhead; aggregate
throughput is the sum of node throughputs — this is the arithmetic
behind the paper's 872,984 img/s on 14 P100s.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from ..core.config import EngineConfig
from ..core.results import ImageMatch, SearchResult
from ..errors import (
    ClusterError,
    DegradedClusterError,
    NodeDownError,
    TransientNodeError,
)
from ..gpusim.device import DeviceSpec, TESLA_P100
from ..obs import (
    DeadlineFanOut,
    current_brownout,
    current_deadline,
    default_registry,
    default_tracer,
)
from ..obs.slo import installed_engine as _slo_engine
from ..obs.timeseries import advance_by as _ts_advance_by
from ..obs.timeseries import installed_recorder as _ts_recorder
from ..routing import CandidateRouter, RouteDecision, RouterPolicy
from ..routing import build_router as _make_router
from .breaker import BreakerPolicy
from .enrollment import (
    DeletionAck,
    EnrollmentAck,
    EpochRegistry,
    TombstoneLog,
    count_op,
)
from .health import NodeHealth
from .kvstore import KVStore
from .node import NodeConfig, SearchNode
from .replica import (
    WARMUP_BASE_US,
    WARMUP_US_PER_REF,
    ReplicaGroup,
    ReplicaState,
)
from .serialization import FeatureRecord, deserialize_record, serialize_record

__all__ = [
    "ClusterGroupResult",
    "ClusterSearchResult",
    "DistributedSearchSystem",
    "RetryPolicy",
    "STATS_SCHEMA_VERSION",
]

#: request routing + result aggregation overhead of the web tier per
#: search (REST parsing, Redis metadata lookups, fan-out RPC).
WEB_TIER_OVERHEAD_US = 2000.0

#: version of the ``GET /stats`` payload shape; bump when keys change.
STATS_SCHEMA_VERSION = 8

_REG = default_registry()
_TRACER = default_tracer()
_SEARCHES = _REG.counter(
    "repro_cluster_searches_total",
    "Scatter-gather searches answered by the cluster",
    ("kind",),
)
_RETRIES = _REG.counter(
    "repro_cluster_retries_total",
    "Extra node attempts spent after transient failures or timeouts",
)
_UNSEARCHED = _REG.counter(
    "repro_cluster_unsearched_shards_total",
    "Populated shards skipped after exhausting their retry budget",
)
_PARTIALS = _REG.counter(
    "repro_cluster_partial_results_total",
    "Searches answered with at least one shard missing",
)
_FAILOVERS = _REG.counter(
    "repro_cluster_failovers_total",
    "DOWN nodes decommissioned and re-hydrated onto survivors",
)
_BREAKER_SKIPS = _REG.counter(
    "repro_cluster_breaker_skipped_total",
    "Node attempts skipped because the node's circuit breaker was open",
)
_BROWNOUT_SKIPS = _REG.counter(
    "repro_cluster_brownout_shards_skipped_total",
    "Populated shards left unsearched by web-tier brownout degradation",
)
_DEADLINE_SKIPS = _REG.counter(
    "repro_cluster_deadline_skipped_shards_total",
    "Populated shards never attempted because the request deadline had expired",
)
_UNROUTED_SKIPS = _REG.counter(
    "repro_cluster_unrouted_shards_total",
    "Populated shards deliberately not fanned out to because the "
    "candidate router nominated other shards (pruning, not faults)",
)
_REPLICA_RETRIES = _REG.counter(
    "repro_cluster_replica_retries_total",
    "Read slices transparently retried on a sibling replica after the "
    "chosen reader failed (the shard only lands in unsearched_shards "
    "when every serving replica is exhausted)",
)
_SCALE_EVENTS = _REG.counter(
    "repro_cluster_scale_events_total",
    "Fleet topology changes (shards commissioned/decommissioned, "
    "replicas attached/detached)",
    ("action",),
)
_ROUTER_HITS = _REG.counter(
    "repro_router_candidate_hit_total",
    "Routed searches by whether the pruned gather still produced a "
    "scoring match (a live proxy for candidate recall; the routing "
    "bench measures true recall against the exhaustive path)",
    ("result",),
)
_SEARCH_SINGLE = _SEARCHES.labels(kind="single")
_SEARCH_GROUP = _SEARCHES.labels(kind="group")


def _jitter_draw(seed: int, *parts: object) -> float:
    """Reproducible uniform in [0, 1) keyed on ``parts`` (same recipe
    as :mod:`repro.distributed.faults` — no global RNG, no ordering
    sensitivity)."""
    token = ":".join(str(p) for p in (seed, *parts)).encode()
    digest = hashlib.blake2b(token, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """Per-node retry/timeout knobs for scatter-gather searches.

    A node attempt fails on a transient error or when its simulated
    latency exceeds ``timeout_us`` (0 disables the timeout).  Failed
    attempts are retried up to ``max_attempts`` total, waiting
    ``backoff_us * backoff_multiplier**retry`` of simulated time before
    each retry; a node that exhausts its attempts is skipped and its
    shard reported unsearched.

    ``jitter_fraction`` opts into deterministic *full jitter*: each
    wait is scaled by ``1 - jitter_fraction * u`` with ``u`` a hashed
    uniform draw keyed on ``(jitter_seed, key, retry_index)``, so
    synchronized retries against a recovering node de-correlate
    (thundering-herd avoidance) while every run replays bit-identically.
    At the default ``jitter_fraction=0`` the waits are exactly the
    un-jittered schedule.
    """

    max_attempts: int = 3
    timeout_us: float = 0.0
    backoff_us: float = 1000.0
    backoff_multiplier: float = 2.0
    jitter_fraction: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_us < 0 or self.backoff_us < 0:
            raise ValueError("timeout_us and backoff_us must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError(
                f"jitter_fraction must be in [0, 1], got {self.jitter_fraction}"
            )

    def backoff_for(self, retry_index: int, key: object = None) -> float:
        """Simulated wait before the ``retry_index``-th retry (0-based).

        ``key`` scopes the jitter draw (callers pass the node id so
        distinct nodes de-correlate); it is ignored when
        ``jitter_fraction`` is 0, which returns the exact un-jittered
        schedule bit-for-bit.
        """
        base = self.backoff_us * self.backoff_multiplier**retry_index
        if self.jitter_fraction == 0.0:
            return base
        u = _jitter_draw(self.jitter_seed, key, retry_index)
        return base * (1.0 - self.jitter_fraction * u)


@dataclass
class ClusterSearchResult:
    """Scatter-gather outcome across the whole cluster.

    ``partial`` is True when at least one populated shard could not be
    searched (its node was down, timing out, breaker-open, shed by
    brownout, or erroring past the retry budget) *or* when any node
    answered with a deadline-truncated sweep; ``unsearched_shards``
    lists skipped node ids and ``retries`` counts the extra attempts
    the gather spent.  ``deadline_expired`` is True when the request
    deadline cut the gather short — whole shards skipped, or per-node
    sweeps truncated mid-scan (the matches on the shards that *were*
    searched are bit-identical to a full search's).

    Routing metadata is kept strictly apart from fault metadata:
    ``routed`` marks a search whose fan-out was pruned by the
    candidate router, ``unrouted_shards`` lists populated shards the
    router deliberately did not nominate (never counted in
    ``unsearched_shards`` and never setting ``partial`` — pruning is
    a first-tier decision, not a failure), and ``images_pruned``
    totals the cached images the nominated shards' engines skipped.
    ``cascade_pruned`` totals the images whose exact GEMM a cascade
    prefilter backend skipped across the answering shards (those
    images still count into ``images_searched``).
    """

    matches: list[ImageMatch]
    per_node: dict[str, SearchResult]
    elapsed_us: float
    images_searched: int
    partial: bool = False
    unsearched_shards: list[str] = field(default_factory=list)
    retries: int = 0
    deadline_expired: bool = False
    routed: bool = False
    unrouted_shards: list[str] = field(default_factory=list)
    images_pruned: int = 0
    cascade_pruned: int = 0
    #: index epoch each answering shard's corpus was at while it was
    #: searched — the read-your-writes handle: a client holding an
    #: :class:`~repro.distributed.enrollment.EnrollmentAck` checks
    #: ``corpus_epoch[ack.node_id] >= ack.epoch`` to confirm the search
    #: observed its enrollment.
    corpus_epoch: dict[str, int] = field(default_factory=dict)

    def best(self) -> ImageMatch | None:
        if not self.matches:
            return None
        return max(self.matches, key=lambda m: (m.score, m.reference_id != ""))

    def top(self, count: int = 1) -> list[ImageMatch]:
        return sorted(self.matches, key=lambda m: (-m.score, m.reference_id))[:count]

    @property
    def throughput_images_per_s(self) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return self.images_searched / (self.elapsed_us * 1e-6)


@dataclass
class ClusterGroupResult:
    """Outcome of one fused query-group scatter-gather.

    ``results`` holds one :class:`ClusterSearchResult` per query in
    submission order.  Partial-result metadata propagates *per query*:
    each member carries its own ``partial`` flag and its own (private)
    ``unsearched_shards`` list — a shard that died mid-group leaves
    every member of the group flagged, and downstream consumers (the
    serving tier fuses queries from unrelated requests into one group)
    can attach or mutate one request's metadata without aliasing
    another's.
    """

    results: list[ClusterSearchResult] = field(default_factory=list)
    elapsed_us: float = 0.0
    retries: int = 0
    unsearched_shards: list[str] = field(default_factory=list)
    deadline_expired: bool = False
    routed: bool = False
    unrouted_shards: list[str] = field(default_factory=list)
    images_pruned: int = 0
    cascade_pruned: int = 0
    #: shard -> index epoch observed during the gather (see
    #: :attr:`ClusterSearchResult.corpus_epoch`).
    corpus_epoch: dict[str, int] = field(default_factory=dict)

    @property
    def group_size(self) -> int:
        return len(self.results)

    @property
    def partial(self) -> bool:
        return bool(self.unsearched_shards) or self.deadline_expired


class _AllowedReplicas:
    """One shard's readers whose circuit breaker lets work through, in
    reader order.  Each breaker is consulted (and, when open, counts a
    skip toward its cooldown) only when the gather first reaches that
    replica, i.e. when it is about to send the replica work."""

    def __init__(self, readers: list[SearchNode]) -> None:
        self._pending = iter(readers)
        self.nodes: list[SearchNode] = []

    def _get(self, k: int) -> SearchNode | None:
        """The ``k``-th allowed replica, consulting breakers as needed."""
        while len(self.nodes) <= k:
            replica = next(self._pending, None)
            if replica is None:
                return None
            if replica.breaker is not None and not replica.breaker.allow():
                _BREAKER_SKIPS.inc()
                continue
            self.nodes.append(replica)
        return self.nodes[k]

    def take(self, count: int) -> list[SearchNode]:
        """Up to ``count`` allowed replicas: one per slice."""
        self._get(count - 1)
        return self.nodes[:count]

    def rotation(self, start: int):
        """Failover order for slice ``start``: its own replica, the
        allowed replicas after it (drawn lazily), then those before."""
        k = start
        while (replica := self._get(k)) is not None:
            yield replica
            k += 1
        yield from self.nodes[:start]


class DistributedSearchSystem:
    """Fourteen-GPU-container texture identification service (scalable
    to any node count)."""

    def __init__(
        self,
        n_nodes: int = 14,
        engine_config: EngineConfig | None = None,
        device_spec: DeviceSpec = TESLA_P100,
        node_config: NodeConfig | None = None,
        store: KVStore | None = None,
        placement: str = "round-robin",
        retry_policy: RetryPolicy | None = None,
        min_shard_fraction: float = 0.0,
        auto_failover: bool = True,
        fault_injector=None,
        health_policy=None,
        breaker_policy: BreakerPolicy | None = None,
        router_policy: RouterPolicy | None = None,
        replication_factor: int = 1,
    ) -> None:
        if n_nodes < 1:
            raise ClusterError("a cluster needs at least one node")
        if not 0.0 <= min_shard_fraction <= 1.0:
            raise ClusterError("min_shard_fraction must be in [0, 1]")
        if replication_factor < 1:
            raise ClusterError("replication_factor must be >= 1")
        self.engine_config = engine_config or EngineConfig(m=384, n=768)
        self.store = store or KVStore()
        #: durable per-shard epoch marks + deletion tombstones (the
        #: epoched-corpus contract lives in the KV store, like the
        #: feature blobs it protects).
        self.epochs = EpochRegistry(self.store)
        self.tombstones = TombstoneLog(self.store)
        self.retry_policy = retry_policy or RetryPolicy()
        self.min_shard_fraction = float(min_shard_fraction)
        self.auto_failover = bool(auto_failover)
        #: two-tier retrieval: ``None`` keeps the exhaustive
        #: scatter-gather bit-identical to the pre-routing system.
        self.router_policy = router_policy
        self._router: CandidateRouter | None = None
        self._node_config = node_config
        self._device_spec = device_spec
        self._health_policy = health_policy
        self._breaker_policy = breaker_policy
        self._node_seq = n_nodes  # next fresh node index (ids are never reused)
        self.fault_injector = None
        self.replication_factor = int(replication_factor)
        #: autoscaler attached via :meth:`Autoscaler.attach` (stats only).
        self.autoscaler = None
        #: node-seconds cost accounting on the simulated clock.
        self._node_started_us: dict[str, float] = {}
        self._node_seconds_retired = 0.0
        self.nodes = [
            SearchNode(
                f"gpu-{i:02d}", self.engine_config, device_spec, node_config,
                health_policy=health_policy, breaker_policy=breaker_policy,
            )
            for i in range(n_nodes)
        ]
        #: shard_id -> the replica group serving that shard.  Shard ids
        #: are minted from the founding primary's node id, so with
        #: ``replication_factor=1`` the topology (and every result
        #: payload keyed by shard) is bit-identical to the pre-replica
        #: system.
        self.groups: dict[str, ReplicaGroup] = {}
        for node in self.nodes:
            # a rebuilt cluster over a pre-existing store continues each
            # shard's epoch sequence instead of restarting from zero
            node.epoch = self.epochs.get(node.node_id)
            self.groups[node.node_id] = ReplicaGroup(node.node_id, [node])
            self._stamp_start(node)
        from .sharding import ConsistentHashPlacement, RoundRobinPlacement

        shard_ids = [node.node_id for node in self.nodes]
        if placement == "round-robin":
            self.placement = RoundRobinPlacement(shard_ids)
        elif placement == "consistent-hash":
            self.placement = ConsistentHashPlacement(shard_ids)
        else:
            raise ClusterError(f"unknown placement policy {placement!r}")
        self._placement: dict[str, str] = {}
        if fault_injector is not None:
            fault_injector.install(self)
        for shard_id in list(self.groups):
            for _ in range(self.replication_factor - 1):
                self.add_replica(shard_id)

    # ------------------------------------------------------------------
    def _node_by_id(self, node_id: str) -> SearchNode:
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        raise ClusterError(f"unknown node {node_id!r}")

    def _group_for_shard(self, shard_id: str) -> ReplicaGroup:
        try:
            return self.groups[shard_id]
        except KeyError:
            raise ClusterError(f"unknown shard {shard_id!r}") from None

    def _group_of_node(self, node_id: str) -> ReplicaGroup | None:
        for group in self.groups.values():
            if group.get(node_id) is not None:
                return group
        return None

    def _clock_us(self) -> float | None:
        """Current simulated instant, or ``None`` when no telemetry
        clock is installed (then warm-up/drain time is not modelled)."""
        recorder = _ts_recorder()
        return recorder.now_us if recorder is not None else None

    def _stamp_start(self, node: SearchNode) -> None:
        now = self._clock_us()
        self._node_started_us[node.node_id] = 0.0 if now is None else now

    def _retire_node(self, node: SearchNode) -> None:
        started = self._node_started_us.pop(node.node_id, None)
        now = self._clock_us()
        if started is not None and now is not None:
            self._node_seconds_retired += max(now - started, 0.0) / 1e6

    def node_seconds(self) -> float:
        """Fleet cost so far in node-seconds of simulated time (retired
        nodes' lifetimes plus every live node's time since attach)."""
        total = self._node_seconds_retired
        now = self._clock_us()
        if now is None:
            return total
        for node in self.nodes:
            started = self._node_started_us.get(node.node_id)
            if started is not None:
                total += max(now - started, 0.0) / 1e6
        return total

    def _replica_unreachable(self, node: SearchNode) -> bool:
        """Whether a mutation cannot land on this replica right now (it
        is behind from here on; repair detaches it when siblings hold
        the shard)."""
        if node.health.state is NodeHealth.DOWN:
            return True
        return (
            self.fault_injector is not None
            and self.fault_injector.is_crashed(node.node_id)
        )

    def _mutate_group(self, group: ReplicaGroup, op) -> None:
        """Apply one corpus mutation to every replica of ``group`` so
        all replicas advance the same epoch sequence in lockstep.

        Warming and draining replicas are included (they must stay
        consistent for promotion / in-flight work).  An unreachable
        replica is skipped *only when siblings exist* — it has diverged
        and repair will detach it; a single-replica shard mutates
        unconditionally, exactly the pre-replica behaviour (the KV
        store remains the system of record either way).
        """
        siblings = len(group.nodes) > 1
        for node in group.nodes:
            if siblings and self._replica_unreachable(node):
                continue
            op(node)

    def add(self, ref_id: str, descriptors: np.ndarray) -> str:
        """Enrol a reference; returns the shard that owns it.

        The raw descriptors are also persisted in the KV store (the
        system of record) so containers can re-hydrate after restarts.
        Every replica of the owning shard observes the mutation, so the
        group's ``corpus_epoch`` advances in lockstep.
        """
        ref_id = str(ref_id)
        record = FeatureRecord(
            ref_id=ref_id,
            matrix=np.asarray(descriptors, dtype=np.float32),
            precision="fp32",
            scale=1.0,
        )
        self.store.set(f"feature:{ref_id}", serialize_record(record))
        if ref_id in self._placement:
            group = self._group_for_shard(self._placement[ref_id])  # update in place
        else:
            group = self._group_for_shard(self.placement.place(ref_id))
            self._placement[ref_id] = group.shard_id
        self._mutate_group(group, lambda node: node.add(ref_id, descriptors))
        self.store.hset("placement", ref_id, group.shard_id.encode())
        # the blob supersedes any earlier delete of this id; clearing
        # the tombstone makes re-enrollment a fresh logical record
        self.tombstones.clear(ref_id)
        self.epochs.record(group.shard_id, group.epoch)
        if self._router is not None:
            self._router.add(ref_id, record.matrix, group.shard_id)
        return group.shard_id

    def enroll(self, ref_id: str, descriptors: np.ndarray) -> EnrollmentAck:
        """Online enrollment under live traffic; returns an ack whose
        ``epoch`` gives the client read-your-writes (see
        :attr:`ClusterSearchResult.corpus_epoch`).

        Unlike bulk :meth:`add`, the target shard's fault gate runs
        *before* anything is persisted: a crashed or flaky node raises
        (:class:`~repro.errors.NodeDownError` /
        :class:`~repro.errors.TransientNodeError`) and neither the KV
        store nor the placement map mutates — the client can retry,
        and after auto-failover the retry lands on a healthy owner.
        """
        ref_id = str(ref_id)
        with _TRACER.span("enroll", layer="cluster", ref=ref_id, op="enroll") as span:
            updated = ref_id in self._placement
            # peek, don't place: the gate must run against the shard
            # add() will commit to, and round-robin's place() consumes
            # its cursor
            target = self._placement.get(ref_id) or self.placement.peek(ref_id)
            group = self._group_for_shard(target)
            # gate the *full* replica set, not just the primary: the
            # mutation must land on every active replica to keep the
            # group's epochs in lockstep, so any crashed/flaky replica
            # fails the enrollment before anything is persisted
            for replica in group.active():
                replica._gate()
            shard_id = self.add(ref_id, descriptors)
            epoch = self.epochs.get(shard_id)
            count_op("update" if updated else "enroll")
            if span is not None:
                span.set(node=shard_id, epoch=epoch, updated=updated)
        _ts_advance_by(WEB_TIER_OVERHEAD_US)
        return EnrollmentAck(
            ref_id=ref_id, node_id=shard_id, epoch=epoch, updated=updated
        )

    def remove(self, ref_id: str) -> bool:
        ref_id = str(ref_id)
        shard_id = self._placement.pop(ref_id, None)
        if shard_id is None:
            return False
        group = self._group_for_shard(shard_id)
        # tombstone first: whatever replays after a crash from here on
        # (re-hydration, replica warm-up, cache warming) sees the
        # delete — a replica that missed this mutation can never
        # resurrect the reference on any sibling
        self.tombstones.mark(ref_id, shard_id, group.epoch + 1)
        self._mutate_group(group, lambda node: node.remove(ref_id))
        self.epochs.record(shard_id, group.epoch)
        self.store.delete(f"feature:{ref_id}")
        self.store.hdel("placement", ref_id)
        if self._router is not None:
            self._router.remove(ref_id)
        return True

    def delete(self, ref_id: str) -> DeletionAck:
        """Online deletion; idempotent (deleting an unknown id still
        writes a tombstone so a racing re-hydration of a stale blob
        cannot resurrect it)."""
        ref_id = str(ref_id)
        with _TRACER.span("enroll", layer="cluster", ref=ref_id, op="delete") as span:
            owner = self._placement.get(ref_id)
            if owner is not None:
                deleted = self.remove(ref_id)
                epoch = self.epochs.get(owner)
            else:
                self.tombstones.mark(ref_id, "", 0)
                deleted = False
                epoch = 0
            count_op("delete")
            if span is not None:
                span.set(node=owner or "", epoch=epoch, deleted=deleted)
        _ts_advance_by(WEB_TIER_OVERHEAD_US)
        return DeletionAck(
            ref_id=ref_id, node_id=owner or "", epoch=epoch, deleted=deleted
        )

    def has(self, ref_id: str) -> bool:
        return str(ref_id) in self._placement

    def get_record_bytes(self, ref_id: str) -> bytes | None:
        return self.store.get(f"feature:{ref_id}")

    # ------------------------------------------------------------------
    # elasticity / failover
    # ------------------------------------------------------------------
    def _mint_node(self, device_spec: DeviceSpec | None = None) -> SearchNode:
        """Mint a fresh GPU container with the next id in the sequence.

        Ids are minted from a monotonically increasing sequence, never
        from the current node count: after ``remove_node`` the count
        shrinks, and reusing it would mint an id that already exists,
        corrupting placement.
        """
        node = SearchNode(
            f"gpu-{self._node_seq:02d}",
            self.engine_config,
            device_spec or self.nodes[0].engine.device.spec,
            self._node_config,
            health_policy=self._health_policy,
            breaker_policy=self._breaker_policy,
        )
        self._node_seq += 1
        if self.fault_injector is not None:
            node.fault_injector = self.fault_injector
        return node

    def add_node(self, device_spec: DeviceSpec | None = None) -> SearchNode:
        """Attach a fresh (empty) GPU container as a new shard."""
        node = self._mint_node(device_spec)
        node.epoch = self.epochs.get(node.node_id)
        self.nodes.append(node)
        self.groups[node.node_id] = ReplicaGroup(node.node_id, [node])
        self.placement.add_node(node.node_id)
        self._stamp_start(node)
        _SCALE_EVENTS.labels(action="add_shard").inc()
        return node

    def add_replica(self, shard_id: str) -> SearchNode:
        """Attach a fresh replica to an existing shard's group.

        The replica warms its hybrid cache from the KV store (the
        system of record; tombstoned references are skipped so a delete
        that raced the warm-up never resurrects), syncs its index epoch
        from the durable registry, and — when a telemetry clock is
        installed — enters ``WARMING`` until its readiness gate at
        ``now + WARMUP_BASE_US + WARMUP_US_PER_REF * n_refs`` passes.
        It observes corpus mutations from the moment it is attached, so
        it is consistent the instant it starts serving.
        """
        group = self._group_for_shard(shard_id)
        node = self._mint_node()
        with _TRACER.span(
            "cluster.add_replica", layer="cluster", shard=shard_id,
        ) as span:
            keys = [
                f"feature:{ref}"
                for ref, owner in sorted(self._placement.items())
                if owner == group.shard_id
            ]
            loaded = node.hydrate_from_store(self.store, keys)
            node.epoch = max(self.epochs.get(group.shard_id), group.epoch)
            now = self._clock_us()
            if now is not None:
                node.replica_state = ReplicaState.WARMING
                node.ready_at_us = (
                    now + WARMUP_BASE_US + WARMUP_US_PER_REF * node.n_references
                )
            self.nodes.append(node)
            group.attach(node)
            self._stamp_start(node)
            if span is not None:
                span.set(node=node.node_id, warmed=loaded)
        _SCALE_EVENTS.labels(action="add_replica").inc()
        return node

    def remove_replica(self, shard_id: str, node_id: str | None = None) -> SearchNode:
        """Gracefully shrink a shard's group by one replica.

        The chosen replica (the newest attached, unless ``node_id``
        picks one) stops taking new reads immediately, keeps observing
        mutations while it finishes in-flight work, and is detached
        after ``DRAIN_GRACE_US`` of simulated time by
        :meth:`poll_lifecycle` (immediately when no clock is
        installed).  The last replica of a shard cannot be removed this
        way — that is shard decommissioning (:meth:`remove_node`).
        """
        group = self._group_for_shard(shard_id)
        active = group.active()
        if len(active) <= 1:
            raise ClusterError(
                f"cannot remove the last replica of shard {shard_id!r}; "
                "use remove_node to decommission the shard"
            )
        node = group.get(node_id) if node_id is not None else active[-1]
        if node is None:
            raise ClusterError(f"shard {shard_id!r} has no replica {node_id!r}")
        if node.replica_state is ReplicaState.DRAINING:
            return node
        now = self._clock_us()
        node.replica_state = ReplicaState.DRAINING
        node.draining_since_us = 0.0 if now is None else now
        _SCALE_EVENTS.labels(action="remove_replica").inc()
        self.poll_lifecycle()
        return node

    def poll_lifecycle(self) -> list[str]:
        """Advance replica lifecycles on the simulated clock: promote
        warming replicas whose readiness gate passed, detach draining
        replicas whose grace elapsed.  Returns the detached node ids."""
        now = self._clock_us()
        detached: list[str] = []
        for group in self.groups.values():
            group.promote_ready(now)
            for node in group.drained(now):
                if len(group.nodes) <= 1:
                    continue  # never drain away a shard's only replica
                self._detach_replica(group, node)
                detached.append(node.node_id)
        return detached

    def _detach_replica(self, group: ReplicaGroup, node: SearchNode) -> None:
        """Drop one replica from its group (siblings keep the shard, so
        nothing re-hydrates and no placement changes)."""
        group.detach(node.node_id)
        self.nodes.remove(node)
        self._retire_node(node)

    def remove_node(self, node_id: str) -> int:
        """Decommission a container.

        A container whose replica group has siblings is simply detached
        — the siblings keep serving the shard, nothing moves.  The last
        replica of a shard decommissions the whole shard: the KV store
        is the system of record (Sec. 8), so the departing shard's
        references are re-hydrated from their serialized records onto
        the surviving shards round-robin.  Returns the number of
        references reassigned.  Removing the last node raises.
        """
        victim = self._node_by_id(node_id)
        group = self._group_of_node(node_id)
        if group is not None and len(group.nodes) > 1:
            self._detach_replica(group, victim)
            _SCALE_EVENTS.labels(action="remove_replica").inc()
            return 0
        if len(self.nodes) <= 1:
            raise ClusterError("cannot remove the last node")
        shard_id = victim.shard_id
        self.nodes.remove(victim)
        self.groups.pop(shard_id, None)
        self._retire_node(victim)
        self.placement.remove_node(shard_id)
        _SCALE_EVENTS.labels(action="remove_shard").inc()
        orphaned = [ref for ref, owner in self._placement.items() if owner == shard_id]
        adopters: set[str] = set()
        for ref_id in orphaned:
            blob = self.store.get(f"feature:{ref_id}")
            if blob is None or self.tombstones.contains(ref_id):
                # record lost with the node — or deleted while the node
                # was dying (the tombstone outlives the blob, so a
                # stale blob can never resurrect a deleted reference):
                # drop the placement entry either way
                del self._placement[ref_id]
                self.store.hdel("placement", ref_id)
                if self._router is not None:
                    self._router.remove(ref_id)
                continue
            adopter = self._group_for_shard(self.placement.place(ref_id))
            record = deserialize_record(blob)
            self._mutate_group(adopter, lambda node: node.add_record(record))
            self._placement[ref_id] = adopter.shard_id
            self.store.hset("placement", ref_id, adopter.shard_id.encode())
            adopters.add(adopter.shard_id)
            if self._router is not None:
                self._router.reassign(ref_id, adopter.shard_id)
        # adopting shards advanced their epochs (re-hydration is a
        # mutation of their reference sets); the dead shard's mark is
        # retired with it
        for adopter_id in sorted(adopters):
            self.epochs.record(adopter_id, self._group_for_shard(adopter_id).epoch)
        self.epochs.forget(shard_id)
        return len(orphaned)

    # ------------------------------------------------------------------
    # two-tier retrieval: the coarse candidate-routing tier
    # ------------------------------------------------------------------
    def build_router(self) -> CandidateRouter:
        """(Re)build the coarse routing tier from the system of record.

        The router trains on the raw descriptor records persisted in
        the KV store (``feature:*``) — the same blobs failover
        re-hydrates from — pooled to one vector per reference, with
        shard ownership taken from the live placement map.  References
        whose blobs were lost with a dead node are unroutable and
        excluded (they are equally unsearchable by the exhaustive
        path).  Subsequent :meth:`add` / :meth:`remove` /
        :meth:`remove_node` calls keep the router's corpus in sync;
        the routing index itself rebuilds lazily on the next
        nomination after a mutation.
        """
        if self.router_policy is None:
            raise ClusterError("cluster has no router_policy configured")
        router = _make_router(self.router_policy, d=self.engine_config.d)
        for ref_id, node_id in self._placement.items():
            blob = self.store.get(f"feature:{ref_id}")
            if blob is None:
                continue
            record = deserialize_record(blob)
            matrix = record.matrix.astype(np.float32)
            if record.precision == "fp16" and record.scale != 1.0:
                matrix = matrix / np.float32(record.scale)
            router.add(ref_id, matrix, node_id)
        router.fit()
        self._router = router
        return router

    @property
    def router(self) -> CandidateRouter | None:
        """The active routing tier (``None`` until the first routed
        search builds it, or when no ``router_policy`` is set)."""
        return self._router

    def _route(
        self,
        query_descriptor_list: list[np.ndarray],
        nprobe: int | None,
        recall_target: float | None,
    ) -> RouteDecision | None:
        """First-tier nomination for one query group, or ``None`` when
        routing is disabled."""
        if self.router_policy is None:
            return None
        if self._router is None:
            self.build_router()
        return self._router.nominate_group(query_descriptor_list, nprobe, recall_target)

    def _partition_routed(
        self, populated: list[ReplicaGroup], route: RouteDecision | None
    ) -> tuple[list[ReplicaGroup], list[str], bool]:
        """Split the populated shard set by the route's nomination.

        Returns ``(nominated_groups, unrouted_shard_ids, routed)``;
        an exhaustive (or absent) route nominates everything.
        """
        if route is None or route.exhaustive:
            return populated, [], False
        shard_set = set(route.shard_ids)
        nominated = [g for g in populated if g.shard_id in shard_set]
        unrouted = [g.shard_id for g in populated if g.shard_id not in shard_set]
        if unrouted:
            _UNROUTED_SKIPS.inc(len(unrouted))
        return nominated, unrouted, True

    # ------------------------------------------------------------------
    # fault-tolerant scatter-gather
    # ------------------------------------------------------------------
    def _attempt_with_retry(self, node: SearchNode, op):
        """Run one node operation under the retry policy.

        ``op(node)`` must return ``(payload, elapsed_us)``.  Returns
        ``(payload | None, node_time_us, retries)``: ``None`` means the
        shard went unsearched; ``node_time_us`` is the simulated time
        this node kept the gather waiting (failed attempts included).

        Every attempt outcome feeds the node's circuit breaker (when
        one is configured), and backoff waits are charged against the
        ambient request deadline so a retry storm cannot hide from the
        budget.
        """
        policy = self.retry_policy
        deadline = current_deadline()
        breaker = node.breaker
        spent_us = 0.0
        retries = 0

        def _wait(attempt: int) -> float:
            wait_us = policy.backoff_for(attempt, key=node.node_id)
            if deadline is not None:
                deadline.charge(wait_us)
            return wait_us

        for attempt in range(policy.max_attempts):
            try:
                payload, elapsed_us = op(node)
            except NodeDownError:
                # a dead container fails fast; no point retrying it
                if breaker is not None:
                    breaker.record_failure()
                return None, spent_us, retries
            except TransientNodeError:
                if breaker is not None:
                    breaker.record_failure()
                if node.health.state is NodeHealth.DOWN:
                    # the failure streak just crossed the down threshold
                    return None, spent_us, retries
                if attempt + 1 >= policy.max_attempts:
                    return None, spent_us, retries
                spent_us += _wait(attempt)
                retries += 1
                continue
            if policy.timeout_us and elapsed_us > policy.timeout_us:
                # the caller hangs up at the deadline; the node's work
                # past it is wasted, so only the budget is charged
                spent_us += policy.timeout_us
                node.health.record_failure()
                if breaker is not None:
                    breaker.record_failure()
                if deadline is not None:
                    # the engine charged its full sweep while running;
                    # refund the portion past the hang-up point
                    deadline.spent_us -= max(elapsed_us - policy.timeout_us, 0.0)
                if node.health.state is NodeHealth.DOWN or attempt + 1 >= policy.max_attempts:
                    return None, spent_us, retries
                spent_us += _wait(attempt)
                retries += 1
                continue
            if breaker is not None:
                breaker.record_success()
            return payload, spent_us + elapsed_us, retries
        return None, spent_us, retries

    def _populated_nodes(self) -> list[SearchNode]:
        return [node for node in self.nodes if node.n_references > 0]

    def _populated_groups(self) -> list[ReplicaGroup]:
        return [g for g in self.groups.values() if g.n_references > 0]

    def _gather_targets(self, populated: list[ReplicaGroup]) -> tuple[list[ReplicaGroup], list[str]]:
        """Apply any ambient brownout to the fan-out target set.

        When the web tier has entered brownout
        (:func:`repro.obs.brownout_scope`), the gather degrades to a
        fraction of the populated shards instead of rejecting the
        request outright.  The fraction is floored at
        ``min_shard_fraction`` so a brownout can never *itself* trip
        :class:`DegradedClusterError`.  Returns ``(targets,
        skipped_shard_ids)``.
        """
        fraction = current_brownout()
        if fraction is None or not populated:
            return populated, []
        fraction = max(fraction, self.min_shard_fraction)
        keep = max(1, math.ceil(fraction * len(populated)))
        if keep >= len(populated):
            return populated, []
        skipped = [group.shard_id for group in populated[keep:]]
        _BROWNOUT_SKIPS.inc(len(skipped))
        return populated[:keep], skipped

    @staticmethod
    def _record_gather(search_counter, retries: int, unsearched: list[str]) -> None:
        """Fault-tolerance accounting for one completed scatter-gather."""
        search_counter.inc()
        if retries:
            _RETRIES.inc(retries)
        if unsearched:
            _UNSEARCHED.inc(len(unsearched))
            _PARTIALS.inc()

    def _check_degradation(self, populated: list[SearchNode], unsearched: list[str]) -> None:
        searched = len(populated) - len(unsearched)
        if populated and searched / len(populated) < self.min_shard_fraction:
            raise DegradedClusterError(searched, len(populated), self.min_shard_fraction)

    def search(
        self,
        query_descriptors: np.ndarray,
        nprobe: int | None = None,
        recall_target: float | None = None,
    ) -> ClusterSearchResult:
        """Scatter the query to all serving nodes, gather and rank: the
        group of one (see :meth:`search_group`)."""
        return self._scatter_gather(
            [query_descriptors], nprobe, recall_target, "cluster.search", _SEARCH_SINGLE
        ).results[0]

    def search_group(
        self,
        query_descriptor_list: list[np.ndarray],
        nprobe: int | None = None,
        recall_target: float | None = None,
    ) -> ClusterGroupResult:
        """Fused query-group scatter-gather (Sec. 5.3 applied
        cluster-wide) — the serving tier's unit of work."""
        if not query_descriptor_list:
            return ClusterGroupResult()
        return self._scatter_gather(
            query_descriptor_list, nprobe, recall_target,
            "cluster.search_group", _SEARCH_GROUP,
        )

    def _scatter_gather(
        self,
        query_descriptor_list: list[np.ndarray],
        nprobe: int | None,
        recall_target: float | None,
        span_name: str,
        search_counter,
    ) -> ClusterGroupResult:
        """Scatter a query group to all serving nodes, gather and rank.

        The fan-out is *per group*, not per query: each shard answers
        the group in one sweep per replica slice
        (:meth:`SearchNode.search_many`, one RPC and one fault/health
        gate per slice), and per-query results are gathered afterwards.
        All queries share the group's completion time.  A single search
        is the group of one.

        With a ``router_policy`` configured, the coarse routing tier
        first nominates candidate shards and per-shard candidate
        references — for a group, the *union* of the per-query
        nominations (:meth:`RouteDecision.merge`), and any member the
        router could not route falls the whole group back to
        exhaustive.  Only the nominated shards are fanned out to (the
        rest land in ``unrouted_shards`` — deliberate pruning, never
        ``partial``), and each nominated shard's engine restricts its
        exact sweep to the nominated references.  ``nprobe`` /
        ``recall_target`` override the policy per request.  A cluster
        without a policy is bit-identical to the pre-routing system.

        Read scaling: the group's queries are partitioned round-robin
        into one slice per serving replica (at most one per query);
        slices sweep concurrently, so the shard's time is the slowest
        slice.  A replica's circuit breaker is consulted only when the
        gather is about to send that replica a slice or fail over to
        it.  A failed slice is retried on the next sibling; a shard
        whose every allowed replica failed is reported unsearched.

        Nodes that are down, keep erroring, or exceed the per-attempt
        timeout are skipped after bounded retries: every query's result
        comes back ``partial=True`` with their shards listed in its own
        copy of ``unsearched_shards``.  If fewer than
        ``min_shard_fraction`` of the *nominated* populated shards
        answered, :class:`DegradedClusterError` is raised instead.
        With ``auto_failover`` enabled, nodes that went ``DOWN`` during
        the gather are decommissioned afterwards and their shards
        re-hydrated from the KV store onto the survivors.
        """
        n_queries = len(query_descriptor_list)
        with _TRACER.span(span_name, layer="cluster", queries=n_queries) as span:
            per_query_matches: list[list[ImageMatch]] = [[] for _ in range(n_queries)]
            per_node_all: list[dict[str, SearchResult]] = [dict() for _ in range(n_queries)]
            epochs_seen: dict[str, int] = {}
            per_query_images = [0] * n_queries
            per_query_pruned = [0] * n_queries
            per_query_cascade = [0] * n_queries
            slowest_us = 0.0
            retries = 0
            unsearched: list[str] = []
            truncated = False  # any node answered with a deadline-cut sweep
            route = self._route(query_descriptor_list, nprobe, recall_target)
            populated = self._populated_groups()
            nominated, unrouted, routed = self._partition_routed(populated, route)
            targets, brownout_skipped = self._gather_targets(nominated)
            deadline = current_deadline()
            fanout = DeadlineFanOut(deadline) if deadline is not None else None
            deadline_skipped: list[str] = []
            if fanout is not None and fanout.expired_at_entry:
                # the budget was gone before the fan-out even started
                deadline_skipped = [group.shard_id for group in targets]
                _DEADLINE_SKIPS.inc(len(deadline_skipped))
                targets = []
            for group in targets:
                candidates = (
                    frozenset(route.per_shard.get(group.shard_id, ()))
                    if routed else None
                )
                allowed = _AllowedReplicas(group.readers(self._clock_us()))
                n_workers = len(allowed.take(n_queries))
                if not n_workers:
                    unsearched.append(group.shard_id)
                    continue
                shard_us = 0.0
                shard_results: dict[int, SearchResult] = {}
                shard_failed = False
                for w in range(n_workers):
                    idxs = list(range(w, n_queries, n_workers))
                    queries = [query_descriptor_list[i] for i in idxs]

                    def op(n: SearchNode, q=queries, c=candidates):
                        grouped = n.search_many(q, candidate_ids=c)
                        return grouped, grouped[0].elapsed_us

                    grouped = None
                    slice_us = 0.0
                    for j, worker in enumerate(allowed.rotation(w)):
                        if j:
                            # the chosen reader failed; retry transparently
                            # on the next sibling before giving up the shard
                            _REPLICA_RETRIES.inc()
                        if fanout is not None:
                            with fanout.branch():
                                grouped, node_us, node_retries = self._attempt_with_retry(worker, op)
                        else:
                            grouped, node_us, node_retries = self._attempt_with_retry(worker, op)
                        slice_us += node_us  # sibling failover is sequential
                        retries += node_retries
                        if grouped is not None:
                            break
                    shard_us = max(shard_us, slice_us)  # slices run concurrently
                    if grouped is None:
                        shard_failed = True
                        break
                    for i, result in zip(idxs, grouped):
                        shard_results[i] = result
                slowest_us = max(slowest_us, shard_us)
                if shard_failed:
                    unsearched.append(group.shard_id)
                    continue
                epochs_seen[group.shard_id] = group.epoch
                for q in sorted(shard_results):
                    result = shard_results[q]
                    truncated = truncated or result.partial
                    per_query_matches[q].extend(result.matches)
                    per_node_all[q][group.shard_id] = result
                    per_query_images[q] += result.images_searched
                    per_query_pruned[q] += result.images_pruned
                    per_query_cascade[q] += result.cascade_pruned
            if fanout is not None:
                fanout.join()
            unsearched.extend(brownout_skipped)
            unsearched.extend(deadline_skipped)
            if self.auto_failover:
                self.repair()
            self._record_gather(search_counter, retries, unsearched)
            if routed:
                for q in range(n_queries):
                    hit = any(m.score > 0 for m in per_query_matches[q])
                    _ROUTER_HITS.labels(result="hit" if hit else "miss").inc()
            if span is not None:
                span.set(nodes=len(populated), retries=retries,
                         unsearched=len(unsearched),
                         unrouted=len(unrouted),
                         sim_elapsed_us=slowest_us + WEB_TIER_OVERHEAD_US)
            self._check_degradation(nominated, unsearched)
        elapsed = slowest_us + WEB_TIER_OVERHEAD_US
        deadline_expired = bool(deadline_skipped) or truncated
        # standalone searches drive the simulated telemetry clock
        # relatively (no-op under a serving loop's exclusive scope)
        _ts_advance_by(elapsed)
        return ClusterGroupResult(
            results=[
                ClusterSearchResult(
                    matches=per_query_matches[q],
                    per_node=per_node_all[q],
                    elapsed_us=elapsed,
                    images_searched=per_query_images[q],
                    partial=bool(unsearched) or deadline_expired,
                    unsearched_shards=list(unsearched),  # private copy per query
                    retries=retries,
                    deadline_expired=deadline_expired,
                    routed=routed,
                    unrouted_shards=list(unrouted),
                    images_pruned=per_query_pruned[q],
                    cascade_pruned=per_query_cascade[q],
                    corpus_epoch=dict(epochs_seen),  # private copy per query
                )
                for q in range(n_queries)
            ],
            elapsed_us=elapsed,
            retries=retries,
            unsearched_shards=list(unsearched),
            deadline_expired=deadline_expired,
            routed=routed,
            unrouted_shards=list(unrouted),
            images_pruned=max(per_query_pruned),
            cascade_pruned=max(per_query_cascade),
            corpus_epoch=dict(epochs_seen),
        )

    # ------------------------------------------------------------------
    # health / failover
    # ------------------------------------------------------------------
    def heartbeats(self) -> list[dict]:
        """Poll every container's health-check endpoint."""
        return [node.heartbeat() for node in self.nodes]

    def health_report(self) -> dict:
        """Cluster-level health rollup for the ``GET /health`` route."""
        beats = self.heartbeats()
        states = [beat["state"] for beat in beats]
        if all(state == NodeHealth.DOWN.value for state in states):
            status = "down"
        elif all(state == NodeHealth.UP.value for state in states):
            status = "up"
        else:
            status = "degraded"
        return {
            "status": status,
            "nodes": beats,
            "references": self.n_references,
            "min_shard_fraction": self.min_shard_fraction,
            "shards": {
                shard_id: [n.node_id for n in group.nodes]
                for shard_id, group in self.groups.items()
            },
        }

    def repair(self) -> list[str]:
        """Fail over every ``DOWN`` node.

        A dead replica whose group has siblings is simply detached —
        the surviving replicas already hold the shard at the current
        epoch, so failover costs nothing and no search ever degrades.
        A shard's *last* replica is decommissioned through the
        :meth:`remove_node` machinery: its placement entries are
        re-hydrated from the KV store onto the survivors (references
        whose blobs were lost are dropped).  The last node is never
        removed — an all-down cluster has nowhere to fail over to.
        Returns the ids of the nodes failed over.  Draining replicas
        whose grace elapsed are detached on the way.
        """
        self.poll_lifecycle()
        repaired: list[str] = []
        for node in list(self.nodes):
            if node.health.state is not NodeHealth.DOWN:
                continue
            group = self._group_of_node(node.node_id)
            if group is not None and len(group.nodes) > 1:
                self._detach_replica(group, node)
                repaired.append(node.node_id)
                _FAILOVERS.inc()
                continue
            if len(self.nodes) <= 1:
                break
            self.remove_node(node.node_id)
            repaired.append(node.node_id)
            _FAILOVERS.inc()
        return repaired

    # ------------------------------------------------------------------
    @property
    def n_references(self) -> int:
        return len(self._placement)

    def capacity_images(self) -> int:
        """Cluster capacity (Sec. 8: 10.8 M at m=384 FP16, 14 nodes)."""
        return sum(node.capacity_images() for node in self.nodes)

    def aggregate_throughput_images_per_s(self) -> float:
        """Sum of per-node steady-state search throughputs."""
        total = 0.0
        for node in self.nodes:
            total += node.engine.stats.mean_throughput_images_per_s
        return total

    def stats(self) -> dict:
        """Operational rollup for ``GET /stats``.

        ``schema_version`` is bumped whenever the payload shape
        changes so dashboards can gate on it.  The ``cache`` and
        ``fault_tolerance`` sections read the process-wide metrics
        registry (they aggregate over every engine in the process —
        one cluster per process in any real deployment).
        """
        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "nodes": [node.stats() for node in self.nodes],
            "references": self.n_references,
            "capacity_images": self.capacity_images(),
            "kv_keys": self.store.dbsize(),
            "cache": {
                "adds_total": _REG.value("repro_cache_adds_total"),
                "demotions_total": _REG.value("repro_cache_demotions_total"),
                "evictions_total": _REG.value("repro_cache_evictions_total"),
                "sweep_hits_total": _REG.value(
                    "repro_cache_sweep_lookups_total", result="hit"
                ),
                "sweep_misses_total": _REG.value(
                    "repro_cache_sweep_lookups_total", result="miss"
                ),
            },
            "fault_tolerance": {
                "searches_single_total": _REG.value(
                    "repro_cluster_searches_total", kind="single"
                ),
                "searches_group_total": _REG.value(
                    "repro_cluster_searches_total", kind="group"
                ),
                "retries_total": _REG.value("repro_cluster_retries_total"),
                "unsearched_shards_total": _REG.value(
                    "repro_cluster_unsearched_shards_total"
                ),
                "partial_results_total": _REG.value(
                    "repro_cluster_partial_results_total"
                ),
                "failovers_total": _REG.value("repro_cluster_failovers_total"),
            },
            "routing": {
                "enabled": self.router_policy is not None,
                "kind": self.router_policy.kind if self.router_policy else None,
                "nominations_routed_total": sum(
                    _REG.value(
                        "repro_router_nominations_total", kind=k, outcome="routed"
                    )
                    for k in ("ivf", "lsh")
                ),
                "nominations_exhaustive_total": sum(
                    _REG.value(
                        "repro_router_nominations_total", kind=k, outcome="exhaustive"
                    )
                    for k in ("ivf", "lsh")
                ),
                "candidate_hits_total": _REG.value(
                    "repro_router_candidate_hit_total", result="hit"
                ),
                "candidate_misses_total": _REG.value(
                    "repro_router_candidate_hit_total", result="miss"
                ),
                "unrouted_shards_total": _REG.value(
                    "repro_cluster_unrouted_shards_total"
                ),
                "images_pruned_total": _REG.value(
                    "repro_engine_images_pruned_total"
                ),
            },
            "cascade": {
                "enabled": any(
                    node.engine.kernel.has_prefilter for node in self.nodes
                ),
                "images_pruned_total": _REG.value(
                    "repro_engine_cascade_pruned_total"
                ),
            },
            "enrollment": {
                "enrolls_total": _REG.value(
                    "repro_enrollment_ops_total", op="enroll"
                ),
                "updates_total": _REG.value(
                    "repro_enrollment_ops_total", op="update"
                ),
                "deletes_total": _REG.value(
                    "repro_enrollment_ops_total", op="delete"
                ),
                "tombstones_live": len(self.tombstones),
                "epochs": self.epochs.snapshot(),
                "cache_removals_total": _REG.value("repro_cache_removals_total"),
                "router_refresh_incremental_total": sum(
                    _REG.value(
                        "repro_router_refresh_total", kind=k, mode="incremental"
                    )
                    for k in ("ivf", "lsh")
                ),
                "router_refresh_rebuild_total": sum(
                    _REG.value(
                        "repro_router_refresh_total", kind=k, mode="rebuild"
                    )
                    for k in ("ivf", "lsh")
                ),
            },
            "overload": {
                "shed_reject_new_total": _REG.value(
                    "repro_serving_shed_total", reason="reject-new"
                ),
                "shed_drop_oldest_total": _REG.value(
                    "repro_serving_shed_total", reason="drop-oldest"
                ),
                "shed_deadline_expired_total": _REG.value(
                    "repro_serving_shed_total", reason="deadline-expired"
                ),
                "deadline_expired_sweeps_total": _REG.value(
                    "repro_engine_deadline_expired_total"
                ),
                "deadline_skipped_shards_total": _REG.value(
                    "repro_cluster_deadline_skipped_shards_total"
                ),
                "breaker_skipped_total": _REG.value(
                    "repro_cluster_breaker_skipped_total"
                ),
                "breaker_opened_total": _REG.value(
                    "repro_breaker_transitions_total", to="open"
                ),
                "brownout_shards_skipped_total": _REG.value(
                    "repro_cluster_brownout_shards_skipped_total"
                ),
                "rate_limited_total": _REG.value("repro_web_rate_limited_total"),
                "brownout_requests_total": _REG.value("repro_web_brownout_total"),
            },
            "slo": self._slo_stats(),
            "elastic": self._elastic_stats(),
        }

    def elastic_report(self) -> dict:
        """Fleet elasticity rollup for the ``GET /elastic`` route: the
        stats v8 ``elastic`` block on its own, without the cost of the
        full :meth:`stats` payload."""
        return self._elastic_stats()

    def _elastic_stats(self) -> dict:
        """The schema-v8 ``"elastic"`` block: replica topology, replica
        lifecycle counts, fleet cost, and scaling-event counters.  The
        ``autoscaler`` side reports ``enabled: False`` until one is
        attached, so the key is always present and dashboards can gate
        on it."""
        states = [node.replica_state for node in self.nodes]
        block: dict = {
            "replication": {
                shard_id: len(group.nodes)
                for shard_id, group in self.groups.items()
            },
            "replicas_total": len(self.nodes),
            "shards_total": len(self.groups),
            "warming": sum(1 for s in states if s is ReplicaState.WARMING),
            "draining": sum(1 for s in states if s is ReplicaState.DRAINING),
            "node_seconds": self.node_seconds(),
            "scale_events": {
                action: _REG.value(
                    "repro_cluster_scale_events_total", action=action
                )
                for action in (
                    "add_shard", "remove_shard", "add_replica", "remove_replica"
                )
            },
            "replica_retries_total": _REG.value(
                "repro_cluster_replica_retries_total"
            ),
            "autoscaler": {"enabled": False},
        }
        if self.autoscaler is not None:
            block["autoscaler"] = {"enabled": True, **self.autoscaler.to_dict()}
        return block

    @staticmethod
    def _slo_stats() -> dict:
        """The schema-v7 ``"slo"`` block: state of the installed
        time-series recorder and SLO engine (both optional — the block
        reports ``enabled: False`` sides when nothing is installed, so
        the key is always present and dashboards can gate on it)."""
        recorder = _ts_recorder()
        engine = _slo_engine()
        block: dict = {
            "recorder": {"enabled": False},
            "engine": {"enabled": False},
            "transitions": {},
        }
        if recorder is not None:
            block["recorder"] = {
                "enabled": True,
                "interval_us": recorder.interval_us,
                "retention": recorder.retention,
                "now_us": recorder.now_us,
                "n_samples": len(recorder),
            }
        if engine is not None:
            block["engine"] = {"enabled": True, **engine.to_dict()}
            block["transitions"] = {
                state: sum(
                    _REG.value(
                        "repro_slo_transitions_total",
                        policy=policy.name, to=state,
                    )
                    for policy in engine.policies
                )
                for state in ("ok", "warning", "critical")
            }
        return block
