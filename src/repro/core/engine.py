"""The texture search engine — the paper's contributions, composed.

:class:`TextureSearchEngine` owns one simulated GPU, a hybrid feature
cache, an engine configuration and one *match kernel* (the pluggable
k-NN backend, see :mod:`repro.core.kernels` and
:mod:`repro.core.registry`), and exposes the paper's two tasks:

* :meth:`verify` — one-to-one verification of a (reference, query) pair;
* :meth:`search` — one-to-many search of a query against every cached
  reference image, batch by batch.

Every optimization is a config knob (precision, backend, batch size,
sort kind, streams, asymmetric m/n), so the benchmark harness can
reproduce each table by toggling exactly one of them.  All three entry
points run on a single private cache-sweep executor
(:meth:`_execute_sweep`) that owns the batch loop, H2D transfer
accounting, tombstone filtering, the multi-stream overlap correction
and stats — the kernels only see one batch at a time.

Timing: with a single stream the engine's event-driven device model is
exact (all stages serialise in-stream, as in Tables 1/3/5).  With
multiple streams the overlap is computed by the Table-6 steady-state
scheduler model, because real stream concurrency is a property the
serial NumPy execution cannot exhibit.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..cache.hybrid import CachedBatch, CacheLocation, HybridFeatureCache
from ..gpusim.device import TESLA_P100
from ..gpusim.engine_model import GPUDevice
from ..obs import current_deadline, default_registry, default_tracer
from ..pipeline.scheduler import plan_streams
from .batching import BatchBuilder, ReferenceBatch
from .config import EngineConfig
from .kernels import MatchKernel, PreparedQuery
from .registry import create_kernel
from .results import GroupSearchResult, ImageMatch, SearchResult

__all__ = ["TextureSearchEngine", "EngineStats"]

_REG = default_registry()
_TRACER = default_tracer()
_SWEEPS = _REG.counter(
    "repro_engine_sweeps_total",
    "Cache sweeps executed by search engines (search + fused groups)",
)
_SWEEP_US = _REG.histogram(
    "repro_engine_sweep_us",
    "Simulated time of one full cache sweep",
)
_STEP_US = _REG.histogram(
    "repro_engine_step_us",
    "Simulated per-sweep time by pipeline step (StepProfiler deltas)",
    ("step",),
)
_H2D_BYTES = _REG.counter(
    "repro_engine_h2d_bytes_total",
    "Bytes staged host-to-device for host-resident reference batches",
)
_SWEEP_LOOKUPS = _REG.counter(
    "repro_cache_sweep_lookups_total",
    "Reference-batch touches during sweeps, by cache residency",
    ("result",),
)
_DEADLINE_SWEEPS = _REG.counter(
    "repro_engine_deadline_expired_total",
    "Cache sweeps cut short by an expired request deadline",
)
_IMAGES_PRUNED = _REG.counter(
    "repro_engine_images_pruned_total",
    "Cached reference images skipped by candidate-routing restriction "
    "(first-tier pruning, not faults)",
)
_CASCADE_PRUNED = _REG.counter(
    "repro_engine_cascade_pruned_total",
    "Reference images whose exact GEMM was skipped by the cascade "
    "Hamming prefilter (the prune cost itself is still charged)",
)
#: pre-bound children — the sweep loop must not pay label resolution.
_SWEEP_HIT = _SWEEP_LOOKUPS.labels(result="hit")
_SWEEP_MISS = _SWEEP_LOOKUPS.labels(result="miss")

#: prefix of tombstoned slot ids (never collides with user ids, which
#: the REST layer validates).
_DEAD_PREFIX = "\x00dead:"


@dataclass
class EngineStats:
    """Aggregate simulated statistics for one engine."""

    references: int = 0
    searches: int = 0
    images_compared: int = 0
    total_search_us: float = 0.0
    step_times_us: dict = field(default_factory=dict)

    @property
    def mean_throughput_images_per_s(self) -> float:
        if self.total_search_us <= 0:
            return 0.0
        return self.images_compared / (self.total_search_us * 1e-6)


@dataclass
class _SweepOutcome:
    """What one cache sweep produced: per-query matches + accounting.

    ``images_skipped`` counts cached images the sweep never reached
    because the request's deadline expired mid-sweep; ``partial`` is
    True whenever that count is non-zero.  ``images_pruned`` counts
    images in batches the candidate restriction excluded — a
    deliberate first-tier decision that never marks the outcome
    partial.  ``cascade_pruned`` counts, per query, images whose exact
    GEMM the kernel's Hamming prefilter skipped — those images still
    count into ``images`` (they were examined and report zero matches),
    unlike routing-pruned ones.
    """

    per_query_matches: list[list[ImageMatch]]
    images: int
    elapsed_us: float
    images_skipped: int = 0
    images_pruned: int = 0
    cascade_pruned: list[int] = field(default_factory=list)

    @property
    def partial(self) -> bool:
        return self.images_skipped > 0

    def result(self, q: int) -> SearchResult:
        """Query ``q``'s view of the sweep."""
        return SearchResult(
            matches=self.per_query_matches[q],
            elapsed_us=self.elapsed_us,
            images_searched=self.images,
            partial=self.partial,
            images_skipped=self.images_skipped,
            images_pruned=self.images_pruned,
            cascade_pruned=self.cascade_pruned[q],
        )


class TextureSearchEngine:
    """One-GPU texture identification engine.

    Parameters
    ----------
    config:
        Optimization knobs; see :class:`EngineConfig`.  The
        ``backend`` field selects the match kernel.
    device:
        Simulated GPU (defaults to a fresh Tesla P100).
    host_cache_bytes:
        Second-level (host) cache budget; 0 disables the hybrid cache
        and the engine holds references in GPU memory only.
    gpu_cache_bytes:
        First-level budget; defaults to all free device memory.
    pinned:
        Host cache memory is pinned (Table 5).
    kernel:
        Pre-built :class:`~repro.core.kernels.MatchKernel` instance,
        overriding registry resolution (e.g. an ``LshKernel`` with
        non-default codec parameters).
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        device: GPUDevice | None = None,
        host_cache_bytes: int = 0,
        gpu_cache_bytes: int | None = None,
        pinned: bool = True,
        kernel: MatchKernel | None = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.kernel = kernel if kernel is not None else create_kernel(self.config)
        self.device = device or GPUDevice(TESLA_P100)
        self.cache = HybridFeatureCache(
            self.device,
            gpu_budget_bytes=gpu_cache_bytes,
            host_budget_bytes=host_cache_bytes,
            pinned=pinned,
        )
        cfg = self.config
        self._builder = BatchBuilder(
            batch_size=cfg.batch_size,
            d=cfg.d,
            m=cfg.m,
            keep_norms=self.kernel.needs_norms,
            keep_aux=self.kernel.needs_aux,
        )
        self.stats = EngineStats()
        #: live id -> (ReferenceBatch | None, slot index); ``None`` means
        #: the slot is still in the builder's pending batch.  Deleting or
        #: updating a reference renames its slot to a dead marker —
        #: batches are immutable, so the slot is still *compared* (honest
        #: cost) but its matches are dropped from results.
        self._locations: dict[str, tuple[ReferenceBatch | None, int]] = {}
        self._dead_slots = 0
        #: sealed batch id -> count of tombstoned slots.  When every
        #: slot of a batch is dead the whole batch is purged from the
        #: cache (capacity released in whole-batch units — swap
        #: accounting stays batch-granular).
        self._dead_in_batch: dict[int, int] = {}
        #: images_compared as of the last :meth:`reset_profile`, so
        #: profile-report means cover only the profiled window.
        self._images_at_profile_reset = 0

    @property
    def backend(self) -> str:
        """Name of the active match-kernel backend."""
        return self.kernel.name

    # ------------------------------------------------------------------
    # enrolment
    # ------------------------------------------------------------------
    def prepare_reference_matrix(self, descriptors: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Shape/normalise/quantise one reference descriptor matrix.

        Input is ``(d, count)`` FP32, response-ranked (the extractor's
        output order); output is the backend's cached representation:
        normalised if the kernel requires it, trimmed/zero-padded to
        ``m``, converted to engine precision, with ``N_R`` norms when
        the kernel needs them.
        """
        return self.kernel.prepare_reference(descriptors)

    def add_reference(self, ref_id: str, descriptors: np.ndarray) -> None:
        """Enrol one reference image's descriptors into the cache.

        Re-adding an existing id is an *update*: the old slot is
        tombstoned and the new matrix appended.
        """
        ref_id = str(ref_id)
        if ref_id in self._locations:
            self.remove_reference(ref_id)
        matrix, norms = self.prepare_reference_matrix(descriptors)
        aux = self.kernel.reference_aux(matrix) if self.kernel.needs_aux else None
        self._locations[ref_id] = (None, self._builder.pending)
        flushed = self._builder.add(ref_id, matrix, norms, aux)
        if flushed is not None:
            self._seal(flushed)
        self.stats.references += 1

    def _seal(self, batch: ReferenceBatch) -> None:
        """Install a completed batch and repoint its slots' locations.

        A batch whose every slot was tombstoned while still pending is
        never cached at all — there is nothing live to sweep; partially
        dead batches seed the per-batch dead count so later deletes can
        purge them once the last live slot goes.
        """
        dead = sum(
            1 for slot_id in batch.ids if slot_id.startswith(_DEAD_PREFIX)
        )
        if dead >= batch.size:
            return
        self.cache.add(batch)
        if dead:
            self._dead_in_batch[batch.batch_id] = dead
        for idx, slot_id in enumerate(batch.ids):
            if slot_id in self._locations:
                self._locations[slot_id] = (batch, idx)

    def add_prepared_reference(
        self,
        ref_id: str,
        matrix: np.ndarray,
        norms: np.ndarray | None = None,
    ) -> None:
        """Enrol an *already prepared* matrix (engine precision/scale,
        kernel normalisation applied, padded to ``(d, m)``).

        This is the warm-restart path: :meth:`export_records` emits
        stored-domain matrices, and re-applying the preprocessing to
        them would corrupt them (RootSIFT is not idempotent).
        """
        cfg = self.config
        ref_id = str(ref_id)
        matrix = np.asarray(matrix)
        if matrix.shape != (cfg.d, cfg.m):
            raise ValueError(f"prepared matrix must be ({cfg.d}, {cfg.m}), got {matrix.shape}")
        expected = np.float16 if cfg.precision == "fp16" else np.float32
        if matrix.dtype != expected:
            raise ValueError(f"prepared matrix must be {expected}, got {matrix.dtype}")
        if self.kernel.needs_norms and norms is None:
            raise ValueError(f"backend {self.backend!r} engines require the N_R vector")
        if ref_id in self._locations:
            self.remove_reference(ref_id)
        aux = self.kernel.reference_aux(matrix) if self.kernel.needs_aux else None
        self._locations[ref_id] = (None, self._builder.pending)
        flushed = self._builder.add(ref_id, matrix, norms, aux)
        if flushed is not None:
            self._seal(flushed)
        self.stats.references += 1

    def export_records(self):
        """Serialize every live reference's *stored* matrix.

        Returns a list of :class:`~repro.distributed.FeatureRecord` in
        enrolment-compatible form: feed them to
        :meth:`import_records` on an engine with the same configuration
        to rebuild the cache (e.g. after a container restart).
        """
        from ..distributed.serialization import FeatureRecord

        records = []
        for ref_id, (batch, slot) in self._locations.items():
            if batch is None:
                matrix = self._builder.pending_matrix(slot)
            else:
                matrix = batch.tensor[slot]
            records.append(
                FeatureRecord(
                    ref_id=ref_id,
                    matrix=np.asarray(matrix),
                    precision=self.config.precision,
                    scale=self.config.effective_scale,
                )
            )
        return records

    def import_records(self, records) -> int:
        """Re-enrol :meth:`export_records` output; returns the count.

        Records must match this engine's precision and scale — a
        mismatch means they were exported under a different
        configuration and would silently corrupt distances.
        """
        cfg = self.config
        count = 0
        for record in records:
            if record.precision != cfg.precision:
                raise ValueError(
                    f"record {record.ref_id!r} is {record.precision}, "
                    f"engine is {cfg.precision}"
                )
            if abs(record.scale - cfg.effective_scale) > 1e-12:
                raise ValueError(
                    f"record {record.ref_id!r} has scale {record.scale}, "
                    f"engine uses {cfg.effective_scale}"
                )
            norms = self.kernel.norms_for_stored(record.matrix) if self.kernel.needs_norms else None
            self.add_prepared_reference(record.ref_id, record.matrix, norms)
            count += 1
        return count

    def remove_reference(self, ref_id: str) -> bool:
        """Tombstone a reference; returns whether it was enrolled."""
        ref_id = str(ref_id)
        location = self._locations.pop(ref_id, None)
        if location is None:
            return False
        batch, slot = location
        marker = f"{_DEAD_PREFIX}{self._dead_slots}"
        self._dead_slots += 1
        if batch is None:
            self._builder.rename(slot, marker)
        else:
            batch.ids[slot] = marker
            dead = self._dead_in_batch.get(batch.batch_id, 0) + 1
            if dead >= batch.size:
                # every slot is tombstoned: purge the whole batch so the
                # cache releases its capacity (batch-granular, like swap)
                self.cache.remove(batch.batch_id)
                self._dead_in_batch.pop(batch.batch_id, None)
            else:
                self._dead_in_batch[batch.batch_id] = dead
        return True

    def has_reference(self, ref_id: str) -> bool:
        return str(ref_id) in self._locations

    def flush(self) -> None:
        """Seal the in-progress (partial) batch so it becomes searchable."""
        flushed = self._builder.flush()
        if flushed is not None:
            self._seal(flushed)

    @property
    def n_references(self) -> int:
        """Live (non-tombstoned) enrolled references."""
        return len(self._locations)

    def capacity_images(self) -> int:
        """The paper's capacity metric for this engine's configuration."""
        return self.cache.capacity_images(self.config.feature_matrix_bytes())

    # ------------------------------------------------------------------
    # query preparation
    # ------------------------------------------------------------------
    def prepare_query_matrix(self, descriptors: np.ndarray) -> np.ndarray:
        """Shape/normalise/quantise one query descriptor matrix to
        ``(d, n)`` engine precision (pure transform, never charged)."""
        return self.kernel.query_matrix(descriptors)

    # ------------------------------------------------------------------
    # the cache-sweep executor
    # ------------------------------------------------------------------
    def _execute_sweep(
        self,
        query: PreparedQuery,
        keep_masks: bool = False,
        batches: Iterable[CachedBatch] | None = None,
        record_stats: bool = True,
        honor_deadline: bool = True,
        candidate_ids: set[str] | frozenset[str] | None = None,
    ) -> _SweepOutcome:
        """The one batch loop every match path runs on, for a prepared
        query group of any size (a single search is a group of one).

        Owns, for every backend: H2D transfer accounting for
        host-resident batches, tombstone filtering, the multi-stream
        overlap correction (Sec. 6.2) and stats/profile accumulation.
        ``batches`` overrides the cache iteration (``verify`` passes a
        transient single-image batch); ``record_stats`` is off for
        sweeps that are not searches.

        ``candidate_ids`` restricts the exact sweep to a routing
        tier's nominees (:mod:`repro.routing`): a reference batch with
        no live nominated slot is skipped outright (no H2D staging, no
        GEMM, no simulated cost) and its images counted into
        ``images_pruned``; in batches that *are* swept — the GEMM runs
        at full batch width, the honest cost of the immutable (batch,
        d, m) layout — matches are filtered to the nominated ids, so
        results depend only on the candidate set, never on batch
        co-location.

        When a request deadline (:func:`repro.obs.current_deadline`) is
        active, the loop charges the budget with each batch's simulated
        time and stops sweeping once it expires: remaining batches are
        counted into ``images_skipped`` instead of compared, and the
        outcome comes back ``partial``.  The batches that *were* swept
        produce bit-identical matches to a full sweep's prefix.

        Prefilter backends (``kernel.has_prefilter``) add a stage in
        front of the exact match: ``prefilter_batch`` runs on the
        cached aux codes *before* any H2D staging, its cost charged
        through the gpusim popcount model.  A batch where no query keeps a
        slot is never transferred, and its images report zero matches
        (they still count into ``images``: the prefilter *examined*
        them, unlike routing-pruned batches it never saw); the survivor
        mask is handed to ``match_batch`` so pruned (query, slot) pairs
        skip their GEMM.  ``cascade_pruned`` counts the skipped GEMMs
        per query.
        """
        cfg = self.config
        n_queries = query.n_queries
        deadline = current_deadline() if honor_deadline else None
        profile_before = self.device.profiler.as_dict() if record_stats else {}
        sweep_cm = (
            _TRACER.span(
                "engine.sweep", layer="engine",
                backend=self.kernel.name, queries=n_queries,
            )
            if _TRACER.enabled
            else nullcontext()
        )
        with sweep_cm as sweep_span:
            start_us = self.device.synchronize()
            per_query: list[list[ImageMatch]] = [[] for _ in range(n_queries)]
            images = 0
            host_images = 0
            images_skipped = 0
            images_pruned = 0
            cascade_pruned = np.zeros(n_queries, dtype=np.int64)
            charged_at_us = start_us
            source = self.cache.batches() if batches is None else batches
            traced = _TRACER.enabled
            for cached in source:
                if candidate_ids is not None and not any(
                    slot_id in candidate_ids for slot_id in cached.batch.ids
                ):
                    # no nominee lives here: the batch is never staged
                    # or compared, and no simulated time is charged.
                    images_pruned += cached.batch.size
                    continue
                if deadline is not None and deadline.expired:
                    # an expired deadline stops the sweep: remaining
                    # batches are never staged or compared.
                    images_skipped += cached.batch.size
                    continue
                batch = cached.batch
                resident = cached.location is not CacheLocation.HOST
                survivors = None
                if self.kernel.has_prefilter:
                    # the prefilter runs on the small cached codes before
                    # any feature staging; its popcount cost is charged.
                    survivors = self.kernel.prefilter_batch(self.device, batch, query)
                    if survivors is not None:
                        cascade_pruned += batch.size - survivors.sum(axis=1)
                fully_pruned = survivors is not None and not survivors.any()
                if record_stats:
                    (_SWEEP_HIT if resident else _SWEEP_MISS).inc()
                batch_cm = (
                    _TRACER.span(
                        "cache.batch", layer="cache",
                        batch_id=batch.batch_id, images=batch.size,
                        location=cached.location.value,
                    )
                    if traced
                    else nullcontext()
                )
                with batch_cm:
                    if not resident and not fully_pruned:
                        # one H2D per reference batch per *sweep* — a query
                        # group shares the transfer, it is not paid per query
                        self.device.h2d(batch.nbytes, pinned=self.cache.pinned)
                        _H2D_BYTES.inc(batch.nbytes)
                        host_images += batch.size
                    # a fully pruned batch skips the exact stage: the kernel
                    # charges nothing for pruned (query, slot) pairs.
                    groups = self.kernel.match_batch(
                        self.device, batch, query, keep_masks, survivors
                    )
                    # tombstone filtering: resolve the batch's dead slots once
                    # (kernels emit one match per slot, in slot order), then
                    # drop them from every query's list by index.
                    alive: list[int] | None = None
                    if self._dead_slots or candidate_ids is not None:
                        alive = [
                            i for i, slot_id in enumerate(batch.ids)
                            if not slot_id.startswith(_DEAD_PREFIX)
                            and (candidate_ids is None or slot_id in candidate_ids)
                        ]
                        if len(alive) == batch.size:
                            alive = None
                    for q, matches in enumerate(groups):
                        if alive is not None:
                            matches = [matches[i] for i in alive]
                        per_query[q].extend(matches)
                    images += batch.size
                if deadline is not None:
                    # charge per batch (non-mutating clock read) so the
                    # expiry check above sees this batch's cost.
                    now_us = self.device.elapsed_us()
                    deadline.charge(now_us - charged_at_us)
                    charged_at_us = now_us
            elapsed = self.device.synchronize() - start_us

            if cfg.streams > 1 and host_images:
                # Replace the serial estimate for the host-resident part by
                # the multi-stream overlap model (Sec. 6.2).  A query group
                # widens the fused GEMM to ``n_queries * n`` columns while
                # the per-batch H2D transfer stays the same, so the plan is
                # computed at the group's fused width — the transfer is
                # amortised across the group instead of charged per query.
                plan = plan_streams(
                    self.device.spec, self.device.cal, cfg.streams, cfg.batch_size,
                    m=cfg.m, n=cfg.n * n_queries, d=cfg.d, precision=cfg.precision,
                    tensor_core=cfg.tensor_core, pinned=self.cache.pinned,
                    with_norms=self.kernel.needs_norms,
                )
                gpu_fraction = (images - host_images) / images if images else 0.0
                elapsed = (
                    elapsed * gpu_fraction
                    + host_images / plan.throughput_images_per_s * 1e6
                )

            if record_stats:
                self.stats.searches += n_queries
                self.stats.images_compared += images * n_queries
                self.stats.total_search_us += elapsed
                _SWEEPS.inc()
                _SWEEP_US.observe(elapsed)
                for name, total in self.device.profiler.as_dict().items():
                    delta = total - profile_before.get(name, 0.0)
                    if delta:
                        self.stats.step_times_us[name] = (
                            self.stats.step_times_us.get(name, 0.0) + delta
                        )
                        _STEP_US.labels(step=name).observe(delta)
            if images_skipped:
                _DEADLINE_SWEEPS.inc()
            if images_pruned and record_stats:
                _IMAGES_PRUNED.inc(images_pruned)
            pruned_pairs = int(cascade_pruned.sum())
            if pruned_pairs and record_stats:
                _CASCADE_PRUNED.inc(pruned_pairs)
            if sweep_span is not None:
                sweep_span.set(sim_elapsed_us=elapsed, images=images,
                               images_skipped=images_skipped,
                               images_pruned=images_pruned,
                               cascade_pruned=pruned_pairs)
        return _SweepOutcome(
            per_query_matches=per_query,
            images=images,
            elapsed_us=elapsed,
            images_skipped=images_skipped,
            images_pruned=images_pruned,
            cascade_pruned=cascade_pruned.tolist(),
        )

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(
        self,
        query_descriptors: np.ndarray,
        keep_masks: bool = False,
        candidate_ids: set[str] | frozenset[str] | None = None,
    ) -> SearchResult:
        """One-to-many search over every cached reference image: the
        group of one (see :meth:`search_group`)."""
        return self.search_group([query_descriptors], keep_masks, candidate_ids).results[0]

    def search_group(
        self,
        query_descriptor_list: list[np.ndarray],
        keep_masks: bool = False,
        candidate_ids: set[str] | frozenset[str] | None = None,
    ) -> GroupSearchResult:
        """One-to-many search of a query group (Sec. 5.3 extension) over
        every cached reference image — the serving tier's unit of work,
        and with one query the plain search.

        The whole group is answered in *one* sweep over the cache:
        every reference batch is transferred (H2D) once for the group,
        Algorithm 2's GEMMs fuse to ``group * n`` query columns (other
        backends match the queries one by one), tombstones are filtered
        once per batch, and the multi-stream overlap correction is
        applied at the fused width.  Higher throughput, but every
        query's ``elapsed_us`` is the group's completion time (the
        latency cost the paper warns about — quantified by the
        ``serving`` bench experiment).

        ``candidate_ids`` (from a :mod:`repro.routing` tier) restricts
        the sweep to the nominated references — see
        :meth:`_execute_sweep`; ``None`` keeps the exhaustive path
        bit-identical to the pre-routing engine.
        """
        if not query_descriptor_list:
            return GroupSearchResult()
        self.flush()
        query = self.kernel.prepare_query(self.device, query_descriptor_list)
        outcome = self._execute_sweep(
            query, keep_masks=keep_masks, candidate_ids=candidate_ids
        )
        results = [outcome.result(q) for q in range(query.n_queries)]
        return GroupSearchResult(
            results=results,
            elapsed_us=outcome.elapsed_us,
            images_searched=outcome.images,
            partial=outcome.partial,
            images_skipped=outcome.images_skipped,
            images_pruned=outcome.images_pruned,
            cascade_pruned=max(outcome.cascade_pruned),
        )

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify(
        self,
        reference_descriptors: np.ndarray,
        query_descriptors: np.ndarray,
    ) -> tuple[bool, int]:
        """One-to-one verification: ``(same_texture, good_matches)``."""
        cfg = self.config
        ref_matrix, norms = self.prepare_reference_matrix(reference_descriptors)
        aux = self.kernel.reference_aux(ref_matrix) if self.kernel.needs_aux else None
        query = self.kernel.prepare_query(self.device, [query_descriptors])
        transient = ReferenceBatch(
            batch_id=-1,
            ids=["\x00verify"],
            tensor=ref_matrix[None, ...],
            norms=norms[None, ...] if norms is not None else None,
            aux=aux[None, ...] if aux is not None else None,
        )
        outcome = self._execute_sweep(
            query,
            batches=[CachedBatch(batch=transient, location=CacheLocation.GPU)],
            record_stats=False,
            honor_deadline=False,  # a 1:1 verification is never sheddable
        )
        match = outcome.per_query_matches[0][0]
        return match.good_matches >= cfg.min_matches, match.good_matches

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def profile_report(self) -> str:
        """Per-step simulated-time breakdown of this engine's work so
        far, formatted like the paper's Table 1/3 rows.

        Covers every search/verify since construction (or the last
        :meth:`reset_profile`); per-image means use the number of image
        comparisons performed *in the profiled window*.
        """
        from ..bench.tables import format_table

        images = max(self.images_since_profile_reset, 1)
        rows = []
        total = 0.0
        for record in self.device.profiler.records():
            rows.append(
                [record.name, round(record.total_us, 1),
                 round(record.total_us / images, 3), record.calls]
            )
            total += record.total_us
        rows.append(["TOTAL", round(total, 1), round(total / images, 3), ""])
        header = (
            f"{self.device.spec.name} | {self.config.precision} {self.kernel.describe()}"
            f" | m={self.config.m} n={self.config.n} batch={self.config.batch_size}"
        )
        return format_table(
            ["step", "total (us)", "us/image", "calls"], rows, title=header
        )

    @property
    def images_since_profile_reset(self) -> int:
        """Image comparisons performed since the last :meth:`reset_profile`."""
        return self.stats.images_compared - self._images_at_profile_reset

    def reset_profile(self) -> None:
        """Clear the step profiler and simulated clock (stats survive,
        but profile-report means restart from this point)."""
        self.device.reset_timing()
        self._images_at_profile_reset = self.stats.images_compared
