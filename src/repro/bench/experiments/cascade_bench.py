"""Cascade prefilter — GEMM-pair reduction at verdict parity.

The ``cascade`` backend (:mod:`repro.core.cascade`) puts a
coarse-to-fine XOR/popcount Hamming prune in front of Algorithm 1's
exact cuBLAS 2-NN sweep.  This experiment measures what that prune
buys and what it risks:

* **verdict parity** — every matched query (noisy copy of an enrolled
  reference) and impostor query (fresh descriptors) must produce the
  same identification verdict as the unfiltered ``algorithm1`` engine:
  same accept/reject, same best reference, same good-match count.
  ``algorithm2`` (the RootSIFT default) is cross-checked at the
  accept/reject + best-reference level (its FP16 math rounds the match
  counts differently by design).
* **GEMM pair reduction** — descriptor pairs swept by the exact GEMM
  (``(images_searched - cascade_pruned) * m * n``) divided into the
  exhaustive baseline's ``images_searched * m * n``.
* **per-image match cost** — simulated µs per cached image, cascade vs
  ``algorithm1``; both Hamming stages are charged through the
  :func:`repro.gpusim.kernels.hamming_us` popcount model, so the
  reduction is honest, not free.

The grid sweeps signature width (hash bits), the coarse bucket
threshold, and corpus size.  Acceptance (ISSUE 8): at the default
knobs on the largest benched corpus, verdicts are bit-equal to
``algorithm1`` while >= ``MIN_PAIR_REDUCTION``x fewer descriptor pairs
reach the exact GEMM and the simulated per-image cost drops by at
least the same factor.  Results land in ``BENCH_cascade.json``
(deterministic: seeded workload, simulated clock, no timestamps).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ...core.cascade import CascadeKernel
from ...core.config import EngineConfig
from ...core.engine import TextureSearchEngine
from ..tables import ExperimentResult
from .common import make_descriptors, noisy, write_bench

__all__ = ["run"]

#: acceptance bar (ISSUE 8): at default knobs on the largest corpus,
#: >= this many times fewer descriptor pairs through the exact GEMM
#: (and at least the same factor off the per-image simulated cost),
#: with verdicts bit-equal to algorithm1.
MIN_PAIR_REDUCTION = 3.0

#: the kernel's default knobs — the acceptance cell of the sweep.
DEFAULT_BITS = CascadeKernel.DEFAULT_BITS
DEFAULT_COARSE_THRESHOLD = 16


def _config(backend: str | None) -> EngineConfig:
    kwargs = dict(m=48, n=48, batch_size=4, min_matches=5, backend=backend)
    if backend == "algorithm2":
        kwargs["scale_factor"] = 0.25
    else:
        kwargs["precision"] = "fp32"
    return EngineConfig(**kwargs)


def _build(backend: str | None, refs, kernel=None) -> TextureSearchEngine:
    config = _config(backend)
    engine = TextureSearchEngine(config, kernel=kernel)
    for ref_id, desc in refs.items():
        engine.add_reference(ref_id, desc)
    engine.flush()
    return engine


def _verdict(result, min_matches: int) -> tuple:
    """Identification verdict: (accepted, best reference, good matches)."""
    best = result.best()
    if best is None or best.good_matches < min_matches:
        return (False, None, 0)
    return (True, best.reference_id, best.good_matches)


def run(
    quick: bool = False,
    json_path: str | Path = "BENCH_cascade.json",
    seed: int = 0,
) -> ExperimentResult:
    corpus_sizes = (24,) if quick else (48, 120)
    n_matched = 6 if quick else 10
    n_impostor = 6 if quick else 10
    bits_grid = (64, 128) if quick else (64, 128, 256)
    coarse_grid = (8, 16) if quick else (8, 16, 24)

    base_cfg = _config("algorithm1")
    result = ExperimentResult(
        "Cascade prefilter: GEMM-pair reduction at verdict parity",
        ["corpus", "bits", "coarse thr", "parity", "pruned/query",
         "pair reduction x", "us/img", "cost reduction x"],
    )
    cells: list[dict] = []
    largest = max(corpus_sizes)
    acceptance: dict | None = None

    rng = np.random.default_rng(seed)
    for corpus in corpus_sizes:
        refs = {
            f"r{i:04d}": make_descriptors(rng, count=base_cfg.n, d=base_cfg.d)
            for i in range(corpus)
        }
        matched_ids = [
            f"r{int(i):04d}" for i in rng.integers(0, corpus, size=n_matched)
        ]
        queries = [("matched", qid, noisy(rng, refs[qid])) for qid in matched_ids]
        queries += [
            ("impostor", None, make_descriptors(rng, count=base_cfg.n, d=base_cfg.d))
            for _ in range(n_impostor)
        ]

        # unfiltered baselines (one build per corpus, shared by the grid)
        algo1 = _build("algorithm1", refs)
        algo1_results = [algo1.search(q) for _, _, q in queries]
        algo1_verdicts = [
            _verdict(r, base_cfg.min_matches) for r in algo1_results
        ]
        algo1_cost = sum(r.elapsed_us for r in algo1_results) / max(
            1, sum(r.images_searched for r in algo1_results)
        )
        algo1_pairs = sum(
            r.images_searched * base_cfg.m * base_cfg.n for r in algo1_results
        )
        algo2 = _build("algorithm2", refs)
        algo2_verdicts = [
            _verdict(algo2.search(q), base_cfg.min_matches)[:2]
            for _, _, q in queries
        ]

        for bits in bits_grid:
            for coarse_thr in coarse_grid:
                config = _config("cascade")
                kernel = CascadeKernel(
                    config, n_bits=bits, coarse_threshold=coarse_thr, seed=seed
                )
                cascade = _build("cascade", refs, kernel=kernel)
                cas_results = [cascade.search(q) for _, _, q in queries]
                cas_verdicts = [
                    _verdict(r, config.min_matches) for r in cas_results
                ]
                parity1 = cas_verdicts == algo1_verdicts
                parity2 = [v[:2] for v in cas_verdicts] == algo2_verdicts
                pruned = sum(r.cascade_pruned for r in cas_results)
                searched = sum(r.images_searched for r in cas_results)
                cas_pairs = (searched - pruned) * config.m * config.n
                pair_reduction = (
                    algo1_pairs / cas_pairs if cas_pairs else float("inf")
                )
                cas_cost = sum(r.elapsed_us for r in cas_results) / max(1, searched)
                cost_reduction = algo1_cost / cas_cost if cas_cost else float("inf")
                default_knobs = (
                    bits == DEFAULT_BITS and coarse_thr == DEFAULT_COARSE_THRESHOLD
                )
                result.rows.append([
                    corpus,
                    bits,
                    coarse_thr,
                    "yes" if parity1 else "NO",
                    round(pruned / len(queries), 1),
                    round(pair_reduction, 2),
                    round(cas_cost, 2),
                    round(cost_reduction, 2),
                ])
                cells.append({
                    "corpus": corpus,
                    "n_bits": bits,
                    "coarse_threshold": coarse_thr,
                    "default_knobs": default_knobs,
                    "verdict_parity_vs_algorithm1": parity1,
                    "verdict_parity_vs_algorithm2": parity2,
                    "images_pruned_per_query": round(pruned / len(queries), 3),
                    "gemm_pairs": int(cas_pairs),
                    "gemm_pairs_exhaustive": int(algo1_pairs),
                    "gemm_pair_reduction_x": round(pair_reduction, 3),
                    "us_per_image_cascade": round(cas_cost, 3),
                    "us_per_image_algorithm1": round(algo1_cost, 3),
                    "cost_reduction_x": round(cost_reduction, 3),
                })
                if corpus == largest and default_knobs:
                    acceptance = {
                        "n_bits": bits,
                        "coarse_threshold": coarse_thr,
                        "verdict_parity_vs_algorithm1": parity1,
                        "verdict_parity_vs_algorithm2": parity2,
                        "gemm_pair_reduction_x": round(pair_reduction, 3),
                        "cost_reduction_x": round(cost_reduction, 3),
                    }

    passes = bool(
        acceptance
        and acceptance["verdict_parity_vs_algorithm1"]
        and acceptance["gemm_pair_reduction_x"] >= MIN_PAIR_REDUCTION
        and acceptance["cost_reduction_x"] >= MIN_PAIR_REDUCTION
    )
    result.summary = {
        "largest_corpus": largest,
        "default_knobs_operating_point": acceptance,
        "meets_reduction_bar": passes,
        "reduction_bar_x": MIN_PAIR_REDUCTION,
    }
    result.notes.append(
        "pair reduction = exhaustive (images * m * n) / cascade survivor "
        "pairs; pruned images report zero matches without any GEMM"
    )
    result.notes.append(
        "both Hamming stages are charged through the gpusim popcount cost "
        "model (hamming_us) — the prune is paid for, not free"
    )

    payload = {
        "experiment": "cascade",
        "seed": seed,
        "quick": quick,
        "workload": {
            "corpus_sizes": list(corpus_sizes),
            "n_matched_queries": n_matched,
            "n_impostor_queries": n_impostor,
            "bits_grid": list(bits_grid),
            "coarse_threshold_grid": list(coarse_grid),
            "engine": {"m": base_cfg.m, "n": base_cfg.n,
                       "batch_size": base_cfg.batch_size, "d": base_cfg.d,
                       "min_matches": base_cfg.min_matches},
        },
        "grid": cells,
        "summary": result.summary,
    }
    write_bench(json_path, payload, result)
    return result
