"""Fusion invariance: a query group answers each query exactly as that
query's group of one does, for every backend, in the engine, through a
replicated cluster and over ``POST /search/batch``.

A single search *is* a group of one, so this is the property that keeps
fused serving honest: batching queries may change cost, never answers.
"""

import pytest

from repro.core import EngineConfig, TextureSearchEngine
from repro.distributed import DistributedSearchSystem, Request, build_api
from tests.conftest import make_descriptors, noisy_copy

M, N = 24, 16  # asymmetric on purpose: m != n
N_REFS = 8

#: (id, EngineConfig overrides) — every registered backend, with the
#: fused Algorithm-2 kernel in both precisions.
BACKENDS = [
    ("algorithm2-fp16", dict(backend="algorithm2", precision="fp16", scale_factor=0.25)),
    ("algorithm2-fp32", dict(backend="algorithm2", precision="fp32")),
    ("algorithm1", dict(backend="algorithm1", precision="fp32")),
    ("garcia", dict(backend="garcia", precision="fp32")),
    ("opencv", dict(backend="opencv", precision="fp32")),
    ("lsh", dict(backend="lsh", precision="fp32")),
    ("cascade", dict(backend="cascade", precision="fp32")),
]

#: candidate restriction: batch 1 holds no nominee and is skipped.
CANDIDATES = frozenset({"r0", "r1", "r2", "r6", "r7"})


def config(overrides):
    return EngineConfig(m=M, n=N, batch_size=3, min_matches=5, **overrides)


def references():
    return [make_descriptors(M, seed=500 + i) for i in range(N_REFS)]


def queries(refs):
    """Three queries: a clear match, a heavily perturbed match, and an
    unrelated query; the perturbed one targets a tombstoned reference."""
    return [
        noisy_copy(refs[0][:, :N], 8.0, seed=5),
        noisy_copy(refs[5][:, :N], 25.0, seed=50),
        make_descriptors(N, seed=61),
    ]


def churn(add, remove, refs):
    """Tombstones in play: one delete and one update (re-enrol)."""
    for i, desc in enumerate(refs):
        add(f"r{i}", desc)
    remove("r5")
    add("r3", make_descriptors(M, seed=777))


def engine_tier(overrides, query_list, keep_masks):
    engine = TextureSearchEngine(config(overrides))
    churn(engine.add_reference, engine.remove_reference, references())
    group = engine.search_group(query_list, keep_masks=keep_masks, candidate_ids=CANDIDATES)
    return [answer(result, keep_masks) for result in group.results]


def replicated_cluster(overrides):
    system = DistributedSearchSystem(2, config(overrides), replication_factor=2)
    churn(system.add, system.delete, references())
    return system


def cluster_tier(overrides, query_list, keep_masks):
    group = replicated_cluster(overrides).search_group(query_list)
    return [answer(result, keep_masks) for result in group.results]


def rest_tier(overrides, query_list, keep_masks):
    api = build_api(replicated_cluster(overrides))
    body = {"queries": [q.tolist() for q in query_list], "top": N_REFS}
    response = api.handle(Request("POST", "/search/batch", body))
    assert response.ok
    return [
        {
            "images": entry["images_searched"],
            "cascade_pruned": entry["cascade_pruned"],
            "matches": [(r["id"], r["good_matches"]) for r in entry["results"]],
        }
        for entry in response.body["queries"]
    ]


def answer(result, keep_masks):
    """Everything a query's result says about matching, as plain values
    (not the group's shared timing)."""
    matches = []
    for m in result.matches:
        row = (m.reference_id, m.good_matches, m.n_query_features)
        if keep_masks:
            row += (m.match_mask.tolist(), m.matched_reference_indices.tolist())
        else:
            assert m.match_mask is None and m.matched_reference_indices is None
        matches.append(row)
    return {
        "images": result.images_searched,
        "cascade_pruned": result.cascade_pruned,
        "matches": matches,
    }


#: the cluster API returns match counts only, so masks are engine-tier.
TIERS = [
    (engine_tier, False), (engine_tier, True), (cluster_tier, False), (rest_tier, False),
]


@pytest.mark.parametrize(
    "run, keep_masks", TIERS, ids=["engine-counts", "engine-masks", "cluster-r2", "rest"]
)
@pytest.mark.parametrize("overrides", [b for _, b in BACKENDS], ids=[i for i, _ in BACKENDS])
def test_each_query_answers_as_its_group_of_one(overrides, run, keep_masks):
    query_list = queries(references())
    grouped = run(overrides, query_list, keep_masks)
    assert len(grouped) == len(query_list)
    for query, got in zip(query_list, grouped):
        # a fresh engine/cluster per query: no state shared with the group
        assert [got] == run(overrides, [query], keep_masks)
    # the clear match is found through every backend and tier
    best = max(grouped[0]["matches"], key=lambda row: row[1])
    assert best[0] == "r0"
