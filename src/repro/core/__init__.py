"""The paper's primary contribution: the optimized 2-NN texture search
engine (Algorithms 1 & 2, batching, asymmetric extraction, ratio test)."""

from .algorithm1 import PreparedFeatures, knn_algorithm1, prepare_query, prepare_reference
from .algorithm2 import BatchKnnResult, knn_algorithm2
from .asymmetric import AsymmetricExtractor, AsymmetricPolicy
from .batching import BatchBuilder, ReferenceBatch
from .config import DEFAULT_SCALE_FACTOR, EngineConfig
from .engine import EngineStats, TextureSearchEngine
from .identification import IdentificationDecision, IdentificationPipeline
from .kernels import MatchKernel, PreparedQuery
from .query_batching import QueryBatchPoint, query_batch_tradeoff
from .ratio_test import (
    batch_ratio_test_masks,
    good_match_count,
    match_images,
    match_images_batch,
    ratio_test_mask,
    verify_pair,
)
from .registry import available_backends, create_kernel, register_kernel, resolve_backend
from .results import GroupSearchResult, ImageMatch, KnnResult, SearchResult
from .topk import functional_topk, insertion_topk, top2_scan

__all__ = [
    "AsymmetricExtractor",
    "AsymmetricPolicy",
    "BatchBuilder",
    "BatchKnnResult",
    "DEFAULT_SCALE_FACTOR",
    "EngineConfig",
    "EngineStats",
    "GroupSearchResult",
    "IdentificationDecision",
    "IdentificationPipeline",
    "ImageMatch",
    "KnnResult",
    "MatchKernel",
    "PreparedFeatures",
    "PreparedQuery",
    "QueryBatchPoint",
    "ReferenceBatch",
    "SearchResult",
    "TextureSearchEngine",
    "available_backends",
    "batch_ratio_test_masks",
    "create_kernel",
    "functional_topk",
    "good_match_count",
    "insertion_topk",
    "knn_algorithm1",
    "knn_algorithm2",
    "match_images",
    "match_images_batch",
    "query_batch_tradeoff",
    "prepare_query",
    "prepare_reference",
    "ratio_test_mask",
    "register_kernel",
    "resolve_backend",
    "top2_scan",
    "verify_pair",
]
