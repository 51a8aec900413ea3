"""Index structures: the local index (Alg. 3), its persistence, and the
two comparators — [19]-style landmarks (Table 2) and the [6]-style tree
index (Figure 5)."""

from repro.index.cms import CmsTable, any_subset_of, insert_minimal
from repro.index.landmarks import (
    NO_REGION,
    Partition,
    bfs_traverse,
    default_landmark_count,
    select_landmarks,
)
from repro.index.local_index import LocalIndex, LocalIndexStats, build_local_index
from repro.index.spanning_tree import SamplingTreeIndex, build_sampling_tree_index
from repro.index.storage import load_local_index, save_local_index
from repro.index.traditional import (
    TraditionalLandmarkIndex,
    build_traditional_index,
    paper_landmark_count,
)

__all__ = [
    "CmsTable",
    "LocalIndex",
    "LocalIndexStats",
    "NO_REGION",
    "Partition",
    "SamplingTreeIndex",
    "TraditionalLandmarkIndex",
    "any_subset_of",
    "bfs_traverse",
    "build_local_index",
    "build_sampling_tree_index",
    "build_traditional_index",
    "default_landmark_count",
    "insert_minimal",
    "load_local_index",
    "paper_landmark_count",
    "save_local_index",
    "select_landmarks",
]
