"""Node ordering methods: Gorder plus all baselines from the papers."""

from repro.ordering.base import (
    ALL_ORDERING_NAMES,
    ORDERING_NAMES,
    REGISTRY,
    OrderingConfig,
    OrderingSpec,
    accepted_params,
    compute_ordering,
    spec,
)
from repro.ordering.bisect import bisection_order
from repro.ordering.compression import (
    bits_per_edge,
    compression_ratio,
    elias_gamma_bits,
    gap_encoding_bits,
)
from repro.ordering.gorder import (
    DEFAULT_WINDOW,
    gorder_naive,
    gorder_order,
    gorder_sequence,
    window_scores,
)
from repro.ordering.incremental import append_identity, gorder_extend
from repro.ordering.ldg import ldg_order
from repro.ordering.lightweight import (
    boba_order,
    dbg_classes,
    dbg_order,
    hubcluster_order,
    hubsort_order,
)
from repro.ordering.metrics import (
    average_gap,
    bandwidth,
    gorder_score,
    gorder_score_bruteforce,
    minla_energy,
    minloga_energy,
    pair_score,
)
from repro.ordering.minla import minla_order, minloga_order
from repro.ordering.parallel import gorder_partitioned, partition_nodes
from repro.ordering.predictors import (
    LINE_NODES,
    StructuralPredictors,
    compute_predictors,
    diameter_proxy,
    packing_factor,
)
from repro.ordering.rcm import rcm_order
from repro.ordering.select import (
    CLOCK_HZ,
    DEFAULT_QUERY_VOLUME,
    AmortizationRow,
    SelectionDecision,
    Workload,
    amortization_table,
    default_candidates,
    select_ordering,
)
from repro.ordering.simple import (
    chdfs_order,
    indegsort_order,
    original_order,
    random_order,
)
from repro.ordering.slashburn import slashburn_order
from repro.ordering.unit_heap import UnitHeap

__all__ = [
    "ALL_ORDERING_NAMES",
    "ORDERING_NAMES",
    "REGISTRY",
    "OrderingConfig",
    "OrderingSpec",
    "spec",
    "compute_ordering",
    "accepted_params",
    "UnitHeap",
    "DEFAULT_WINDOW",
    "gorder_order",
    "gorder_sequence",
    "gorder_naive",
    "window_scores",
    "original_order",
    "random_order",
    "indegsort_order",
    "chdfs_order",
    "rcm_order",
    "slashburn_order",
    "ldg_order",
    "minla_order",
    "minloga_order",
    "bisection_order",
    "hubsort_order",
    "hubcluster_order",
    "dbg_order",
    "dbg_classes",
    "boba_order",
    "gorder_partitioned",
    "partition_nodes",
    "gorder_extend",
    "append_identity",
    "LINE_NODES",
    "StructuralPredictors",
    "compute_predictors",
    "diameter_proxy",
    "packing_factor",
    "CLOCK_HZ",
    "DEFAULT_QUERY_VOLUME",
    "AmortizationRow",
    "Workload",
    "amortization_table",
    "SelectionDecision",
    "default_candidates",
    "select_ordering",
    "gap_encoding_bits",
    "bits_per_edge",
    "compression_ratio",
    "elias_gamma_bits",
    "pair_score",
    "gorder_score",
    "gorder_score_bruteforce",
    "minla_energy",
    "minloga_energy",
    "bandwidth",
    "average_gap",
]
