"""Memory-traffic modeling and schedule search for CNN convolution loop-nests.

The package splits into layer/suite ingestion (layers, suites), the schedule
space (space), the closed-form traffic model (model), a brute-force trace
oracle that checks it (oracle), the evaluation engine (engine), two
comparison cost models (baselines), two fixed accelerator schedules
(casestudy), and the search with its sweep and distribution front-ends
(search).  The cli module exposes all of it as the `convsched` command.

Each model the sweep compares has one entry point: the search's
evaluate_layer (best_schedule for one budget), baselines.peemen_results,
cache_results, casestudy.hwc_results, each answering every budget in one
pass, and casestudy.hwce_schedule, one budget at a time.
"""

from __future__ import annotations

from .layers import (
    CrossCheckError,
    LayerShape,
    LayerSuite,
    ValidationError,
    parse_layer_suite,
)
from .model import (
    Axis,
    BufferingAssignment,
    Schedule,
    Tiles,
    TrafficReport,
    ideal_report,
    ideal_traffic,
    schedule_from_json,
    schedule_to_json,
    traffic,
)
from .space import TilePolicy, enumerate_permutations, instantiate
from .suites import (
    BUILTIN_SUITE_NAMES,
    all_builtin_layers,
    builtin_suite,
    find_builtin_layer,
)
from .oracle import OracleCapError, simulate, validate
from .engine import SearchResult, min_budget_for_ideal
from .search import (
    LayerEvaluation,
    best_schedule,
    distribution,
    distribution_from,
    evaluate_layer,
    sweep,
)
from .baselines import cache_results
from .casestudy import hwce_schedule, hwce_vs_hwc_ratio

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "BUILTIN_SUITE_NAMES",
    "BufferingAssignment",
    "CrossCheckError",
    "LayerEvaluation",
    "LayerShape",
    "LayerSuite",
    "OracleCapError",
    "Schedule",
    "SearchResult",
    "TilePolicy",
    "Tiles",
    "TrafficReport",
    "ValidationError",
    "all_builtin_layers",
    "best_schedule",
    "builtin_suite",
    "cache_results",
    "distribution",
    "distribution_from",
    "enumerate_permutations",
    "evaluate_layer",
    "find_builtin_layer",
    "hwce_schedule",
    "hwce_vs_hwc_ratio",
    "ideal_report",
    "ideal_traffic",
    "instantiate",
    "min_budget_for_ideal",
    "parse_layer_suite",
    "schedule_from_json",
    "schedule_to_json",
    "simulate",
    "sweep",
    "traffic",
    "validate",
]
