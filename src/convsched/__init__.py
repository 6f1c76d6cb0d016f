"""Memory-traffic modeling and schedule search for CNN convolution loop-nests.

The package splits into layer/suite ingestion (layers, suites), the schedule
space (space), the closed-form traffic model (model), a brute-force trace
oracle that checks it (oracle), the exhaustive search with its sweep and
distribution front-ends (search), two comparison cost models (baselines),
and two fixed accelerator schedules (casestudy).  The cli module exposes all
of it as the `convsched` command.
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
from .search import (
    LayerEvaluation,
    SearchConfig,
    SearchResult,
    best_schedule,
    distribution,
    distribution_from,
    evaluate_layer,
    evaluate_layers,
    min_budget_for_ideal,
    sweep,
)
from .baselines import cache_best, cache_results, peemen_best
from .casestudy import (
    HwcConfig, hwc_schedule, hwce_schedule, hwce_vs_hwc_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "BUILTIN_SUITE_NAMES",
    "BufferingAssignment",
    "CrossCheckError",
    "HwcConfig",
    "LayerEvaluation",
    "LayerShape",
    "LayerSuite",
    "OracleCapError",
    "Schedule",
    "SearchConfig",
    "SearchResult",
    "TilePolicy",
    "Tiles",
    "TrafficReport",
    "ValidationError",
    "all_builtin_layers",
    "best_schedule",
    "builtin_suite",
    "cache_best",
    "cache_results",
    "distribution",
    "distribution_from",
    "enumerate_permutations",
    "evaluate_layer",
    "evaluate_layers",
    "find_builtin_layer",
    "hwc_schedule",
    "hwce_schedule",
    "hwce_vs_hwc_ratio",
    "ideal_report",
    "ideal_traffic",
    "instantiate",
    "min_budget_for_ideal",
    "parse_layer_suite",
    "peemen_best",
    "schedule_from_json",
    "schedule_to_json",
    "simulate",
    "sweep",
    "traffic",
    "validate",
]
