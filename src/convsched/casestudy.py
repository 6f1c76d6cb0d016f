"""Fixed accelerator schedules: the HWC dataflow and the HWCE baseline.

Both nests pin the loop ordering and the buffering levels of a concrete
accelerator, so only tile sizes remain to choose: the HWC picks its map,
channel and row tiles by the search engine run on that one plan under the
buffer budget (the column tile is the SIMD width), while the HWCE derives
its stripe width from a line-buffer sizing rule.  The ratio between the
two measures what cross-map reuse is worth on equal storage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .engine import (
    SearchResult, check_budgets, evaluate, least_buffer, make_plan,
)
from .layers import CrossCheckError, LayerShape, LayerSuite, ValidationError
from .model import (
    Axis,
    BufferingAssignment,
    Schedule,
    Tiles,
    TrafficReport,
    axis_full_extent,
    traffic,
)
from .space import TilePolicy, enumerate_tiles, instantiate

# HWC tile body, innermost first: a SIMD row of outputs for a block of
# maps, swept down the output tile, then across input channels.
HWC_BODY = (Axis.FX, Axis.SX, Axis.OF, Axis.FY, Axis.SY, Axis.IF)
# Outputs live above the channel loop, inputs above the row loop, weights
# above the map loop; the weight rows restream on every output row.
HWC_LEVELS = BufferingAssignment(level_i=4, level_w=2, level_o=5)

# HWCE body: plain 2D convolution of one (map, channel) pair at a time,
# kernel loops innermost.  Stripes advance outermost; partial sums leave
# the accelerator on every input channel.
HWCE_BODY = (Axis.FX, Axis.FY, Axis.SX, Axis.SY, Axis.IF, Axis.OF)
_HWCE_CONTROLLING = (Axis.SY, Axis.IF, Axis.OF, Axis.SX)  # innermost first
HWCE_LEVELS = BufferingAssignment(level_i=5, level_w=5, level_o=1)


@dataclass(frozen=True)
class HwcConfig:
    """Local-buffer budget in bytes and the SIMD width fixing jss."""

    budget: int = 1024
    simd: int = 16

    def __post_init__(self) -> None:
        check_budgets((self.budget,))
        if self.simd < 1:
            raise ValidationError(f"SIMD width must be >= 1: {self.simd}")


# The engine's plan of the HWC body with its levels pinned.  All three are
# body positions, which level compaction leaves as they are.
_HWC_PLAN = replace(make_plan(HWC_BODY),
                    cand_levels={a: (HWC_LEVELS.level(a),) for a in "IWO"})


def hwc_results(layer: LayerShape, budgets: tuple[int, ...],
                simd: int = HwcConfig.simd) -> list[SearchResult]:
    """Cheapest tile sizes for the fixed HWC nest: the search on its one
    plan, all budgets in one pass.  The column tile is the SIMD width
    (clamped to the output width); the map, channel and row tiles come from
    the default policy menus.  When nothing fits, the least (buffer,
    traffic, spill, serialization) tile is returned with its infeasible
    report rather than raising.
    """
    HwcConfig(simd=simd)  # the width; the staircase checks the budgets
    menus = enumerate_tiles(layer, TilePolicy())
    menus[Axis.SX] = (min(simd, layer.out_w),)
    return evaluate(layer, budgets, menus, (_HWC_PLAN,), least_buffer)[0]


def hwc_schedule(
    layer: LayerShape, config: HwcConfig
) -> tuple[Schedule, BufferingAssignment, TrafficReport]:
    """The HWC tiles at one budget; see hwc_results."""
    res = hwc_results(layer, (config.budget,), config.simd)[0]
    return res.schedule, res.assignment, res.report


def hwce_schedule(
    layer: LayerShape, config: HwcConfig
) -> tuple[Schedule | None, BufferingAssignment | None, TrafficReport | None]:
    """Single-map line-buffer schedule with the widest stripe that fits.

    The line buffer holds k_h input rows of one stripe, weights one
    (m, c) kernel slice, and a single accumulator covers the kernel
    loops.  Stripe width is the largest whose line buffer fits beside
    the kernel slice and the accumulator; when even a one-column stripe
    overflows the budget the result is (None, None, None).
    """
    fixed = layer.p_w * layer.k_h * layer.k_w + layer.p_acc
    win_max = (config.budget - fixed) // (layer.p_in * layer.k_h)
    jss = min(layer.out_w, (win_max - layer.k_w) // layer.stride + 1)
    if jss < 1:
        return None, None, None
    tiles = Tiles(mss=1, css=1, iss=layer.out_h, jss=jss)
    controlling = tuple(
        a for a in _HWCE_CONTROLLING
        if tiles.for_axis(a, layer) < axis_full_extent(a, layer))
    schedule = instantiate(HWCE_BODY, tiles, layer, controlling=controlling)
    report = traffic(schedule, HWCE_LEVELS, config.budget)
    if not report.feasible:  # the sizing rule bounds every buffer term
        raise CrossCheckError(
            f"{layer.name}: the HWCE sizing rule chose stripe width {jss}, "
            f"but its buffers take {report.buffer_bytes} B of a "
            f"{config.budget} B budget")
    return schedule, HWCE_LEVELS, report


def hwce_vs_hwc_ratio(
    suite: LayerSuite, config: HwcConfig
) -> tuple[tuple[str, float | None], ...]:
    """Per-layer HWCE/HWC total-traffic ratios at equal budget.

    Layers where the HWCE cannot run (or the HWC search itself is over
    budget) are marked with None instead of a ratio.
    """
    rows: list[tuple[str, float | None]] = []
    for layer in suite:
        _, _, hwc = hwc_schedule(layer, config)
        _, _, hwce = hwce_schedule(layer, config)
        if hwce is None or not hwc.feasible:
            rows.append((layer.name, None))
        else:
            rows.append((layer.name, hwce.total / hwc.total))
    return tuple(rows)
