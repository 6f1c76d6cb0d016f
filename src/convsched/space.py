"""Candidate schedule space: loop permutations and tile-size menus.

The six tile-body loops can be permuted freely (720 orderings).  Swapping
the two kernel loops, or the two spatial loops, of a transpose-symmetric
problem only mirrors the dataflow, so by default one representative per
such class is kept: the one with FX inside FY and SX inside SY, leaving
180 orderings.

Controlling loops are not permuted.  They always nest in the fixed order
OF, IF, SY, SX from the outside in (a caller can override this for
hand-built schedules); with free buffering levels their order adds no
schedules the model can distinguish.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .layers import LayerShape, ValidationError
from .model import (
    Axis, Loop, Schedule, Tiles, axis_full_extent, default_controlling,
)

Ordering = tuple[Axis, ...]

TILEABLE_AXES = (Axis.OF, Axis.IF, Axis.SY, Axis.SX)

MODE_POW2 = "pow2"
MODE_POW2_EXTENTS = "pow2-extents"
MODE_EXPLICIT = "explicit"
TILE_POLICY_MODES = (MODE_POW2, MODE_POW2_EXTENTS, MODE_EXPLICIT)


@dataclass(frozen=True)
class TilePolicy:
    """How tile sizes are enumerated per tileable axis.

    pow2: powers of two up to the axis extent.
    pow2-extents: the same plus the full extent, so the untiled choice is
        always available (the default).
    explicit: caller-supplied per-axis lists.
    """

    mode: str = MODE_POW2_EXTENTS
    explicit: dict[Axis, tuple[int, ...]] | None = None

    def __post_init__(self) -> None:
        if self.mode not in TILE_POLICY_MODES:
            raise ValidationError(f"unknown tile-policy mode {self.mode!r}")
        if (self.mode == MODE_EXPLICIT) != (self.explicit is not None):
            raise ValidationError("explicit mode and explicit lists go together")


def enumerate_permutations(prune: bool = True) -> tuple[Ordering, ...]:
    """All tile-body orderings, innermost first; pruned to 180 by default."""
    out = []
    for perm in itertools.permutations(Axis):
        if prune:
            if perm.index(Axis.FX) > perm.index(Axis.FY):
                continue
            if perm.index(Axis.SX) > perm.index(Axis.SY):
                continue
        out.append(perm)
    return tuple(out)


def _pow2_up_to(extent: int) -> list[int]:
    sizes = []
    p = 1
    while p <= extent:
        sizes.append(p)
        p *= 2
    return sizes


def enumerate_tiles(layer: LayerShape, policy: TilePolicy) -> dict[Axis, tuple[int, ...]]:
    """Tile-size menu for each tileable axis, ascending and deduplicated."""
    menus: dict[Axis, tuple[int, ...]] = {}
    for axis in TILEABLE_AXES:
        extent = axis_full_extent(axis, layer)
        if policy.mode == MODE_EXPLICIT:
            raw = policy.explicit.get(axis, ())
            if not raw:
                raise ValidationError(f"explicit tile list for {axis} is empty")
            for t in raw:
                if not 1 <= t <= extent:
                    raise ValidationError(
                        f"explicit tile {t} for {axis} outside [1, {extent}]")
            sizes = sorted(set(raw))
        else:
            sizes = _pow2_up_to(extent)
            if policy.mode == MODE_POW2_EXTENTS and extent not in sizes:
                sizes.append(extent)
        menus[axis] = tuple(sizes)
    return menus


def instantiate(ordering: Ordering, tiles: Tiles, layer: LayerShape,
                controlling: tuple[Axis, ...] | None = None) -> Schedule:
    """Build a validated Schedule from an ordering and tile choice.

    `controlling`, when given, lists the controlling-loop axes innermost
    first and must cover exactly the tiled axes; otherwise the fixed
    default order applies.
    """
    if len(ordering) != 6 or set(ordering) != set(Axis):
        raise ValidationError("ordering must be a permutation of the six axes")
    loops = [Loop(a, tiles.for_axis(a, layer), True) for a in ordering]
    tiled = {a for a in TILEABLE_AXES
             if tiles.for_axis(a, layer) < axis_full_extent(a, layer)}
    if controlling is None:
        controlling = default_controlling(tiled)
    elif set(controlling) != tiled or len(controlling) != len(tiled):
        raise ValidationError(
            "controlling loops must list each tiled axis exactly once")
    for a in controlling:
        trips = math.ceil(axis_full_extent(a, layer) / tiles.for_axis(a, layer))
        loops.append(Loop(a, trips, False))
    return Schedule(loops=tuple(loops), tiles=tiles, layer=layer)
