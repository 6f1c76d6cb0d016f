"""Analytical memory-traffic model for tiled convolution loop-nests.

The convolution is a six-deep nest over kernel x/y (FX, FY), output spatial
x/y (SX, SY), input channels (IF), and output channels (OF).  A Schedule is
a permutation of those six tile-body loops plus optional controlling loops
for the tiled axes, listed innermost-first.  A BufferingAssignment picks,
per array, the loop level at and below which reuse is exploited by an
application-managed local buffer.

From those two objects the model derives, in closed form:

* which loops carry reuse of each array and at what distance,
* the data footprint of each array below any loop level,
* the local buffer capacity needed to exploit reuse up to a level,
* and the resulting off-accelerator traffic in bytes.

Everything here is exact integer arithmetic.  Edge tiles of non-dividing
tilings are modeled at full size, and the halo between neighboring spatial
tiles is charged as a re-fetch, so the model can overestimate traffic
slightly; it never underestimates (the trace oracle in oracle.py checks
both properties).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

from .layers import LayerShape, ValidationError, is_int

ARRAYS = ("I", "W", "O")


class Axis(Enum):
    """The six loop axes of the canonical convolution nest."""

    FX = "FX"  # kernel x
    FY = "FY"  # kernel y
    SX = "SX"  # output spatial x
    SY = "SY"  # output spatial y
    IF = "IF"  # input feature maps
    OF = "OF"  # output feature maps

    def __str__(self) -> str:
        return self.name


# Axes whose extent enters each array's footprint directly.
_DIMS = {
    "I": {Axis.FX, Axis.FY, Axis.SX, Axis.SY, Axis.IF},
    "W": {Axis.FX, Axis.FY, Axis.IF, Axis.OF},
    "O": {Axis.SX, Axis.SY, Axis.OF},
}

#: Controlling loops always appear in this order, outermost first.
CONTROLLING_ORDER = (Axis.OF, Axis.IF, Axis.SY, Axis.SX)


def axis_full_extent(axis: Axis, layer: LayerShape) -> int:
    return {
        Axis.FX: layer.k_w, Axis.FY: layer.k_h,
        Axis.SX: layer.out_w, Axis.SY: layer.out_h,
        Axis.IF: layer.c_in, Axis.OF: layer.c_out,
    }[axis]


def window_extent(outputs: int, kernel: int, stride: int) -> int:
    """Input pixels covered along one dim by `outputs` kernel positions.

    The span (outputs-1)*stride + kernel.  When the stride exceeds the
    kernel the windows leave gaps and the span overstates the pixels
    actually read, which keeps the model an upper bound; ideal_report
    counts only the pixels some window reads, outputs*kernel there.
    """
    return (outputs - 1) * stride + kernel


@dataclass(frozen=True)
class Loop:
    axis: Axis
    extent: int
    is_tile_loop: bool  # True for a tile-body loop, False for controlling

    def __post_init__(self) -> None:
        if self.extent < 1:
            raise ValidationError(f"loop {self.axis} extent must be >= 1")


@dataclass(frozen=True)
class Tiles:
    """Tile sizes for the four tileable axes (kernel axes are never tiled)."""

    mss: int  # OF
    css: int  # IF
    iss: int  # SY
    jss: int  # SX

    def for_axis(self, axis: Axis, layer: LayerShape) -> int:
        return {
            Axis.OF: self.mss, Axis.IF: self.css,
            Axis.SY: self.iss, Axis.SX: self.jss,
            Axis.FY: layer.k_h, Axis.FX: layer.k_w,
        }[axis]


@dataclass(frozen=True)
class Schedule:
    """A tiled, reordered nest bound to one layer; loops innermost-first."""

    loops: tuple[Loop, ...]
    tiles: Tiles
    layer: LayerShape

    def __post_init__(self) -> None:
        body = [l for l in self.loops if l.is_tile_loop]
        ctrl = [l for l in self.loops if not l.is_tile_loop]
        if len(body) != 6 or {l.axis for l in body} != set(Axis):
            raise ValidationError("schedule needs each axis as exactly one tile-body loop")
        if ctrl:
            last_body = max(i for i, l in enumerate(self.loops) if l.is_tile_loop)
            first_ctrl = min(i for i, l in enumerate(self.loops) if not l.is_tile_loop)
            if first_ctrl < last_body:
                raise ValidationError("controlling loops must enclose all tile-body loops")
        seen_ctrl = set()
        for l in ctrl:
            if l.axis in seen_ctrl:
                raise ValidationError(f"duplicate controlling loop for {l.axis}")
            seen_ctrl.add(l.axis)
        for l in body:
            tile = self.tiles.for_axis(l.axis, self.layer)
            full = axis_full_extent(l.axis, self.layer)
            if not 1 <= tile <= full:
                raise ValidationError(
                    f"tile for {l.axis} out of range: {tile} not in [1, {full}]")
            if l.extent != tile:
                raise ValidationError(
                    f"tile-body extent for {l.axis} is {l.extent}, expected {tile}")
            trips = math.ceil(full / tile)
            if tile < full:
                if l.axis not in seen_ctrl:
                    raise ValidationError(f"tiled axis {l.axis} has no controlling loop")
            elif l.axis in seen_ctrl:
                raise ValidationError(f"untiled axis {l.axis} has a controlling loop")
            for c in ctrl:
                if c.axis is l.axis and c.extent != trips:
                    raise ValidationError(
                        f"controlling extent for {l.axis} is {c.extent}, expected {trips}")

    @property
    def n(self) -> int:
        return len(self.loops)

    def body_position(self, axis: Axis) -> int:
        for i, l in enumerate(self.loops):
            if l.is_tile_loop and l.axis is axis:
                return i
        raise KeyError(axis)

    def body_order(self) -> tuple[Axis, ...]:
        return tuple(l.axis for l in self.loops if l.is_tile_loop)

    def controlling_order(self) -> tuple[Axis, ...]:
        """Controlling-loop axes, innermost first."""
        return tuple(l.axis for l in self.loops if not l.is_tile_loop)


@dataclass(frozen=True)
class BufferingAssignment:
    """Per-array buffering level: an index into Schedule.loops."""

    level_i: int
    level_w: int
    level_o: int

    def level(self, array: str) -> int:
        return {"I": self.level_i, "W": self.level_w, "O": self.level_o}[array]

    def check(self, schedule: Schedule) -> None:
        for array in ARRAYS:
            if not 0 <= self.level(array) < schedule.n:
                raise ValidationError(
                    f"buffering level for {array} out of range "
                    f"[0, {schedule.n - 1}]: {self.level(array)}")


@dataclass(frozen=True)
class ReuseDescriptor:
    carries: bool
    distance: int

    def __post_init__(self) -> None:
        if self.carries != (self.distance > 1):
            raise ValueError(
                f"reuse descriptor says carries={self.carries} at distance "
                f"{self.distance}; a loop carries exactly when the distance "
                f"exceeds one")


@dataclass(frozen=True)
class TrafficReport:
    """Off-accelerator bytes per array plus buffer occupancy and feasibility."""

    t_in: int
    t_w: int
    t_o_acc: int
    t_o_final: int
    total: int
    b_in: int
    b_w: int
    b_o: int
    feasible: bool

    def __post_init__(self) -> None:
        parts = self.t_in + self.t_w + self.t_o_acc + self.t_o_final
        if self.total != parts:
            raise ValueError(
                f"traffic report total {self.total} is not the sum of its "
                f"parts {parts}")

    @property
    def buffer_bytes(self) -> int:
        return self.b_in + self.b_w + self.b_o


def reuse_descriptor(array: str, loop_index: int, schedule: Schedule) -> ReuseDescriptor:
    """Whether the loop at `loop_index` carries reuse of `array`, and how far.

    Weights are invariant along spatial loops, outputs along kernel and
    input-channel loops, inputs along output-channel loops; those carry at
    the full loop extent.  For inputs the kernel/spatial loop pair of each
    dim overlaps like a sliding window: only the outer of the two tile-body
    loops carries, at the kernel extent (capped by the loop's own extent).
    Controlling spatial loops never carry inputs; the tile halo is a
    re-fetch.
    """
    loop = schedule.loops[loop_index]
    ax = loop.axis
    d = 1
    if array == "W":
        if ax in (Axis.SX, Axis.SY):
            d = loop.extent
    elif array == "O":
        if ax in (Axis.FX, Axis.FY, Axis.IF):
            d = loop.extent
    else:  # I
        if ax is Axis.OF:
            d = loop.extent
        elif loop.is_tile_loop and ax in (Axis.FX, Axis.SX):
            outer = max(schedule.body_position(Axis.FX), schedule.body_position(Axis.SX))
            if loop_index == outer:
                d = min(schedule.layer.k_w, loop.extent)
        elif loop.is_tile_loop and ax in (Axis.FY, Axis.SY):
            outer = max(schedule.body_position(Axis.FY), schedule.body_position(Axis.SY))
            if loop_index == outer:
                d = min(schedule.layer.k_h, loop.extent)
    return ReuseDescriptor(carries=d > 1, distance=d)


def footprint(array: str, schedule: Schedule, level: int) -> int:
    """Elements of `array` touched by one full execution of loops 0..level.

    level -1 is the base case with footprint 1.  The count depends only on
    the set of crossed loops.  Input spatial dims use exact window
    arithmetic, including the disjoint-window case and the halo re-fetch of
    crossed controlling spatial loops.
    """
    if not -1 <= level < schedule.n:
        raise ValidationError(f"footprint level {level} out of range")
    crossed = schedule.loops[:level + 1]
    layer = schedule.layer
    if array in ("W", "O"):
        out = 1
        for l in crossed:
            if l.axis in _DIMS[array]:
                out *= l.extent
        return out

    channels = 1
    for l in crossed:
        if l.axis is Axis.IF:
            channels *= l.extent
    xf = _spatial_input_factor(crossed, Axis.FX, Axis.SX, layer.k_w, layer.stride)
    yf = _spatial_input_factor(crossed, Axis.FY, Axis.SY, layer.k_h, layer.stride)
    return channels * xf * yf


def _spatial_input_factor(crossed, kernel_axis: Axis, spatial_axis: Axis,
                          kernel: int, stride: int) -> int:
    k_loop = next((l for l in crossed if l.is_tile_loop and l.axis is kernel_axis), None)
    s_loop = next((l for l in crossed if l.is_tile_loop and l.axis is spatial_axis), None)
    trips = next((l.extent for l in crossed
                  if not l.is_tile_loop and l.axis is spatial_axis), 1)
    if k_loop and s_loop:
        base = window_extent(s_loop.extent, kernel, stride)
    elif k_loop:
        base = kernel
    elif s_loop:
        base = s_loop.extent
    else:
        base = 1
    return base * trips


def buffer_size(array: str, schedule: Schedule, level: int) -> int:
    """Local-buffer elements needed to exploit `array` reuse up to `level`.

    The requirement is the footprint just below the last reuse-carrying
    loop at or under `level`; with no carrier in range a single element
    suffices.
    """
    if not -1 <= level < schedule.n:
        raise ValidationError(f"buffer level {level} out of range")
    carrier = None
    for j in range(level, -1, -1):
        if reuse_descriptor(array, j, schedule).carries:
            carrier = j
            break
    if carrier is None:
        return 1
    return footprint(array, schedule, carrier - 1)


def ideal_report(layer: LayerShape) -> TrafficReport:
    """The reuse floor per array: every element crosses the boundary once.

    Inputs count only the rows and columns some window reads, so a stride
    above the kernel leaves its gaps out.
    """
    rows, cols = (min(window_extent(o, k, layer.stride), o * k) for o, k in
                  ((layer.out_h, layer.k_h), (layer.out_w, layer.k_w)))
    t_in = layer.p_in * layer.c_in * rows * cols
    t_w = layer.p_w * layer.c_out * layer.c_in * layer.k_h * layer.k_w
    t_o = layer.p_out * layer.c_out * layer.out_h * layer.out_w
    return TrafficReport(t_in=t_in, t_w=t_w, t_o_acc=0, t_o_final=t_o,
                         total=t_in + t_w + t_o, b_in=0, b_w=0, b_o=0,
                         feasible=True)


def ideal_traffic(layer: LayerShape) -> int:
    """Bytes moved when every array element crosses the boundary exactly once."""
    return ideal_report(layer).total


def traffic(schedule: Schedule, assignment: BufferingAssignment,
            budget: int | None = None) -> TrafficReport:
    """Off-accelerator traffic and buffer occupancy of one scheduled nest.

    Reads of I and W move the buffered footprint once per execution of the
    loops strictly above the buffering level.  Output elements are written
    once at final precision; every O-carrying loop above the buffering
    level multiplies the accumulation passes, and each pass beyond the
    first spills partial sums, a write plus a read at accumulator
    precision.  Feasibility compares the summed per-array buffer bytes to
    `budget` (None means unconstrained).
    """
    assignment.check(schedule)
    layer = schedule.layer

    def suffix_product(level: int) -> int:
        out = 1
        for l in schedule.loops[level + 1:]:
            out *= l.extent
        return out

    t_in = layer.p_in * footprint("I", schedule, assignment.level_i) \
        * suffix_product(assignment.level_i)
    t_w = layer.p_w * footprint("W", schedule, assignment.level_w) \
        * suffix_product(assignment.level_w)

    distinct = layer.c_out * layer.out_h * layer.out_w
    passes = 1
    for j in range(assignment.level_o + 1, schedule.n):
        if reuse_descriptor("O", j, schedule).carries:
            passes *= schedule.loops[j].extent
    t_o_acc = 2 * layer.p_acc * distinct * (passes - 1)
    t_o_final = layer.p_out * distinct

    b_in = layer.p_in * buffer_size("I", schedule, assignment.level_i)
    b_w = layer.p_w * buffer_size("W", schedule, assignment.level_w)
    b_o = layer.p_acc * buffer_size("O", schedule, assignment.level_o)

    return TrafficReport(
        t_in=t_in, t_w=t_w, t_o_acc=t_o_acc, t_o_final=t_o_final,
        total=t_in + t_w + t_o_acc + t_o_final,
        b_in=b_in, b_w=b_w, b_o=b_o,
        feasible=budget is None or b_in + b_w + b_o <= budget,
    )


def default_controlling(axes) -> tuple[Axis, ...]:
    """The fixed controlling order restricted to `axes`, innermost first."""
    return tuple(a for a in reversed(CONTROLLING_ORDER) if a in axes)


def format_schedule(order, tiles: tuple[int, int, int, int],
                    levels: tuple[int, int, int],
                    controlling: tuple[Axis, ...] | None = None) -> str:
    """Canonical one-line serialization of a schedule from plain fields.

    `order` lists the tile-body axes innermost first, `tiles` is (mss,
    css, iss, jss) and `levels` the (I, W, O) buffering levels of the nest
    without unit controlling loops.  `controlling` is given only when the
    controlling loops depart from the default order.
    """
    doc = {"order": [a.name for a in order],
           "tiles": dict(zip(("mss", "css", "iss", "jss"), tiles)),
           "buffering": dict(zip(ARRAYS, levels))}
    if controlling is not None:
        doc["controlling"] = [a.name for a in controlling]
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def schedule_to_json(schedule: Schedule, assignment: BufferingAssignment) -> str:
    """Canonical one-line serialization; equal schedules compare equal as text."""
    t = schedule.tiles
    actual = schedule.controlling_order()
    return format_schedule(
        schedule.body_order(), (t.mss, t.css, t.iss, t.jss),
        (assignment.level_i, assignment.level_w, assignment.level_o),
        None if actual == default_controlling(actual) else actual)


def _parse_axis(name) -> Axis:
    try:
        return Axis[name]
    except (KeyError, TypeError):
        raise ValidationError(f"unknown axis name {name!r}") from None


def schedule_from_dict(doc: dict, layer: LayerShape) -> tuple[Schedule, BufferingAssignment]:
    from .space import instantiate  # space builds on this module
    if not isinstance(doc, dict):
        raise ValidationError("schedule document must be an object")
    unknown = set(doc) - {"order", "tiles", "buffering", "controlling"}
    if unknown:
        raise ValidationError(f"schedule document: unknown keys {sorted(unknown)}")
    order = [_parse_axis(a) for a in doc.get("order", [])]
    if sorted(a.name for a in order) != sorted(a.name for a in Axis):
        raise ValidationError('"order" must list all six axes exactly once')

    raw_tiles = doc.get("tiles", {})
    if not isinstance(raw_tiles, dict) or set(raw_tiles) - {"mss", "css", "iss", "jss"}:
        raise ValidationError('"tiles" must map mss/css/iss/jss to sizes')
    for key, v in raw_tiles.items():
        if not is_int(v):
            raise ValidationError(f"tile size {key} must be an integer")
    tiles = Tiles(
        mss=raw_tiles.get("mss", layer.c_out),
        css=raw_tiles.get("css", layer.c_in),
        iss=raw_tiles.get("iss", layer.out_h),
        jss=raw_tiles.get("jss", layer.out_w),
    )

    controlling = None
    if "controlling" in doc:
        controlling = tuple(_parse_axis(a) for a in doc["controlling"])
    schedule = instantiate(tuple(order), tiles, layer, controlling)

    raw_buf = doc.get("buffering", {})
    if not isinstance(raw_buf, dict) or set(raw_buf) != {"I", "W", "O"}:
        raise ValidationError('"buffering" must map I, W, and O to loop levels')
    for key, v in raw_buf.items():
        if not is_int(v):
            raise ValidationError(f"buffering level for {key} must be an integer")
    assignment = BufferingAssignment(*(raw_buf[a] for a in ARRAYS))
    assignment.check(schedule)
    return schedule, assignment


def schedule_from_json(text: str, layer: LayerShape) -> tuple[Schedule, BufferingAssignment]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"schedule is not valid JSON: {e}") from e
    return schedule_from_dict(doc, layer)
