"""Traffic-model unit tests, pinned to hand-evaluated desk-scale numbers.

The tiny layer (conftest.make_tiny) keeps the arithmetic checkable on
paper: inputs 2x8x8 = 128 elements, weights 4x2x3x3 = 72, outputs
4x6x6 = 144, everything 1 byte except 4-byte partial sums.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from convsched import (
    Axis,
    BufferingAssignment,
    LayerShape,
    Loop,
    Schedule,
    Tiles,
    ValidationError,
    buffer_size,
    footprint,
    ideal_traffic,
    reuse_descriptor,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
    traffic,
    window_extent,
)
from conftest import CANONICAL_ORDER, make_tiny, untiled


FULL_REUSE = BufferingAssignment(level_i=5, level_w=5, level_o=5)


def test_window_extent():
    assert window_extent(6, 3, 1) == 8
    assert window_extent(3, 3, 1) == 5
    assert window_extent(27, 5, 2) == 57
    assert window_extent(1, 7, 4) == 7
    # For kernels narrower than the stride the span overcounts the pixels
    # actually read; it is kept as a sound upper bound.
    assert window_extent(2, 1, 3) == 4


def test_tiles_for_axis_mapping():
    tiny = make_tiny()
    t = Tiles(mss=3, css=2, iss=5, jss=4)
    assert t.for_axis(Axis.OF, tiny) == 3
    assert t.for_axis(Axis.IF, tiny) == 2
    assert t.for_axis(Axis.SY, tiny) == 5
    assert t.for_axis(Axis.SX, tiny) == 4
    assert t.for_axis(Axis.FY, tiny) == 3
    assert t.for_axis(Axis.FX, tiny) == 3


def test_schedule_positions():
    sched = untiled(make_tiny())
    assert sched.body_order() == CANONICAL_ORDER
    assert sched.body_position(Axis.OF) == 5
    assert sched.body_position(Axis.FX) == 0
    assert sched.n == 6


def test_schedule_rejects_inconsistent_loops():
    tiny = make_tiny()
    tiles = Tiles(4, 2, 6, 6)
    loops = tuple(Loop(a, tiles.for_axis(a, tiny), True)
                  for a in CANONICAL_ORDER)
    # Tiled axis without its controlling loop.
    with pytest.raises(ValidationError):
        Schedule(loops=loops, tiles=Tiles(2, 2, 6, 6), layer=tiny)
    # Controlling loop for an untiled axis.
    with pytest.raises(ValidationError):
        Schedule(loops=loops + (Loop(Axis.OF, 1, False),),
                 tiles=tiles, layer=tiny)


def test_buffering_levels_validated_against_nest_depth():
    sched = untiled(make_tiny())
    with pytest.raises(ValidationError):
        traffic(sched, BufferingAssignment(5, 5, 6))
    with pytest.raises(ValidationError):
        traffic(sched, BufferingAssignment(-1, 5, 5))


# --- reuse descriptors ----------------------------------------------------

def test_weight_reuse_carried_by_spatial_loops():
    sched = untiled(make_tiny())
    d = reuse_descriptor("W", sched.body_position(Axis.SX), sched)
    assert d.carries and d.distance == 6
    for axis in (Axis.FX, Axis.FY, Axis.IF, Axis.OF):
        assert not reuse_descriptor("W", sched.body_position(axis), sched).carries


def test_output_reuse_carried_by_kernel_and_channel_loops():
    sched = untiled(make_tiny())
    d = reuse_descriptor("O", sched.body_position(Axis.IF), sched)
    assert d.carries and d.distance == 2
    for axis in (Axis.FX, Axis.FY):
        assert reuse_descriptor("O", sched.body_position(axis), sched).carries
    for axis in (Axis.SX, Axis.SY, Axis.OF):
        assert not reuse_descriptor("O", sched.body_position(axis), sched).carries


def test_input_reuse_outer_of_each_kernel_spatial_pair():
    sched = untiled(make_tiny())  # FX, FY, SX, SY, IF, OF
    # SX sits outside FX, so SX carries the x-dim reuse and FX does not.
    assert not reuse_descriptor("I", 0, sched).carries
    sx = reuse_descriptor("I", 2, sched)
    assert sx.carries and sx.distance == 3  # kernel extent, not the tile's
    assert reuse_descriptor("I", 5, sched).carries  # OF: full reuse
    assert not reuse_descriptor("I", 4, sched).carries  # IF: new map each trip
    # Swapped pair: kernel loop outside its spatial partner carries instead.
    swapped = untiled(make_tiny(),
                      (Axis.SX, Axis.SY, Axis.FX, Axis.FY, Axis.IF, Axis.OF))
    assert reuse_descriptor("I", 2, swapped).carries   # FX now outer
    assert not reuse_descriptor("I", 0, swapped).carries


def test_controlling_spatial_loops_do_not_carry_input_reuse():
    tiny = make_tiny()
    from convsched import instantiate
    sched = instantiate(CANONICAL_ORDER, Tiles(4, 2, 3, 3), tiny)
    for j in range(6, sched.n):  # SX, SY controlling loops
        assert not reuse_descriptor("I", j, sched).carries


def test_carries_iff_distance_above_one():
    sched = untiled(make_tiny())
    for array in ("I", "W", "O"):
        for j in range(sched.n):
            d = reuse_descriptor(array, j, sched)
            assert d.carries == (d.distance > 1)


# --- footprints and buffer sizes -----------------------------------------

def test_footprints_on_the_canonical_nest():
    sched = untiled(make_tiny())
    assert footprint("I", sched, -1) == 1
    # Whole-problem footprints at the top of the nest.
    assert footprint("I", sched, 5) == 128   # 2 maps x 8x8 window
    assert footprint("W", sched, 5) == 72    # 4x2 kernels x 3x3
    assert footprint("O", sched, 5) == 144   # 4 maps x 6x6
    # One output row of windows: 3 rows x full)width window = 3x8.
    assert footprint("I", sched, 2) == 24
    # Below OF: one output map's worth of weights.
    assert footprint("W", sched, 4) == 18


def test_buffer_size_frozen_values():
    sched = untiled(make_tiny())
    # O buffered just above the kernel loops: a single running accumulator.
    assert buffer_size("O", sched, 1) == 1
    # I buffered at the row loop: a 3-row sliding window, 3x8 pixels.
    assert buffer_size("I", sched, 3) == 24
    # Non-carrying level inherits the size from below.
    assert buffer_size("W", sched, 1) == buffer_size("W", sched, 0)
    # Level -1 is the empty context.
    assert buffer_size("O", sched, -1) == 1


def test_buffer_size_monotone_in_level():
    sched = untiled(make_tiny())
    for array in ("I", "W", "O"):
        sizes = [buffer_size(array, sched, lvl) for lvl in range(-1, sched.n)]
        assert sizes == sorted(sizes)


# --- traffic --------------------------------------------------------------

def test_ideal_traffic_tiny():
    # 2*64 inputs + 4*2*9 weights + 4*36 outputs, all at 1 byte.
    assert ideal_traffic(make_tiny()) == 344


def test_ideal_traffic_degenerate():
    one = LayerShape(name="one", out_h=1, out_w=1, k_h=1, k_w=1,
                     stride=1, c_in=1, c_out=1, p_acc=1)
    assert ideal_traffic(one) == 3


def test_full_reuse_traffic_equals_ideal():
    tiny = make_tiny()
    rep = traffic(untiled(tiny), FULL_REUSE)
    assert rep.total == ideal_traffic(tiny) == 344
    assert (rep.t_in, rep.t_w, rep.t_o_acc, rep.t_o_final) == (128, 72, 0, 144)
    # Only the input needs its whole footprint held; weights stream through
    # one 3x3 kernel slice (their last reuse carrier is the SY loop) and
    # outputs through one 36-element map at 4 bytes.
    assert (rep.b_in, rep.b_w, rep.b_o) == (128, 9, 144)
    assert rep.buffer_bytes == 281


def test_input_reloaded_once_per_output_map():
    # I buffered below the OF loop: the whole input streams in M times.
    rep = traffic(untiled(make_tiny()), BufferingAssignment(4, 5, 5))
    assert rep.t_in == 512  # 4 x 128


def test_interrupted_accumulation_charged_per_extra_pass():
    # O buffered below the IF loop: every output sees C=2 passes, the
    # second one a 4-byte write + read round trip per element.
    rep = traffic(untiled(make_tiny()), BufferingAssignment(5, 5, 3))
    assert rep.t_o_acc == 2 * 4 * 144 * (2 - 1) == 1152
    assert rep.t_o_final == 144
    assert rep.total == 128 + 72 + 1152 + 144


def test_feasibility_against_budget():
    sched = untiled(make_tiny())
    assert traffic(sched, FULL_REUSE, budget=281).feasible
    assert not traffic(sched, FULL_REUSE, budget=280).feasible
    assert traffic(sched, FULL_REUSE, budget=None).feasible


def test_traffic_lower_bound_random_spot():
    tiny = make_tiny()
    ideal = ideal_traffic(tiny)
    for order in ((Axis.OF, Axis.IF, Axis.SY, Axis.SX, Axis.FY, Axis.FX),
                  (Axis.IF, Axis.OF, Axis.FX, Axis.FY, Axis.SX, Axis.SY)):
        for lvl in range(6):
            rep = traffic(untiled(tiny, order),
                          BufferingAssignment(lvl, lvl, lvl))
            assert rep.total >= ideal


# --- serialization --------------------------------------------------------

def test_schedule_json_round_trip():
    tiny = make_tiny()
    from convsched import instantiate
    sched = instantiate(CANONICAL_ORDER, Tiles(2, 1, 3, 6), tiny,
                        controlling=(Axis.OF, Axis.SY, Axis.IF))
    asg = BufferingAssignment(2, 0, 4)
    text = schedule_to_json(sched, asg)
    sched2, asg2 = schedule_from_json(text, tiny)
    assert sched2 == sched and asg2 == asg
    assert json.loads(text)["controlling"] == ["OF", "SY", "IF"]


def test_schedule_json_omits_default_controlling_order():
    tiny = make_tiny()
    from convsched import instantiate
    sched = instantiate(CANONICAL_ORDER, Tiles(2, 2, 6, 6), tiny)
    doc = schedule_to_dict(sched, FULL_REUSE)
    assert set(doc) == {"order", "tiles", "buffering"}
    assert doc["tiles"] == {"mss": 2, "css": 2, "iss": 6, "jss": 6}


def test_schedule_json_rejects_malformed_documents():
    tiny = make_tiny()
    good = {"order": [a.name for a in CANONICAL_ORDER],
            "tiles": {"mss": 4, "css": 2, "iss": 6, "jss": 6},
            "buffering": {"I": 5, "W": 5, "O": 5}}
    schedule_from_json(json.dumps(good), tiny)
    for breakage in (
        {"order": good["order"][:5]},
        {"order": good["order"][:5] + ["FX"]},
        {"tiles": {"mss": 4, "nope": 1}},
        {"buffering": {"I": 5, "W": 5}},
        {"buffering": {"I": 5, "W": 5, "O": 5, "X": 0}},
        {"extra": 1},
    ):
        bad = {**good, **breakage}
        with pytest.raises(ValidationError):
            schedule_from_json(json.dumps(bad), tiny)


def test_schedule_json_missing_tiles_default_to_full_extent():
    tiny = make_tiny()
    doc = {"order": [a.name for a in CANONICAL_ORDER],
           "tiles": {"mss": 2},
           "buffering": {"I": 5, "W": 5, "O": 5}}
    sched, _ = schedule_from_json(json.dumps(doc), tiny)
    assert sched.tiles == Tiles(mss=2, css=2, iss=6, jss=6)


def test_report_parts_must_add_up_under_python_O():
    # `python -O` strips assert statements; a report whose total is not the
    # sum of its parts must still be refused.
    script = textwrap.dedent("""
        import dataclasses, sys
        from convsched import BufferingAssignment, LayerShape, Tiles
        from convsched import instantiate, traffic
        from convsched.model import Axis
        if __debug__:
            sys.exit("not running under -O")
        layer = LayerShape(name="tiny", out_h=6, out_w=6, k_h=3, k_w=3,
                           stride=1, c_in=2, c_out=4)
        order = (Axis.FX, Axis.FY, Axis.SX, Axis.SY, Axis.IF, Axis.OF)
        sched = instantiate(order, Tiles(4, 2, 6, 6), layer)
        report = traffic(sched, BufferingAssignment(5, 5, 5))
        try:
            dataclasses.replace(report, total=report.total + 1)
        except ValueError as e:
            print(e)
        else:
            sys.exit("a report with a wrong total was accepted")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "total 345 is not the sum of its parts 344" in done.stdout
