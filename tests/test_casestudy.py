from __future__ import annotations

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from convsched import (
    Axis,
    BufferingAssignment,
    HwcConfig,
    LayerShape,
    LayerSuite,
    TilePolicy,
    Tiles,
    ValidationError,
    find_builtin_layer,
    hwc_schedule,
    hwce_schedule,
    hwce_vs_hwc_ratio,
    ideal_traffic,
    instantiate,
    schedule_to_json,
    simulate,
    traffic,
)
from convsched.casestudy import HWC_BODY, HWC_LEVELS, HWCE_LEVELS, hwc_results
from convsched.engine import least_buffer
from convsched.space import enumerate_tiles
from conftest import make_tiny


def test_hwc_config_validation():
    with pytest.raises(ValidationError):
        HwcConfig(budget=0)
    with pytest.raises(ValidationError):
        HwcConfig(simd=0)
    cfg = HwcConfig()
    assert (cfg.budget, cfg.simd) == (1024, 16)


def test_hwc_fixed_structure():
    sched, levels, _ = hwc_schedule(make_tiny(), HwcConfig())
    assert sched.body_order() == HWC_BODY
    assert levels == HWC_LEVELS == BufferingAssignment(4, 2, 5)


def test_hwc_column_tile_clamps_to_simd_width():
    sched, _, _ = hwc_schedule(make_tiny(), HwcConfig())
    assert sched.tiles.jss == 6  # min(16, out_w)
    wide = LayerShape(name="wide", out_h=4, out_w=40, k_h=3, k_w=3,
                      stride=1, c_in=2, c_out=4)
    sched, _, _ = hwc_schedule(wide, HwcConfig())
    assert sched.tiles.jss == 16


def test_hwc_with_room_buys_full_input_reuse_and_local_accumulation():
    # A generous budget lets the fixed nest go untiled: inputs stream once
    # and no partials spill.  Weights still re-stream once per output row
    # block; their buffering level is part of the design, not searched.
    tiny = make_tiny()
    sched, levels, rep = hwc_schedule(tiny, HwcConfig(budget=4096))
    assert rep.feasible
    assert (rep.t_in, rep.t_w, rep.t_o_acc, rep.t_o_final) == (128, 432, 0, 144)
    assert rep.total == 704
    assert simulate(sched, levels).bytes_total == 704


def test_hwc_alexnet2_frozen_result():
    # Regression pin at the 1 kB design point: full-channel tiles, one
    # row in flight, 16-wide columns, all accumulation completed locally.
    layer = find_builtin_layer("AlexNet-2")
    sched, _, rep = hwc_schedule(layer, HwcConfig())
    assert rep.feasible
    assert (sched.tiles.mss, sched.tiles.css,
            sched.tiles.iss, sched.tiles.jss) == (8, 96, 1, 16)
    assert rep.buffer_bytes == 552
    assert rep.t_o_acc == 0
    assert rep.total == 62_394_624


def test_hwc_infeasible_budget_returns_smallest_buffer():
    layer = find_builtin_layer("AlexNet-2")
    sched, _, rep = hwc_schedule(layer, HwcConfig(budget=16))
    assert not rep.feasible
    assert sched is not None
    assert rep.buffer_bytes > 16


# ---------------------------------------------------------------------------
# The engine's HWC tile search against a scalar loop over every tile.

def _scalar_hwc(layer, config):
    """Every tile of the fixed HWC nest instantiated, priced and serialized
    by the scalar model; the least (total, buffer, spill, serialization)
    that fits, else the least (buffer, total, spill, serialization)."""
    menus = enumerate_tiles(layer, TilePolicy())
    jss = min(config.simd, layer.out_w)
    best = None
    fallback = None
    for mss, css, iss in itertools.product(
            menus[Axis.OF], menus[Axis.IF], menus[Axis.SY]):
        tiles = Tiles(mss=mss, css=css, iss=iss, jss=jss)
        schedule = instantiate(HWC_BODY, tiles, layer)
        report = traffic(schedule, HWC_LEVELS, config.budget)
        serial = schedule_to_json(schedule, HWC_LEVELS)
        fb_key = (report.buffer_bytes, report.total, report.t_o_acc, serial)
        if fallback is None or fb_key < fallback[0]:
            fallback = (fb_key, schedule, report)
        if not report.feasible:
            continue
        key = (report.total, report.buffer_bytes, report.t_o_acc, serial)
        if best is None or key < best[0]:
            best = (key, schedule, report)
    _, schedule, report = best if best is not None else fallback
    return schedule, HWC_LEVELS, report


def _hwc_desk_layers(seed):
    """Random desk layers: a rectangular kernel under a wider stride, a
    stride wider than the whole kernel, a square kernel at stride one and
    a 1x1 one.  Extents in 3..11 leave power-of-two tiles that do not
    divide them."""
    rng = np.random.default_rng(seed)
    shapes = ((3, 1, 2), (2, 3, 4), (3, 3, 1), (1, 1, 1))
    for i, (k_h, k_w, stride) in enumerate(shapes):
        out_h, out_w = (int(v) for v in rng.integers(3, 12, 2))
        c_in, c_out = (int(v) for v in rng.integers(1, 9, 2))
        p_out = int(rng.integers(1, 3))
        yield LayerShape(name=f"hwc{seed}-{i}", out_h=out_h, out_w=out_w,
                         k_h=k_h, k_w=k_w, stride=stride, c_in=c_in,
                         c_out=c_out, p_in=int(rng.integers(1, 3)),
                         p_w=int(rng.integers(1, 3)), p_out=p_out,
                         p_acc=p_out + int(rng.integers(0, 3)))


def test_hwc_search_matches_the_scalar_tile_loop():
    # Serialization and the whole report per budget, for SIMD widths of
    # one, four, sixteen and wider than any layer.  Budgets sit on and
    # just below the buffers of a sample of tiles, below the least buffer,
    # at one byte and above everything; hwc_results takes them all in one
    # call, unsorted and with a repeat.
    rng = np.random.default_rng(7)
    for layer in _hwc_desk_layers(seed=3):
        menus = enumerate_tiles(layer, TilePolicy())
        for simd in (1, 4, 16, 64):
            jss = min(simd, layer.out_w)
            buffers = sorted({
                traffic(instantiate(HWC_BODY, Tiles(m, c, i, jss), layer),
                        HWC_LEVELS).buffer_bytes
                for m, c, i in itertools.product(
                    menus[Axis.OF], menus[Axis.IF], menus[Axis.SY])})
            edges = rng.choice(buffers, size=min(5, len(buffers)),
                               replace=False).tolist()
            budgets = [b + d for b in [buffers[0]] + edges for d in (-1, 0)]
            budgets += [1, buffers[-1] + 1, budgets[0]]
            rng.shuffle(budgets)
            results = hwc_results(layer, tuple(budgets), simd)
            for budget, res in zip(budgets, results):
                config = HwcConfig(budget=budget, simd=simd)
                want_sched, want_levels, want = _scalar_hwc(layer, config)
                got = (res.schedule, res.assignment, res.report)
                assert got == hwc_schedule(layer, config)
                assert res.report == want, (layer, simd, budget)
                assert (schedule_to_json(res.schedule, res.assignment)
                        == schedule_to_json(want_sched, want_levels))
            assert not results[budgets.index(buffers[0] - 1)].feasible


def test_hwc_fallback_breaks_ties_on_spill_then_serialization():
    # Two tiles with equal buffer (6) and traffic (19): the one that
    # spills less wins even where its serialization is the greater one;
    # with spill tied too, the lesser serialization wins.
    def tiles(*v):
        return np.asarray([v], dtype=np.int64)

    serial = {0: "a", 1: "b"}
    arrays = [(tiles(10, 12), tiles(3, 3)), (tiles(5, 5), tiles(2, 2)),
              (tiles(4, 2), tiles(1, 1))]
    assert least_buffer(arrays, lambda idx, t: serial[t]) == (6, 19, (0, 0, 0), 1)
    arrays[2] = (tiles(3, 3), tiles(1, 1))
    arrays[0] = (tiles(11, 11), tiles(3, 3))
    assert least_buffer(arrays, lambda idx, t: serial[t]) == (6, 19, (0, 0, 0), 0)


def test_hwc_results_validates_budgets_and_simd():
    with pytest.raises(ValidationError):
        hwc_results(make_tiny(), (1024, 0))
    with pytest.raises(ValidationError):
        hwc_results(make_tiny(), (1024,), simd=0)


def test_hwce_stripe_rule_alexnet1():
    # 1024 B line budget: 11x11 weights + one 4-byte accumulator leave
    # (1024-125)//11 = 81 pixels per row, so strides fit 18 columns.
    layer = find_builtin_layer("AlexNet-1")
    sched, levels, rep = hwce_schedule(layer, HwcConfig())
    assert sched.tiles.jss == 18
    assert levels == HWCE_LEVELS
    assert rep.feasible


def test_hwce_infeasible_when_line_buffer_cannot_fit():
    layer = LayerShape(name="bigk", out_h=8, out_w=8, k_h=11, k_w=11,
                       stride=1, c_in=4, c_out=4)
    assert hwce_schedule(layer, HwcConfig(budget=128)) == (None, None, None)


def test_hwce_matches_oracle_on_tiny():
    tiny = make_tiny()
    sched, levels, rep = hwce_schedule(tiny, HwcConfig())
    stats = simulate(sched, levels)
    assert rep.total == stats.bytes_total
    # Single-map processing parks every partial sum between channel passes.
    assert stats.writes_o_partial > 0
    assert rep.t_o_acc == 4 * 2 * stats.writes_o_partial


def test_ratio_table_marks_infeasible_as_none():
    bigk = LayerShape(name="bigk", out_h=8, out_w=8, k_h=11, k_w=11,
                      stride=1, c_in=4, c_out=4)
    suite = LayerSuite("desk", (make_tiny(), bigk))
    rows = hwce_vs_hwc_ratio(suite, HwcConfig(budget=128))
    assert dict(rows)["bigk"] is None


def test_ratio_grows_with_cross_map_traffic():
    # Multi-channel layers pay for single-map processing: the 2-in/4-out
    # tiny layer already loses 2.7x.  With one map each way the line-buffer
    # nest gives nothing up at all; it even wins on weights, since its
    # kernel slice stays resident while the fixed-level nest re-streams it
    # per row block.  The ratio >= 1 claim is a corpus observation, not a
    # theorem; the acceptance suite checks it on the built-ins.
    tiny = make_tiny()
    single = LayerShape(name="single", out_h=8, out_w=8, k_h=3, k_w=3,
                        stride=1, c_in=1, c_out=1)
    suite = LayerSuite("desk", (tiny, single))
    rows = dict(hwce_vs_hwc_ratio(suite, HwcConfig()))
    assert rows["tiny"] == pytest.approx(1880 / 704)
    assert rows["single"] < 1
    _, _, hwce_rep = hwce_schedule(single, HwcConfig())
    assert hwce_rep.total == ideal_traffic(single) == 173


def test_hwce_sizing_check_raises_under_python_O():
    # `python -O` strips assert statements; a stripe the sizing rule picked
    # whose buffers the model finds over budget must still be refused.
    script = textwrap.dedent("""
        import dataclasses, sys
        from convsched import CrossCheckError, LayerShape, casestudy
        if __debug__:
            sys.exit("not running under -O")
        real = casestudy.traffic

        def overfull(*args, **kwargs):
            rep = real(*args, **kwargs)
            return dataclasses.replace(rep, b_in=rep.b_in + 4096,
                                       feasible=False)

        casestudy.traffic = overfull
        layer = LayerShape(name="tiny", out_h=6, out_w=6, k_h=3, k_w=3,
                           stride=1, c_in=2, c_out=4)
        try:
            casestudy.hwce_schedule(layer, casestudy.HwcConfig(budget=1024))
        except CrossCheckError as e:
            print(e)
        else:
            sys.exit("no CrossCheckError")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "tiny: the HWCE sizing rule chose stripe width" in done.stdout
    assert "of a 1024 B budget" in done.stdout
