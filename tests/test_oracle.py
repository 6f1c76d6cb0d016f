from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from convsched import (
    Axis,
    BufferingAssignment,
    LayerShape,
    OracleCapError,
    Tiles,
    enumerate_permutations,
    evaluate_layer,
    find_builtin_layer,
    instantiate,
    oracle,
    simulate,
    validate,
)
from convsched.oracle import TraceStats
from convsched.space import TILEABLE_AXES
from conftest import CANONICAL_ORDER, make_tiny, untiled


FULL_REUSE = BufferingAssignment(5, 5, 5)


def test_full_reuse_trace_moves_each_element_once():
    stats = simulate(untiled(make_tiny()), FULL_REUSE)
    assert stats.loads_i == 128
    assert stats.loads_w == 72
    assert stats.writes_o_partial == 0
    assert stats.reads_o_partial == 0
    assert stats.writes_o_final == 144
    assert stats.bytes_total == 344
    # 4 maps x 2 channels x 36 outputs x 9 taps.
    assert stats.iterations == 2592


def test_input_reloaded_per_output_map_when_buffered_below_of():
    stats = simulate(untiled(make_tiny()), BufferingAssignment(4, 5, 5))
    assert stats.loads_i == 4 * 128


def test_1x1_kernel_has_no_halo():
    layer = LayerShape(name="pw", out_h=5, out_w=5, k_h=1, k_w=1,
                       stride=1, c_in=3, c_out=2)
    stats = simulate(untiled(layer), FULL_REUSE)
    assert stats.loads_i == 3 * 5 * 5


def test_spills_charged_per_interrupted_accumulation():
    # O buffered below the IF loop: each output is parked once, at 4 bytes
    # each way, before its second channel pass completes it.
    stats = simulate(untiled(make_tiny()), BufferingAssignment(5, 5, 3))
    assert stats.writes_o_partial == 144
    assert stats.reads_o_partial == 144
    assert stats.writes_o_final == 144
    assert stats.bytes_total == 128 + 72 + 4 * 2 * 144 + 144


def test_visit_conservation_under_tiling():
    tiny = make_tiny()
    # Non-dividing tiles: edge trips run phantom iterations that must be
    # masked out, not counted.
    sched = instantiate(CANONICAL_ORDER, Tiles(3, 2, 4, 5), tiny)
    stats = simulate(sched, BufferingAssignment(0, 0, 0))
    assert stats.iterations == 2592


def test_cap_refusal_carries_required_count():
    with pytest.raises(OracleCapError) as exc:
        simulate(untiled(make_tiny()), FULL_REUSE, cap=100)
    assert exc.value.required == 2592
    assert exc.value.cap == 100
    assert "2592" in str(exc.value)


def test_validate_is_exact_on_dividing_unit_stride():
    tiny = make_tiny()
    sched = instantiate(CANONICAL_ORDER, Tiles(2, 1, 3, 6), tiny)
    rep = validate(sched, BufferingAssignment(3, 2, 4))
    assert rep.rel_err_total == 0
    assert rep.rel_err_i == rep.rel_err_w == rep.rel_err_o == 0
    assert rep.undercounts == ()
    assert rep.model.total == rep.oracle.bytes_total


def test_validate_strided_non_dividing_overestimates_slightly():
    layer = LayerShape(name="s2", out_h=9, out_w=9, k_h=3, k_w=3,
                       stride=2, c_in=4, c_out=5)
    # mss=2 wastes one lane on the last trip (3 trips x 2 >= 5).
    sched = instantiate(CANONICAL_ORDER, Tiles(2, 4, 9, 9), layer)
    rep = validate(sched, BufferingAssignment(5, 5, 2))
    assert rep.undercounts == ()
    assert 0 <= rep.rel_err_total <= 0.005


def test_validation_report_carries_per_array_bytes():
    # Distinct precisions per array, so a byte count priced at the wrong
    # precision shows.
    layer = LayerShape(name="s2", out_h=9, out_w=7, k_h=3, k_w=2, stride=2,
                       c_in=4, c_out=5, p_in=1, p_w=2, p_out=3, p_acc=4)
    sched = instantiate(CANONICAL_ORDER, Tiles(2, 3, 4, 7), layer)
    rep = validate(sched, BufferingAssignment(5, 3, 2))
    tr, model = rep.oracle, rep.model
    assert rep.oracle_bytes == {
        "I": tr.loads_i, "W": 2 * tr.loads_w,
        "O": 4 * (tr.writes_o_partial + tr.reads_o_partial)
             + 3 * tr.writes_o_final}
    assert rep.model_bytes == {"I": model.t_in, "W": model.t_w,
                               "O": model.t_o_acc + model.t_o_final}
    assert sum(rep.oracle_bytes.values()) == tr.bytes_total
    for a, err in zip("IWO", (rep.rel_err_i, rep.rel_err_w, rep.rel_err_o)):
        ob = rep.oracle_bytes[a]
        assert err == (rep.model_bytes[a] - ob) / ob


# ---------------------------------------------------------------------------
# The chunked walk against plain nested loops.

def _walk(schedule, assignment):
    """TraceStats from nested Python loops over `schedule.loops` and one set
    of (instance, element) pairs per array, an instance being the counters
    of the loops above the array's buffering level."""
    layer = schedule.layer
    loops = schedule.loops
    steps = [1 if l.is_tile_loop else schedule.tiles.for_axis(l.axis, layer)
             for l in loops]
    levels = {"I": assignment.level_i, "W": assignment.level_w,
              "O": assignment.level_o}
    pairs = {a: set() for a in levels}
    iterations = 0
    # itertools.product runs its last range fastest: outermost loop first.
    for outer_first in itertools.product(*(range(l.extent)
                                           for l in reversed(loops))):
        counters = outer_first[::-1]
        at = dict.fromkeys(Axis, 0)
        for loop, step, c in zip(loops, steps, counters):
            at[loop.axis] += c * step
        m, ch, y, x = at[Axis.OF], at[Axis.IF], at[Axis.SY], at[Axis.SX]
        ky, kx = at[Axis.FY], at[Axis.FX]
        if m >= layer.c_out or ch >= layer.c_in \
                or y >= layer.out_h or x >= layer.out_w:
            continue
        iterations += 1
        elements = {"I": (ch, y * layer.stride + ky, x * layer.stride + kx),
                    "W": (m, ch, ky, kx), "O": (m, y, x)}
        for array, level in levels.items():
            pairs[array].add((counters[level + 1:], elements[array]))
    finals = len({e for _, e in pairs["O"]})
    spills = len(pairs["O"]) - finals
    return TraceStats(
        loads_i=len(pairs["I"]), loads_w=len(pairs["W"]),
        writes_o_partial=spills, reads_o_partial=spills,
        writes_o_final=finals,
        bytes_total=(layer.p_in * len(pairs["I"]) + layer.p_w * len(pairs["W"])
                     + 2 * layer.p_acc * spills + layer.p_out * finals),
        iterations=iterations)


def _micro_cases(seed, count):
    """Seeded micro nests: rectangular kernels, strides up to past the
    kernel, tiles that need not divide, shuffled controlling loops, random
    buffering levels and precisions."""
    rng = random.Random(seed)
    orderings = enumerate_permutations(prune=False)
    for i in range(count):
        k_h, k_w = rng.randrange(1, 4), rng.randrange(1, 4)
        layer = LayerShape(
            name=f"micro{i}", out_h=rng.randrange(1, 7),
            out_w=rng.randrange(1, 7), k_h=k_h, k_w=k_w,
            stride=rng.randrange(1, max(k_h, k_w) + 3),
            c_in=rng.randrange(1, 5), c_out=rng.randrange(1, 5),
            p_in=rng.randrange(1, 3), p_w=rng.randrange(1, 3),
            p_acc=rng.randrange(1, 5) + 1)
        full = (layer.c_out, layer.c_in, layer.out_h, layer.out_w)
        tiles = Tiles(*(rng.randrange(1, e + 1) for e in full))
        tiled = [a for a, e in zip(TILEABLE_AXES, full)
                 if tiles.for_axis(a, layer) < e]
        rng.shuffle(tiled)
        sched = instantiate(rng.choice(orderings), tiles, layer,
                            controlling=tuple(tiled) or None)
        yield sched, BufferingAssignment(
            *(rng.randrange(sched.n) for _ in range(3)))


@pytest.mark.parametrize("chunk", [oracle._CHUNK, 64, 3])
def test_simulate_matches_a_nested_loop_walk(chunk, monkeypatch):
    # At 64 and 3 iterations a chunk, instances straddle chunks and single
    # loops outrun a chunk, so the walk slices them.
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    for sched, asg in _micro_cases(21, 20):
        assert simulate(sched, asg) == _walk(sched, asg), (sched, asg)
    # One loop alone longer than a 64-iteration chunk.
    layer = LayerShape(name="long", out_h=2, out_w=3, k_h=1, k_w=2,
                       stride=3, c_in=70, c_out=2)
    sched = instantiate((Axis.FX, Axis.FY, Axis.SX, Axis.SY, Axis.OF, Axis.IF),
                        Tiles(2, 70, 1, 3), layer)
    for levels in ((0, 0, 0), (4, 5, 3), (5, 6, 6), (6, 2, 4)):
        asg = BufferingAssignment(*levels)
        assert simulate(sched, asg) == _walk(sched, asg), levels


def test_real_layer_winners_check_out():
    # Inception-3-5, the smallest built-in layer: 5.3 M iterations a winner.
    layer = find_builtin_layer("Inception-3-5")
    budgets = (4096, 65536)
    ev = evaluate_layer(layer, budgets)
    for budget, res in zip(budgets, ev.results):
        rep = validate(res.schedule, res.assignment)
        assert rep.undercounts == (), budget
        assert rep.model.total == res.report.total, budget
        assert rep.oracle.iterations == layer.c_out * layer.c_in \
            * layer.out_h * layer.out_w * layer.k_h * layer.k_w


def test_oracle_checks_raise_under_python_O():
    # `python -O` strips assert statements; the trace's own consistency
    # checks must still fire.
    script = textwrap.dedent("""
        import dataclasses, sys
        from convsched import CrossCheckError, LayerShape, instantiate, oracle
        from convsched.oracle import TraceStats
        from convsched.model import Axis, BufferingAssignment, Tiles
        if __debug__:
            sys.exit("not running under -O")

        def expect(error, fn, *args):
            try:
                fn(*args)
            except error as e:
                print(e)
            else:
                sys.exit(f"no {error.__name__}")

        expect(ValueError, TraceStats, 1, 1, 2, 3, 4, 20, 9)
        expect(ValueError, TraceStats, 1, -1, 0, 0, 4, 20, 9)

        layer = LayerShape(name="tiny", out_h=6, out_w=6, k_h=3, k_w=3,
                           stride=1, c_in=2, c_out=4)
        order = (Axis.FX, Axis.FY, Axis.SX, Axis.SY, Axis.IF, Axis.OF)
        sched = instantiate(order, Tiles(4, 2, 6, 6), layer)
        asg = BufferingAssignment(5, 5, 5)

        real_weights = oracle._element_weights
        def one_output(layer):
            weights = real_weights(layer)
            weights["O"] = {}
            return weights
        oracle._element_weights = one_output
        expect(CrossCheckError, oracle.simulate, sched, asg)
        oracle._element_weights = real_weights

        real_simulate = oracle.simulate
        def off_by_one(*args, **kwargs):
            stats = real_simulate(*args, **kwargs)
            return dataclasses.replace(stats, bytes_total=stats.bytes_total + 1)
        oracle.simulate = off_by_one
        expect(CrossCheckError, oracle.validate, sched, asg)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 4, done.stdout
    assert "partial-sum reads 3 differ from partial-sum writes 2" in lines[0]
    assert "negative" in lines[1] and "loads_w" in lines[1]
    assert "wrote 1 distinct output elements, the layer has 144" in lines[2]
    assert "344 per array but 345 in total" in lines[3]
