"""Randomized invariants on desk-scale instances.

Every sampler is seeded; failures reproduce.
"""
from __future__ import annotations

import random

from convsched import (
    Axis,
    BufferingAssignment,
    LayerShape,
    Tiles,
    enumerate_permutations,
    evaluate_layer,
    ideal_traffic,
    instantiate,
    simulate,
    traffic,
)
from convsched.model import buffer_size


def random_layer(rng, stride=(1, 2), kmax=3):
    return LayerShape(
        name="r", out_h=rng.randrange(3, 9), out_w=rng.randrange(3, 9),
        k_h=rng.randrange(1, kmax + 1), k_w=rng.randrange(1, kmax + 1),
        stride=rng.choice(stride), c_in=rng.randrange(1, 5),
        c_out=rng.randrange(1, 5))


def random_schedule(rng, layer, orderings):
    tiles = Tiles(*(rng.randrange(1, e + 1) for e in
                    (layer.c_out, layer.c_in, layer.out_h, layer.out_w)))
    return instantiate(rng.choice(orderings), tiles, layer)


def mirror(layer, schedule, assignment):
    """The same computation with h and w roles exchanged everywhere."""
    swap = {Axis.FX: Axis.FY, Axis.FY: Axis.FX,
            Axis.SX: Axis.SY, Axis.SY: Axis.SX}
    t = schedule.tiles
    mirrored = instantiate(
        tuple(swap.get(a, a) for a in schedule.body_order()),
        Tiles(mss=t.mss, css=t.css, iss=t.jss, jss=t.iss),
        layer.transpose(),
        controlling=tuple(swap.get(a, a)
                          for a in schedule.controlling_order()) or None,
    )
    return mirrored, assignment


def test_budget_monotonicity():
    rng = random.Random(11)
    budgets = (48, 96, 192, 384, 768, 1536)
    for _ in range(6):
        layer = random_layer(rng)
        ev = evaluate_layer(layer, budgets)
        feasible = [r.report.total for r in ev.results if r.feasible]
        assert all(a >= b for a, b in zip(feasible, feasible[1:]))
        assert feasible, "even the largest budget failed"


def test_transpose_symmetry():
    rng = random.Random(12)
    orderings = enumerate_permutations(prune=False)
    for _ in range(40):
        layer = random_layer(rng)
        sched = random_schedule(rng, layer, orderings)
        asg = BufferingAssignment(*(rng.randrange(0, sched.n)
                                    for _ in range(3)))
        m_sched, m_asg = mirror(layer, sched, asg)
        assert traffic(m_sched, m_asg) == traffic(sched, asg)


def test_buffer_size_monotone_in_level():
    rng = random.Random(13)
    orderings = enumerate_permutations(prune=False)
    for _ in range(25):
        layer = random_layer(rng)
        sched = random_schedule(rng, layer, orderings)
        for array in ("I", "W", "O"):
            sizes = [buffer_size(array, sched, l) for l in range(-1, sched.n)]
            assert sizes == sorted(sizes)


def test_buffer_bytes_never_fall_as_the_level_moves_outward():
    # A running minimum of traffic over levels in the search's bound step
    # would rest on buffers never shrinking outward; check the bytes the
    # scalar model reports, with strides past rectangular kernels,
    # non-dividing tiles and shuffled controlling loops.
    rng = random.Random(18)
    orderings = enumerate_permutations(prune=False)
    for _ in range(30):
        layer = random_layer(rng, stride=(1, 2, 3, 4), kmax=4)
        sched = random_schedule(rng, layer, orderings)
        ctrl = list(sched.controlling_order())
        rng.shuffle(ctrl)
        sched = instantiate(sched.body_order(), sched.tiles, layer,
                            controlling=tuple(ctrl) or None)
        reports = [traffic(sched, BufferingAssignment(l, l, l))
                   for l in range(sched.n)]
        for part in ("b_in", "b_w", "b_o"):
            sizes = [getattr(r, part) for r in reports]
            assert sizes == sorted(sizes), (part, sched, sizes)


def test_traffic_antitone_in_level_for_dense_windows():
    # Holds whenever the kernel is at least as wide as the stride, so the
    # sliding windows cover the input without gaps.  With k < stride the
    # input charge uses the window span as a sound upper bound, and that
    # span can grow faster than the enclosing trip count shrinks.
    rng = random.Random(13)
    orderings = enumerate_permutations(prune=False)
    for _ in range(25):
        base = random_layer(rng)
        layer = LayerShape(**{**base.to_dict(),
                              "k_h": max(base.k_h, base.stride),
                              "k_w": max(base.k_w, base.stride),
                              "in_h": 0, "in_w": 0})
        sched = random_schedule(rng, layer, orderings)
        top = sched.n - 1
        for array, pick in (("I", lambda l: BufferingAssignment(l, top, top)),
                            ("W", lambda l: BufferingAssignment(top, l, top)),
                            ("O", lambda l: BufferingAssignment(top, top, l))):
            per_array = {"I": lambda r: r.t_in, "W": lambda r: r.t_w,
                         "O": lambda r: r.t_o_acc + r.t_o_final}[array]
            flows = [per_array(traffic(sched, pick(l)))
                     for l in range(sched.n)]
            assert all(a >= b for a, b in zip(flows, flows[1:]))


def test_output_write_volume_is_schedule_independent():
    rng = random.Random(14)
    orderings = enumerate_permutations(prune=False)
    for _ in range(25):
        layer = random_layer(rng)
        sched = random_schedule(rng, layer, orderings)
        asg = BufferingAssignment(*(rng.randrange(0, sched.n)
                                    for _ in range(3)))
        rep = traffic(sched, asg)
        assert rep.t_o_final == layer.p_out * layer.c_out \
            * layer.out_h * layer.out_w
        assert rep.total >= ideal_traffic(layer)


def test_no_spills_when_output_buffered_above_channel_loops():
    rng = random.Random(15)
    orderings = enumerate_permutations(prune=False)
    for _ in range(25):
        layer = random_layer(rng)
        sched = random_schedule(rng, layer, orderings)
        level_o = max(sched.body_position(Axis.IF),
                      sched.body_position(Axis.FX),
                      sched.body_position(Axis.FY))
        if any(l.axis is Axis.IF and not l.is_tile_loop for l in sched.loops):
            continue  # a channel trip loop above would still interrupt
        asg = BufferingAssignment(0, 0, level_o)
        assert traffic(sched, asg).t_o_acc == 0


def test_oracle_visit_conservation():
    rng = random.Random(16)
    orderings = enumerate_permutations(prune=False)
    for _ in range(15):
        layer = random_layer(rng)
        sched = random_schedule(rng, layer, orderings)
        asg = BufferingAssignment(*(rng.randrange(0, sched.n)
                                    for _ in range(3)))
        stats = simulate(sched, asg)
        assert stats.iterations == (layer.c_out * layer.c_in
                                    * layer.out_h * layer.out_w
                                    * layer.k_h * layer.k_w)
        assert stats.writes_o_final == layer.c_out * layer.out_h * layer.out_w
        # Compulsory misses floor the load counts.
        assert stats.loads_w >= layer.c_out * layer.c_in \
            * layer.k_h * layer.k_w


def test_model_never_undercounts_at_body_levels():
    rng = random.Random(17)
    orderings = enumerate_permutations(prune=False)
    for _ in range(30):
        layer = random_layer(rng)
        sched = random_schedule(rng, layer, orderings)
        asg = BufferingAssignment(*(rng.randrange(0, sched.n)
                                    for _ in range(3)))
        rep = traffic(sched, asg)
        stats = simulate(sched, asg)
        assert rep.t_in >= layer.p_in * stats.loads_i
        assert rep.t_w >= layer.p_w * stats.loads_w
        assert rep.t_o_acc + rep.t_o_final >= \
            layer.p_acc * 2 * stats.writes_o_partial \
            + layer.p_out * stats.writes_o_final
