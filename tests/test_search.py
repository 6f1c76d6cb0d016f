"""Exhaustive-search tests.

The heart of this module is a scalar re-enumeration: a plain O(n^3)
loop over orderings x buffering levels evaluated one traffic() call at
a time, reduced with the same staged tie-break.  The vectorized engine
must agree with it bit for bit — same winning total, same serialized
schedule.
"""
from __future__ import annotations

import functools
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
    LayerShape,
    LayerSuite,
    SearchConfig,
    TilePolicy,
    Tiles,
    ValidationError,
    best_schedule,
    cache_best,
    cache_results,
    distribution,
    distribution_from,
    enumerate_permutations,
    evaluate_layer,
    evaluate_layers,
    find_builtin_layer,
    ideal_report,
    ideal_traffic,
    instantiate,
    min_budget_for_ideal,
    schedule_to_json,
    traffic,
)
from convsched import baselines, casestudy, engine, search
from convsched.cli import main
from convsched.search import worker_count
from convsched.space import enumerate_tiles
from conftest import make_tiny


def level_lifts(schedule):
    """Canonical level per array and position: the top of its segment.

    Raising a buffering level past a stretch of non-carrying loops changes
    nothing observable, so level triples come in equivalence segments.
    The search serializes the topmost member of each; the reference must
    name candidates the same way to tie-break identically.
    """
    n = schedule.n
    top = n - 1
    lifts = {}
    for array, probe in (
        ("I", lambda l: BufferingAssignment(l, top, top)),
        ("W", lambda l: BufferingAssignment(top, l, top)),
        ("O", lambda l: BufferingAssignment(top, top, l)),
    ):
        obs = []
        for lvl in range(n):
            rep = traffic(schedule, probe(lvl))
            obs.append({"I": (rep.t_in, rep.b_in),
                        "W": (rep.t_w, rep.b_w),
                        "O": (rep.t_o_acc, rep.b_o)}[array])
        lift = list(range(n))
        for lvl in range(n - 2, -1, -1):
            lift[lvl] = lift[lvl + 1] if obs[lvl + 1] == obs[lvl] else lvl
        lifts[array] = lift
    return lifts


def scalar_best(layer, budgets, menus):
    """Reference search: plain loops, one traffic() call per candidate."""
    best = {b: None for b in budgets}
    for ordering in enumerate_permutations(prune=True):
        for mss in menus[Axis.OF]:
            for css in menus[Axis.IF]:
                for iss in menus[Axis.SY]:
                    for jss in menus[Axis.SX]:
                        sched = instantiate(
                            ordering, Tiles(mss, css, iss, jss), layer)
                        n = sched.n
                        lifts = level_lifts(sched)
                        for li in range(n):
                            for lw in range(n):
                                for lo in range(n):
                                    asg = BufferingAssignment(li, lw, lo)
                                    rep = traffic(sched, asg)
                                    canon = BufferingAssignment(
                                        lifts["I"][li], lifts["W"][lw],
                                        lifts["O"][lo])
                                    assert traffic(sched, canon) == rep
                                    serial = schedule_to_json(sched, canon)
                                    key = (rep.total, rep.buffer_bytes,
                                           rep.t_o_acc, serial)
                                    for b in budgets:
                                        if rep.buffer_bytes > b:
                                            continue
                                        if best[b] is None or key < best[b]:
                                            best[b] = key
    return best


def test_engine_matches_scalar_reference_untiled():
    # Restricting tiles to the full extents keeps the scalar pass at
    # 180 x 216 candidates, small enough to grind through honestly.
    layer = LayerShape(name="micro", out_h=4, out_w=4, k_h=2, k_w=2,
                       stride=1, c_in=2, c_out=2)
    menus = {Axis.OF: (2,), Axis.IF: (2,), Axis.SY: (4,), Axis.SX: (4,)}
    budgets = (24, 48, 96, 4096)
    reference = scalar_best(layer, budgets, menus)
    policy = TilePolicy(mode="explicit", explicit=menus)
    ev = evaluate_layer(layer, budgets, policy=policy)
    for b, res in zip(budgets, ev.results):
        total, buf, acc, serial = reference[b]
        assert res.report.total == total
        assert res.report.buffer_bytes == buf
        assert res.report.t_o_acc == acc
        assert schedule_to_json(res.schedule, res.assignment) == serial
        assert res.feasible


def test_engine_matches_scalar_reference_tiled():
    layer = LayerShape(name="micro2", out_h=4, out_w=4, k_h=2, k_w=2,
                       stride=1, c_in=2, c_out=3)
    menus = {Axis.OF: (1, 3), Axis.IF: (2,), Axis.SY: (2, 4), Axis.SX: (4,)}
    budgets = (32, 4096)
    reference = scalar_best(layer, budgets, menus)
    policy = TilePolicy(mode="explicit", explicit=menus)
    ev = evaluate_layer(layer, budgets, policy=policy)
    for b, res in zip(budgets, ev.results):
        total, buf, acc, serial = reference[b]
        assert (res.report.total, res.report.buffer_bytes,
                res.report.t_o_acc) == (total, buf, acc)
        assert schedule_to_json(res.schedule, res.assignment) == serial


def test_best_schedule_report_is_reproducible_from_its_parts():
    tiny = make_tiny()
    res = best_schedule(tiny, 256)
    again = traffic(res.schedule, res.assignment, budget=256)
    assert again == res.report
    assert res.report.buffer_bytes <= 256
    assert res.feasible


def test_evaluate_layer_shape_and_plateau():
    tiny = make_tiny()
    budgets = (512, 1024, 2048)
    ev = evaluate_layer(tiny, budgets)
    assert ev.budgets == budgets
    assert [r.report.total for r in ev.results] == [344, 344, 344]
    assert ev.ordering_best.shape == (180, 3)
    # Every ordering can reach the unconstrained optimum eventually, and
    # per-ordering bests never beat the global winner.
    assert (ev.ordering_best >= 344).all()
    col = ev.ordering_best[:, 0]
    assert col.min() == 344


def test_evaluate_layer_infeasible_budget_reports_fallback():
    tiny = make_tiny()
    ev = evaluate_layer(tiny, (1,))
    res = ev.results[0]
    assert not res.feasible
    assert res.report.buffer_bytes > 1
    assert (ev.ordering_best == -1).all()


def test_min_budget_for_ideal_is_tight():
    tiny = make_tiny()
    mb = min_budget_for_ideal(tiny)
    assert best_schedule(tiny, mb).report.total == 344
    assert best_schedule(tiny, mb - 1).report.total > 344


def test_min_budget_for_ideal_unreachable_raises():
    tiny = make_tiny()
    # Forcing a single poor tile choice cuts ideal out of the space.
    menus = {Axis.OF: (1,), Axis.IF: (1,), Axis.SY: (1,), Axis.SX: (1,)}
    with pytest.raises(ValidationError):
        min_budget_for_ideal(tiny, policy=TilePolicy(mode="explicit",
                                                     explicit=menus))


def test_ideal_report_decomposition():
    tiny = make_tiny()
    rep = ideal_report(tiny)
    assert rep.total == ideal_traffic(tiny)
    assert (rep.t_in, rep.t_w, rep.t_o_acc, rep.t_o_final) == (128, 72, 0, 144)
    assert rep.buffer_bytes == 0
    assert rep.feasible


def _gapped_layers(seed, count=12):
    """Random desk layers whose stride exceeds the kernel in at least one
    dim, rectangular kernels among them."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k_h, k_w = (int(v) for v in rng.integers(1, 4, 2))
        stride = min(k_h, k_w) + int(rng.integers(1, 4))
        out_h, out_w = (int(v) for v in rng.integers(2, 7, 2))
        c_in, c_out = (int(v) for v in rng.integers(1, 4, 2))
        yield LayerShape(name=f"gap{seed}-{i}", out_h=out_h, out_w=out_w,
                         k_h=k_h, k_w=k_w, stride=stride, c_in=c_in,
                         c_out=c_out, p_in=int(rng.integers(1, 3)))


def test_ideal_is_a_floor_when_the_stride_exceeds_the_kernel():
    # The ideal reads each input position some window covers once; a
    # span-wide ideal sat above almost every winner on these layers.
    budgets = tuple(16 << i for i in range(12))    # 16 B .. 32 KiB
    for layer in _gapped_layers(seed=7):
        assert layer.stride > min(layer.k_h, layer.k_w)
        read = [{o * layer.stride + d for o in range(out) for d in range(k)}
                for out, k in ((layer.out_h, layer.k_h),
                               (layer.out_w, layer.k_w))]
        ideal = ideal_report(layer)
        assert ideal.t_in == layer.p_in * layer.c_in * len(read[0]) \
            * len(read[1])
        for res in evaluate_layer(layer, budgets).results:
            assert res.report.total >= ideal.total, (layer, res.budget)
        res = best_schedule(layer, min_budget_for_ideal(layer))
        assert res.feasible and res.report.total == ideal.total, layer


def test_every_model_refuses_a_non_positive_budget(monkeypatch):
    # One check, on the staircase, before any tables are built.
    def no_tables(*args):
        raise AssertionError("tables built for a non-positive budget")

    monkeypatch.setattr(engine, "prefix_tables", no_tables)
    monkeypatch.setattr(baselines, "tile_vectors", no_tables)
    tiny = make_tiny()
    for budgets in ((0,), (-5,), (0, -5), (1024, 0)):
        for call in (evaluate_layer, baselines.peemen_results,
                     cache_results, casestudy.hwc_results,
                     lambda l, b: evaluate_layers([l], b),
                     lambda l, b: distribution([l], b)):
            with pytest.raises(ValidationError, match="must be positive"):
                call(tiny, budgets)
    for budget in (0, -5):
        with pytest.raises(ValidationError, match="must be positive"):
            best_schedule(tiny, budget)


@pytest.mark.parametrize("budget", [1024.7, True, "1024", 2 ** 70])
def test_one_budget_rule_refuses_non_integers_and_past_int64(budget):
    # A float once ran ranked at its floor, True as a 1-byte budget and a
    # string ended in a TypeError; the HWC configuration kept a looser
    # copy of the rule that the HWCE answered through.
    layer = find_builtin_layer("ZFNet-6")
    message = ("budget must be positive and fit in 64 bits as an integer, "
               f"got {budget!r}")
    for call in (lambda: best_schedule(layer, budget),
                 lambda: evaluate_layer(layer, (budget,)),
                 lambda: baselines.peemen_best(layer, budget),
                 lambda: cache_best(layer, budget),
                 lambda: casestudy.hwc_results(layer, (budget,)),
                 lambda: casestudy.hwc_schedule(
                     layer, casestudy.HwcConfig(budget=budget)),
                 lambda: casestudy.hwce_schedule(
                     layer, casestudy.HwcConfig(budget=budget)),
                 lambda: SearchConfig(budgets=(budget,))):
        with pytest.raises(ValidationError) as refused:
            call()
        assert str(refused.value) == message


def test_search_config_validation():
    with pytest.raises(ValidationError):
        SearchConfig(budgets=(1024, 512))
    with pytest.raises(ValidationError):
        SearchConfig(budgets=(512, 512))
    with pytest.raises(ValidationError):
        SearchConfig(budgets=())
    with pytest.raises(ValidationError):
        SearchConfig(budgets=(0, 512))


def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("CONVSCHED_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("CONVSCHED_THREADS", "zero")
    with pytest.raises(ValidationError):
        worker_count()
    monkeypatch.setenv("CONVSCHED_THREADS", "0")
    with pytest.raises(ValidationError):
        worker_count()
    monkeypatch.delenv("CONVSCHED_THREADS")
    assert worker_count() >= 1


def test_results_independent_of_worker_count(monkeypatch):
    tiny = make_tiny()
    other = LayerShape(name="t2", out_h=6, out_w=6, k_h=3, k_w=3,
                       stride=2, c_in=3, c_out=5)
    budgets = (256, 1024)

    def snapshot():
        evs = evaluate_layers([tiny, other], budgets)
        return [(r.report, schedule_to_json(r.schedule, r.assignment))
                for ev in evs for r in ev.results]

    monkeypatch.setenv("CONVSCHED_THREADS", "1")
    serial = snapshot()
    monkeypatch.setenv("CONVSCHED_THREADS", "2")
    parallel = snapshot()
    assert serial == parallel


def _outcome(res):
    return res.report, schedule_to_json(res.schedule, res.assignment)


def _step_edges(results):
    """Every winner's buffer and one byte less, one byte below the smallest
    buffer (results[0] is at budget 1, where nothing fits) and a budget
    past the plateau."""
    stairs = {r.report.buffer_bytes for r in results if r.feasible}
    assert not results[0].feasible
    return tuple(sorted(stairs | {s - 1 for s in stairs}
                        | {results[0].report.buffer_bytes - 1,
                           max(stairs) + 1000}))


def test_one_multi_budget_call_matches_single_calls_at_step_edges():
    # The staircase answers every budget at once; at each stair edge, just
    # below it, below every buffer and past the plateau it must pick what
    # a search at that budget alone picks.
    layer = LayerShape(name="micro", out_h=4, out_w=4, k_h=2, k_w=2,
                       stride=1, c_in=2, c_out=2)
    menus = {Axis.OF: (2,), Axis.IF: (2,), Axis.SY: (4,), Axis.SX: (4,)}
    policy = TilePolicy(mode="explicit", explicit=menus)
    # No candidate buffers more than the three whole arrays, 194 bytes.
    dense = tuple(range(1, 257))

    budgets = _step_edges(evaluate_layer(layer, dense, policy=policy).results)
    ev = evaluate_layer(layer, budgets, policy=policy)
    for bidx, budget in enumerate(budgets):
        one = evaluate_layer(layer, (budget,), policy=policy)
        assert _outcome(ev.results[bidx]) == _outcome(one.results[0])
        assert (ev.ordering_best[:, bidx] == one.ordering_best[:, 0]).all()

    budgets = _step_edges(cache_results(layer, dense, policy))
    multi = cache_results(layer, budgets, policy)
    for res, budget in zip(multi, budgets):
        assert _outcome(res) == _outcome(cache_best(layer, budget, policy))


def test_budget_order_and_repeats_do_not_change_answers():
    tiny = make_tiny()
    ordered = (64, 96, 128, 256, 512, 1024)
    shuffled = (256, 64, 1024, 128, 512, 96, 128)
    ref = evaluate_layer(tiny, ordered)
    ev = evaluate_layer(tiny, shuffled)
    ref_cache = cache_results(tiny, ordered)
    got_cache = cache_results(tiny, shuffled)
    for bidx, budget in enumerate(shuffled):
        r = ordered.index(budget)
        assert ev.results[bidx].budget == budget
        assert _outcome(ev.results[bidx]) == _outcome(ref.results[r])
        assert (ev.ordering_best[:, bidx] == ref.ordering_best[:, r]).all()
        assert _outcome(got_cache[bidx]) == _outcome(ref_cache[r])


def test_distribution_from_rejects_mismatched_budgets():
    tiny = make_tiny()
    evs = [evaluate_layer(tiny, (256,)), evaluate_layer(tiny, (512,))]
    with pytest.raises(ValidationError):
        distribution_from(evs)


def test_cross_check_raises_under_python_O():
    # `python -O` strips assert statements; the check that the scalar model
    # prices the engine's winner as the engine did must still fire.
    script = textwrap.dedent("""
        import dataclasses, sys
        from convsched import LayerShape, engine, search
        if __debug__:
            sys.exit("not running under -O")
        real = engine.traffic

        def off_by_one(*args, **kwargs):
            rep = real(*args, **kwargs)
            return dataclasses.replace(rep, t_in=rep.t_in + 1,
                                       total=rep.total + 1)

        engine.traffic = off_by_one
        layer = LayerShape(name="tiny", out_h=6, out_w=6, k_h=3, k_w=3,
                           stride=1, c_in=2, c_out=4)
        try:
            search.evaluate_layer(layer, (256,))
        except engine.CrossCheckError as e:
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
    assert "tiny at budget 256" in done.stdout


def test_layer_past_int64_is_a_validation_error():
    # Its spill bytes alone pass 2**63: unchecked, the int64 sum wrapped to
    # a negative total that won the search.
    huge = LayerShape(name="huge", out_h=1024, out_w=1024, k_h=1, k_w=1,
                      stride=1, c_in=2 ** 20, c_out=2 ** 20, p_acc=8)
    with pytest.raises(ValidationError, match="64-bit"):
        evaluate_layer(huge, (1024,))
    with pytest.raises(ValidationError, match="64-bit"):
        cache_results(huge, (1024,))
    with pytest.raises(ValidationError, match="64-bit"):
        min_budget_for_ideal(huge)


# ---------------------------------------------------------------------------
# The pruned engine against a brute-force minimum over the full space.

def _desk_layers(seed):
    """Random desk-scale layers: a rectangular kernel under a wider stride,
    a stride wider than the whole kernel, a square one at stride one.
    Extents in 3..6 leave power-of-two tiles that do not divide them; one
    to four channels keep the brute force small."""
    rng = np.random.default_rng(seed)
    for i, (k_h, k_w, stride) in enumerate(((3, 1, 2), (2, 3, 4), (3, 3, 1))):
        out_h, out_w = (int(v) for v in rng.integers(3, 7, 2))
        c_in, c_out = (int(v) for v in rng.integers(1, 5, 2))
        p_out = int(rng.integers(1, 3))
        yield LayerShape(name=f"desk{seed}-{i}", out_h=out_h, out_w=out_w,
                         k_h=k_h, k_w=k_w, stride=stride, c_in=c_in,
                         c_out=c_out, p_in=int(rng.integers(1, 3)),
                         p_w=int(rng.integers(1, 3)), p_out=p_out,
                         p_acc=p_out + int(rng.integers(0, 3)))


# A 1x1 kernel leaves FX and FY unit loops, so candidates that differ only
# in where those sit tie on traffic, buffer and spill, and the
# serializations break the ties.
_DESK_1X1 = LayerShape(name="desk-1x1", out_h=3, out_w=5, k_h=1, k_w=1,
                       stride=1, c_in=3, c_out=3, p_in=2, p_w=1, p_out=1,
                       p_acc=2)


def _budget_sets(layer):
    whole = (layer.p_in * layer.c_in * layer.in_h * layer.in_w
             + layer.p_w * layer.c_out * layer.c_in * layer.k_h * layer.k_w
             + layer.p_acc * layer.c_out * layer.out_h * layer.out_w)
    return {
        "one": (whole // 16,),
        "ten octaves": tuple((whole >> 9) + 1 << s for s in (0, 5, 10)),
        "dense": tuple(int(whole * 2 ** (i / 8 - 7)) + 1 for i in range(64)),
        "below the floor": (1, 2, 3),
        "unsorted, repeated": (whole // 8, 1, whole // 64, whole // 8, whole),
    }


def _least(candidates, budgets, serial):
    """Per budget the least (traffic, buffer, spill, serial) over candidate
    arrays (traffic, buffer, spill), one set per ordering; the least
    traffic per ordering and budget; the first least-buffer candidate
    of the set whose (buffer, its traffic) is least."""
    best = [None] * len(budgets)
    per_ordering = np.full((len(candidates), len(budgets)), -1)
    least_buffer = None
    serial = functools.lru_cache(maxsize=None)(serial)
    for o, (st, sb, acc) in enumerate(candidates):
        f = int(sb.argmin())
        if least_buffer is None or (sb[f], st[f]) < least_buffer[:2]:
            least_buffer = (int(sb[f]), int(st[f]), serial(o, f))
        fits = sb[None] <= np.asarray(budgets)[:, None]
        lows = np.where(fits, st[None], np.iinfo(np.int64).max).min(axis=1)
        for b in np.flatnonzero(fits.any(axis=1)):
            per_ordering[o, b] = low = lows[b]
            if best[b] is not None and low > best[b][0]:
                continue
            ids = np.flatnonzero(fits[b] & (st == low))
            ids = ids[sb[ids] == sb[ids].min()]
            ids = ids[acc[ids] == acc[ids].min()]
            key = (int(low), int(sb[ids[0]]), int(acc[ids[0]]))
            if best[b] is None or key <= best[b][:3]:
                cand = key + (min(serial(o, i) for i in ids),)
                best[b] = cand if best[b] is None else min(best[b], cand)
    return best, per_ordering, least_buffer


def _serial(layer, ordering, tile, levels10):
    """The scalar model's serialization of a candidate given by its levels
    in the ten-slot nest, whose controlling trips sit at slots 6-9 (SX, SY,
    IF, OF); a level keeps its place less the unit loops at or under it."""
    mss, css, iss, jss = tile
    trips = (-(-layer.out_w // jss), -(-layer.out_h // iss),
             -(-layer.c_in // css), -(-layer.c_out // mss))
    levels = (int(lvl) - sum(n == 1 for n in trips[:max(lvl - 5, 0)])
              for lvl in levels10)
    return schedule_to_json(instantiate(ordering, Tiles(*tile), layer),
                            BufferingAssignment(*levels))


def _brute_force(layer, budgets, policy):
    """The search's full cross product, reduced without bounds or stairs;
    also the least buffer at ideal traffic."""
    plans = search.precompute_requirements()
    tiles = engine.tile_vectors(enumerate_tiles(layer, policy))
    tabs = engine.prefix_tables(
        layer, engine.layer_extents(layer, tiles), plans)
    ideal = ideal_traffic(layer)
    candidates, shapes, at_ideal = [], [], []
    for plan in plans:
        (ti, bi), (tw, bw), (to, bo) = engine._byte_tables(
            plan, layer, tabs)
        st = ti[:, None, None] + tw[None, :, None] + to[None, None]
        sb = bi[:, None, None] + bw[None, :, None] + bo[None, None]
        acc = np.broadcast_to(to[None, None], st.shape)
        candidates.append((st.reshape(-1), sb.reshape(-1), acc.reshape(-1)))
        shapes.append(st.shape)
        at_ideal.extend(sb[st == ideal].tolist())

    def serial(o, flat):
        i, j, k, t = np.unravel_index(flat, shapes[o])
        cand = plans[o].cand_levels
        levels = (cand["I"][i], cand["W"][j], cand["O"][k])
        return _serial(layer, plans[o].ordering,
                       tuple(int(v[t]) for v in tiles), levels)

    return _least(candidates, budgets, serial), min(at_ideal, default=None)


def _brute_force_cache(layer, budgets, policy):
    plans = search.precompute_requirements()
    tiles = engine.tile_vectors(enumerate_tiles(layer, policy))
    tabs = engine.prefix_tables(
        layer, engine.layer_extents(layer, tiles), plans)
    final = layer.p_out * layer.c_out * layer.out_h * layer.out_w
    candidates = []
    for plan in plans:
        t_in, t_w, acc, b_in, b_w, b_o = baselines._cache_tables(
            plan, layer, tabs)
        tot, ws = t_in + t_w + acc + final, b_in + b_w + b_o
        candidates.append((tot.reshape(-1), ws.reshape(-1), acc.reshape(-1)))

    def serial(o, flat):
        k, t = divmod(flat, tiles[0].size)
        return _serial(layer, plans[o].ordering,
                       tuple(int(v[t]) for v in tiles), (k, k, k))

    return _least(candidates, budgets, serial)


@functools.cache
def _full_space(layer, policy=TilePolicy()):
    """The union of the layer's budget sets, and _brute_force over it."""
    union = sorted({b for bs in _budget_sets(layer).values() for b in bs})
    return union, _brute_force(layer, union, policy)


def _check(results, best, fallback):
    for res, want in zip(results, best):
        got = (res.report.total, res.report.buffer_bytes, res.report.t_o_acc,
               schedule_to_json(res.schedule, res.assignment))
        if want is None:
            assert not res.feasible
            assert (got[1], got[0], got[3]) == fallback
        else:
            assert res.feasible
            assert got == want


def test_pruned_search_matches_brute_force_over_the_full_space():
    # Results, serializations and ordering_best of the pruned search, the
    # cache model's results, and min_budget_for_ideal, all against plain
    # minima over every candidate; a few seconds.
    policy = TilePolicy()
    for layer in _desk_layers(seed=1):
        union, ((best, per_ordering, fallback), at_ideal) = _full_space(layer)
        cache_best_, _, cache_fallback = _brute_force_cache(layer, union,
                                                            policy)
        for name, budgets in _budget_sets(layer).items():
            cols = [union.index(b) for b in budgets]
            ev = evaluate_layer(layer, budgets, policy)
            _check(ev.results, [best[c] for c in cols], fallback)
            assert (ev.ordering_best == per_ordering[:, cols]).all(), name
            _check(cache_results(layer, budgets, policy),
                   [cache_best_[c] for c in cols], cache_fallback)
        if at_ideal is None:
            with pytest.raises(ValidationError):
                min_budget_for_ideal(layer, policy)
        else:
            assert min_budget_for_ideal(layer, policy) == at_ideal


def test_cache_model_matches_the_per_ordering_brute_force():
    # Every ordering's cuts, reduced one ordering at a time, against the
    # cache model's one pass over prefix sets.  On the 1x1 kernel, sets
    # that differ only in FX and FY tie on all three numbers and the sets'
    # representative orderings break the tie; under pow2 no tile spans its
    # axis, so every controlling loop runs.  Budgets of 1-3 B are below the
    # least working set: the fallback answers.
    layer = _DESK_1X1
    policy = TilePolicy(mode="pow2")
    budgets = sorted({b for bs in _budget_sets(layer).values() for b in bs})
    best, _, fallback = _brute_force_cache(layer, budgets, policy)
    _check(cache_results(layer, budgets, policy), best, fallback)


def test_bound_shared_across_orderings_matches_brute_force():
    # best_schedule and the sweep's ours bound each ordering by the best
    # traffic found so far.  best_schedule at every budget of every set
    # but the dense one, where one budget an octave keeps it to seconds
    # (below the floor the fallback answers); ours at each whole set (the
    # 64 dense budgets take the doubling grid); all against plain minima.
    # The 1x1 kernel is tie-heavy, so a tile tied with the best must stay;
    # pow2 tiles keep its brute force, which serializes every tie, cheap.
    cases = [(layer, TilePolicy()) for layer in _desk_layers(seed=1)]
    for layer, policy in cases + [(_DESK_1X1, TilePolicy(mode="pow2"))]:
        sets = _budget_sets(layer)
        union, ((best, _, fallback), _) = _full_space(layer, policy)
        at = dict(zip(union, best))
        singles = sorted({b for name, bs in sets.items() if name != "dense"
                          for b in bs} | set(sets["dense"][::8]))
        _check([best_schedule(layer, b, policy)
                for b in singles], [at[b] for b in singles], fallback)
        for name, budgets in sets.items():
            _check(search._MODELS["ours"](layer, budgets, policy),
                   [at[b] for b in budgets], fallback)


@pytest.mark.parametrize("seed, index", [(2, 1), (3, 2)])
def test_shared_bound_keeps_ties_between_grid_points(seed, index):
    # On these desk layers' dense budgets a later ordering wins a tie with
    # a tile whose lower bound at the next grid point equals the best so
    # far at the last one: a strict comparison there loses the winner.
    layer = list(_desk_layers(seed))[index]
    dense = _budget_sets(layer)["dense"]
    want = evaluate_layer(layer, dense).results
    assert search._MODELS["ours"](layer, dense, TilePolicy()) == list(want)


@pytest.mark.parametrize("name", ["ZFNet-6", "Inception-4-3", "ResNet-2-1"])
def test_shared_bound_answers_as_evaluate_layer(name):
    # A 1x7 and a 1x1 kernel among them; nothing fits at 1 B.
    layer = find_builtin_layer(name)
    budgets = (1, 1024, 65536)
    want = evaluate_layer(layer, budgets).results
    got = [best_schedule(layer, b) for b in budgets]
    ours = search._MODELS["ours"](layer, budgets, TilePolicy())
    assert list(want) == got
    assert list(want) == ours
    assert ([schedule_to_json(r.schedule, r.assignment) for r in want]
            == [schedule_to_json(r.schedule, r.assignment) for r in got])


# ---------------------------------------------------------------------------
# The per-layer prefix tables against a per-ordering reference, entry by
# entry.  The reference is the builder the prefix tables replaced: one
# ordering at a time, running products row by row along its own nest.

_REF_CTRL_AXIS = {6: Axis.SX, 7: Axis.SY, 8: Axis.IF, 9: Axis.OF}
_REF_W_DIMS = {Axis.FX, Axis.FY, Axis.IF, Axis.OF}
_REF_O_DIMS = {Axis.SX, Axis.SY, Axis.OF}


def _reference_tables(plan, layer, extents):
    """(ext, suffix, ft, carrier masks) of one ordering: its extents,
    the product above each position, each array's footprint below each
    position and, per array, (position, carries) of its carriers."""
    t = extents.shape[1]
    ext = extents.take(plan.rows, axis=0)
    axes = plan.ordering + tuple(_REF_CTRL_AXIS[p] for p in range(6, 10))
    suffix = np.ones((10, t), dtype=np.int64)
    for p in range(8, -1, -1):
        suffix[p] = suffix[p + 1] * ext[p + 1]
    ft = {a: np.ones((11, t), dtype=np.int64) for a in ("I", "W", "O")}
    for a, dims in (("W", _REF_W_DIMS), ("O", _REF_O_DIMS)):
        for p, axis in enumerate(axes):
            ft[a][p + 1] = ft[a][p] * ext[p] if axis in dims else ft[a][p]

    def window(state, kernel):
        k_in, s, trips = state
        if s is None:
            base = kernel if k_in else 1
        else:
            base = (s - 1) * layer.stride + kernel if k_in else s
        return base if trips is None else base * trips

    slot = {plan.x_pair[0]: ("x", 0), plan.x_pair[1]: ("x", 1),
            6: ("x", 2), plan.y_pair[0]: ("y", 0),
            plan.y_pair[1]: ("y", 1), 7: ("y", 2)}
    state = {"x": [False, None, None], "y": [False, None, None]}
    kernel = {"x": layer.k_w, "y": layer.k_h}
    factor = {"x": 1, "y": 1}
    channels = 1
    for p, axis in enumerate(axes):
        if axis is Axis.IF:
            channels = channels * ext[p]
        elif p in slot:
            dim, i = slot[p]
            state[dim][i] = True if i == 0 else ext[p]
            factor[dim] = window(state[dim], kernel[dim])
        else:
            ft["I"][p + 1] = ft["I"][p]
            continue
        ft["I"][p + 1] = channels * factor["x"] * factor["y"]

    masks = {}
    for a in ("I", "W", "O"):
        masks[a] = []
        for p in plan.carriers[a]:
            m = ext[p] > 1
            if a == "I" and ((p == max(plan.x_pair) and layer.k_w == 1)
                             or (p == max(plan.y_pair) and layer.k_h == 1)):
                m = np.zeros(t, dtype=bool)
            masks[a].append((p, m))
    return ext, suffix, ft, masks


def _reference_byte_tables(plan, layer, ref):
    """engine._byte_tables of one ordering from its _reference_tables,
    level by level."""
    ext, suffix, ft, masks = ref
    distinct = layer.c_out * layer.out_h * layer.out_w
    out = {}
    for a in ("I", "W", "O"):
        levels = plan.cand_levels[a]
        tr = ft[a][np.add(levels, 1)] * suffix[list(levels)]
        bf = np.empty_like(tr)
        b = np.ones(tr.shape[1], dtype=np.int64)
        for i, lvl in enumerate(levels):
            for p, mask in masks[a]:
                if p <= lvl:
                    b = np.where(mask, ft[a][p], b)
            bf[i] = b
        out[a] = tr, bf
    levels = plan.cand_levels["O"]
    passes = np.ones((len(levels), ext.shape[1]), dtype=np.int64)
    for i, lvl in enumerate(levels):
        for p, mask in masks["O"]:
            if p > lvl:
                passes[i] = np.where(mask, passes[i] * ext[p], passes[i])
    return [(layer.p_in * out["I"][0] + layer.p_out * distinct,
             layer.p_in * out["I"][1]),
            (layer.p_w * out["W"][0], layer.p_w * out["W"][1]),
            (2 * layer.p_acc * distinct * (passes - 1),
             layer.p_acc * out["O"][1])]


def _reference_cache_tables(layer, ref):
    """baselines._cache_tables of one ordering from its _reference_tables."""
    _, suffix, ft, masks = ref
    final = layer.p_out * layer.c_out * layer.out_h * layer.out_w
    visits = ft["O"][1:] * suffix
    interrupted = np.zeros(visits.shape, dtype=bool)
    for p, mask in masks["O"]:
        interrupted[:p] |= mask
    t_acc = np.where(interrupted, 2 * layer.p_acc * visits,
                     layer.p_out * visits) - final
    b_in, b_w = layer.p_in * ft["I"][1:], layer.p_w * ft["W"][1:]
    return (b_in * suffix, b_w * suffix, t_acc,
            b_in, b_w, layer.p_acc * ft["O"][1:])


def _same(got, want):
    assert got.dtype == np.int64 and got.shape == want.shape
    assert (got == want).all()


def test_prefix_tables_match_the_per_ordering_reference():
    # Every entry of the search's and the cache model's tables, not only
    # the winners': all 720 orderings, the pruned 180 and the HWC plan, each
    # set's prefix tables built on their own.  The desk layers and their
    # transposes have 1-wide kernels in either dimension (no input carrier
    # there), strides above the kernel, rectangular kernels and tiles that
    # do not divide the extents.
    from convsched.casestudy import _HWC_PLAN
    plan_sets = (search.precompute_requirements(prune=False),
                 search.precompute_requirements(), (_HWC_PLAN,))
    for base in _desk_layers(seed=2):
        for layer in (base, base.transpose()):
            extents = engine.layer_extents(layer, engine.tile_vectors(
                enumerate_tiles(layer, TilePolicy())))
            for plans in plan_sets:
                tabs = engine.prefix_tables(layer, extents, plans)
                for plan in plans:
                    ref = _reference_tables(plan, layer, extents)
                    got = engine._byte_tables(plan, layer, tabs)
                    want = _reference_byte_tables(plan, layer, ref)
                    for (tr, bf), (ref_tr, ref_bf) in zip(got, want):
                        _same(tr, ref_tr)
                        _same(bf, ref_bf)
                    for part, ref_part in zip(
                            baselines._cache_tables(plan, layer, tabs),
                            _reference_cache_tables(layer, ref)):
                        _same(part, ref_part)
    assert len({i for plans in plan_sets[:2] for p in plans
                for i in p.pre}) == 68
    assert len({i for p in plan_sets[1] for i in p.pre}) == 40


def test_unpruned_search_covers_720_orderings_and_never_loses(capsys,
                                                               tmp_path):
    # The unpruned space cuts at prefix sets the pruned 180 never do (FY
    # inside without FX); its orderings shared with the pruned space keep
    # their bests, and its winner is never worse.  Only the engine opens
    # it: no front-end or command takes the 720 orderings.
    layer = next(_desk_layers(seed=3))  # 3x1 kernel, stride 2
    sets = _budget_sets(layer)
    budgets = sets["one"] + sets["ten octaves"] + sets["below the floor"]
    pruned = evaluate_layer(layer, budgets)
    plans = search.precompute_requirements(prune=False)
    results, ordering_best, candidates = engine.evaluate(
        layer, budgets, enumerate_tiles(layer, TilePolicy()), plans)
    full = search.LayerEvaluation(
        layer=layer, budgets=budgets, results=tuple(results),
        orderings=tuple(p.ordering for p in plans),
        ordering_best=ordering_best, candidates=candidates)
    assert full.orderings == enumerate_permutations(prune=False)
    assert full.ordering_best.shape == (720, len(budgets))
    shared = [full.orderings.index(o) for o in pruned.orderings]
    assert (full.ordering_best[shared] == pruned.ordering_best).all()
    for b, (got, ref) in enumerate(zip(full.results, pruned.results)):
        col = full.ordering_best[:, b]
        assert got.feasible == ref.feasible == (col >= 0).any()
        if got.feasible:
            assert got.report.total == col[col >= 0].min()
            assert got.report.total <= ref.report.total

    path = tmp_path / "desk.json"
    path.write_text(LayerSuite("desk", (layer,)).to_json())
    code = main(["search", "--layer-file", str(path), "--budget",
                 str(budgets[0]), "--no-prune"])
    assert code == 1
    assert "unrecognized arguments: --no-prune" in capsys.readouterr().err


def test_fallback_is_taken_only_when_a_budget_needs_it(monkeypatch):
    # No budget below every buffer: the no-fit fallback is never computed.
    # Budgets below every buffer, mixed with ones that fit, answer as they
    # do alone, for the search and for the HWC on the same engine.
    def refused(*args):
        raise RuntimeError("no-fit fallback computed")

    tiny = make_tiny()
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_first_least", refused)
        ev = evaluate_layer(tiny, (1024, 65536))
        assert all(r.feasible for r in ev.results)
        with pytest.raises(RuntimeError, match="no-fit"):
            evaluate_layer(tiny, (4,))

    from convsched.casestudy import hwc_results
    budgets = (1, 1024, 4, 1 << 20)
    for layer in (tiny, next(_desk_layers(seed=4))):
        ev = evaluate_layer(layer, budgets)
        hwc = hwc_results(layer, budgets)
        assert not ev.results[0].feasible and not ev.results[2].feasible
        for b, budget in enumerate(budgets):
            one = evaluate_layer(layer, (budget,))
            assert _outcome(ev.results[b]) == _outcome(one.results[0])
            assert (ev.ordering_best[:, b] == one.ordering_best[:, 0]).all()
            assert (_outcome(hwc[b])
                    == _outcome(hwc_results(layer, (budget,))[0]))
