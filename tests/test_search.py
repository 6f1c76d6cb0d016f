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
    SearchConfig,
    TilePolicy,
    Tiles,
    ValidationError,
    best_schedule,
    cache_best,
    cache_results,
    distribution_from,
    enumerate_permutations,
    evaluate_layer,
    evaluate_layers,
    ideal_report,
    ideal_traffic,
    instantiate,
    min_budget_for_ideal,
    schedule_to_json,
    traffic,
    worker_count,
)
from convsched import baselines, search
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


def test_search_config_validation():
    with pytest.raises(ValidationError):
        SearchConfig(budgets=(1024, 512))
    with pytest.raises(ValidationError):
        SearchConfig(budgets=(512, 512))
    with pytest.raises(ValidationError):
        SearchConfig(budgets=())
    with pytest.raises(ValidationError):
        SearchConfig(budgets=(0, 512))
    with pytest.raises(ValidationError):
        SearchConfig(tie_break="buffer,traffic")


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
        from convsched import LayerShape, search
        if __debug__:
            sys.exit("not running under -O")
        real = search.traffic

        def off_by_one(*args, **kwargs):
            rep = real(*args, **kwargs)
            return dataclasses.replace(rep, t_in=rep.t_in + 1,
                                       total=rep.total + 1)

        search.traffic = off_by_one
        layer = LayerShape(name="tiny", out_h=6, out_w=6, k_h=3, k_w=3,
                           stride=1, c_in=2, c_out=4)
        try:
            search.evaluate_layer(layer, (256,))
        except search.CrossCheckError as e:
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


def _brute_force(layer, budgets, policy):
    """The search's full cross product, reduced without bounds or stairs;
    also the least buffer at ideal traffic."""
    table = search.precompute_requirements()
    tiles = search._tile_vectors(enumerate_tiles(layer, policy))
    extents = search._layer_extents(layer, tiles)
    ideal = ideal_traffic(layer)
    candidates, shapes, at_ideal = [], [], []
    for ordering in table.orderings:
        (ti, bi), (tw, bw), (to, bo) = search._byte_tables(
            table.plan(ordering), layer, extents)
        st = ti[:, None, None] + tw[None, :, None] + to[None, None]
        sb = bi[:, None, None] + bw[None, :, None] + bo[None, None]
        acc = np.broadcast_to(to[None, None], st.shape)
        candidates.append((st.reshape(-1), sb.reshape(-1), acc.reshape(-1)))
        shapes.append(st.shape)
        at_ideal.extend(sb[st == ideal].tolist())

    def serial(o, flat):
        i, j, k, t = np.unravel_index(flat, shapes[o])
        plan = table.plan(table.orderings[o])
        levels = (plan.cand_levels["I"][i], plan.cand_levels["W"][j],
                  plan.cand_levels["O"][k])
        return search._serialize_candidate(
            plan.ordering, layer, *(int(v[t]) for v in tiles), levels)

    return _least(candidates, budgets, serial), min(at_ideal, default=None)


def _brute_force_cache(layer, budgets, policy):
    table = search.precompute_requirements()
    tiles = search._tile_vectors(enumerate_tiles(layer, policy))
    extents = search._layer_extents(layer, tiles)
    candidates = []
    for ordering in table.orderings:
        ws, tot, acc = baselines._cache_tables(table.plan(ordering), layer,
                                               extents)
        candidates.append((tot.reshape(-1), ws.reshape(-1), acc.reshape(-1)))

    def serial(o, flat):
        k, t = divmod(flat, tiles[0].size)
        return search._serialize_candidate(
            table.orderings[o], layer, *(int(v[t]) for v in tiles), (k, k, k))

    return _least(candidates, budgets, serial)


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
        union = sorted({b for bs in _budget_sets(layer).values() for b in bs})
        (best, per_ordering, fallback), at_ideal = _brute_force(
            layer, union, policy)
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
