"""Baseline-model tests against hand-evaluated desk-scale numbers.

All constants below are derived on the tiny layer from conftest
(2 input maps of 8x8, 4 output maps of 6x6, 3x3 kernel, stride 1):
ideal traffic 128 + 72 + 144 = 344 bytes.
"""
from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from convsched import (
    Axis,
    CrossCheckError,
    LayerShape,
    LayerSuite,
    SearchResult,
    TilePolicy,
    Tiles,
    ValidationError,
    cache_best,
    cache_results,
    evaluate_layer,
    ideal_traffic,
    peemen_best,
    schedule_to_json,
)
from convsched import baselines
from convsched.baselines import (
    PEEMEN_CASES,
    PeemenCandidate,
    _buffer_elements,
    _case_vectors,
    _peemen_payload,
    _peemen_report,
    peemen_buffer,
    peemen_results,
    peemen_traffic,
)
from convsched.cli import main
from convsched.model import window_extent
from convsched.engine import HUGE, nest_of, tile_vectors
from convsched.space import enumerate_tiles
from conftest import make_tiny


def test_peemen_buffer_window_arithmetic():
    tiny = make_tiny()
    cand = PeemenCandidate("TOF", Tiles(mss=2, css=2, iss=3, jss=3))
    # Inputs 2 x ((3-1)+3)^2 = 50, weights 2x2x9 = 36, outputs 2x3x3 = 18.
    assert peemen_buffer(cand, tiny) == (50, 36, 18)


def test_peemen_buffer_degenerate_and_untiled():
    one = LayerShape(name="one", out_h=2, out_w=2, k_h=1, k_w=1,
                     stride=1, c_in=1, c_out=1)
    assert peemen_buffer(PeemenCandidate("TIF", Tiles(1, 1, 1, 1)), one) \
        == (1, 1, 1)
    tiny = make_tiny()
    untiled = PeemenCandidate("TOF", Tiles(4, 2, 6, 6))
    assert peemen_buffer(untiled, tiny) == (128, 72, 144)


def test_peemen_untiled_case_reaches_ideal():
    tiny = make_tiny()
    cand = PeemenCandidate("TOF", Tiles(4, 2, 6, 6))
    assert peemen_traffic(cand, tiny) == ideal_traffic(tiny) == 344


def test_peemen_row_case_hand_evaluation():
    # TSY with tiles (2,2,3,3): the row stream is full-height, so the trip
    # product spans OF(2) x IF(1) x SX(2) = 4 column passes.
    #   inputs:  4 x css*H_eff*((jss-1)+k_w) = 4 x 2*8*5 = 320
    #   weights: 4 x mss*css*9              = 4 x 36    = 144
    #   outputs: css = C, so accumulation completes locally: one final
    #            write per visit, 4 x mss*E_h*jss = 4 x 36 = 144
    tiny = make_tiny()
    cand = PeemenCandidate("TSY", Tiles(mss=2, css=2, iss=3, jss=3))
    assert peemen_traffic(cand, tiny) == 320 + 144 + 144 == 608


def test_peemen_channel_case_completes_accumulation_with_full_css():
    # TIF with css = C never spills partials; its output term is exactly
    # the final-write volume whenever the spatial tiles divide.
    tiny = make_tiny()
    ref = PeemenCandidate("TIF", Tiles(mss=2, css=2, iss=3, jss=3))
    spill = PeemenCandidate("TOF", Tiles(mss=2, css=1, iss=3, jss=3))
    # Hand total for the TIF case: trips OF(2) x SY(2) x SX(2) = 8, with a
    # 5x5 window per input tile and weights refetched per spatial trip.
    #   inputs:  8 x 2*25 = 400
    #   weights: 8 x 36   = 288
    #   outputs: one final write per element = 144
    assert peemen_traffic(ref, tiny) == 400 + 288 + 144
    # The halved-css TOF case must spill: strictly more O traffic.
    assert peemen_traffic(spill, tiny) > peemen_traffic(ref, tiny)


def test_peemen_case_validation():
    with pytest.raises(ValidationError):
        PeemenCandidate("TFX", Tiles(1, 1, 1, 1))
    assert PEEMEN_CASES == ("TOF", "TIF", "TSY", "TSX")


def test_peemen_best_large_budget_is_ideal():
    tiny = make_tiny()
    res = peemen_best(tiny, 4096)
    assert res.report.total == 344
    assert res.feasible


def test_peemen_best_rejects_non_positive_budget():
    with pytest.raises(ValidationError):
        peemen_best(make_tiny(), 0)


def test_cache_best_large_budget_is_ideal():
    tiny = make_tiny()
    res = cache_best(tiny, 4096)
    assert res.report.total == 344
    assert res.feasible


def test_cache_results_monotone_and_aligned_with_budgets():
    tiny = make_tiny()
    budgets = (64, 128, 256, 512, 1024)
    results = cache_results(tiny, budgets)
    assert [r.budget for r in results] == list(budgets)
    totals = [r.report.total for r in results if r.feasible]
    assert totals == sorted(totals, reverse=True) or \
        all(a >= b for a, b in zip(totals, totals[1:]))


def test_dominance_chain_on_tiny():
    """ours <= peemen <= cache at every budget, with known totals.

    The constants are regression pins from the implementation itself,
    cross-checked once against the trace oracle; the ordering between the
    three models is the load-bearing claim.
    """
    tiny = make_tiny()
    budgets = (64, 128, 256, 512, 1024)
    ours = [r.report.total
            for r in evaluate_layer(tiny, budgets).results]
    peemen = [peemen_best(tiny, b).report.total for b in budgets]
    cache = [cache_best(tiny, b).report.total for b in budgets]
    assert ours == [600, 344, 344, 344, 344]
    assert peemen == [1728, 864, 528, 344, 344]
    assert cache == [3168, 1368, 744, 472, 344]
    for o, p, c in zip(ours, peemen, cache):
        assert o <= p <= c


def test_baseline_totals_never_beat_ideal():
    tiny = make_tiny()
    ideal = ideal_traffic(tiny)
    for budget in (32, 64, 128, 1024):
        assert peemen_best(tiny, budget).report.total >= ideal
        assert cache_best(tiny, budget).report.total >= ideal


# ---------------------------------------------------------------------------
# The one-rule case formula against the four cases written out.

def _reference_case_vectors(case, layer, mss, css, iss, jss):
    """(t_in, t_w, t_o) byte vectors of one case, each case's trips,
    working set and output charge written out on their own."""
    ceil_m = -(-layer.c_out // mss)
    ceil_c = -(-layer.c_in // css)
    ceil_h = -(-layer.out_h // iss)
    ceil_w = -(-layer.out_w // jss)
    k2 = layer.k_h * layer.k_w
    win_i = window_extent(iss, layer.k_h, layer.stride)
    win_j = window_extent(jss, layer.k_w, layer.stride)

    if case == "TOF":
        trips = ceil_c * ceil_h * ceil_w
        b_i = css * win_i * win_j
        b_w = layer.c_out * css * k2
        o_half = layer.c_out * iss * jss
        doubled = ceil_c > 1
    elif case == "TIF":
        trips = ceil_m * ceil_h * ceil_w
        b_i = layer.c_in * win_i * win_j
        b_w = mss * layer.c_in * k2
        o_half = mss * iss * jss
        doubled = np.zeros(mss.shape, dtype=bool)
    elif case == "TSY":
        trips = ceil_m * ceil_c * ceil_w
        b_i = css * layer.eff_h * win_j
        b_w = mss * css * k2
        o_half = mss * layer.out_h * jss
        doubled = ceil_c > 1
    elif case == "TSX":
        trips = ceil_m * ceil_c * ceil_h
        b_i = css * win_i * layer.eff_w
        b_w = mss * css * k2
        o_half = mss * iss * layer.out_w
        doubled = ceil_c > 1
    else:
        raise ValueError(case)

    visits = o_half * trips
    t_o = np.where(doubled, 2 * layer.p_acc * visits,
                   layer.p_out * visits)
    return trips * layer.p_in * b_i, trips * layer.p_w * b_w, t_o


def test_case_vectors_match_the_four_branch_reference():
    # Every entry, dtype and shape, over the whole tile grid of each case
    # (the spatial cases' own axis too), under both power-of-two policies.
    # The desk layers and their transposes hold rectangular and 1x1
    # kernels, strides above the kernel and tiles that do not divide.
    layers = [l for seed in (5, 6) for l in _desk_layers(seed)]
    for layer in layers + [l.transpose() for l in layers]:
        for policy in (TilePolicy("pow2"), TilePolicy("pow2-extents")):
            tiles = tile_vectors(enumerate_tiles(layer, policy))
            for case in PEEMEN_CASES:
                got = _case_vectors(case, layer, *tiles)
                want = _reference_case_vectors(case, layer, *tiles)
                for g, w in zip(got, want, strict=True):
                    assert (g.dtype, g.shape) == (w.dtype, w.shape)
                    assert np.array_equal(g, w), (layer, policy, case)


# ---------------------------------------------------------------------------
# The staircase-ranked Peemen search against a per-case, per-budget loop.

def _embed(candidate, layer):
    return nest_of(layer, _peemen_payload(candidate, layer))


def _scalar_peemen(layer, budget, policy=None):
    """Per case, the least (total, buffer, spill, serialization) candidate
    that fits and the least (buffer, total, spill, serialization) one; the
    least of the first over the cases, else of the second."""
    base_menus = enumerate_tiles(layer, policy or TilePolicy())
    final = layer.p_out * layer.c_out * layer.out_h * layer.out_w

    best = None      # (total, buffer, acc, serial, candidate)
    fallback = None  # (buffer, total, acc, serial, candidate)
    candidates = 0
    for case in PEEMEN_CASES:
        menus = dict(base_menus)
        if case == "TSY":
            menus[Axis.SY] = (layer.out_h,)
        elif case == "TSX":
            menus[Axis.SX] = (layer.out_w,)
        mss_v, css_v, iss_v, jss_v = tile_vectors(menus)
        candidates += mss_v.size
        b_i, b_w, b_o = _buffer_elements(layer, mss_v, css_v, iss_v, jss_v)
        sb = layer.p_in * b_i + layer.p_w * b_w + layer.p_acc * b_o
        t_in, t_w, t_o = _reference_case_vectors(case, layer, mss_v, css_v,
                                                 iss_v, jss_v)
        total = t_in + t_w + t_o
        acc = t_o - final

        def reduce(primary, secondary):
            ids = np.flatnonzero(primary == primary.min())
            sub = secondary[ids]
            ids = ids[sub == sub.min()]
            sub = acc[ids]
            ids = ids[sub == sub.min()]
            out = None
            for j in ids:
                c = PeemenCandidate(case, Tiles(
                    int(mss_v[j]), int(css_v[j]), int(iss_v[j]), int(jss_v[j])))
                key = (int(primary[j]), int(secondary[j]), int(acc[j]),
                       schedule_to_json(*_embed(c, layer)), c)
                if out is None or key[3] < out[3]:
                    out = key
            return out

        fb = reduce(sb, total)
        if fallback is None or fb[:4] < fallback[:4]:
            fallback = fb
        if (sb <= budget).any():
            cand = reduce(np.where(sb <= budget, total, HUGE), sb)
            if best is None or cand[:4] < best[:4]:
                best = cand

    candidate = (best if best is not None else fallback)[4]
    schedule, assignment = _embed(candidate, layer)
    return SearchResult(layer_name=layer.name, budget=budget,
                        schedule=schedule, assignment=assignment,
                        report=_peemen_report(candidate, layer, budget),
                        candidates=candidates)


def _desk_layers(seed):
    """Random desk layers: a rectangular kernel under a wider stride, a
    stride wider than the whole kernel, a square kernel at stride one and
    a 1x1 one.  Extents in 3..11 leave power-of-two tiles that do not
    divide them.  Last a fixed 1x1 layer on which TOF with the maps tiled
    and TIF with the channels tiled tie on all three numbers, so only the
    serialization's buffering levels tell them apart."""
    rng = np.random.default_rng(seed)
    shapes = ((3, 1, 2), (2, 3, 4), (3, 3, 1), (1, 1, 1))
    for i, (k_h, k_w, stride) in enumerate(shapes):
        out_h, out_w = (int(v) for v in rng.integers(3, 12, 2))
        c_in, c_out = (int(v) for v in rng.integers(1, 12, 2))
        p_out = int(rng.integers(1, 3))
        yield LayerShape(name=f"peemen{seed}-{i}", out_h=out_h, out_w=out_w,
                         k_h=k_h, k_w=k_w, stride=stride, c_in=c_in,
                         c_out=c_out, p_in=int(rng.integers(1, 3)),
                         p_w=int(rng.integers(1, 3)), p_out=p_out,
                         p_acc=p_out + int(rng.integers(0, 3)))
    yield LayerShape(name="peemen-tie", out_h=2, out_w=2, k_h=1, k_w=1,
                     stride=1, c_in=2, c_out=2, p_acc=1)


def test_peemen_results_match_the_per_case_loop():
    # Serialization and the whole report per budget, under both power-of-
    # two policies.  Budgets sit on and just below the buffers of a sample
    # of candidates, below the least buffer, at one byte and above
    # everything; peemen_results takes them all in one call, unsorted and
    # with a repeat.
    rng = np.random.default_rng(13)
    for layer in _desk_layers(seed=5):
        for policy in (TilePolicy("pow2"), TilePolicy("pow2-extents")):
            menus = enumerate_tiles(layer, policy)
            buffers = sorted({
                _peemen_report(PeemenCandidate(case, Tiles(*t)), layer,
                               None).buffer_bytes
                for case in PEEMEN_CASES
                for t in itertools.product(*(menus[a] for a in (
                    Axis.OF, Axis.IF, Axis.SY, Axis.SX)))})
            edges = rng.choice(buffers, size=min(5, len(buffers)),
                               replace=False).tolist()
            budgets = [b + d for b in [buffers[0]] + edges for d in (-1, 0)]
            budgets += [1, buffers[-1] + 1, budgets[0]]
            rng.shuffle(budgets)
            results = peemen_results(layer, tuple(budgets), policy)
            for budget, res in zip(budgets, results):
                want = _scalar_peemen(layer, budget, policy)
                assert res == peemen_best(layer, budget, policy)
                assert res.report == want.report, (layer, policy, budget)
                assert res.candidates == want.candidates
                assert (schedule_to_json(res.schedule, res.assignment)
                        == schedule_to_json(want.schedule, want.assignment))


def test_peemen_winner_is_cross_checked_exactly(monkeypatch):
    # A case formula one byte off the engine's own tables must not pass:
    # the scalar model's "never more" check alone would let it through.
    real = baselines._peemen_report

    def one_byte_more(candidate, layer, budget):
        rep = real(candidate, layer, budget)
        return dataclasses.replace(rep, t_in=rep.t_in + 1, total=rep.total + 1)

    monkeypatch.setattr(baselines, "_peemen_report", one_byte_more)
    with pytest.raises(CrossCheckError):
        peemen_best(make_tiny(), 4096)


def test_peemen_refuses_int64_overflow(tmp_path, monkeypatch, capsys):
    # 2^14 maps in and out of 2^14 x 2^14 outputs under an 11x11 kernel:
    # an int64 sum used to wrap and win the minimum with exit code 0.
    huge = LayerShape(name="huge", out_h=2 ** 14, out_w=2 ** 14, k_h=11,
                      k_w=11, stride=1, c_in=2 ** 14, c_out=2 ** 14)
    with pytest.raises(ValidationError, match="64-bit"):
        peemen_best(huge, 2 ** 20)
    monkeypatch.setenv("CONVSCHED_THREADS", "1")
    path = tmp_path / "huge.json"
    path.write_text(LayerSuite("huge", (huge,)).to_json())
    assert main(["sweep", "--layer-file", str(path), "--model", "peemen"]) == 2
    assert "64-bit" in capsys.readouterr().err
