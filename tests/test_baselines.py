"""Baseline-model tests against hand-evaluated desk-scale numbers.

All constants below are derived on the tiny layer from conftest
(2 input maps of 8x8, 4 output maps of 6x6, 3x3 kernel, stride 1):
ideal traffic 128 + 72 + 144 = 344 bytes.
"""
from __future__ import annotations

import pytest

from convsched import (
    LayerShape,
    SearchConfig,
    Tiles,
    ValidationError,
    cache_best,
    cache_results,
    evaluate_layer,
    ideal_traffic,
    peemen_best,
)
from convsched.baselines import (
    PEEMEN_CASES,
    PeemenCandidate,
    peemen_buffer,
    peemen_traffic,
)
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
