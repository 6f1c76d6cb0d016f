"""Five-model sweeps against committed CSVs.

`data/sweep_golden.csv` is the output of

    convsched sweep --layer-file golden.json --model ours,peemen,cache,hwc,hwce

at the default budgets, where golden.json is the suite "golden" holding
ZFNet-6 (3x3 kernel), Inception-4-3 (1x7) and ResNet-5-1 (1x1).
`data/sweep_golden_tight.csv` is the same sweep with `--budgets 1,4,8,16`:
at 1 and 4 B nothing fits anywhere, and at 8 and 16 B the HWC, HWCE and
Peemen models are partly infeasible, so every model's no-fit fallback is
pinned too.  Every model's winners, byte totals and schedule
serializations must stay byte for byte what they were when captured.
On the same rows the paper's claims are checked as well: the search is
never beaten by a published model, and more buffer never costs traffic.
"""
from __future__ import annotations

import csv
import io
from collections import defaultdict
from pathlib import Path

from convsched import LayerSuite, find_builtin_layer
from convsched.cli import _AGGREGATE_LAYER, main

DATA = Path(__file__).parent / "data"
GOLDEN_LAYERS = ("ZFNet-6", "Inception-4-3", "ResNet-5-1")


def _sweep_bytes(tmp_path, monkeypatch, *extra: str) -> bytes:
    monkeypatch.setenv("CONVSCHED_THREADS", "1")
    suite = LayerSuite("golden",
                       tuple(find_builtin_layer(n) for n in GOLDEN_LAYERS))
    layer_file = tmp_path / "golden.json"
    layer_file.write_text(suite.to_json())
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--layer-file", str(layer_file), *extra,
                 "--model", "ours,peemen,cache,hwc,hwce", "--out", str(out)])
    assert code == 0
    return out.read_bytes()


def _assert_dominance_and_monotone(data: bytes) -> None:
    """Per (layer, budget), a feasible `ours` total is at most every
    feasible Peemen, cache and HWC total; per (layer, model), feasible
    totals never rise as the budget grows.  The HWCE is left out of the
    first claim: its stripe width is not on the search's tile menus."""
    feasible = {
        (r["layer"], r["model"], int(r["budget"])): int(r["total"])
        for r in csv.DictReader(io.StringIO(data.decode()))
        if r["layer"] != _AGGREGATE_LAYER and r["feasible"] == "true"}
    curves = defaultdict(list)
    for (layer, model, budget), total in sorted(feasible.items()):
        ours = feasible.get((layer, "ours", budget))
        if model in ("peemen", "cache", "hwc") and ours is not None:
            assert ours <= total, (layer, model, budget)
        curves[layer, model].append(total)
    assert {model for _, model in curves} >= {"ours", "peemen", "cache", "hwc"}
    for key, totals in curves.items():
        assert totals == sorted(totals, reverse=True), key


def test_five_model_sweep_matches_golden_csv(tmp_path, monkeypatch):
    golden = (DATA / "sweep_golden.csv").read_bytes()
    data = _sweep_bytes(tmp_path, monkeypatch)
    assert data == golden
    _assert_dominance_and_monotone(data)


def test_five_model_sweep_at_tight_budgets_matches_golden_csv(tmp_path,
                                                              monkeypatch):
    golden = (DATA / "sweep_golden_tight.csv").read_bytes()
    data = _sweep_bytes(tmp_path, monkeypatch, "--budgets", "1,4,8,16")
    assert data == golden
    _assert_dominance_and_monotone(data)
