"""Five-model sweep against a committed CSV.

`data/sweep_golden.csv` is the output of

    convsched sweep --layer-file golden.json --model ours,peemen,cache,hwc,hwce

at the default budgets, where golden.json is the suite "golden" holding
ZFNet-6 (3x3 kernel), Inception-4-3 (1x7) and ResNet-5-1 (1x1).  Every
model's winners, byte totals and schedule serializations must stay byte
for byte what they were when it was captured.
"""
from __future__ import annotations

from pathlib import Path

from convsched import LayerSuite, find_builtin_layer
from convsched.cli import main

GOLDEN = Path(__file__).parent / "data" / "sweep_golden.csv"
GOLDEN_LAYERS = ("ZFNet-6", "Inception-4-3", "ResNet-5-1")


def test_five_model_sweep_matches_golden_csv(tmp_path, monkeypatch):
    monkeypatch.setenv("CONVSCHED_THREADS", "1")
    suite = LayerSuite("golden",
                       tuple(find_builtin_layer(n) for n in GOLDEN_LAYERS))
    layer_file = tmp_path / "golden.json"
    layer_file.write_text(suite.to_json())
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--layer-file", str(layer_file),
                 "--model", "ours,peemen,cache,hwc,hwce", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == GOLDEN.read_bytes()
