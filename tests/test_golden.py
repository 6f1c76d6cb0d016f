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
"""
from __future__ import annotations

from pathlib import Path

from convsched import LayerSuite, find_builtin_layer
from convsched.cli import main

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


def test_five_model_sweep_matches_golden_csv(tmp_path, monkeypatch):
    golden = (DATA / "sweep_golden.csv").read_bytes()
    assert _sweep_bytes(tmp_path, monkeypatch) == golden


def test_five_model_sweep_at_tight_budgets_matches_golden_csv(tmp_path,
                                                              monkeypatch):
    golden = (DATA / "sweep_golden_tight.csv").read_bytes()
    assert _sweep_bytes(tmp_path, monkeypatch, "--budgets", "1,4,8,16") == golden
