from __future__ import annotations

import json
import math

import pytest

from convsched import (
    LayerShape, LayerSuite, best_schedule, find_builtin_layer, oracle,
    schedule_to_json,
)
from convsched.cli import CSV_COLUMNS, main, parse_budget_list, parse_byte_size
from conftest import make_tiny


@pytest.fixture
def tiny_suite_file(tmp_path):
    suite = LayerSuite("desk", (make_tiny(),))
    path = tmp_path / "desk.json"
    path.write_text(suite.to_json())
    return str(path)


@pytest.fixture
def full_reuse_schedule_file(tmp_path):
    doc = {"order": ["FX", "FY", "SX", "SY", "IF", "OF"],
           "tiles": {},
           "buffering": {"I": 5, "W": 5, "O": 5}}
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- parsing helpers --------------------------------------------------------

def test_parse_byte_size_units():
    assert parse_byte_size("512") == 512
    assert parse_byte_size("1K") == 1024
    assert parse_byte_size("16k") == 16384
    assert parse_byte_size("2M") == 2 * 1024 * 1024
    assert parse_byte_size(" 8 K ") == 8192
    for bad in ("", "K", "1.5K", "1G", "-2K"):
        with pytest.raises(ValueError):
            parse_byte_size(bad)


def test_parse_budget_list_forms():
    assert parse_budget_list("4K") == (4096,)
    assert parse_budget_list("1K,4K,64") == (1024, 4096, 64)
    assert parse_budget_list("1K..8K") == (1024, 2048, 4096, 8192)
    assert parse_budget_list("1K..512K:x4") == (1024, 4096, 16384, 65536,
                                                262144, 524288)
    with pytest.raises(ValueError):
        parse_budget_list("8K..1K")
    with pytest.raises(ValueError):
        parse_budget_list("1K..8K:x1")


# --- analyze ---------------------------------------------------------------

def test_analyze_full_reuse_matches_ideal(capsys, tiny_suite_file,
                                          full_reuse_schedule_file):
    code, out, _ = run(capsys, "analyze", "--layer-file", tiny_suite_file,
                       "--schedule", full_reuse_schedule_file,
                       "--budget", "1K")
    assert code == 0
    assert "total" in out and "344" in out
    assert "feasible" in out


def test_analyze_csv_row(capsys, tiny_suite_file, full_reuse_schedule_file):
    code, out, _ = run(capsys, "analyze", "--layer-file", tiny_suite_file,
                       "--schedule", full_reuse_schedule_file,
                       "--budget", "1K", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert row["model"] == "manual"
    assert row["total"] == "344"
    assert row["feasible"] == "true"
    assert row["budget"] == "1024"


def test_analyze_budget_zero_is_a_validation_error(capsys, tiny_suite_file,
                                                   full_reuse_schedule_file):
    code, _, err = run(capsys, "analyze", "--layer-file", tiny_suite_file,
                       "--schedule", full_reuse_schedule_file,
                       "--budget", "0")
    assert code == 2
    assert err


def test_analyze_malformed_schedule_is_a_validation_error(
        capsys, tiny_suite_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"order": ["FX"], "tiles": {},
                               "buffering": {"I": 5, "W": 5, "O": 5}}))
    code, _, err = run(capsys, "analyze", "--layer-file", tiny_suite_file,
                       "--schedule", str(bad), "--budget", "1K")
    assert code == 2
    assert err


@pytest.mark.parametrize("tiles, buffering, message", [
    ({"mss": "2"}, {"I": 5, "W": 5, "O": 5}, "tile size mss"),
    ({"mss": 2.5}, {"I": 5, "W": 5, "O": 5}, "tile size mss"),
    ({"mss": True}, {"I": 5, "W": 5, "O": 5}, "tile size mss"),
    ({}, {"I": True, "W": 5, "O": 5}, "buffering level for I"),
], ids=("string-tile", "float-tile", "bool-tile", "bool-level"))
def test_analyze_non_integer_tile_or_level_is_a_validation_error(
        capsys, tmp_path, tiles, buffering, message):
    # A string tile used to end in a TypeError traceback; a float one was
    # priced as float bytes, and true passed as the integer one.
    doc = {"order": ["FX", "FY", "SX", "SY", "IF", "OF"], "tiles": tiles,
           "buffering": buffering}
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", "--layer", "ZFNet-6",
                         "--schedule", str(path))
    assert code == 2
    assert not out
    assert f"error: {message} must be an integer" in err


# --- search ------------------------------------------------------------------

def test_search_unknown_model_is_a_usage_error(capsys, tiny_suite_file):
    code, _, _ = run(capsys, "search", "--layer-file", tiny_suite_file,
                     "--budget", "1K", "--model", "tetris")
    assert code == 1


def test_search_finds_the_ideal_schedule_at_large_budget(capsys,
                                                         tiny_suite_file):
    code, out, _ = run(capsys, "search", "--layer-file", tiny_suite_file,
                       "--budget", "4K", "--format", "csv")
    assert code == 0
    row = dict(zip(CSV_COLUMNS, out.strip().splitlines()[1].split(",")))
    assert row["model"] == "ours"
    assert row["total"] == "344"


def test_search_baseline_models_agree_with_api(capsys, tiny_suite_file):
    code, out, _ = run(capsys, "search", "--layer-file", tiny_suite_file,
                       "--budget", "128", "--model", "peemen",
                       "--format", "csv")
    assert code == 0
    row = dict(zip(CSV_COLUMNS, out.strip().splitlines()[1].split(",")))
    assert row["total"] == "864"


@pytest.mark.parametrize("model", ["ours", "peemen", "cache"])
def test_search_non_positive_budget_is_a_validation_error(capsys,
                                                          tiny_suite_file,
                                                          model):
    code, out, err = run(capsys, "search", "--layer-file", tiny_suite_file,
                         "--budget", "0", "--model", model)
    assert (code, out) == (2, "")
    assert "budget must be positive" in err


_PAST_INT64 = "99999999999999999999999"


@pytest.mark.parametrize("argv", [
    ("search", "--layer", "ZFNet-6", "--budget", _PAST_INT64),
    ("search", "--layer", "ZFNet-6", "--budget", _PAST_INT64,
     "--model", "cache"),
    ("sweep", "--suite", "alexnet", "--budgets", _PAST_INT64),
    ("distribution", "--suite", "alexnet", "--budgets", f"1K,{_PAST_INT64}"),
])
def test_budget_past_int64_is_a_validation_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: budget must be positive")
    assert "Traceback" not in err


def test_every_command_states_the_budget_rule_alike(
        capsys, tiny_suite_file, full_reuse_schedule_file):
    layer = ("--layer-file", tiny_suite_file)
    schedule = ("--schedule", full_reuse_schedule_file)
    errors = set()
    for argv in (("search", *layer, "--budget", "0"),
                 ("analyze", *layer, *schedule, "--budget", "0"),
                 ("validate", *layer, *schedule, "--budget", "0"),
                 ("sweep", *layer, "--budgets", "0"),
                 ("distribution", *layer, "--budgets", "64,0")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        errors.add(err)
    assert errors == {"error: budget must be positive and fit in 64 bits, "
                      "got 0\n"}
    # The largest int64 is a budget.
    code, out, _ = run(capsys, "search", *layer, "--budget",
                       str(2 ** 63 - 1), "--model", "cache")
    assert code == 0 and "(9223372036854775807 B: feasible)" in out


@pytest.mark.parametrize("model", ["ours", "peemen", "cache"])
def test_search_row_is_the_sweep_row(capsys, tiny_suite_file, model):
    # Both go through one model table: at 2 B nothing fits, at 4 KiB
    # everything does, and the rows agree byte for byte either way.
    code, out, _ = run(capsys, "sweep", "--layer-file", tiny_suite_file,
                       "--budgets", "2,4K", "--model", model)
    assert code == 0
    swept = {tuple(l.split(",")[1:4]): l for l in out.splitlines()[1:]}
    for budget, feasible in (("2", "false"), ("4096", "true")):
        code, out, _ = run(capsys, "search", "--layer-file", tiny_suite_file,
                           "--budget", budget, "--model", model,
                           "--format", "csv")
        assert code == 0
        header, line = out.splitlines()
        assert header == ",".join(CSV_COLUMNS)
        assert line == swept["tiny", model, budget]
        assert dict(zip(CSV_COLUMNS, line.split(",")))["feasible"] == feasible


@pytest.mark.parametrize("dims", [{"stride": True, "c_out": True},
                                  {"stride": "2"}],
                         ids=("bool-dims", "string-stride"))
def test_search_non_integer_layer_dimension_is_a_validation_error(
        capsys, tmp_path, dims):
    # true used to run as stride 1 with one output map, exit 0; a string
    # ended in a TypeError traceback.
    layer = {**make_tiny().to_dict(), "in_h": 0, "in_w": 0, **dims}
    path = tmp_path / "layer.json"
    path.write_text(json.dumps({"name": "desk", "layers": [layer]}))
    code, out, err = run(capsys, "search", "--layer-file", str(path),
                         "--budget", "1K")
    assert code == 2
    assert not out
    assert "must be a positive integer" in err


def test_search_unknown_builtin_layer(capsys):
    code, _, err = run(capsys, "search", "--layer", "AlexNet-9",
                       "--budget", "1K")
    assert code == 2
    assert err


# --- sweep -------------------------------------------------------------------

def test_sweep_csv_structure_and_ideal_rows(capsys, tiny_suite_file):
    code, out, _ = run(capsys, "sweep", "--layer-file", tiny_suite_file,
                       "--budgets", "64,128,256")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    rows = [dict(zip(CSV_COLUMNS, l.split(","))) for l in lines[1:]]
    ideal = [r for r in rows if r["model"] == "ideal" and r["layer"] == "tiny"]
    assert [r["total"] for r in ideal] == ["344", "344", "344"]
    ours = {int(r["budget"]): int(r["total"])
            for r in rows if r["model"] == "ours" and r["layer"] == "tiny"}
    peemen = {int(r["budget"]): int(r["total"])
              for r in rows if r["model"] == "peemen" and r["layer"] == "tiny"}
    cache = {int(r["budget"]): int(r["total"])
             for r in rows if r["model"] == "cache" and r["layer"] == "tiny"}
    for b in (64, 128, 256):
        assert ours[b] <= peemen[b] <= cache[b]
    # Aggregate block at the end, one row per model and budget.
    agg = [r for r in rows if r["layer"] == "(all)"]
    assert len(agg) == 4 * 3
    overheads = [r["overhead_vs_ours_pct"] for r in agg
                 if r["model"] == "peemen"]
    assert all(o and float(o) >= 0 for o in overheads)


def test_sweep_requires_a_suite(capsys):
    code, _, _ = run(capsys, "sweep", "--budgets", "1K")
    assert code == 2


def test_sweep_unknown_model_name(capsys, tiny_suite_file):
    code, _, _ = run(capsys, "sweep", "--layer-file", tiny_suite_file,
                     "--budgets", "64", "--model", "ours,magic")
    assert code == 2


def test_bad_budget_range_is_a_validation_error(capsys, tiny_suite_file):
    for command in ("sweep", "distribution"):
        for spec in ("8K..1K", "1K..8K:x1"):
            code, _, err = run(capsys, command, "--layer-file",
                               tiny_suite_file, "--budgets", spec)
            assert (code, err.startswith("error:")) == (2, True)


def test_sweep_out_file_round_trip(capsys, tiny_suite_file, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "sweep", "--layer-file", tiny_suite_file,
                       "--budgets", "64", "--out", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith(",".join(CSV_COLUMNS))
    assert out == ""


# --- validate ----------------------------------------------------------------

def test_validate_exact_on_dividing_schedule(capsys, tiny_suite_file,
                                             full_reuse_schedule_file):
    code, out, _ = run(capsys, "validate", "--layer-file", tiny_suite_file,
                       "--schedule", full_reuse_schedule_file)
    assert code == 0
    assert "0.000000" in out
    assert "undercount" not in out.lower() or "none" in out.lower()


def test_validate_budget_reports_feasibility(capsys, tiny_suite_file,
                                             full_reuse_schedule_file):
    code, out, _ = run(capsys, "validate", "--layer-file", tiny_suite_file,
                       "--schedule", full_reuse_schedule_file,
                       "--budget", "64")
    assert code == 0
    assert "total=281 B  (64 B: infeasible)" in out


def test_validate_csv_per_array_rows(capsys, tiny_suite_file,
                                     full_reuse_schedule_file):
    code, out, _ = run(capsys, "validate", "--layer-file", tiny_suite_file,
                       "--schedule", full_reuse_schedule_file,
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:3] == ["layer", "array", "model_bytes"]
    arrays = [l.split(",")[1] for l in lines[1:]]
    assert arrays == ["I", "W", "O", "total"]


def test_validate_refuses_oversized_nest_with_exit_3(capsys, tmp_path,
                                                     monkeypatch):
    # 512 maps in and out, 56x56 outputs, a 3x3 kernel: 7.4 G iterations
    # untiled, over the default cap.  The cap is checked before the walk.
    layer = LayerShape(name="big", out_h=56, out_w=56, k_h=3, k_w=3,
                       stride=1, c_in=512, c_out=512)
    suite = LayerSuite("one", (layer,))
    suite_path = tmp_path / "one.json"
    suite_path.write_text(suite.to_json())
    sched_path = tmp_path / "s.json"
    sched_path.write_text(json.dumps({
        "order": ["FX", "FY", "SX", "SY", "IF", "OF"], "tiles": {},
        "buffering": {"I": 5, "W": 5, "O": 5}}))

    def walked(*args):
        raise RuntimeError("the walk started")

    monkeypatch.setattr(oracle, "_coefficients", walked)
    code, _, err = run(capsys, "validate", "--layer-file", str(suite_path),
                       "--schedule", str(sched_path))
    assert code == 3
    assert "refused" in err.lower() or "cap" in err.lower()
    assert f"needs {512 * 512 * 56 * 56 * 9} iterations" in err
    assert f"cap of {oracle.DEFAULT_CAP}" in err


def test_default_oracle_cap_admits_built_in_winners_past_10_8(capsys,
                                                              tmp_path):
    # The cheapest of the built-in layers' winners at 1, 4, 64 and 256 KiB
    # that run over 10^8 iterations (107 of the 272 do; the largest, 2.1 G).
    layer = find_builtin_layer("Inception-0-6")
    res = best_schedule(layer, 256 * 1024)
    iterations = math.prod(loop.extent for loop in res.schedule.loops)
    assert 10 ** 8 < iterations == 101_606_400 <= oracle.DEFAULT_CAP
    assert oracle.validate(res.schedule, res.assignment).undercounts == ()
    sched_path = tmp_path / "s.json"
    sched_path.write_text(schedule_to_json(res.schedule, res.assignment))
    code, out, _ = run(capsys, "validate", "--layer", "Inception-0-6",
                       "--schedule", str(sched_path))
    assert code == 0
    assert "undercounts: none" in out


# --- distribution --------------------------------------------------------------

def test_distribution_csv_fractions_sum_to_one(capsys, tiny_suite_file):
    code, out, _ = run(capsys, "distribution", "--layer-file",
                       tiny_suite_file, "--budgets", "256,1K")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "budget" and len(header) == 7
    for line in lines[1:]:
        cells = line.split(",")
        assert sum(float(c) for c in cells[1:]) == pytest.approx(1.0)


def test_cli_deterministic_across_worker_counts(capsys, tiny_suite_file,
                                                monkeypatch):
    monkeypatch.setenv("CONVSCHED_THREADS", "1")
    code1, out1, _ = run(capsys, "sweep", "--layer-file", tiny_suite_file,
                         "--budgets", "64,256")
    monkeypatch.setenv("CONVSCHED_THREADS", "2")
    code2, out2, _ = run(capsys, "sweep", "--layer-file", tiny_suite_file,
                         "--budgets", "64,256")
    assert code1 == code2 == 0
    assert out1 == out2


def test_help_smoke(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    for sub in ("analyze", "search", "sweep", "validate", "distribution"):
        assert sub in out
