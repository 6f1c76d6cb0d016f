"""Fast self-test of the benchmark itself (about ten seconds).

    python3 perfbench/selftest.py

Checks that the same seed gives identical inputs, that a result corrupted
on purpose is counted as failed, that a tiny block of each workload passes
its checks, and that run.py refuses to run without the program.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import worker  # sets up the import path

from convsched import layers

import inputs
import workloads

TINY = layers.LayerShape(name="tiny", out_h=6, out_w=5, k_h=3, k_w=2,
                         stride=1, c_in=3, c_out=4)
GAPPY = layers.LayerShape(name="gappy", out_h=5, out_w=4, k_h=1, k_w=2,
                          stride=3, c_in=2, c_out=3)

TINY_BLOCKS = {
    "layer-search": inputs.SearchBlock(((TINY, 256), (GAPPY, 64))),
    "budget-curve": inputs.CurveBlock((TINY, GAPPY), (64, 128, 512, 4096)),
    "sweep-models": inputs.SweepBlock(layers.LayerSuite("tiny-suite",
                                                        (TINY, GAPPY))),
    "oracle-check": inputs.OracleBlock(((TINY, (64, 256, 4096)),
                                        (GAPPY, (32, 128, 1024)))),
}


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def run_checked(name: str, block, workdir: Path) -> tuple[object, list]:
    w = workloads.WORKLOADS[name]
    if hasattr(w, "prepare"):
        w.prepare(block, workdir)
    raw = w.run(block, workdir, worker.Clock())
    return raw, w.check(block, raw)


def failed(ops) -> int:
    tally = worker.Tally("none", 0)
    tally.add(ops)
    return tally.failed


def test_same_seed_same_inputs(workdir: Path) -> None:
    for name, w in workloads.WORKLOADS.items():
        expect(w.block(7) == w.block(7), f"{name}: seed 7 gave different inputs")
        expect(w.block(7) != w.block(8),
               f"{name}: seeds 7 and 8 gave the same inputs")


def test_tiny_blocks_pass(workdir: Path) -> None:
    for name, block in TINY_BLOCKS.items():
        _, ops = run_checked(name, block, workdir)
        errors = [e for op in ops for e in op.errors]
        expect(ops and not errors, f"{name}: {errors[:3]}")


def test_corrupted_results_fail(workdir: Path) -> None:
    # layer-search: a winner whose reported total the model does not give.
    raw, _ = run_checked("layer-search", TINY_BLOCKS["layer-search"], workdir)
    res = raw[0]
    rep = dataclasses.replace(res.report, t_in=res.report.t_in + 1,
                              total=res.report.total + 1)
    bad = [dataclasses.replace(res, report=rep)] + raw[1:]
    expect(failed(workloads.LayerSearch.check(TINY_BLOCKS["layer-search"],
                                              bad)) == 1,
           "layer-search: a mispriced winner was not counted")
    # ... and one that raised.
    expect(failed(workloads.LayerSearch.check(
        TINY_BLOCKS["layer-search"], [RuntimeError("boom")] + raw[1:])) == 1,
        "layer-search: a raising call was not counted")

    # budget-curve: a total that rises with the budget.
    block = TINY_BLOCKS["budget-curve"]
    (evs, dist), _ = run_checked("budget-curve", block, workdir)
    ev = evs[0]
    results = list(ev.results)
    results[-1] = dataclasses.replace(results[-1], report=results[0].report)
    bad_ev = dataclasses.replace(ev, results=tuple(results))
    expect(results[0].report.total > ev.results[-1].report.total,
           "budget-curve: the tiny curve is flat")
    expect(failed(workloads.BudgetCurve.check(block, ([bad_ev] + evs[1:],
                                                      dist))) == 1,
           "budget-curve: a rising total was not counted")

    # sweep-models: a baseline row cheaper than ours.
    block = TINY_BLOCKS["sweep-models"]
    (rc, out), _ = run_checked("sweep-models", block, workdir)
    lines = out.read_text().splitlines()
    for i, line in enumerate(lines):
        if ",tiny,hwc,1024," in line:
            cells = line.split(",")
            cells[8] = "1"   # total
            lines[i] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    expect(failed(workloads.SweepModels.check(block, (rc, out))) >= 1,
           "sweep-models: a corrupted row was not counted")

    # oracle-check: an undercount.
    block = TINY_BLOCKS["oracle-check"]
    raw, _ = run_checked("oracle-check", block, workdir)
    ev, reps = raw[0]
    reps = [dataclasses.replace(reps[0], undercounts=("I",))] + reps[1:]
    expect(failed(workloads.OracleCheck.check(block, [(ev, reps)] + raw[1:]))
           == 1, "oracle-check: an undercount was not counted")

    # The golden: a digest that differs from the recorded one.
    raw, ops = run_checked("layer-search", TINY_BLOCKS["layer-search"], workdir)
    tally = worker.Tally("none", 0)
    tally.golden = {op.key: "0" * 16 for op in ops}
    tally.add(ops)
    expect(tally.failed == len(ops), "a golden mismatch was not counted")


def test_refuses_without_the_program(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(worker.HERE, bare / worker.HERE.name,
                    ignore=shutil.ignore_patterns("out", "work-*", "__pycache__"))
    shutil.copy(worker.HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{worker.HERE.name}/run.py", "--workload",
         "layer-search", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"run.py without src/ exited {proc.returncode}: {proc.stdout!r}")


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="work-", dir=worker.HERE) as tmp:
        for test in tests:
            try:
                test(Path(tmp))
                print(f"ok   {test.__name__}")
            except AssertionError as e:
                bad += 1
                print(f"FAIL {test.__name__}: {e}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
