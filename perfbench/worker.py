"""One workload in a fresh process: set up, say READY, measure, report.

run.py starts this file and times set-up from the process start to the
READY line.  With --setup-only the process stops there.  Otherwise it
makes passes over the seed's block until --seconds are spent (untraced),
or one pass untraced and one traced (--trace 1), checks every output of
every pass, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402  (the imports are part of set-up)
from convsched import search  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

GOLDEN = HERE / "golden.json"
MAX_ERRORS_SHOWN = 20
MIN_PASSES = 3


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    return _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


class Tally:
    """Operations attempted and failed, plus the first few failures."""

    def __init__(self, workload: str, seed: int) -> None:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        self.golden = golden.get(workload, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}

    def add(self, ops: list) -> None:
        """Count each operation; an input seen before (or in the golden)
        must give the same digest again."""
        for op in ops:
            digest = op.digest()
            for name, want in (("an earlier pass", self.digests.get(op.key)),
                               ("the golden", (self.golden or {}).get(op.key))):
                if want is not None and want != digest:
                    op.errors.append(f"{op.key}: digest {digest} differs from "
                                     f"{name} ({want})")
            self.digests.setdefault(op.key, digest)
            self.attempted += 1
            if op.errors:
                self.failed += 1
                self.errors.extend(op.errors[:MAX_ERRORS_SHOWN - len(self.errors)])


class Clock:
    """Wall and CPU seconds of each timed unit, one sample per pass.

    With a `gauge` kernel, the kernel runs between units, and each sample
    is also kept scaled by the machine's speed around it: seconds times
    the kernel's nominal time over the mean of its time just before and
    just after the unit."""

    def __init__(self, gauge: reference.Kernel | None = None) -> None:
        self.gauge = gauge
        self.wall: dict[str, list[float]] = defaultdict(list)
        self.cpu: dict[str, list[float]] = defaultdict(list)
        self.scale: dict[str, list[float]] = defaultdict(list)
        self._ref = gauge.seconds() if gauge else None

    @contextmanager
    def __call__(self, key: str):
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            yield
        finally:
            self.wall[key].append(time.perf_counter() - t0)
            self.cpu[key].append(cpu_seconds() - c0)
            if self.gauge:
                before, self._ref = self._ref, self.gauge.seconds()
                self.scale[key].append(
                    self.gauge.nominal_s / ((before + self._ref) / 2))

    def scaled(self) -> tuple[float, float]:
        """Wall and CPU seconds of one pass at nominal machine speed: each
        unit at the median over passes of its scaled time."""
        wall = cpu = 0.0
        for key, scale in self.scale.items():
            wall += statistics.median(t * f for t, f in zip(self.wall[key], scale))
            cpu += statistics.median(t * f for t, f in zip(self.cpu[key], scale))
        return wall, cpu


def one_pass(w, block, workdir: Path, tally: Tally, clock: Clock) -> float:
    """Run and check the block once; return the pass's timed seconds."""
    before = sum(map(sum, clock.wall.values()))
    raw = w.run(block, workdir, clock)
    tally.add(w.check(block, raw))
    return sum(map(sum, clock.wall.values())) - before


def measure(w, block, seconds: float, workdir: Path, tally: Tally) -> dict:
    """Untraced.  A first pass warms up and sets the peak resident set,
    before the gauge kernel's own arrays can; then passes gauged by the
    workload's kernel until the next would overrun `seconds`, at least
    MIN_PASSES in all.  Times are at nominal machine speed."""
    start = time.perf_counter()
    passes = [one_pass(w, block, workdir, tally, Clock())]
    rss = peak_rss_mb()
    clock = Clock(w.gauge)
    while True:
        passes.append(one_pass(w, block, workdir, tally, clock))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + passes[-1] > seconds:
            break
    wall, cpu = clock.scaled()
    cands, points = w.size(block)
    return {
        "metrics": {
            "wall_s": (wall, "s"),
            "cands_per_s": (cands / wall, "1/s"),
            "points_per_s": (points / wall, "1/s"),
            "cpu_s": (cpu, "s"),
            "peak_rss_mb": (rss, "MB"),
        },
        "pass_wall_s": passes,
        "unit_wall_s": dict(clock.wall),
        "unit_scale": dict(clock.scale),
    }


def traced(w, block, workdir: Path, tally: Tally, rec: spans.Recorder,
           spans_out: Path) -> dict:
    """One pass untraced, then one traced; the difference is the tracing
    overhead.  The sweep first runs once on its pool, for the pool's busy
    share, then serially so that spans nest."""
    busy = 0.0
    if w is workloads.SweepModels:
        before = _cpu(resource.RUSAGE_CHILDREN)
        wall = one_pass(w, block, workdir, tally, Clock())
        children = _cpu(resource.RUSAGE_CHILDREN) - before
        workers = min(search.worker_count(),
                      len(block.suite) * len(inputs.SWEEP_MODELS))
        busy = children / (workers * wall)
        os.environ["CONVSCHED_THREADS"] = "1"
    untraced_wall = one_pass(w, block, workdir, tally, Clock())
    rec.active = True
    sid = rec.begin("bench.pass")
    traced_wall = one_pass(w, block, workdir, tally, Clock())
    rec.end(sid)
    rec.active = False
    if w is workloads.SweepModels:
        _, out = w.paths(block, workdir)
        with open(out) as f:
            rec.counters["cli.csv_rows"] = sum(1 for _ in f) - 1
    rec.write(spans_out)
    return {"metrics": spans.per_layer_metrics(rec, traced_wall - untraced_wall,
                                               busy),
            "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}


def report(args, w, block, rec: spans.Recorder) -> dict:
    """Measure (or trace) the block; the worker's result line."""
    tally = Tally(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as tmp:
        if hasattr(w, "prepare"):
            w.prepare(block, Path(tmp))
        if args.trace:
            out = traced(w, block, Path(tmp), tally, rec, args.spans_out)
        else:
            out = measure(w, block, args.seconds, Path(tmp), tally)
    out["metrics"] = {k: {"value": v, "unit": u}
                      for k, (v, u) in out["metrics"].items()}
    out.update(attempted=tally.attempted, failed=tally.failed,
               errors=tally.errors, digests=tally.digests,
               numpy=numpy.__version__)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    rec = spans.Recorder()
    if args.trace:
        rec.install()
        rec.active = True
        sid = rec.begin("bench.setup")
    block = w.block(args.seed)
    search.precompute_requirements()
    if args.trace:
        rec.end(sid)
        rec.active = False
    print("READY", flush=True)
    if args.setup_only:
        # The machine's speed right after set-up, for run.py to scale it by.
        kernel = reference.ENGINE
        print(f"GAUGE {kernel.nominal_s / kernel.seconds()!r}", flush=True)
    else:
        print(json.dumps(report(args, w, block, rec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
