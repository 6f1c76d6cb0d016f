"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload layer-search --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The program under test is the `convsched`
package in `src/`; nothing is installed.  Each workload runs in a fresh
worker process (perfbench/worker.py).  Set-up is timed from the start of a
process to its READY line, in SETUP_PROBES processes that stop there;
`setup_s` is the median, each sample scaled to nominal machine speed by
the ENGINE kernel of perfbench/reference.py run right after it.

With --trace 0 the last line of stdout holds every end-to-end metric of
BENCHMARK.json, with --trace 1 every per-layer metric.  A copy with the
block timings, the workload's reason, the seed and the machine goes to
perfbench/out/.  Exit codes: 0 with a result, 1 when the worker fails,
2 when the program or the workload is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
SETUP_PROBES = 9
THREADS = "2"        # CONVSCHED_THREADS for the sweep's process pool
DEADLINE_S = 170.0   # the whole run, set-up probes included


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def start_worker(args, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with the seconds it took to reach READY."""
    env = dict(os.environ, CONVSCHED_THREADS=THREADS)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return proc, ready


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "convsched" / "__init__.py").is_file():
        print(f"error: no convsched package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        config = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        print(f"error: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    whys = {w["name"]: w["why"] for w in config["workloads"]}
    if args.workload not in whys:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(whys)}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(config["run_seconds"])

    begin = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup, scaled = [], []
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, ready = start_worker(args, ["--setup-only"])
                tail, _ = proc.communicate(timeout=60)
                gauge = tail.split()
                if len(gauge) != 2 or gauge[0] != "GAUGE":
                    raise RuntimeError(f"set-up probe printed {tail!r}")
                setup.append(ready)
                scaled.append(ready * float(gauge[1]))
        proc, _ = start_worker(
            args, ["--spans-out", str(OUT / f"spans-{stem}.jsonl")])
        left = DEADLINE_S - (time.perf_counter() - begin)
        stdout, _ = proc.communicate(timeout=max(1.0, left))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("error: the worker overran the deadline", file=sys.stderr)
        return 1
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: the worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(stdout.strip().splitlines()[-1])

    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
    for err in report["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {"correct": report["failed"] == 0,
              "attempted": report["attempted"],
              "failed": report["failed"],
              "metrics": metrics}
    details = dict(
        result, workload=args.workload, why=whys[args.workload],
        seed=args.seed, seconds=args.seconds, trace=args.trace,
        setup_samples_s=setup, setup_scaled_s=scaled,
        machine={"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                 "python": platform.python_version(), "numpy": report["numpy"],
                 "CONVSCHED_THREADS": THREADS},
        **{k: v for k, v in report.items()
           if k not in ("metrics", "attempted", "failed", "numpy")})
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    for name, m in sorted(metrics.items()):
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
