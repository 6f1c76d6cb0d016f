"""Record the golden digests: each workload's block, per seed.

    python3 perfbench/capture_golden.py 0 1 2

Rewrites perfbench/golden.json.  A later run of that workload and seed
fails every operation whose (layer, budget, model, total, buffer,
schedule) digest differs, so capture only at a commit whose outputs are
known good; an operation that fails its checks stops the capture.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import worker  # sets up the import path
import workloads


def block_digests(w, seed: int, workdir: Path) -> dict[str, str]:
    block = w.block(seed)
    if hasattr(w, "prepare"):
        w.prepare(block, workdir)
    ops = w.check(block, w.run(block, workdir, worker.Clock()))
    bad = [e for op in ops for e in op.errors]
    if bad:
        raise SystemExit(f"{w.name} seed {seed}: checks failed: {bad[:5]}")
    return {op.key: op.digest() for op in ops}


def main(argv: list[str]) -> int:
    seeds = [int(a) for a in argv] or [0]
    golden = {}
    with tempfile.TemporaryDirectory(prefix="work-", dir=worker.HERE) as tmp:
        for name, w in workloads.WORKLOADS.items():
            golden[name] = {str(s): block_digests(w, s, Path(tmp))
                            for s in seeds}
            print(f"{name}: {len(seeds)} seeds", flush=True)
    worker.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
