"""Corpus parity: SHA-256 digests of the package's outputs, captured once
and checked on every later change that must not alter them.

    python tools/parity.py capture   # rewrite tools/parity.json
    python tools/parity.py check     # compare; exit 1 naming each difference

The outputs are
  - the five-model `sweep` CSV of each built-in suite at the default
    budgets, at `--budgets 1,4,8,16` (nothing fits at 1 and 4 B, so every
    model's fallback shows) and at 20 budgets from 512 B to 512 KiB, more
    than the 11 points of the doubling grid between them, so the search's
    bound step takes its grid branch;
  - `distribution` over all built-in layers at the default budgets;
  - `search` text and CSV for ours, peemen and cache on SEARCH_LAYERS at
    SEARCH_BUDGETS;
  - `min_budget_for_ideal` on the first and last layer of each suite;
  - `validate` CSV of the ours, peemen and cache winners on
    VALIDATE_LAYERS at VALIDATE_BUDGETS.

Each command runs in this process through `cli.main`, and its exit code
is digested with its output.  The sweeps and `distribution` honour
`CONVSCHED_THREADS`; one worker and two must give the same digests.  A
full pass takes a few minutes, which is why this is not a tier-1 test.
Capture only at a commit whose outputs are known good, and only for an
intended change of output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from convsched import (  # noqa: E402
    BUILTIN_SUITE_NAMES, builtin_suite, min_budget_for_ideal,
)
from convsched.cli import main as cli_main  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "parity.json"

SWEEP_MODELS = "ours,peemen,cache,hwc,hwce"
SWEEP_BUDGETS = {
    "default": None,
    "tight": "1,4,8,16",
    "grid20": ",".join(str(round(512 * 2 ** (10 * i / 19))) for i in range(20)),
}
# Every kernel shape of the corpus: 11x11 stride 4, 3x3, 3x3 stride 2,
# 1x1, 1x7 and 7x1.
SEARCH_LAYERS = ("AlexNet-1", "ZFNet-6", "VGG-1", "Inception-0-1",
                 "Inception-3-4", "Inception-4-3", "Inception-4-4",
                 "ResNet-5-1")
SEARCH_BUDGETS = ("1", "700", "4K", "64K")
SEARCH_MODELS = ("ours", "peemen", "cache")
VALIDATE_LAYERS = ("ZFNet-6", "Inception-3-5", "Inception-4-3", "ResNet-5-1")
VALIDATE_BUDGETS = ("1K", "64K")


def run_cli(argv: list[str]) -> bytes:
    """The exit code and standard output of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return f"exit {code}\n{out.getvalue()}".encode()


def outputs(workdir: Path):
    """(name, bytes) of every output, in a fixed order."""
    for suite in BUILTIN_SUITE_NAMES:
        for label, budgets in SWEEP_BUDGETS.items():
            extra = [] if budgets is None else ["--budgets", budgets]
            yield f"sweep/{suite}/{label}", run_cli(
                ["sweep", "--suite", suite, "--model", SWEEP_MODELS, *extra])
    yield "distribution/all", run_cli(["distribution"])
    for layer in SEARCH_LAYERS:
        for model in SEARCH_MODELS:
            for budget in SEARCH_BUDGETS:
                for fmt in ("text", "csv"):
                    yield f"search/{layer}/{model}/{budget}/{fmt}", run_cli(
                        ["search", "--layer", layer, "--model", model,
                         "--budget", budget, "--format", fmt])
    for suite in BUILTIN_SUITE_NAMES:
        layers = builtin_suite(suite).layers
        for layer in (layers[0], layers[-1]):
            yield (f"min_budget_for_ideal/{layer.name}",
                   str(min_budget_for_ideal(layer)).encode())
    for layer in VALIDATE_LAYERS:
        for model in SEARCH_MODELS:
            for budget in VALIDATE_BUDGETS:
                found = run_cli(["search", "--layer", layer, "--model", model,
                                 "--budget", budget, "--format", "csv"])
                [row] = csv.DictReader(io.StringIO(
                    found.decode().partition("\n")[2]))
                schedule = workdir / "schedule.json"
                schedule.write_text(row["schedule"])
                yield f"validate/{layer}/{model}/{budget}", run_cli(
                    ["validate", "--layer", layer, "--schedule", str(schedule),
                     "--budget", budget, "--format", "csv"])


def digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: hashlib.sha256(data).hexdigest()
                for name, data in outputs(Path(tmp))}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="Capture or check the digests of the package's outputs.")
    ap.add_argument("action", choices=("capture", "check"))
    args = ap.parse_args(argv)
    got = digests()
    if args.action == "capture":
        DIGESTS.write_text(json.dumps(got, indent=1) + "\n")
        print(f"captured {len(got)} digests in {DIGESTS}")
        return 0
    want = json.loads(DIGESTS.read_text())
    differ = [n for n in want.keys() | got.keys() if want.get(n) != got.get(n)]
    for name in sorted(differ):
        print(f"differs: {name}" if name in want and name in got
              else f"{'missing' if name in want else 'new'}: {name}")
    print(f"{sum(want[n] == got.get(n) for n in want)} of {len(want)} "
          f"digests match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
