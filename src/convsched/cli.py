"""Command-line front-end: analyze, search, sweep, validate, distribution.

Single results print as structured text by default, matrices as CSV; both
honor --format and --out.  A budget is plain bytes or a K/M suffix; --budgets
also takes comma lists and the geometric range form "1K..512K:x2", which
always ends at its upper bound even when that is off the xF grid.  Run it as
`convsched` or `python -m convsched`.

Exit codes:
  0  success.
  1  usage: argparse refused the command line (an unknown command, option
     or --model choice, a missing required option, a non-integer
     --oracle-cap).
  2  bad input: a --budget or --budgets size that does not parse ("-1",
     "abc"), is not positive or does not fit 64 bits; an --oracle-cap
     below 1; a layer or schedule file that cannot be read or does not
     hold a valid document; an unknown layer, suite or sweep model; an
     --out file that cannot be written.  Also `validate` when the model
     counts fewer bytes than the oracle for some array.
  3  `validate` refused a nest of more iterations than --oracle-cap.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from pathlib import Path

from .engine import DEFAULT_BUDGETS, check_budgets
from .layers import LayerShape, LayerSuite, ValidationError, parse_layer_suite
from .model import ARRAYS, schedule_from_json, schedule_to_json, traffic
from .oracle import DEFAULT_CAP, OracleCapError, validate
from .search import MODEL_ORDER, SearchConfig, distribution, model_rows, sweep
from .space import TILE_POLICY_MODES, TilePolicy
from .suites import BUILTIN_SUITE_NAMES, builtin_suite, find_builtin_layer

CSV_COLUMNS = ("suite", "layer", "model", "budget", "t_in", "t_w", "t_o_acc",
               "t_o_final", "total", "buffer_bytes", "feasible", "schedule",
               "overhead_vs_ours_pct")

_AGGREGATE_LAYER = "(all)"


def parse_byte_size(token: str) -> int:
    """A byte count with an optional K or M suffix (powers of 1024)."""
    m = re.fullmatch(r"\s*(\d+)\s*([kKmM]?)\s*", token)
    if not m:
        raise ValueError(f"bad byte size {token!r}")
    scale = {"": 1, "k": 1024, "m": 1024 * 1024}[m.group(2).lower()]
    return int(m.group(1)) * scale


def parse_budget_list(spec: str) -> tuple[int, ...]:
    """Comma-separated sizes, or a geometric range like "1K..512K:x2".

    A range steps from `lo` by the factor and always ends at `hi`: when `hi`
    is off the grid ("1K..512K:x4") it follows the last grid point below it.
    """
    s = spec.strip()
    if ".." in s:
        rng, _, step = s.partition(":")
        lo_s, _, hi_s = rng.partition("..")
        lo, hi = parse_byte_size(lo_s), parse_byte_size(hi_s)
        factor = 2
        if step:
            m = re.fullmatch(r"\s*[xX](\d+)\s*", step)
            if not m or int(m.group(1)) < 2:
                raise ValueError(f"bad range step {step!r}; expected e.g. x2")
            factor = int(m.group(1))
        if lo < 1 or hi < lo:
            raise ValueError(f"bad budget range {spec!r}")
        out = []
        b = lo
        while b <= hi:
            out.append(b)
            b *= factor
        if out[-1] != hi:
            out.append(hi)
        return tuple(out)
    return tuple(parse_byte_size(t) for t in s.split(","))


def _parse_budgets(spec: str, parse=parse_budget_list) -> tuple[int, ...]:
    """The --budgets list, with malformed or non-positive sizes rejected."""
    try:
        budgets = parse(spec)
    except ValueError as e:
        raise ValidationError(str(e)) from e
    check_budgets(budgets)
    return budgets


def _parse_budget(spec: str | None) -> int | None:
    """The one size of --budget, ruled as --budgets rules each of its own."""
    if spec is None:
        return None
    return _parse_budgets(spec, lambda s: (parse_byte_size(s),))[0]


def _resolve_layer(args) -> tuple[str, LayerShape]:
    """The (owning suite name, layer) a single-layer command works on."""
    if args.layer_file:
        suite = _read_suite_file(args.layer_file)
        if args.layer:
            return suite.name, suite.get(args.layer)
        if len(suite) == 1:
            return suite.name, suite.layers[0]
        raise ValidationError(
            "--layer is required when the layer file holds several layers")
    if not args.layer:
        raise ValidationError("a layer is required: --layer NAME or --layer-file FILE")
    layer = find_builtin_layer(args.layer)  # KeyError: exit 2 through main
    return next(n for n in BUILTIN_SUITE_NAMES if layer in builtin_suite(n)), layer


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise ValidationError(f"cannot read {what} file {path}: {e}") from e


def _read_suite_file(path: str) -> LayerSuite:
    return parse_layer_suite(_read_text(path, "layer"))


def _read_schedule(args) -> tuple:
    """(suite name, layer, schedule, assignment, budget or None) for
    analyze and validate."""
    suite_name, layer = _resolve_layer(args)
    budget = _parse_budget(args.budget)
    text = _read_text(args.schedule, "schedule")
    return (suite_name, layer, *schedule_from_json(text, layer), budget)


def _policy(args) -> TilePolicy:
    return TilePolicy(mode=args.tile_policy)


def _report_row(suite: str, layer: str, model: str, budget, report,
                serial: str | None, overhead: float | None = None) -> dict:
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(suite=suite, layer=layer, model=model,
               budget="" if budget is None else budget)
    if report is not None:
        row.update(t_in=report.t_in, t_w=report.t_w, t_o_acc=report.t_o_acc,
                   t_o_final=report.t_o_final, total=report.total,
                   buffer_bytes=report.buffer_bytes,
                   feasible="true" if report.feasible else "false")
    else:
        row["feasible"] = "false"
    if serial is not None:
        row["schedule"] = serial
    if overhead is not None:
        row["overhead_vs_ours_pct"] = f"{overhead:.6f}"
    return row


def _emit_csv(out, rows: list[dict]) -> None:
    w = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
    w.writeheader()
    w.writerows(rows)


def _print_buffers(out, report, budget) -> None:
    cap = "unconstrained" if budget is None else f"{budget} B"
    verdict = "feasible" if report.feasible else "infeasible"
    print(f"buffers  I={report.b_in}  W={report.b_w}  O={report.b_o}  "
          f"total={report.buffer_bytes} B  ({cap}: {verdict})", file=out)


def _print_report(out, report, budget) -> None:
    _print_buffers(out, report, budget)
    print(f"traffic  I={report.t_in}  W={report.t_w}  "
          f"O_acc={report.t_o_acc}  O_final={report.t_o_final}  "
          f"total={report.total} B", file=out)


def cmd_analyze(args, out) -> int:
    suite_name, layer, schedule, assignment, budget = _read_schedule(args)
    report = traffic(schedule, assignment, budget)
    serial = schedule_to_json(schedule, assignment)
    if args.format == "csv":
        _emit_csv(out, [_report_row(suite_name, layer.name, "manual",
                                    budget, report, serial)])
    else:
        print(f"layer {layer.name} (suite {suite_name})", file=out)
        print(f"schedule {serial}", file=out)
        _print_report(out, report, budget)
    return 0


def cmd_search(args, out) -> int:
    suite_name, layer = _resolve_layer(args)
    budget = _parse_budget(args.budget)
    # The sweep's own step, so a search row is the sweep's row.
    [(report, serial, candidates)] = model_rows(
        layer, args.model, (budget,), _policy(args))
    if args.format == "csv":
        _emit_csv(out, [_report_row(suite_name, layer.name, args.model,
                                    budget, report, serial)])
    else:
        print(f"layer {layer.name} (suite {suite_name})  model {args.model}  "
              f"budget {budget} B  candidates {candidates}", file=out)
        print(f"schedule {serial}", file=out)
        _print_report(out, report, budget)
    return 0


def cmd_sweep(args, out) -> int:
    if args.suite:
        suite = builtin_suite(args.suite)
    elif args.layer_file:
        suite = _read_suite_file(args.layer_file)
    else:
        raise ValidationError("sweep needs --suite or --layer-file")
    models = tuple(m.strip() for m in args.model.split(","))
    config = SearchConfig(budgets=_parse_budgets(args.budgets),
                          tile_policy=_policy(args))
    result = sweep(suite, config, models)

    rows = [_report_row(r.suite, r.layer, r.model, r.budget, r.report,
                        r.schedule_json) for r in result.rows]
    rows += [_report_row(a.suite, _AGGREGATE_LAYER, a.model, a.budget,
                         a.report, None, a.overhead_vs_ours_pct)
             for a in result.aggregates]

    if args.format == "text":
        print(f"suite {suite.name}: aggregate totals (bytes)", file=out)
        header = f"{'budget':>8} " + " ".join(f"{m:>14}" for m in result.models)
        print(header, file=out)
        by = {(a.model, a.budget): a for a in result.aggregates}
        for b in result.budgets:
            cells = " ".join(f"{by[m, b].report.total:>14}"
                         for m in result.models)
            print(f"{b:>8} {cells}", file=out)
    else:
        _emit_csv(out, rows)
    return 0


def cmd_validate(args, out) -> int:
    suite_name, layer, schedule, assignment, budget = _read_schedule(args)
    rep = validate(schedule, assignment, cap=args.oracle_cap)
    model = traffic(schedule, assignment, budget)
    tr = rep.oracle
    rows = [(a, rep.model_bytes[a], rep.oracle_bytes[a], err) for a, err in
            zip(ARRAYS, (rep.rel_err_i, rep.rel_err_w, rep.rel_err_o))]
    if args.format == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(("layer", "array", "model_bytes", "oracle_bytes",
                    "rel_err", "undercount"))
        for array, model_bytes, oracle_bytes, err in rows:
            w.writerow((layer.name, array, model_bytes, oracle_bytes,
                        f"{err:.8f}", "yes" if array in rep.undercounts else "no"))
        w.writerow((layer.name, "total", model.total, tr.bytes_total,
                    f"{rep.rel_err_total:.8f}",
                    "yes" if rep.undercounts else "no"))
    else:
        print(f"layer {layer.name} (suite {suite_name})  "
              f"iterations {tr.iterations}", file=out)
        for array, model_bytes, oracle_bytes, err in rows:
            print(f"{array:>5}  model {model_bytes:>14}  oracle {oracle_bytes:>14}  "
                  f"rel_err {err:+.6f}", file=out)
        print(f"total  model {model.total:>14}  oracle {tr.bytes_total:>14}  "
              f"rel_err {rep.rel_err_total:+.6f}", file=out)
        _print_buffers(out, model, budget)
        under = ", ".join(rep.undercounts) if rep.undercounts else "none"
        print(f"undercounts: {under}", file=out)
    return 2 if rep.undercounts else 0


def cmd_distribution(args, out) -> int:
    if args.suite:
        layers = list(builtin_suite(args.suite))
    elif args.layer_file:
        layers = list(_read_suite_file(args.layer_file))
    else:
        layers = [l for name in BUILTIN_SUITE_NAMES
                  for l in builtin_suite(name)]
    budgets = _parse_budgets(args.budgets)
    table = distribution(layers, budgets, _policy(args))
    if args.format == "text":
        print(f"layers {table.layer_count}  orderings {table.ordering_count}",
              file=out)
        header = f"{'budget':>8} " + " ".join(f"{b:>11}" for b in table.bins)
        print(header, file=out)
        for bidx, budget in enumerate(table.budgets):
            cells = " ".join(f"{f:>11.4f}" for f in table.fractions[bidx])
            print(f"{budget:>8} {cells}", file=out)
    else:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(("budget",) + table.bins)
        for bidx, budget in enumerate(table.budgets):
            w.writerow((budget,) + tuple(f"{f:.8f}"
                                         for f in table.fractions[bidx]))
    return 0


def _add_layer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--layer", metavar="NAME",
                   help="built-in layer name, or a layer in --layer-file")
    p.add_argument("--layer-file", metavar="FILE",
                   help="JSON layer-suite file")


def _add_budgets_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budgets", default=",".join(map(str, DEFAULT_BUDGETS)),
                   help='comma list, or range "1K..512K:x2" that always ends '
                        'at its upper bound (default %(default)s)')


def _add_space_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tile-policy", choices=[m for m in TILE_POLICY_MODES
                                             if m != "explicit"],
                   default="pow2-extents", help="tile-size enumeration mode")


def _add_out_flags(p: argparse.ArgumentParser, default_format: str) -> None:
    p.add_argument("--format", choices=("csv", "text"), default=default_format)
    p.add_argument("--out", metavar="FILE", help="write output here, not stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convsched",
        description="Memory-traffic models and schedule search for "
                    "convolution loop-nests.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="price one schedule on one layer")
    _add_layer_flags(p)
    p.add_argument("--schedule", required=True, metavar="FILE",
                   help="JSON schedule document")
    p.add_argument("--budget", default=None,
                   help="local buffer capacity, e.g. 1K")
    _add_out_flags(p, "text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("search", help="best schedule for one layer and budget")
    _add_layer_flags(p)
    p.add_argument("--budget", required=True,
                   help="local buffer capacity, e.g. 1K")
    p.add_argument("--model", choices=("ours", "peemen", "cache"),
                   default="ours")
    _add_space_flags(p)
    _add_out_flags(p, "text")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", help="budget sweep over a suite, several models")
    p.add_argument("--suite", metavar="NAME",
                   help="built-in suite: " + ", ".join(BUILTIN_SUITE_NAMES))
    p.add_argument("--layer-file", metavar="FILE")
    _add_budgets_flag(p)
    p.add_argument("--model", default="ours,peemen,cache", metavar="LIST",
                   help="comma list from: " + ", ".join(m for m in MODEL_ORDER
                                                        if m != "ideal"))
    _add_space_flags(p)
    _add_out_flags(p, "csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="check the model against the trace oracle")
    _add_layer_flags(p)
    p.add_argument("--schedule", required=True, metavar="FILE")
    p.add_argument("--budget", default=None,
                   help="local buffer capacity, e.g. 1K")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP,
                   help="refuse (exit 3) nests of more loop iterations than "
                        "this, at least 1 (default %(default)s); the oracle walks the "
                        "built-in layers' winners at 0.5-2 G a second")
    _add_out_flags(p, "text")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("distribution",
                       help="permutation-quality histogram over budgets")
    p.add_argument("--suite", metavar="NAME",
                   help="one built-in suite (default: all built-in layers)")
    p.add_argument("--layer-file", metavar="FILE")
    _add_budgets_flag(p)
    _add_space_flags(p)
    _add_out_flags(p, "csv")
    p.set_defaults(func=cmd_distribution)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse reserves 2 for usage errors; remap to our contract.
        return 0 if e.code in (0, None) else 1

    sink = sys.stdout
    opened = None
    if args.out:
        try:
            opened = open(args.out, "w", newline="")
        except OSError as e:
            print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
            return 2
        sink = opened
    try:
        return args.func(args, sink)
    except OracleCapError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KeyError as e:
        print(f"error: {e.args[0] if e.args else e}", file=sys.stderr)
        return 2
    finally:
        if opened is not None:
            opened.close()


if __name__ == "__main__":
    sys.exit(main())
