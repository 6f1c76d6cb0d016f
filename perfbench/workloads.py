"""The four workloads: what each block calls, and how its outputs are checked.

`run` is the timed part and calls only the package's public API; it times
each unit of work (one public call, or the one `convsched sweep` call)
under `clock(key)`.  `check` is untimed and judges the outputs without
trusting the engine: winners are re-priced with the scalar model
(`model.traffic`), feasibility is compared with buffer versus budget, the
ideal is recomputed here from the layer shape, and the cross-model and
monotonicity claims are checked row by row.
Each operation (one public call, or one sweep row) yields an `Op` whose
digest rows feed the golden comparison.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from convsched import cli, model, oracle, search

import inputs
import reference


@dataclass
class Op:
    """One operation's outcome: its digest rows and what went wrong."""

    key: str
    rows: list = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def digest(self) -> str:
        text = json.dumps(self.rows, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pixels_read(out: int, kernel: int, stride: int) -> int:
    """Input positions read along one dimension: the windows overlap when
    the stride is below the kernel and leave gaps when it is above."""
    return out * kernel if stride >= kernel else (out - 1) * stride + kernel


def floor_bytes(layer) -> int:
    """The ideal: every input pixel read, weight and output moved once.

    It counts only the input pixels a window touches, so it stays a floor
    when the stride exceeds the kernel; `model.ideal_traffic` charges the
    whole window span there and can exceed the model's own totals.
    """
    pixels = (_pixels_read(layer.out_h, layer.k_h, layer.stride)
              * _pixels_read(layer.out_w, layer.k_w, layer.stride))
    return (layer.p_in * layer.c_in * pixels
            + layer.p_w * layer.c_out * layer.c_in * layer.k_h * layer.k_w
            + layer.p_out * layer.c_out * layer.out_h * layer.out_w)


def check_winner(op: Op, layer, budget: int, schedule, assignment,
                 total: int, buffer: int, acc: int, feasible: bool) -> None:
    """Re-price a winner with the scalar model and check its feasibility."""
    again = model.traffic(schedule, assignment, budget)
    if (again.total, again.buffer_bytes, again.t_o_acc) != (total, buffer, acc):
        op.errors.append(f"{layer.name}@{budget}: re-priced "
                         f"{(again.total, again.buffer_bytes, again.t_o_acc)} "
                         f"!= reported {(total, buffer, acc)}")
    check_report(op, layer, budget, total, buffer, feasible)


def check_report(op: Op, layer, budget: int, total: int, buffer: int,
                 feasible: bool) -> None:
    if feasible != (buffer <= budget):
        op.errors.append(f"{layer.name}@{budget}: feasible={feasible} "
                         f"with buffer {buffer}")
    if total < floor_bytes(layer):
        op.errors.append(f"{layer.name}@{budget}: total {total} "
                         f"below the ideal {floor_bytes(layer)}")


def check_result(op: Op, layer, budget: int, res) -> None:
    """check_winner on a SearchResult."""
    rep = res.report
    check_winner(op, layer, budget, res.schedule, res.assignment, rep.total,
                 rep.buffer_bytes, rep.t_o_acc, rep.feasible)


def _serial(result) -> str:
    return model.schedule_to_json(result.schedule, result.assignment)


def attempt(fn, *args):
    """fn(*args), or the exception it raised: a failed operation."""
    try:
        return fn(*args)
    except Exception as exc:  # counted by check, never hidden
        return exc


def _failed(key: str, exc: BaseException) -> Op:
    return Op(key, errors=[f"{key}: raised {type(exc).__name__}: {exc}"])


class LayerSearch:
    name = "layer-search"
    gauge = reference.ENGINE
    block = staticmethod(inputs.layer_search_block)

    @staticmethod
    def size(block):
        return (sum(inputs.space_size(l) for l, _ in block.calls),
                len(block.calls))

    @staticmethod
    def run(block, workdir, clock):
        out = []
        for layer, budget in block.calls:
            with clock(f"{layer.name}@{budget}"):
                out.append(attempt(search.best_schedule, layer, budget))
        return out

    @staticmethod
    def check(block, raw) -> list[Op]:
        ops = []
        for (layer, budget), res in zip(block.calls, raw):
            key = f"{layer.name}@{budget}"
            if isinstance(res, BaseException):
                ops.append(_failed(key, res))
                continue
            op = Op(key)
            rep = res.report
            check_result(op, layer, budget, res)
            op.rows.append([layer.name, budget, "ours", rep.total,
                            rep.buffer_bytes, _serial(res)])
            ops.append(op)
        return ops


class BudgetCurve:
    name = "budget-curve"
    gauge = reference.ENGINE
    block = staticmethod(inputs.budget_curve_block)

    @staticmethod
    def size(block):
        return (sum(inputs.space_size(l) for l in block.layers),
                len(block.layers) * len(block.budgets))

    @staticmethod
    def run(block, workdir, clock):
        evs = []
        for layer in block.layers:
            with clock(layer.name):
                evs.append(attempt(search.evaluate_layer, layer, block.budgets))
        ok = [ev for ev in evs if not isinstance(ev, BaseException)]
        with clock("distribution"):
            dist = attempt(search.distribution_from, ok) if ok else None
        return evs, dist

    @staticmethod
    def check(block, raw) -> list[Op]:
        evs, dist = raw
        dist_key = "distribution/" + "+".join(l.name for l in block.layers)
        ops = []
        for layer, ev in zip(block.layers, evs):
            if isinstance(ev, BaseException):
                ops.append(_failed(layer.name, ev))
                continue
            op = Op(layer.name)
            if tuple(r.budget for r in ev.results) != block.budgets:
                op.errors.append(f"{layer.name}: results do not follow the budgets")
            prev = None
            for budget, res in zip(block.budgets, ev.results):
                rep = res.report
                check_result(op, layer, budget, res)
                if prev is not None and rep.total > prev:
                    op.errors.append(f"{layer.name}@{budget}: total {rep.total} "
                                     f"rose from {prev}")
                prev = rep.total
                op.rows.append([layer.name, budget, "ours", rep.total,
                                rep.buffer_bytes, _serial(res)])
            ops.append(op)
        if isinstance(dist, BaseException):
            ops.append(_failed(dist_key, dist))
        elif dist is not None:
            op = Op(dist_key)
            for budget, fracs in zip(dist.budgets, dist.fractions):
                if abs(sum(fracs) - 1.0) > 1e-9:
                    op.errors.append(f"distribution@{budget}: fractions sum "
                                     f"to {sum(fracs)}")
                op.rows.append([budget, [round(f, 9) for f in fracs]])
            if dist.budgets != block.budgets:
                op.errors.append("distribution: budgets differ from the input")
            ops.append(op)
        return ops


class SweepModels:
    name = "sweep-models"
    gauge = reference.ENGINE
    block = staticmethod(inputs.sweep_block)

    @staticmethod
    def size(block):
        return (sum(inputs.space_size(l) for l in block.suite),
                len(block.suite) * len(inputs.SWEEP_MODELS)
                * len(inputs.BUDGETS_9))

    @staticmethod
    def paths(block, workdir: Path) -> tuple[Path, Path]:
        """The layer file the sweep reads and the CSV it writes."""
        return (workdir / f"{block.suite.name}.json",
                workdir / f"{block.suite.name}.csv")

    @staticmethod
    def prepare(block, workdir: Path) -> None:
        layer_file, _ = SweepModels.paths(block, workdir)
        layer_file.write_text(block.suite.to_json())

    @staticmethod
    def run(block, workdir, clock):
        layer_file, out = SweepModels.paths(block, workdir)
        argv = ["sweep", "--layer-file", str(layer_file),
                "--model", ",".join(inputs.SWEEP_MODELS),
                "--budgets", "1K..256K:x2", "--out", str(out)]
        with clock("sweep"):
            rc = attempt(cli.main, argv)
        return rc, out

    @staticmethod
    def check(block, raw) -> list[Op]:
        rc, out = raw
        keys = [(l.name, m, b) for l in block.suite
                for m in inputs.SWEEP_MODELS for b in inputs.BUDGETS_9]
        ops = {k: Op(f"{k[0]}/{k[1]}@{k[2]}") for k in keys}
        if isinstance(rc, BaseException) or rc != 0:
            for op in ops.values():
                op.errors.append(f"sweep failed: {rc!r}")
            return list(ops.values())
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        found = {}
        for row in rows:
            key = (row["layer"], row["model"], int(row["budget"]))
            if key in ops:
                if key in found:
                    ops[key].errors.append(f"{ops[key].key}: duplicate row")
                found[key] = row
        layers = {l.name: l for l in block.suite}
        for key, op in ops.items():
            row = found.get(key)
            if row is None:
                op.errors.append(f"{op.key}: missing row")
                continue
            try:
                _check_sweep_row(op, layers[key[0]], key[1], key[2], row)
            except ValueError as exc:  # a malformed number or schedule
                op.errors.append(f"{op.key}: unreadable row: {exc}")
        # Rows that failed their own checks are not compared again.
        for (name, m, b), op in ops.items():
            row, ours = found.get((name, m, b)), found.get((name, "ours", b))
            ours_op = ops[name, "ours", b]
            if m == "ours" or op.errors or ours_op.errors \
                    or row["feasible"] != "true":
                continue
            if ours["feasible"] != "true" or int(ours["total"]) > int(row["total"]):
                ours_op.errors.append(f"{name}@{b}: ours {ours['total']} not "
                                      f"at most {m} {row['total']}")
        return list(ops.values())


def _check_sweep_row(op: Op, layer, model_name: str, budget: int, row) -> None:
    serial = row["schedule"]
    if row["total"] == "":
        # Only the HWCE may have no schedule: its line buffer did not fit.
        if model_name != "hwce" or row["feasible"] != "false" or serial:
            op.errors.append(f"{op.key}: empty result")
        op.rows.append([layer.name, budget, model_name, None, None, None])
        return
    total, buffer = int(row["total"]), int(row["buffer_bytes"])
    acc, feasible = int(row["t_o_acc"]), row["feasible"] == "true"
    op.rows.append([layer.name, budget, model_name, total, buffer, serial])
    schedule, assignment = model.schedule_from_json(serial, layer)
    if model_name in ("ours", "hwc", "hwce"):
        check_winner(op, layer, budget, schedule, assignment, total, buffer,
                     acc, feasible)
        return
    # The baselines price with their own formulas; the same schedule under
    # the scalar model can only cost less.
    again = model.traffic(schedule, assignment, budget)
    if again.total > total:
        op.errors.append(f"{op.key}: model prices its schedule at "
                         f"{again.total} > reported {total}")
    check_report(op, layer, budget, total, buffer, feasible)


class OracleCheck:
    name = "oracle-check"
    gauge = reference.ORACLE
    block = staticmethod(inputs.oracle_block)

    @staticmethod
    def size(block):
        return (sum(inputs.space_size(l) for l, _ in block.cases),
                sum(len(b) for _, b in block.cases))

    @staticmethod
    def run(block, workdir, clock):
        out = []
        for layer, budgets in block.cases:
            with clock(f"{layer.name}/search"):
                ev = attempt(search.evaluate_layer, layer, budgets)
            reps = []
            if not isinstance(ev, BaseException):
                for budget, res in zip(budgets, ev.results):
                    with clock(f"{layer.name}@{budget}/validate"):
                        reps.append(attempt(oracle.validate, res.schedule,
                                            res.assignment))
            out.append((ev, reps))
        return out

    @staticmethod
    def check(block, raw) -> list[Op]:
        ops = []
        for (layer, budgets), (ev, reps) in zip(block.cases, raw):
            key = f"{layer.name}/search"
            if isinstance(ev, BaseException):
                ops.append(_failed(key, ev))
                continue
            op = Op(key)
            for budget, res in zip(budgets, ev.results):
                rep = res.report
                check_result(op, layer, budget, res)
                op.rows.append([layer.name, budget, "ours", rep.total,
                                rep.buffer_bytes, _serial(res)])
            ops.append(op)
            for budget, res, rep in zip(budgets, ev.results, reps):
                key = f"{layer.name}@{budget}/validate"
                if isinstance(rep, BaseException):
                    ops.append(_failed(key, rep))
                    continue
                op = Op(key)
                if rep.undercounts:
                    op.errors.append(f"{key}: model undercounts "
                                     f"{','.join(rep.undercounts)}")
                if rep.model.total != res.report.total:
                    op.errors.append(f"{key}: validate priced {rep.model.total}, "
                                     f"search {res.report.total}")
                op.rows.append([layer.name, budget, rep.oracle.bytes_total,
                                rep.oracle.iterations, list(rep.undercounts)])
                ops.append(op)
        return ops


WORKLOADS = {w.name: w for w in (LayerSearch, BudgetCurve, SweepModels,
                                 OracleCheck)}
