#!/usr/bin/env python3
"""Diff a fresh bench --json run against a committed BENCH_*.json baseline.

The repo tracks performance per PR through committed JSON baselines
(BENCH_ingest.json). bench_to_json.py guarantees each document is
well-formed; this tool compares two of them and turns the comparison into
a CI gate plus a human trend table:

  * Schema drift is a hard failure (exit 2): a table, column or row that
    exists in the baseline but not in the fresh run means the bench
    silently stopped measuring something — exactly the regression a
    committed baseline exists to catch. A baseline-numeric cell that
    comes back non-numeric (crash garbage, "-") fails the same way.
    New tables/columns/rows in the fresh run are reported, not failed:
    growth is how the baseline evolves.
  * Metric drift prints as a per-metric trend table with relative deltas.
    By default every metric is warn-only, because CI runs the benches at
    a tiny FARMER_BENCH_SCALE where absolute numbers are incomparable
    with the committed full-scale baseline.
  * --hard REGEX promotes metrics (matched as "table:row:column") to hard
    failures (exit 1) when |relative delta| exceeds --tolerance. Use this
    when both documents were produced at the same scale (e.g. comparing
    consecutive PRs' committed baselines).
  * --hard-min TABLE:COLUMN=VALUE enforces a scale-independent floor: the
    named column must stay >= VALUE in every row. This is the CI gate for
    "the bench still does real work" ("recovery:records/s=1000" pins every
    persistence row above 1000 records/s at any scale).
  * --hard-row-ratio "TABLE:ROWA/ROWB:COLUMN>=VALUE" enforces a
    scale-independent *relative* gate inside the fresh run alone: the
    column's value in row ROWA divided by its value in row ROWB must be
    >= VALUE. This is the CI gate for same-binary speedup claims
    ("parallel_apply:sharded x4/sharded x1:records/s>=0.8" pins "the
    parallel apply path is never meaningfully slower than serial") where
    the absolute numbers depend on machine and scale but the ratio does
    not. A missing table, row or column is a schema failure unless the
    whole table was skipped under --allow-new-tables.
  * --allow-new-tables downgrades "whole table in the baseline but not in
    the fresh run" from a hard failure to a warn row, so the commit that
    introduces a table (baseline regenerated, older branches' binaries
    unaware of it) does not wedge every other branch's CI. Removed or
    renamed *columns* inside a shared table still fail — that is silent
    measurement loss, not growth.

Usage:
    scripts/bench_diff.py --baseline BENCH_ingest.json \
        --fresh /tmp/ingest_smoke.json --tolerance 0.5 \
        --hard-min "recovery:records/s=1000"

Exit status: 0 OK (warnings allowed), 1 hard metric regression,
2 schema violation / malformed input. Stdlib only — no pip dependencies.
"""

from __future__ import annotations

import argparse
import json
import re
import sys


def fail(msg: str) -> "NoReturn":  # noqa: F821 (py3.8-friendly annotation)
    print(f"bench_diff: SCHEMA: {msg}", file=sys.stderr)
    raise SystemExit(2)


def load_tables(path: str) -> "dict[str, dict]":
    """Loads a table-bench JSON document, keyed by table name."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"malformed JSON in {path}: {e}")
    if not isinstance(doc, dict) or not isinstance(doc.get("tables"), list):
        fail(f"{path}: not a table-bench document (missing 'tables')")
    tables = {}
    for i, table in enumerate(doc["tables"]):
        if not isinstance(table, dict) or "name" not in table:
            fail(f"{path}: tables[{i}] has no name")
        for key in ("columns", "rows"):
            if not isinstance(table.get(key), list):
                fail(f"{path}: table {table['name']!r} missing {key!r}")
        tables[table["name"]] = table
    if not tables:
        fail(f"{path}: no tables")
    return tables


NUMBER = re.compile(r"^-?\d+(?:\.\d+)?(?:[x%])?$")


def parse_cell(cell: str) -> "float | None":
    """Numeric value of a cell, tolerating the benches' 'x'/'%' suffixes."""
    cell = cell.strip().replace(",", "")
    if not NUMBER.match(cell):
        return None
    return float(cell.rstrip("x%"))


def parse_hard_min(spec: str) -> "tuple[str, str, float]":
    try:
        target, value = spec.rsplit("=", 1)
        table, column = target.split(":", 1)
        return table, column, float(value)
    except ValueError:
        raise SystemExit(f"bench_diff: bad --hard-min {spec!r} "
                         "(expected TABLE:COLUMN=VALUE)")


def parse_hard_row_ratio(spec: str) -> "tuple[str, str, str, str, float]":
    try:
        target, value = spec.rsplit(">=", 1)
        table, rows, column = target.split(":", 2)
        row_a, row_b = rows.split("/")
        return table, row_a, row_b, column, float(value)
    except ValueError:
        raise SystemExit(f"bench_diff: bad --hard-row-ratio {spec!r} "
                         "(expected TABLE:ROWA/ROWB:COLUMN>=VALUE)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_*.json")
    parser.add_argument("--fresh", required=True,
                        help="fresh bench_to_json.py output to compare")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="relative drift allowed on --hard metrics "
                        "(default 0.25 = 25%%)")
    parser.add_argument("--hard", action="append", default=[],
                        metavar="REGEX",
                        help="metrics (table:row:column) whose drift beyond "
                        "--tolerance fails the run (repeatable; default: "
                        "every metric is warn-only)")
    parser.add_argument("--hard-min", action="append", default=[],
                        metavar="TABLE:COLUMN=VALUE",
                        help="scale-independent floor: the column must stay "
                        ">= VALUE in every row (repeatable)")
    parser.add_argument("--hard-row-ratio", action="append", default=[],
                        metavar="TABLE:ROWA/ROWB:COLUMN>=VALUE",
                        help="relative gate inside the fresh run: the "
                        "column's ROWA value divided by its ROWB value must "
                        "be >= VALUE (repeatable; scale-independent)")
    parser.add_argument("--allow-new-tables", action="store_true",
                        help="a whole table present in the baseline but "
                        "absent from the fresh run warns instead of failing "
                        "(for the commit that introduces a table: the "
                        "baseline already has it while older branches' "
                        "binaries do not). Removed or renamed columns "
                        "inside a table still fail")
    args = parser.parse_args()

    base_tables = load_tables(args.baseline)
    fresh_tables = load_tables(args.fresh)
    hard = [re.compile(p) for p in args.hard]
    floors = [parse_hard_min(s) for s in args.hard_min]
    floor_hits = {i: 0 for i in range(len(floors))}

    rows_out = []  # (metric, base, fresh, delta_str, status)
    hard_failures = []
    skipped_tables = set()  # baseline-only tables under --allow-new-tables

    for name, base in base_tables.items():
        fresh = fresh_tables.get(name)
        if fresh is None:
            if args.allow_new_tables:
                rows_out.append((f"{name}:*:*", "(baseline only)", "-", "-",
                                 "warn"))
                skipped_tables.add(name)
                continue
            fail(f"table {name!r} missing from fresh run")
        if fresh["columns"] != base["columns"]:
            fail(f"table {name!r} columns changed: baseline "
                 f"{base['columns']} vs fresh {fresh['columns']}")
        if len(fresh["rows"]) < len(base["rows"]):
            fail(f"table {name!r} lost rows: baseline has "
                 f"{len(base['rows'])}, fresh has {len(fresh['rows'])}")
        for r, (brow, frow) in enumerate(zip(base["rows"], fresh["rows"])):
            if len(brow) != len(base["columns"]) or \
                    len(frow) != len(base["columns"]):
                fail(f"table {name!r} row {r} has the wrong cell count")
            label = brow[0]
            if frow[0] != label:
                fail(f"table {name!r} row {r} label changed: "
                     f"{label!r} -> {frow[0]!r}")
            for c, column in enumerate(base["columns"]):
                bval = parse_cell(brow[c])
                if bval is None:
                    continue  # label / "-" cell in the baseline
                fval = parse_cell(frow[c])
                metric = f"{name}:{label}:{column}"
                if fval is None:
                    fail(f"metric {metric} was numeric in the baseline "
                         f"({brow[c]!r}) but not in the fresh run "
                         f"({frow[c]!r})")
                for i, (ftable, fcolumn, floor) in enumerate(floors):
                    if name == ftable and column == fcolumn:
                        floor_hits[i] += 1
                        if fval < floor:
                            hard_failures.append(
                                f"{metric} = {fval} below floor {floor}")
                delta = ((fval - bval) / abs(bval)) if bval else \
                    (0.0 if fval == 0 else float("inf"))
                is_hard = any(p.search(metric) for p in hard)
                within = abs(delta) <= args.tolerance
                status = "ok" if within else \
                    ("FAIL" if is_hard else "warn")
                if is_hard and not within:
                    hard_failures.append(
                        f"{metric}: {bval} -> {fval} "
                        f"({delta:+.1%} > ±{args.tolerance:.0%})")
                rows_out.append((metric, brow[c], frow[c],
                                 f"{delta:+.1%}", status))
        for extra in fresh["rows"][len(base["rows"]):]:
            if not isinstance(extra, list) or \
                    len(extra) != len(base["columns"]):
                fail(f"table {name!r} extra row has the wrong cell count")
            rows_out.append((f"{name}:{extra[0]}:*", "-", "(new row)", "-",
                             "new"))
            # "Every row" includes rows the baseline does not know yet: a
            # floor must hold on new rows too, or growing a table would
            # silently widen the gate.
            for i, (ftable, fcolumn, floor) in enumerate(floors):
                if name != ftable or fcolumn not in base["columns"]:
                    continue
                cell = extra[base["columns"].index(fcolumn)]
                fval = parse_cell(cell)
                if fval is None:
                    fail(f"metric {name}:{extra[0]}:{fcolumn} under a "
                         f"--hard-min floor is not numeric ({cell!r})")
                floor_hits[i] += 1
                if fval < floor:
                    hard_failures.append(
                        f"{name}:{extra[0]}:{fcolumn} = {fval} below "
                        f"floor {floor} (new row)")
    for name in fresh_tables:
        if name not in base_tables:
            rows_out.append((f"{name}:*:*", "-", "(new table)", "-", "new"))

    for i, (ftable, fcolumn, floor) in enumerate(floors):
        if floor_hits[i] == 0 and ftable not in skipped_tables:
            fail(f"--hard-min {ftable}:{fcolumn}={floor} matched no metric "
                 "(typo in table/column name?)")

    # Row-ratio gates judge the fresh run alone: the two rows come from one
    # binary on one machine, so their ratio is comparable at any scale.
    for spec in args.hard_row_ratio:
        table, row_a, row_b, column, ratio_min = parse_hard_row_ratio(spec)
        if table in skipped_tables:
            rows_out.append((f"{table}:{row_a}/{row_b}:{column}",
                             "(table skipped)", "-", "-", "warn"))
            continue
        fresh = fresh_tables.get(table)
        if fresh is None:
            fail(f"--hard-row-ratio table {table!r} missing from fresh run")
        if column not in fresh["columns"]:
            fail(f"--hard-row-ratio column {column!r} missing from "
                 f"table {table!r}")
        c = fresh["columns"].index(column)
        values = {}
        for label in (row_a, row_b):
            matches = [row for row in fresh["rows"] if row[0] == label]
            if not matches:
                fail(f"--hard-row-ratio row {label!r} missing from "
                     f"table {table!r}")
            val = parse_cell(matches[0][c])
            if val is None:
                fail(f"--hard-row-ratio metric {table}:{label}:{column} "
                     f"is not numeric ({matches[0][c]!r})")
            values[label] = val
        if values[row_b] == 0:
            fail(f"--hard-row-ratio denominator {table}:{row_b}:{column} "
                 "is zero")
        ratio = values[row_a] / values[row_b]
        metric = f"{table}:{row_a}/{row_b}:{column}"
        if ratio < ratio_min:
            hard_failures.append(
                f"{metric} = {ratio:.3f} below required ratio {ratio_min}")
            rows_out.append((metric, f">={ratio_min}", f"{ratio:.3f}", "-",
                             "FAIL"))
        else:
            rows_out.append((metric, f">={ratio_min}", f"{ratio:.3f}", "-",
                             "ok"))

    width = max((len(m) for m, *_ in rows_out), default=10)
    print(f"{'metric':<{width}}  {'baseline':>12}  {'fresh':>12}  "
          f"{'delta':>9}  status")
    for metric, bcell, fcell, delta, status in rows_out:
        print(f"{metric:<{width}}  {bcell:>12}  {fcell:>12}  {delta:>9}  "
              f"{status}")

    warns = sum(1 for *_, s in rows_out if s == "warn")
    if hard_failures:
        print(f"\nbench_diff: {len(hard_failures)} hard regression(s):",
              file=sys.stderr)
        for h in hard_failures:
            print(f"  {h}", file=sys.stderr)
        return 1
    print(f"\nbench_diff: OK ({len(rows_out)} metrics, {warns} drifted "
          f"beyond ±{args.tolerance:.0%} [warn-only])", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
