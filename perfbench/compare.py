"""Spread of one result set, or a before/after table of two.

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

A result set is a directory of the records run.py saves (one JSON file per
workload, seed and trace setting); only the end-to-end records
(``--trace 0``) are read. With one directory, each end-to-end metric gets
its median, quartiles and spread (quartile distance over the median) next
to its bound. With two, runs are paired by workload and seed and each
metric gets one row per workload with:

- each side's median and quartiles;
- the share of pairs the after side won (ties count for neither side);
- a verdict. "improved" needs at least 9 in 10 pairs won and medians
  further apart than the before side's quartile distance. "no worse" needs
  the after median within the bound of the before median, with both
  spreads inside the bound. Wider spreads give "unresolved", unless every
  after run beats every before run. Anything else is "worse".

Runs that failed their gates, and seeds run on one side only, are counted
per workload and printed above the table. A gain does not count when more
runs fail, so every row of a workload with such runs reads "failed"
instead of a verdict.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    """metric name -> its BENCHMARK.json end-to-end entry."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def load_results(directory) -> tuple[dict, dict]:
    """End-to-end records of a directory.

    Returns {(workload, metric): {seed: value}} for the correct runs and
    {workload: {seed: correct}} for every run.
    """
    values: dict = {}
    runs: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") != 0:
            continue
        correct = rec["result"]["correct"] is True
        runs.setdefault(rec["workload"], {})[rec["seed"]] = correct
        if not correct:
            continue
        for name, m in rec["result"]["metrics"].items():
            values.setdefault((rec["workload"], name), {})[rec["seed"]] = m["value"]
    return values, runs


def run_counts(runs: dict, other: dict | None = None) -> dict:
    """{workload: (correct, incorrect, missing)}; missing are the other side's seeds."""
    out = {}
    for workload in sorted(set(runs) | set(other or {})):
        mine = runs.get(workload, {})
        theirs = (other or {}).get(workload, {})
        correct = sum(mine.values())
        out[workload] = (correct, len(mine) - correct, len(set(theirs) - set(mine)))
    return out


def count_lines(label: str, counts: dict) -> list[str]:
    return [f"{label}{workload}: {c} correct, {bad} failed their gates, {miss} missing"
            for workload, (c, bad, miss) in counts.items()]


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def _better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def verdict(before: list, after: list, wins: int, pairs: int, spec: dict) -> str:
    direction, bound = spec["better"], spec["bound"]
    q1b, med_b, q3b = quartiles(before)
    med_a = quartiles(after)[1]
    if pairs and wins >= 0.9 * pairs and _better(med_a, med_b, direction) \
            and abs(med_a - med_b) > q3b - q1b:
        return "improved"
    if max(spread(before), spread(after)) > bound:
        every = all(_better(a, b, direction) for a in after for b in before)
        return "no worse" if every else "unresolved"
    worse_by = (med_a - med_b) if direction == "lower" else (med_b - med_a)
    return "no worse" if worse_by <= bound * abs(med_b) else "worse"


def fmt(x: float) -> str:
    return f"{x:.4g}"


def spread_table(results: dict, runs: dict, spec: dict) -> list[str]:
    lines = count_lines("", run_counts(runs))
    lines += [f"{'workload':<20} {'metric':<26} {'n':>3} {'median':>11} {'q1':>11} "
              f"{'q3':>11} {'spread':>7} {'bound':>6}  status"]
    for (workload, name), by_seed in sorted(results.items()):
        values = list(by_seed.values())
        q1, med, q3 = quartiles(values)
        s = spread(values)
        bound = spec[name]["bound"]
        status = "ok" if s < bound / 3 else "within" if s <= bound else "WIDE"
        lines.append(f"{workload:<20} {name:<26} {len(values):>3} {fmt(med):>11} {fmt(q1):>11} "
                     f"{fmt(q3):>11} {s:>7.2%} {bound:>6}  {status}")
    return lines


def cell(values: list) -> str:
    if not values:
        return "-"
    q1, med, q3 = quartiles(values)
    return f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]"


def compare_table(before: tuple, after: tuple, spec: dict) -> list[str]:
    (before, runs_b), (after, runs_a) = before, after
    counts_b, counts_a = run_counts(runs_b, runs_a), run_counts(runs_a, runs_b)
    lines = count_lines("before ", counts_b) + count_lines("after  ", counts_a)
    lines.append(f"{'workload':<20} {'metric':<26} {'before median [q1, q3]':>36} "
                 f"{'after median [q1, q3]':>36} {'won':>9}  verdict")
    for key in sorted(set(before) | set(after)):
        workload, name = key
        b, a = before.get(key, {}), after.get(key, {})
        seeds = sorted(set(b) & set(a))
        direction = spec[name]["better"]
        wins = sum(_better(a[s], b[s], direction) for s in seeds)
        vb, va = list(b.values()), list(a.values())
        clean = counts_b[workload][1:] == counts_a[workload][1:] == (0, 0)
        result = verdict(vb, va, wins, len(seeds), spec[name]) if clean else "failed"
        lines.append(f"{workload:<20} {name:<26} {cell(vb):>36} {cell(va):>36} "
                     f"{wins:>3}/{len(seeds):<3}   {result}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("dirs", nargs="+", help="one result directory, or before and after")
    args = p.parse_args(argv)
    if len(args.dirs) > 2:
        p.error("give one or two result directories")
    spec = load_spec()
    sets = [load_results(d) for d in args.dirs]
    if not all(runs for _, runs in sets):
        print("error: no end-to-end results found", file=sys.stderr)
        return 2
    lines = spread_table(*sets[0], spec) if len(sets) == 1 else compare_table(*sets, spec)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
