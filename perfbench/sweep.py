"""Run the benchmark over many seeds, optionally paired against other sources.

    python3 perfbench/sweep.py --seeds 1-10 --out DIR
    python3 perfbench/sweep.py --seeds 1-10 --out DIR --baseline-src OTHER/src

The first form runs every workload in BENCHMARK.json once per seed, for
its run_seconds, one process at a time, saving records under DIR, and
prints the spread table. The second runs the same benchmark code against two source
trees per seed (this checkout's ``src`` as "after", OTHER/src as
"before"), alternating which side runs first, saves DIR/before and
DIR/after, and prints the before/after table.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(workload: str, seed: int, seconds: int, out: Path, src: Path | None) -> bool:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--results-dir", str(out)]
    if src is not None:
        cmd += ["--src", str(src)]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    last = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else "{}"
    ok = res.returncode == 0 and json.loads(last).get("correct") is True
    print(f"{workload} seed {seed}{'' if src is None else ' ' + out.name}: "
          f"{'ok' if ok else f'FAILED (exit {res.returncode})'}", file=sys.stderr)
    return ok


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    p.add_argument("--out", required=True, help="directory for the result records")
    p.add_argument("--baseline-src", default=None,
                   help="source tree of the parent commit, for a paired before/after run")
    args = p.parse_args(argv)
    out = Path(args.out)
    seconds = spec["run_seconds"]
    ok = True
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for workload in (w["name"] for w in spec["workloads"]):
            if args.baseline_src is None:
                ok &= run_one(workload, seed, seconds, out, None)
                continue
            sides = [("before", Path(args.baseline_src)), ("after", HERE.parent / "src")]
            for side, src in (sides if i % 2 == 0 else sides[::-1]):
                ok &= run_one(workload, seed, seconds, out / side, src)
    table = ([str(out)] if args.baseline_src is None else [str(out / "before"), str(out / "after")])
    compare.main(table)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
