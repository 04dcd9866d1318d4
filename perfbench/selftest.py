"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. BENCHMARK.json names exactly the metrics run.py and tracing.py report.
2. Every correctness gate passes on good output and fails on corrupted
   output (a flipped policy action, another action's simulation, backward
   transition mass, differing policy bytes, a row without an action, a
   belief off by 1e-6, a permuted symbol map, a non-zero exit).
3. Session replays keep each epoch's fastest time, and latency percentiles
   are medians over blocks that stay within a pass.
4. A tiny run of each workload, untraced and traced, exits 0, is correct,
   and reports every metric by name with its unit.
5. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Takes about a minute. Prints one line per check and exits 1 on any failure.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import gates  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from cbmpomdp import PbviConfig, SimConfig, bearing_pomdp, pbvi_solve, simulate  # noqa: E402

FAILURES: list = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        FAILURES.append(name)


def gate_fires(name: str, good, bad) -> None:
    """good() must pass and bad() must raise GateFailure."""
    try:
        good()
    except gates.GateFailure as exc:
        report(f"gate {name} passes good output", False, str(exc))
        return
    try:
        bad()
    except gates.GateFailure:
        report(f"gate {name} fails corrupted output", True)
    else:
        report(f"gate {name} fails corrupted output", False, "no GateFailure")


def check_spec() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    report("BENCHMARK.json end-to-end metrics match run.py", e2e == list(run.END_TO_END))
    report("BENCHMARK.json per-layer metrics match tracing.py",
           layer == tracing.per_layer_metrics())


def check_gates() -> None:
    model = bearing_pomdp()
    policy = pbvi_solve(model, config=PbviConfig(improve_tol=1e-3, max_expansions=3))
    flipped = pbvi_solve(model, config=PbviConfig(improve_tol=1e-3, max_expansions=3))
    best = int(np.argmax(flipped.alphas @ np.eye(6)[0]))
    flipped.alpha_actions = flipped.alpha_actions.copy()
    flipped.alpha_actions[best] = model.action_index("PM")
    gate_fires("policy structure", lambda: gates.check_bearing_structure(policy),
               lambda: gates.check_bearing_structure(flipped))

    cfg = SimConfig(horizon=10_000, n_runs=100, seed=3)
    totals = simulate(model, "C=1.2", cfg).totals
    wrong_action = simulate(model, "C=1.5", cfg).totals
    gate_fires("fixed-capacity CI",
               lambda: gates.check_fixed_sim(model, "C=1.2", totals, cfg.horizon),
               lambda: gates.check_fixed_sim(model, "C=1.2", wrong_action, cfg.horizon))
    gate_fires("policy beats fixed",
               lambda: gates.check_policy_beats_fixed(10.0, {"C=1.2": 5.0}),
               lambda: gates.check_policy_beats_fixed(5.0, {"C=1.2": 10.0}))
    gate_fires("exit codes", lambda: gates.check_exit_codes({"train": 0}),
               lambda: gates.check_exit_codes({"train": 0, "solve": 3}))
    upper = np.triu(np.full((2, 3, 3), 1 / 3))
    backward = upper.copy()
    backward[1, 2, 0] = 1e-12
    gate_fires("upper-triangular transitions", lambda: gates.check_upper_triangular(upper),
               lambda: gates.check_upper_triangular(backward))
    gate_fires("identical policy bytes",
               lambda: gates.check_identical([b"a", b"a"], "policy.json"),
               lambda: gates.check_identical([b"a", b"b"], "policy.json"))
    row = {"epoch": 0, "action": "PM", "belief": [0.5, 0.5]}
    labels = ("C=1.2", "PM")
    gate_fires("session row action", lambda: gates.check_session_rows([row], labels),
               lambda: gates.check_session_rows([dict(row, action=None)], labels))
    gate_fires("session belief sum", lambda: gates.check_session_rows([row], labels),
               lambda: gates.check_session_rows([dict(row, belief=[0.5, 0.5 + 1e-6])], labels))
    gate_fires("symbol map", lambda: gates.check_symbol_map(np.full(10, 2), 2),
               lambda: gates.check_symbol_map(np.full(10, 3), 2))


def check_replays() -> None:
    """A slow epoch counts only if it is slow in every replay."""
    from workloads import REPLAYS, Pass, replayed
    rows = iter([[1.0, 1.0, 9.0], [1.0, 9.0, 9.0], [9.0, 1.0, 9.0]] * 2 * REPLAYS)
    p = Pass()
    replayed(p, lambda mode, latencies: latencies.extend(next(rows)))
    report("replays keep each epoch's fastest time",
           p.latencies == {"stateless": [1.0, 1.0, 9.0], "recursive": [1.0, 1.0, 9.0]})


def check_latency_blocks() -> None:
    """Blocks stay within a pass, and a burst in a minority of blocks does not move p99."""
    from workloads import Pass
    quiet = [1e-3] * run.LATENCY_BLOCK
    burst = [2e-3] * run.LATENCY_BLOCK
    passes = [Pass(latencies={"stateless": quiet * 2 + burst}),
              Pass(latencies={"stateless": quiet * 2 + [1e-3] * 10})]
    blocks = run.latency_blocks(passes, "stateless")
    report("latency blocks stay within a pass and hold at least a block each",
           [len(b) for b in blocks] == [1000, 1000, 1000, 1005, 1005])
    report("a burst in a minority of blocks leaves p99 unchanged",
           abs(run.percentile_ms(blocks, 99) - 1.0) < 1e-12)
    tiny = run.latency_blocks([Pass(latencies={"stateless": [1e-3] * 50})], "stateless")
    report("fewer samples than a block make one block", [len(b) for b in tiny] == [50])


def run_benchmark(cwd: Path, workload: str, trace: int, results: Path):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny",
           "--results-dir", str(results)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_runs(workdir: Path) -> None:
    expected = {0: dict(run.END_TO_END), 1: dict(tracing.per_layer_metrics())}
    for workload in ("bearing-solve-eval", "cli-pipeline", "live-session"):
        for trace in (0, 1):
            res = run_benchmark(ROOT, workload, trace, workdir / "results")
            name = f"tiny {workload} trace={trace}"
            try:
                result = json.loads(res.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                report(name, False, f"exit {res.returncode}, no result line")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = (res.returncode == 0 and result["correct"] is True
                  and set(result) == {"correct", "attempted", "failed", "metrics"}
                  and got == expected[trace]
                  and all(isinstance(v["value"], float) for v in result["metrics"].values()))
            mismatch = sorted(set(got) ^ set(expected[trace]))
            report(name, ok, f"exit {res.returncode}, mismatched metrics {mismatch}")


def check_bare_directory(workdir: Path) -> None:
    bare = workdir / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results", "traces", "__pycache__"))
    res = run_benchmark(bare, "cli-pipeline", 0, bare / "results")
    report("bare directory exits non-zero without a result",
           res.returncode != 0 and '"correct"' not in res.stdout,
           f"exit {res.returncode}")


def main() -> int:
    workdir = HERE / ".work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        check_spec()
        check_gates()
        check_replays()
        check_latency_blocks()
        check_runs(workdir)
        check_bare_directory(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
