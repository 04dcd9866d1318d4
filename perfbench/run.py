"""cbmpomdp benchmark: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any working directory works; paths resolve
from this file). The program under test is imported from ``src/`` next to
this directory, or from ``--src``. The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
``{"info": ...}`` with versions, thread counts, sample counts and the exact
values behind the gates. The same record is saved under ``--results-dir``
for ``compare.py``. With ``--trace 1`` the metrics are the per-layer ones
and the spans are written to ``perfbench/traces/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
#: Set-up is timed in CPU seconds: on a shared 2-core machine the wall time
#: of the 0.15 s import moved by 30% between sweeps, its CPU time far less.
IMPORT_PROBE = ("import time; t = time.process_time(); import cbmpomdp, cbmpomdp.cli; "
                "print(time.process_time() - t)")

#: (name, unit) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
    ("ops_failed_ratio", "failed/attempted"), ("solve_s", "s"),
    ("policy_value_b0", "reward"), ("sim_policy_epochs_per_s", "epochs/s"),
    ("sim_fixed_epochs_per_s", "epochs/s"), ("train_s", "s"),
    ("stateless_p50_ms", "ms"), ("stateless_p99_ms", "ms"),
    ("recursive_p50_ms", "ms"), ("recursive_p99_ms", "ms"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("bearing-solve-eval", "cli-pipeline", "live-session"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the self-test only")
    p.add_argument("--results-dir", default=str(HERE / "results"))
    p.add_argument("--src", default=str(ROOT / "src"),
                   help="source tree to measure (sweep.py points it at a parent commit)")
    return p.parse_args(argv)


def import_times(src: Path, n: int) -> list:
    """CPU seconds to import the package in n fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = []
    for _ in range(n):
        res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    import ctypes
    import glob
    import numpy as np
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


#: Latency percentiles are taken per block of this many consecutive epochs,
#: and the median over blocks is reported (see NOTES.md).
LATENCY_BLOCK = 1000


def latency_blocks(passes: list, mode: str) -> list:
    """Consecutive blocks of at least LATENCY_BLOCK samples; none spans two passes."""
    import numpy as np
    blocks = []
    for p in passes:
        samples = np.asarray(p.latencies[mode])
        blocks += np.array_split(samples, max(1, len(samples) // LATENCY_BLOCK))
    return blocks


def percentile_ms(blocks: list, q: float) -> float:
    """Median over blocks of each block's q-th percentile, in ms."""
    import numpy as np
    return statistics.median(float(np.percentile(b, q)) for b in blocks) * 1e3


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "cbmpomdp" / "__init__.py").is_file():
        print(f"error: no cbmpomdp sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    setup_imports = import_times(src, SETUP_REPEATS)

    import numpy as np
    import scipy
    import cbmpomdp
    if not Path(cbmpomdp.__file__).resolve().is_relative_to(src):
        print(f"error: cbmpomdp imported from {cbmpomdp.__file__}, not {src}", file=sys.stderr)
        return 2
    import gates
    import tracing
    from workloads import REPLAYS, SIZES, WORKLOADS

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
    }
    passes, traced = [], []
    tracer = tracing.Tracer() if args.trace else None
    correct = True
    try:
        workload = WORKLOADS[args.workload](args.seed, SIZES[args.size], workdir)
        builds = []
        for _ in range(SETUP_REPEATS):
            start = time.process_time()
            workload.setup()
            builds.append(time.process_time() - start)
        info["setup"] = {"import_cpu_s": setup_imports, "build_cpu_s": builds}

        min_passes = 2 if (args.trace or args.workload == "cli-pipeline") else 1
        start = time.perf_counter()
        last = 0.0
        while len(passes) + len(traced) < min_passes or \
                time.perf_counter() - start < args.seconds - 0.5 * last:
            trace_this = bool(tracer) and len(passes) > len(traced)
            t0 = time.perf_counter()
            if trace_this:
                tracer.begin_pass(f"{args.workload}-{args.seed}-{len(traced)}")
                tracer.install()
                try:
                    traced.append(workload.run_pass())
                finally:
                    tracer.uninstall()
            else:
                passes.append(workload.run_pass())
            # metrics outside the workload's own path; not traced, not in wall_s
            workload.side_pass((traced if trace_this else passes)[-1])
            last = time.perf_counter() - t0
        info["workload_info"] = workload.finish()
        info["pass_values"] = [dict(p.values, wall_s=p.wall_s) for p in passes]
    except gates.GateFailure as exc:
        correct = False
        print(f"gate failed: {exc}", file=sys.stderr)
    except (cbmpomdp.DataError, cbmpomdp.NumericalError):
        correct = False
        traceback.print_exc()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = passes + traced
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    metrics = {}
    if correct and args.trace:
        trace_dir = HERE / "traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl.gz")
        values = tracer.metrics(len(traced))
        values["trace.wall_s"] = statistics.median(p.wall_s for p in traced)
        values["trace.untraced_wall_s"] = statistics.median(p.wall_s for p in passes)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.per_layer_metrics()}
    elif correct:
        values = {key: statistics.median(p.values[key] for p in passes)
                  for key in passes[0].values}
        values["wall_s"] = statistics.median(p.wall_s for p in passes)
        values["setup_s"] = statistics.median(setup_imports) + statistics.median(builds)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # add-one smoothing keeps the ratio above zero; the raw counts are
        # the result's attempted and failed fields
        values["ops_failed_ratio"] = max((p.failed + 1) / (p.attempted + 1) for p in passes)
        info["latency_samples"] = {}
        for mode in ("stateless", "recursive"):
            blocks = latency_blocks(passes, mode)
            values[f"{mode}_p50_ms"] = percentile_ms(blocks, 50)
            values[f"{mode}_p99_ms"] = percentile_ms(blocks, 99)
            smallest = min(len(b) for b in blocks)
            info["latency_samples"][mode] = {
                "epochs": sum(len(b) for b in blocks), "replays": REPLAYS,
                "blocks": len(blocks), "smallest_block": smallest,
                "beyond_p99_per_block": smallest // 100}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    info["passes"] = {"untraced": len(passes), "traced": len(traced)}
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}

    results_dir = Path(args.results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "info": info, "result": result}
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
