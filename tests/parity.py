"""Byte parity of the command line against another source tree.

    python3 tests/parity.py --baseline-src OTHER/src [--work DIR]

Runs one command table on this checkout's src/ and on OTHER/src, one
process at a time in this interpreter's environment with
OPENBLAS_NUM_THREADS=1 (output bytes depend on the BLAS kernel and thread
count). For every case it compares the exit code, stdout with the output
directory masked, and the sha256 of every output file. The table is
criterion 10's commands and set-up (tests/cli_cases.py) plus the full
bearing solve, bearing simulations at 100 runs x 10,000 epochs, and
recursive sessions. Cases marked "change only" are inputs this checkout
rejects on purpose: they run here alone and must exit 2. Prints one table
and exits 1 on any difference.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402

from cbmpomdp import GmmModel  # noqa: E402
from cli_cases import commands, setup_commands, write_inputs  # noqa: E402


def cases(inputs: dict, side: Path) -> list:
    """(name, output directory, argv, change only) in run order; argv may
    read outputs of earlier cases on the same side."""
    setup = side / "setup"
    out = [(f"setup-{argv[0]}", setup, argv, False) for argv in setup_commands(inputs, setup)]
    out += [(name, side / name, argv, False) for name, argv in commands(inputs, setup).items()]
    bearing = side / "bearing-solve"
    sim = ("--horizon", 10000, "--runs", 100)
    session = ("--pomdp", setup / "pomdp.json", "--policy", setup / "policy.json",
               "--mode", "recursive")
    out += [
        ("bearing-solve", bearing, ("solve", "--fixture", "bearing", "--improve-tol", "1e-5",
                                    "--max-expansions", 8), False),
        ("bearing-simulate-policy", side / "bearing-simulate-policy",
         ("simulate", "--pomdp", bearing / "pomdp.json", "--policy",
          bearing / "policy.json", *sim), False),
    ]
    out += [(f"bearing-simulate-{c}", side / f"bearing-simulate-{c}",
             ("simulate", "--pomdp", bearing / "pomdp.json", "--fixed-action", c, *sim), False)
            for c in ("C=1.2", "C=1.3", "C=1.5")]
    out += [
        ("run-session-samples-bayes", side / "run-session-samples-bayes",
         ("run-session", *session, "--gmm", setup / "gmm.json", "--samples",
          inputs["samples"], "--window", 16, "--belief-mode", "bayes"), False),
        ("reject-simulate-zero-horizon", side / "reject-simulate-zero-horizon",
         ("simulate", "--pomdp", bearing / "pomdp.json", "--fixed-action", "C=1.2",
          "--horizon", 0), True),
        ("reject-simulate-zero-runs", side / "reject-simulate-zero-runs",
         ("simulate", "--pomdp", bearing / "pomdp.json", "--fixed-action", "C=1.2",
          "--runs", 0), True),
        ("reject-decide-one-feature-gmm", side / "reject-decide-one-feature-gmm",
         ("decide", "--pomdp", setup / "pomdp.json", "--policy", setup / "policy.json",
          "--gmm", inputs["gmm_d1"], "--features", inputs["row"]), True),
        ("reject-session-one-feature-gmm", side / "reject-session-one-feature-gmm",
         ("run-session", *session, "--gmm", inputs["gmm_d1"], "--data", inputs["epochs"]),
         True),
    ]
    return out


def run_side(src: Path, inputs: dict, side: Path, change: bool) -> dict:
    """Run every case against src; returns name -> (exit code, masked stdout)."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    results = {}
    for name, out, argv, change_only in cases(inputs, side):
        if change_only and not change:
            continue
        proc = subprocess.run([sys.executable, "-m", "cbmpomdp", *map(str, argv),
                               "--seed", "0", "--out", str(out)],
                              capture_output=True, text=True, env=env)
        results[name] = (proc.returncode, proc.stdout.replace(str(side), "<out>"))
    return results


def digests(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--baseline-src", required=True, help="src/ of the tree to compare against")
    p.add_argument("--work", default=None, help="new or empty directory for inputs and "
                   "outputs (default: a temporary directory, removed afterwards)")
    args = p.parse_args(argv)
    baseline = Path(args.baseline_src).resolve()
    if args.work and Path(args.work).is_dir() and any(Path(args.work).iterdir()):
        p.error(f"--work {args.work} is not empty")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work or tmp).resolve()
        (work / "inputs").mkdir(parents=True)
        inputs = write_inputs(work / "inputs")
        inputs["gmm_d1"] = work / "inputs" / "gmm_d1.json"
        GmmModel(weights=np.full(2, 0.5), means=np.array([[0.0], [1.0]]),
                 covariances=np.ones((2, 1, 1))).save(inputs["gmm_d1"])
        base = run_side(baseline, inputs, work / "baseline", change=False)
        new = run_side(SRC, inputs, work / "change", change=True)
        base_files, new_files = digests(work / "baseline"), digests(work / "change")
        return report(inputs, work, base, new, base_files, new_files)


def report(inputs, work, base, new, base_files, new_files) -> int:
    print(f"# parity: numpy {np.__version__}, python {sys.version.split()[0]}, "
          f"OPENBLAS_NUM_THREADS=1; exit codes read baseline/change")
    print(f"{'case':34s} {'exit':>9s}  {'stdout':6s} {'files':>5s}  verdict")
    table = cases(inputs, work / "change")
    # cases that share an output directory (the set-up) own its files jointly;
    # they are compared on the last of them
    owner = {out: name for name, out, _, _ in table}
    failed = n_files = 0
    for name, out, _, change_only in table:
        code, stdout = new[name]
        rel = out.relative_to(work / "change").name
        mine = {k: v for k, v in new_files.items() if k.split(os.sep)[0] == rel}
        if change_only:
            ok = code == 2 and not mine
            print(f"{name:34s} {'-':>4s}/{code:<4d}  {'-':6s} {0:5d}  "
                  f"{'change only, rejected' if ok else 'FAILED: expected exit 2'}")
            failed += not ok
            continue
        b_code, b_stdout = base[name]
        problems = [f"exit {b_code}/{code}"] if (b_code, code) != (0, 0) else []
        if stdout != b_stdout:
            problems.append("stdout")
        compared = 0
        if owner[out] == name:
            theirs = {k: v for k, v in base_files.items() if k.split(os.sep)[0] == rel}
            problems += sorted(k for k in mine.keys() | theirs.keys()
                               if mine.get(k) != theirs.get(k))
            compared = len(mine)
        n_files += compared
        print(f"{name:34s} {b_code:>4d}/{code:<4d}  {'same' if stdout == b_stdout else 'DIFF':6s} "
              f"{compared:5d}  {'DIFFERENT: ' + ', '.join(problems) if problems else 'identical'}")
        failed += bool(problems)
    print(f"# {n_files} output files compared; {failed} case(s) differ or failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
