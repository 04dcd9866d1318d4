"""Byte parity of the command line against another source tree.

    python3 tests/parity.py --baseline-src OTHER/src [--work DIR]

Runs one command table on this checkout's src/ and on OTHER/src, one
process at a time in this interpreter's environment with
OPENBLAS_NUM_THREADS=1 (output bytes depend on the BLAS kernel and thread
count). For every case it compares the exit code, stdout with the output
directory masked, and the sha256 of every output file. The table is
criterion 10's commands and set-up (tests/cli_cases.py) plus the full
bearing solve, bearing simulations at 100 runs x 10,000 epochs, and
recursive sessions. Cases marked "change only" are inputs whose handling
this checkout changed on purpose: they run here alone and must exit with
the code they name, 2 for an input now rejected (writing no file) and 0
for one now accepted. Prints one table and exits 1 on any difference. For every JSON, JSONL or CSV output that
differs it also prints the drift: the largest absolute and relative change
of any float, and each other field (integer, string, flag, shape) that
changed.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
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
    """(name, output directory, argv, expected exit) in run order; the
    expected exit is None for a case run on both sides, or the exit code of
    a change-only case. argv may read outputs of earlier cases on the same
    side."""
    setup = side / "setup"
    out = [(f"setup-{argv[0]}", setup, argv, None) for argv in setup_commands(inputs, setup)]
    out += [(name, side / name, argv, None) for name, argv in commands(inputs, setup).items()]
    bearing = side / "bearing-solve"
    sim = ("--horizon", 10000, "--runs", 100)
    session = ("--pomdp", setup / "pomdp.json", "--policy", setup / "policy.json",
               "--mode", "recursive")
    out += [
        ("bearing-solve", bearing, ("solve", "--fixture", "bearing", "--improve-tol", "1e-5",
                                    "--max-expansions", 8), None),
        ("bearing-simulate-policy", side / "bearing-simulate-policy",
         ("simulate", "--pomdp", bearing / "pomdp.json", "--policy",
          bearing / "policy.json", *sim), None),
    ]
    out += [(f"bearing-simulate-{c}", side / f"bearing-simulate-{c}",
             ("simulate", "--pomdp", bearing / "pomdp.json", "--fixed-action", c, *sim), None)
            for c in ("C=1.2", "C=1.3", "C=1.5")]
    decide = ("decide", "--pomdp", setup / "pomdp.json", "--policy", setup / "policy.json")
    out += [(name, side / name, argv, None) for name, argv in (
        ("fit-gmm-diag", ("fit-gmm", "--data", inputs["dataset"], "--components", 2,
                          "--covariance", "diag")),
        ("fit-gmm-5", ("fit-gmm", "--data", inputs["dataset"], "--components", 5)),
        ("train-action-emissions", ("train", "--data", inputs["dataset"], "--states", 2,
                                    "--max-iters", 20, "--emission-mode", "action")),
        ("train-failures", ("train", "--data", inputs["failures"], "--states", 3,
                            "--max-iters", 40)),
        ("train-failures-action-emissions", ("train", "--data", inputs["failures"],
                                             "--states", 3, "--max-iters", 40,
                                             "--emission-mode", "action")),
        ("compare-classical-action-emissions", ("compare-classical", "--data",
                                                inputs["dataset"], "--states", 2,
                                                "--max-iters", 10, "--emission-mode", "action")),
        ("rul-no-failed-column", ("rul", "--iohmm", inputs["rul_model"], "--data",
                                  inputs["unflagged"], "--action", "a0", "--horizon", 200)),
        ("rul-one-epoch-failure", ("rul", "--iohmm", inputs["rul_model"], "--data",
                                   inputs["one_epoch_failure"], "--action", "a0",
                                   "--horizon", 200)),
        ("decide-bayes", (*decide, "--gmm", setup / "gmm.json", "--features",
                          inputs["row"], "--mode", "bayes")),
        ("decide-samples", (*decide, "--gmm", setup / "gmm.json", "--samples",
                            inputs["samples"])),
    )]
    out += [
        ("run-session-samples-bayes", side / "run-session-samples-bayes",
         ("run-session", *session, "--gmm", setup / "gmm.json", "--samples",
          inputs["samples"], "--window", 16, "--belief-mode", "bayes"), None),
        ("reject-simulate-zero-horizon", side / "reject-simulate-zero-horizon",
         ("simulate", "--pomdp", bearing / "pomdp.json", "--fixed-action", "C=1.2",
          "--horizon", 0), 2),
        ("reject-simulate-zero-runs", side / "reject-simulate-zero-runs",
         ("simulate", "--pomdp", bearing / "pomdp.json", "--fixed-action", "C=1.2",
          "--runs", 0), 2),
        ("reject-decide-one-feature-gmm", side / "reject-decide-one-feature-gmm",
         ("decide", "--pomdp", setup / "pomdp.json", "--policy", setup / "policy.json",
          "--gmm", inputs["gmm_d1"], "--features", inputs["row"]), 2),
        ("reject-session-one-feature-gmm", side / "reject-session-one-feature-gmm",
         ("run-session", *session, "--gmm", inputs["gmm_d1"], "--data", inputs["epochs"]),
         2),
    ]
    out += [(name, side / name, argv, 2) for name, argv in (
        ("reject-decide-weights-sum-2.5", (*decide, "--gmm", inputs["gmm_heavy"],
                                           "--features", inputs["row"])),
        ("reject-decide-negative-weight", (*decide, "--gmm", inputs["gmm_negative"],
                                           "--features", inputs["row"])),
        ("reject-fit-gmm-zero-components", ("fit-gmm", "--data", inputs["dataset"],
                                            "--components", 0)),
        ("reject-config-list", ("--config", inputs["config_list"], "build-pomdp",
                                "--fixture", "bearing")),
        ("reject-session-samples-no-window", ("run-session", *session, "--gmm",
                                              setup / "gmm.json", "--samples",
                                              inputs["samples"])),
        ("reject-train-zero-states", ("train", "--data", inputs["dataset"], "--states", 0)),
        ("reject-select-k-zero-min", ("select-k", "--data", inputs["dataset"],
                                      "--k-min", 0, "--k-max", 2)),
        *((f"reject-rul-{name}", ("rul", "--iohmm", inputs[f"iohmm_{name}"], "--data",
                                  inputs["failures"], "--action", "a0"))
          for name in ("3-features", "transitions-1x1x2", "short-initial")),
        *((f"reject-rul-{name}", ("rul", "--iohmm", inputs["rul_model"], "--data",
                                  inputs["failures"], "--action", "a0", *flags))
          for name, flags in (("horizon-negative", ("--horizon", -5)),
                              ("horizon-zero", ("--horizon", 0)),
                              ("quantile-negative", ("--quantiles", -0.2, 0.5)))),
        ("reject-build-pomdp-3-feature-iohmm", ("build-pomdp", "--iohmm",
                                                inputs["iohmm_3-features"], "--gmm",
                                                setup / "gmm.json", "--capacity-rewards", 1.0)),
    )]
    out += [(name, side / name, argv, 0) for name, argv in (
        ("accept-features-overflow-window", ("features", "--samples",
                                             inputs["overflow_samples"], "--window", 32)),
        ("accept-session-overflow-window", ("run-session", *session, "--gmm",
                                            setup / "gmm.json", "--samples",
                                            inputs["overflow_samples"], "--window", 32)),
    )]
    return out


def write_derived_inputs(root: Path, inputs: dict) -> dict:
    """Inputs only this script reads, most of them derived from inputs: the
    failure fleet without its failed column, the same fleet with a one-epoch
    failed unit among the others, and the files the change-only cases read."""
    paths = {name: root / f"{name}.json"
             for name in ("gmm_d1", "gmm_heavy", "gmm_negative", "config_list")}
    GmmModel(weights=np.full(2, 0.5), means=np.array([[0.0], [1.0]]),
             covariances=np.ones((2, 1, 1))).save(paths["gmm_d1"])
    for name, weights in (("gmm_heavy", np.full(2, 1.25)), ("gmm_negative", [-0.5, 1.5])):
        GmmModel(weights=np.asarray(weights), means=np.zeros((2, 11)) + [[0.0], [1.0]],
                 covariances=np.tile(np.eye(11), (2, 1, 1))).save(paths[name])
    paths["config_list"].write_text("[1, 2]\n")
    rul = json.loads(inputs["rul_model"].read_text())     # 3 states, 1 action, 11 features
    for name, change in (
            ("3-features", {"means": [m[:3] for m in rul["means"]],
                            "covariances": [[r[:3] for r in c[:3]] for c in rul["covariances"]]}),
            ("transitions-1x1x2", {"transitions": [[[1.0, 0.0]]]}),
            ("short-initial", {"initial": [1.0]})):
        paths[f"iohmm_{name}"] = root / f"iohmm_{name}.json"
        paths[f"iohmm_{name}"].write_text(json.dumps({**rul, **change}))
    with open(inputs["failures"], newline="") as fh:
        header, *body = csv.reader(fh)
    unit, failed = header.index("unit"), header.index("failed")
    at = next(i for i, row in enumerate(body) if row[unit] == "u3")
    one = list(body[at])
    one[unit], one[failed] = "u_one", "1"
    for name, rows in (("unflagged", [[v for j, v in enumerate(row) if j != failed]
                                      for row in [header, *body]]),
                       ("one_epoch_failure", [header, *body[:at], one, *body[at:]])):
        paths[name] = root / f"{name}.csv"
        with open(paths[name], "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    return paths


def run_side(src: Path, inputs: dict, side: Path, change: bool) -> dict:
    """Run every case against src; returns name -> (exit code, masked stdout)."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    results = {}
    for name, out, argv, expect in cases(inputs, side):
        if expect is not None and not change:
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
        inputs.update(write_derived_inputs(work / "inputs", inputs))
        base = run_side(baseline, inputs, work / "baseline", change=False)
        new = run_side(SRC, inputs, work / "change", change=True)
        base_files, new_files = digests(work / "baseline"), digests(work / "change")
        return report(inputs, work, base, new, base_files, new_files)


def _cell(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def read_values(path: Path):
    """A JSON, JSONL or CSV output as Python values (CSV cells parsed as
    int, then float, else kept as text); None for any other file."""
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines()]
    if path.suffix == ".csv":
        return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]
    return None


def drift(old, new, where: str = "", acc=None) -> dict:
    """Walk two parsed outputs side by side. Returns the largest absolute
    and relative change over paired floats, and the paths of every other
    value that changed (ints, text, flags, a missing key, a length)."""
    acc = {"abs": 0.0, "rel": 0.0, "changed": []} if acc is None else acc
    if type(old) is float and type(new) is float:
        if old != new and not (math.isnan(old) and math.isnan(new)):
            change = abs(new - old)
            if math.isfinite(change):
                acc["abs"] = max(acc["abs"], change)
                acc["rel"] = max(acc["rel"], change / max(abs(old), abs(new)))
            else:
                acc["changed"].append(where or ".")
    elif isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            drift(old[key], new[key], f"{where}.{key}", acc)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            drift(a, b, f"{where}[{i}]", acc)
    elif type(old) is not type(new) or old != new:
        acc["changed"].append(where or ".")
    return acc


def drift_line(name: str, base_path: Path, new_path: Path) -> str:
    try:
        old, new = read_values(base_path), read_values(new_path)
    except (OSError, ValueError) as exc:
        return f"    {name}: not compared ({exc})"
    if old is None:
        return f"    {name}: not a JSON, JSONL or CSV file"
    d = drift(old, new)
    changed = d["changed"]
    shown = ", ".join(changed[:5]) + (f", ... ({len(changed)} in all)" if len(changed) > 5 else "")
    return (f"    {name}: floats moved by at most {d['abs']:.3g} (relative {d['rel']:.3g}); "
            + (f"other fields changed: {shown}" if changed else "no other field changed"))


def report(inputs, work, base, new, base_files, new_files) -> int:
    print(f"# parity: numpy {np.__version__}, python {sys.version.split()[0]}, "
          f"OPENBLAS_NUM_THREADS=1; exit codes read baseline/change")
    print(f"{'case':34s} {'exit':>9s}  {'stdout':6s} {'files':>5s}  verdict")
    table = cases(inputs, work / "change")
    # cases that share an output directory (the set-up) own its files jointly;
    # they are compared on the last of them
    owner = {out: name for name, out, _, _ in table}
    failed = n_files = 0
    for name, out, _, expect in table:
        code, stdout = new[name]
        rel = out.relative_to(work / "change").name
        mine = {k: v for k, v in new_files.items() if k.split(os.sep)[0] == rel}
        if expect is not None:
            ok = code == expect and bool(mine) == (expect == 0)
            verdict = "change only, " + ("rejected" if expect else "accepted")
            print(f"{name:34s} {'-':>4s}/{code:<4d}  {'-':6s} {len(mine):5d}  "
                  f"{verdict if ok else f'FAILED: expected exit {expect}'}")
            failed += not ok
            continue
        b_code, b_stdout = base[name]
        problems = [f"exit {b_code}/{code}"] if (b_code, code) != (0, 0) else []
        if stdout != b_stdout:
            problems.append("stdout")
        compared, differing = 0, []
        if owner[out] == name:
            theirs = {k: v for k, v in base_files.items() if k.split(os.sep)[0] == rel}
            differing = sorted(k for k in mine.keys() | theirs.keys()
                               if mine.get(k) != theirs.get(k))
            problems += differing
            compared = len(mine)
        n_files += compared
        print(f"{name:34s} {b_code:>4d}/{code:<4d}  {'same' if stdout == b_stdout else 'DIFF':6s} "
              f"{compared:5d}  {'DIFFERENT: ' + ', '.join(problems) if problems else 'identical'}")
        for k in differing:
            if k in mine and k in theirs:
                print(drift_line(k, work / "baseline" / k, work / "change" / k))
        failed += bool(problems)
    print(f"# {n_files} output files compared; {failed} case(s) differ or failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
