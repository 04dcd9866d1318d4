"""The CLI command table behind criterion 10 and tests/parity.py.

Criterion 10 runs every command twice and asserts identical bytes;
parity.py runs the same table, plus a few longer cases, against another
source tree. Every path handed out here is absolute.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from cbmpomdp import write_features_csv
from synth import left_to_right_model, sample_dataset, sample_failure_dataset


def write_inputs(root: Path) -> dict:
    """Write the input files the commands read into root; returns their
    paths by name."""
    rng = np.random.default_rng(0)
    samples = root / "samples.csv"
    samples.write_text("sample\n" + "\n".join(
        repr(float(v)) for v in rng.normal(size=256)) + "\n")
    # one 32-sample window whose rms (1e150) is past the range of rms ** 4
    overflow = root / "overflow_samples.csv"
    overflow.write_text("sample\n" + "\n".join(["1e150"] * 16 + ["-1e150"] * 16) + "\n")

    truth = left_to_right_model(n_states=2, n_actions=2, n_features=11,
                                separation=6.0, stay=(0.8, 0.6))
    data = sample_dataset(truth, n_seqs=6, T=10, seed=0)
    feats, units, acts = [], [], []
    for i, seq in enumerate(data.sequences):
        for t in range(seq.obs.shape[0]):
            feats.append(seq.obs[t])
            units.append(f"u{i}")
            acts.append(data.action_labels[seq.actions[t]])
    dataset_csv = root / "dataset.csv"
    write_features_csv(dataset_csv, np.vstack(feats),
                       extra={"unit": units, "action": acts})

    rul_truth = left_to_right_model(n_states=3, n_actions=1, n_features=11,
                                    separation=6.0, stay=(0.6,))
    rul_truth.save(root / "rul_model.json")
    fail_data = sample_failure_dataset(rul_truth, n_seqs=6, seed=0, max_T=60,
                                       min_T=2)
    feats, units, acts, fails = [], [], [], []
    for i, seq in enumerate(fail_data.sequences):
        for t in range(seq.obs.shape[0]):
            feats.append(seq.obs[t])
            units.append(f"u{i}")
            acts.append(fail_data.action_labels[seq.actions[t]])
            fails.append("1" if seq.failed else "0")
    fail_csv = root / "failures.csv"
    write_features_csv(fail_csv, np.vstack(feats),
                       extra={"unit": units, "action": acts, "failed": fails})

    epoch_csv = root / "epochs.csv"
    write_features_csv(epoch_csv, data.sequences[0].obs)
    row_csv = root / "row.csv"
    write_features_csv(row_csv, truth.means[1][None, :])
    return {"samples": samples, "overflow_samples": overflow, "dataset": dataset_csv,
            "rul_model": root / "rul_model.json", "failures": fail_csv, "epochs": epoch_csv,
            "row": row_csv}


def setup_commands(inputs: dict, setup: Path) -> list:
    """train, fit-gmm and solve, each run with --out setup; decide,
    run-session and simulate read their models from there."""
    return [
        ("train", "--data", inputs["dataset"], "--states", 2, "--max-iters", 20),
        ("fit-gmm", "--data", inputs["dataset"], "--components", 2),
        ("solve", "--iohmm", setup / "iohmm.json", "--gmm", setup / "gmm.json",
         "--capacity-rewards", 1.0, 1.2, "--gamma", 0.9,
         "--max-expansions", 3),
    ]


def commands(inputs: dict, setup: Path) -> dict:
    """Case name -> argv, without --seed and --out."""
    return {
        "features": ("features", "--samples", inputs["samples"], "--window", 16),
        "train": ("train", "--data", inputs["dataset"], "--states", 2,
                  "--max-iters", 20),
        "select-k": ("select-k", "--data", inputs["dataset"], "--k-min", 2,
                     "--k-max", 3, "--max-iters", 10, "--no-train-sec"),
        "fit-gmm": ("fit-gmm", "--data", inputs["dataset"], "--components", 2),
        "build-pomdp": ("build-pomdp", "--fixture", "bearing"),
        "solve": ("solve", "--fixture", "bearing", "--improve-tol", "1e-3",
                  "--max-expansions", 2),
        "decide": ("decide", "--pomdp", setup / "pomdp.json", "--policy",
                   setup / "policy.json", "--gmm", setup / "gmm.json",
                   "--features", inputs["row"]),
        "run-session": ("run-session", "--pomdp", setup / "pomdp.json",
                        "--policy", setup / "policy.json", "--gmm",
                        setup / "gmm.json", "--data", inputs["epochs"],
                        "--mode", "recursive"),
        "simulate": ("simulate", "--pomdp", setup / "pomdp.json", "--policy",
                     setup / "policy.json", "--horizon", 200, "--runs", 3),
        "k-sweep": ("k-sweep", "--data", inputs["dataset"], "--k-min", 2,
                    "--k-max", 2, "--components", 2, "--capacity-rewards",
                    1.0, 1.2, "--gamma", 0.9, "--horizon", 100, "--runs", 2,
                    "--max-iters", 10, "--max-expansions", 2),
        "compare-classical": ("compare-classical", "--data", inputs["dataset"],
                              "--states", 2, "--max-iters", 10),
        "rul": ("rul", "--iohmm", inputs["rul_model"], "--data",
                inputs["failures"], "--action", "a0", "--horizon", 200),
    }
