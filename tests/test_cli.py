import json
import subprocess
import sys

import numpy as np
import pytest

from cbmpomdp import (GmmModel, IohmmModel, Policy, PomdpModel, bearing_pomdp,
                      write_features_csv)
from cbmpomdp.bearing import write_fixture_csvs
from synth import left_to_right_model, sample_dataset, sample_failure_dataset


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "cbmpomdp", *map(str, args)],
                          capture_output=True, text=True)


def ok(*args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    return proc


def write_dataset_csv(path, dataset, failed_col=False):
    feats, units, acts, fails = [], [], [], []
    for i, seq in enumerate(dataset.sequences):
        for t in range(seq.obs.shape[0]):
            feats.append(seq.obs[t])
            units.append(f"u{i}")
            acts.append(dataset.action_labels[seq.actions[t]])
            fails.append("1" if seq.failed else "0")
    extra = {"unit": units, "action": acts}
    if failed_col:
        extra["failed"] = fails
    write_features_csv(path, np.vstack(feats), extra=extra)


@pytest.fixture(scope="module")
def model11():
    return left_to_right_model(n_states=2, n_actions=2, n_features=11,
                               separation=6.0, stay=(0.8, 0.6))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, model11):
    """One trained pipeline shared by the fast CLI checks."""
    root = tmp_path_factory.mktemp("pipe")
    data_csv = root / "train.csv"
    write_dataset_csv(data_csv, sample_dataset(model11, n_seqs=8, T=12, seed=0))
    ok("train", "--data", data_csv, "--states", 2, "--max-iters", 40,
       "--out", root)
    ok("fit-gmm", "--data", data_csv, "--components", 2, "--out", root)
    ok("solve", "--iohmm", root / "iohmm.json", "--gmm", root / "gmm.json",
       "--capacity-rewards", 1.0, 1.2, "--gamma", 0.9,
       "--max-expansions", 3, "--out", root)
    return root, data_csv


def test_features_command(tmp_path):
    samples = tmp_path / "samples.csv"
    rng = np.random.default_rng(0)
    samples.write_text("sample\n" + "\n".join(
        repr(float(v)) for v in rng.normal(size=64)) + "\n")
    out = ok("features", "--samples", samples, "--window", 16, "--out", tmp_path)
    assert "4 epochs" in out.stdout
    body = (tmp_path / "features.csv").read_text()
    assert body.splitlines()[0].startswith("rms,")
    assert len(body.splitlines()) == 5


def test_train_outputs(pipeline):
    root, _ = pipeline
    model = IohmmModel.load(root / "iohmm.json")
    assert model.n_states == 2
    assert model.action_labels == ("a0", "a1")
    log_ = json.loads((root / "train_log.json").read_text())
    trace = log_["loglik_trace"]
    assert log_["n_iters"] == len(trace)
    assert trace[-1] >= trace[0]


def test_fit_gmm_outputs(pipeline):
    root, _ = pipeline
    gmm = GmmModel.load(root / "gmm.json")
    assert gmm.n_components == 2 and gmm.n_features == 11
    assert gmm.means[0, 0] < gmm.means[1, 0]


def test_solve_outputs(pipeline):
    root, _ = pipeline
    pomdp = PomdpModel.load(root / "pomdp.json")
    policy = Policy.load(root / "policy.json")
    assert pomdp.action_labels == ("a0", "a1", "PM")
    assert pomdp.n_states == 2 and pomdp.n_obs == 2
    assert policy.alphas.shape[1] == 2
    assert len(policy.alphas) == len(policy.alpha_actions)


def test_select_k_no_train_sec(pipeline, tmp_path):
    _, data_csv = pipeline
    ok("select-k", "--data", data_csv, "--k-min", 2, "--k-max", 3,
       "--max-iters", 15, "--no-train-sec", "--out", tmp_path)
    lines = (tmp_path / "select_k.csv").read_text().splitlines()
    assert lines[0] == "K,loglik,p,aic,bic"
    assert len(lines) == 3


def test_select_k_has_timing_by_default(pipeline, tmp_path):
    _, data_csv = pipeline
    ok("select-k", "--data", data_csv, "--k-min", 2, "--k-max", 2,
       "--max-iters", 5, "--out", tmp_path)
    header = (tmp_path / "select_k.csv").read_text().splitlines()[0]
    assert header.endswith(",train_sec")


def test_build_pomdp_fixture(tmp_path):
    ok("build-pomdp", "--fixture", "bearing", "--out", tmp_path)
    model = PomdpModel.load(tmp_path / "pomdp.json")
    assert model.n_states == 6 and model.n_actions == 4 and model.n_obs == 5
    assert model.discount == 0.95


def test_build_pomdp_from_matrix_csvs(tmp_path):
    fix = tmp_path / "fix"
    fix.mkdir()
    write_fixture_csvs(fix)
    ok("build-pomdp",
       "--transitions", fix / "transitions_c12.csv", fix / "transitions_c13.csv",
       fix / "transitions_c15.csv",
       "--obs", fix / "observation.csv", "--costs", fix / "costs.csv",
       "--labels", "C=1.2", "C=1.3", "C=1.5", "--out", tmp_path)
    built = PomdpModel.load(tmp_path / "pomdp.json")
    from cbmpomdp import bearing_pomdp
    ref = bearing_pomdp()
    np.testing.assert_allclose(built.transition, ref.transition, atol=1e-12)
    np.testing.assert_allclose(built.observation, ref.observation, atol=1e-12)
    np.testing.assert_array_equal(built.reward, ref.reward)


def test_decide_from_feature_row(pipeline, model11, tmp_path):
    root, _ = pipeline
    row = tmp_path / "row.csv"
    write_features_csv(row, model11.means[1][None, :])
    out = ok("decide", "--pomdp", root / "pomdp.json", "--policy",
             root / "policy.json", "--gmm", root / "gmm.json",
             "--features", row, "--out", tmp_path)
    decision = json.loads((tmp_path / "decision.json").read_text())
    assert decision["symbol"] == 1
    assert decision["action"] in ("a0", "a1", "PM")
    assert abs(sum(decision["belief"]) - 1.0) < 1e-9
    assert decision["action"] in out.stdout


def test_decide_from_sample_window(pipeline, tmp_path):
    root, _ = pipeline
    window = tmp_path / "win.csv"
    window.write_text("sample\n" + "\n".join(["1.0", "-1.0"] * 8) + "\n")
    ok("decide", "--pomdp", root / "pomdp.json", "--policy", root / "policy.json",
       "--gmm", root / "gmm.json", "--samples", window, "--out", tmp_path)
    decision = json.loads((tmp_path / "decision.json").read_text())
    assert set(decision) == {"action", "value", "belief", "symbol", "symbol_probs"}


def test_run_session_jsonl(pipeline, model11, tmp_path):
    root, _ = pipeline
    stream = tmp_path / "epochs.csv"
    data = sample_dataset(model11, n_seqs=1, T=6, seed=3)
    write_features_csv(stream, data.sequences[0].obs)
    for mode in ("stateless", "recursive"):
        ok("run-session", "--pomdp", root / "pomdp.json", "--policy",
           root / "policy.json", "--gmm", root / "gmm.json",
           "--data", stream, "--mode", mode, "--out", tmp_path)
        rows = [json.loads(line) for line in
                (tmp_path / "session.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in rows] == list(range(6))
        assert all("action" in r for r in rows)


def test_overflowing_window_is_degenerate_not_a_crash(pipeline, tmp_path):
    root, _ = pipeline
    stream = tmp_path / "overflow.csv"
    stream.write_text("sample\n" + "\n".join(["1e150"] * 16 + ["-1e150"] * 16) + "\n")
    ok("features", "--samples", stream, "--window", 32, "--out", tmp_path)
    header, row = (tmp_path / "features.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["skewness"] == cells["margin"] == "nan"
    out = ok("run-session", "--pomdp", root / "pomdp.json", "--policy", root / "policy.json",
             "--gmm", root / "gmm.json", "--samples", stream, "--window", 32,
             "--mode", "recursive", "--out", tmp_path)
    assert "1 epochs (1 skipped)" in out.stdout
    row, = [json.loads(line) for line in (tmp_path / "session.jsonl").read_text().splitlines()]
    assert row["epoch"] == 0 and "non-finite" in row["error"]


def test_simulate_policy_and_fixed(tmp_path):
    ok("solve", "--fixture", "bearing", "--max-expansions", 3,
       "--improve-tol", "1e-3", "--out", tmp_path)
    ok("simulate", "--pomdp", tmp_path / "pomdp.json", "--policy",
       tmp_path / "policy.json", "--horizon", 300, "--runs", 4, "--out", tmp_path)
    report = json.loads((tmp_path / "sim_report.json").read_text())
    assert report["n_runs"] == 4 and report["horizon"] == 300
    assert report["policy_source"] == "policy"
    runs = (tmp_path / "sim_runs.csv").read_text().splitlines()
    assert runs[0] == "run,total,discounted"
    assert len(runs) == 5
    ok("simulate", "--pomdp", tmp_path / "pomdp.json", "--fixed-action", "C=1.3",
       "--horizon", 300, "--runs", 4, "--out", tmp_path)
    fixed = json.loads((tmp_path / "sim_report.json").read_text())
    assert fixed["pm_ratio"] == 0.0
    assert fixed["action_counts"] == {"C=1.2": 0, "C=1.3": 1200, "C=1.5": 0, "PM": 0}


def test_rul_command_with_coverage(tmp_path):
    truth = left_to_right_model(n_states=3, n_actions=1, n_features=11,
                                separation=6.0, stay=(0.6,))
    truth.save(tmp_path / "iohmm.json")
    data = sample_failure_dataset(truth, n_seqs=10, seed=0, max_T=60, min_T=2)
    csv_path = tmp_path / "fail.csv"
    write_dataset_csv(csv_path, data, failed_col=True)
    out = ok("rul", "--iohmm", tmp_path / "iohmm.json", "--data", csv_path,
             "--action", "a0", "--horizon", 500, "--out", tmp_path)
    assert "coverage=" in out.stdout
    summary = json.loads((tmp_path / "rul_summary.json").read_text())
    assert 0.0 <= summary["coverage"] <= 1.0
    header = (tmp_path / "rul.csv").read_text().splitlines()[0]
    assert header == "sequence,epoch,true_rul,lower,median,upper,censored"


def test_rul_command_without_failures(tmp_path, model11):
    model11.save(tmp_path / "iohmm.json")
    data = sample_dataset(model11, n_seqs=2, T=5, seed=1)
    csv_path = tmp_path / "obs.csv"
    write_dataset_csv(csv_path, data)
    ok("rul", "--iohmm", tmp_path / "iohmm.json", "--data", csv_path,
       "--action", "a0", "--horizon", 200, "--out", tmp_path)
    summary = json.loads((tmp_path / "rul_summary.json").read_text())
    assert summary["coverage"] is None
    lines = (tmp_path / "rul.csv").read_text().splitlines()
    assert len(lines) == 11


def test_compare_classical_command(pipeline, tmp_path):
    _, data_csv = pipeline
    ok("compare-classical", "--data", data_csv, "--states", 2,
       "--max-iters", 15, "--out", tmp_path)
    lines = (tmp_path / "compare_classical.csv").read_text().splitlines()
    assert lines[0] == "variant,loglik,reverse_steps,backward_prob"
    assert lines[1].startswith("constrained,")
    assert lines[2].startswith("classical,")


def test_k_sweep_command(pipeline, tmp_path):
    _, data_csv = pipeline
    ok("k-sweep", "--data", data_csv, "--k-min", 2, "--k-max", 2,
       "--components", 2, "--capacity-rewards", 1.0, 1.2,
       "--gamma", 0.9, "--horizon", 40, "--runs", 2, "--max-iters", 15,
       "--max-expansions", 2, "--out", tmp_path)
    lines = (tmp_path / "k_sweep.csv").read_text().splitlines()
    assert lines[0] == "K,mean_total,mean_discounted,pm_ratio,failure_rate"
    assert len(lines) == 2


def test_config_file_supplies_defaults(pipeline, tmp_path):
    _, data_csv = pipeline
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max-iters": 15, "no-train-sec": True,
                               "out": str(tmp_path)}))
    ok("select-k", "--data", data_csv, "--k-min", 2, "--k-max", 2,
       "--config", cfg)
    header = (tmp_path / "select_k.csv").read_text().splitlines()[0]
    assert header == "K,loglik,p,aic,bic"


def test_exit_code_data_error(tmp_path):
    proc = run_cli("train", "--data", tmp_path / "missing.csv", "--states", 2,
                   "--out", tmp_path)
    assert proc.returncode == 2
    assert "error" in proc.stderr.lower()


def test_exit_code_usage_error():
    proc = run_cli("build-pomdp", "--fixture", "unknown")
    assert proc.returncode == 2


def test_exit_code_numerical_error(pipeline, tmp_path):
    root, _ = pipeline
    sick = GmmModel(weights=np.array([1.0]), means=np.zeros((1, 11)),
                    covariances=np.zeros((1, 11, 11)))
    sick.save(tmp_path / "gmm.json")
    row = tmp_path / "row.csv"
    write_features_csv(row, np.zeros((1, 11)))
    proc = run_cli("decide", "--pomdp", root / "pomdp.json", "--policy",
                   root / "policy.json", "--gmm", tmp_path / "gmm.json",
                   "--features", row, "--out", tmp_path)
    assert proc.returncode == 3
    assert "numerical" in proc.stderr.lower()


@pytest.fixture(scope="module")
def mismatched(tmp_path_factory, model11):
    """Model files that are each well formed but do not fit together, and an
    iohmm file missing a key."""
    root = tmp_path_factory.mktemp("mismatch")
    pomdp = bearing_pomdp()
    pomdp.save(root / "pomdp.json")
    for name, width in (("policy.json", 6), ("short_policy.json", 5)):
        Policy(alphas=np.zeros((1, width)), alpha_actions=np.array([0]),
               action_labels=pomdp.action_labels, discount=0.95).save(root / name)
    for name, k, d in (("gmm.json", 5, 11), ("gmm1.json", 1, 11), ("gmm_d1.json", 5, 1)):
        GmmModel(weights=np.full(k, 1.0 / k), means=np.arange(k)[:, None] * np.ones(d),
                 covariances=np.tile(np.eye(d), (k, 1, 1))).save(root / name)
    for name, weights in (("gmm_heavy.json", [0.5] * 5),
                          ("gmm_negative.json", [-0.2, 0.3, 0.3, 0.3, 0.3])):
        GmmModel(weights=np.array(weights), means=np.arange(5)[:, None] * np.ones(11),
                 covariances=np.tile(np.eye(11), (5, 1, 1))).save(root / name)
    write_features_csv(root / "row.csv", np.zeros((1, 11)))
    d = model11.to_dict()
    del d["action_labels"]
    (root / "iohmm.json").write_text(json.dumps(d))
    d = model11.to_dict()
    for name, change in (
            ("iohmm_d3.json", {"means": [m[:3] for m in d["means"]],
                               "covariances": [[r[:3] for r in c[:3]] for c in d["covariances"]]}),
            ("iohmm_1x1x2.json", {"transitions": [[[1.0, 0.0]]], "action_labels": ["a0"]}),
            ("iohmm_short_initial.json", {"initial": [1.0]})):
        (root / name).write_text(json.dumps({**d, **change}))
    write_dataset_csv(root / "units.csv", sample_dataset(model11, n_seqs=2, T=4, seed=0,
                                                         actions=0))
    return root


@pytest.mark.parametrize("argv", [
    ("simulate", "--pomdp", "pomdp.json", "--policy", "short_policy.json",
     "--horizon", 10, "--runs", 1),
    ("decide", "--pomdp", "pomdp.json", "--policy", "short_policy.json",
     "--gmm", "gmm.json", "--features", "row.csv"),
    ("run-session", "--pomdp", "pomdp.json", "--policy", "policy.json",
     "--gmm", "gmm1.json", "--data", "row.csv", "--mode", "recursive"),
    ("build-pomdp", "--iohmm", "iohmm.json", "--capacity-rewards", 1.0, 1.2),
    ("decide", "--pomdp", "pomdp.json", "--policy", "policy.json",
     "--gmm", "gmm_d1.json", "--features", "row.csv"),
    ("run-session", "--pomdp", "pomdp.json", "--policy", "policy.json",
     "--gmm", "gmm_d1.json", "--data", "row.csv", "--mode", "recursive"),
    ("simulate", "--pomdp", "pomdp.json", "--fixed-action", "C=1.2",
     "--horizon", 0, "--runs", 1),
    ("simulate", "--pomdp", "pomdp.json", "--fixed-action", "C=1.2",
     "--horizon", 10, "--runs", 0),
    ("decide", "--pomdp", "pomdp.json", "--policy", "policy.json",
     "--gmm", "gmm_heavy.json", "--features", "row.csv"),
    ("decide", "--pomdp", "pomdp.json", "--policy", "policy.json",
     "--gmm", "gmm_negative.json", "--features", "row.csv"),
    ("fit-gmm", "--data", "row.csv", "--components", 0),
    ("rul", "--iohmm", "iohmm_d3.json", "--data", "units.csv", "--action", "a0"),
    ("rul", "--iohmm", "iohmm_1x1x2.json", "--data", "units.csv", "--action", "a0"),
    ("rul", "--iohmm", "iohmm_short_initial.json", "--data", "units.csv", "--action", "a0"),
    ("build-pomdp", "--iohmm", "iohmm_d3.json", "--gmm", "gmm.json",
     "--capacity-rewards", 1.0, 1.2),
], ids=["simulate-short-policy", "decide-short-policy", "session-one-symbol-gmm",
        "iohmm-without-labels", "decide-one-feature-gmm", "session-one-feature-gmm",
        "simulate-zero-horizon", "simulate-zero-runs", "decide-weights-sum-2.5",
        "decide-negative-weight", "fit-gmm-zero-components", "rul-3-feature-iohmm",
        "rul-transitions-1x1x2", "rul-short-initial", "build-pomdp-3-feature-iohmm"])
def test_exit_code_mismatched_model_files(mismatched, tmp_path, argv):
    files = [mismatched / a if str(a).endswith((".json", ".csv")) else a for a in argv]
    proc = run_cli(*files, "--out", tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("--config", "list.json", "build-pomdp", "--fixture", "bearing"),
    ("run-session", "--pomdp", "pomdp.json", "--policy", "policy.json",
     "--gmm", "gmm.json", "--samples", "samples.csv"),
    ("train", "--data", "train.csv", "--states", 0),
    ("select-k", "--data", "train.csv", "--k-min", 0, "--k-max", 2),
    ("select-k", "--data", "train.csv", "--k-min", 3, "--k-max", 2),
    ("rul", "--iohmm", "iohmm.json", "--data", "train.csv", "--action", "a0", "--horizon", -5),
    ("rul", "--iohmm", "iohmm.json", "--data", "train.csv", "--action", "a0", "--horizon", 0),
    ("rul", "--iohmm", "iohmm.json", "--data", "train.csv", "--action", "a0",
     "--quantiles", -0.2, 0.5),
], ids=["config-list", "session-samples-without-window", "train-zero-states",
        "select-k-zero-min", "select-k-empty-range", "rul-negative-horizon",
        "rul-zero-horizon", "rul-negative-quantile"])
def test_exit_code_bad_arguments(pipeline, tmp_path, argv):
    root, _ = pipeline
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "samples.csv").write_text("sample\n" + "\n".join(["1.0", "-1.0"] * 8) + "\n")
    files = [(tmp_path if str(a) in ("list.json", "samples.csv") else root) / a
             if str(a).endswith((".json", ".csv")) else a for a in argv]
    proc = run_cli(*files, "--out", tmp_path / "out")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_cli_reports_are_reproducible(pipeline, tmp_path):
    _, data_csv = pipeline
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out in (out1, out2):
        ok("train", "--data", data_csv, "--states", 2, "--max-iters", 20,
           "--out", out)
    assert (out1 / "iohmm.json").read_bytes() == (out2 / "iohmm.json").read_bytes()
    assert (out1 / "train_log.json").read_bytes() == (out2 / "train_log.json").read_bytes()
