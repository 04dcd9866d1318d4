"""Acceptance gate: one test per release criterion.

Each test registers itself with the `criterion` fixture so the run ends with
a one-line pass/fail banner per criterion. Tolerances and time budgets are
asserted inside the tests themselves.
"""
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from cbmpomdp import (GemConfig, GmmConfig, GmmModel, IohmmModel, PbviConfig,
                      PomdpModel, Sequence, aic, bearing_pomdp, fit_gmm,
                      forward_backward, gem_fit, pbvi_solve,
                      responsibilities, select_k, simulate)
from cbmpomdp.gmm import discretize
from cbmpomdp.sim import SimConfig, decoded_reverse_steps, rul_experiment
from cli_cases import commands, setup_commands, write_inputs
from oracles import enumerate_posteriors, mdp_value_iteration
from synth import (deterministic_chain_model, left_to_right_model,
                   sample_dataset, sample_failure_dataset)


def _random_iohmm(seed: int):
    """Small random model + sequence pair for the enumeration check."""
    rng = np.random.default_rng(seed)
    K = 2 + seed % 2
    T = 2 + seed % 5
    A = 1 + seed % 2
    d = 1 + seed % 2
    mode = "shared" if seed % 3 else "action"
    trans = rng.random((A, K, K)) + 0.1
    trans /= trans.sum(axis=2, keepdims=True)
    if mode == "shared":
        means = rng.normal(scale=2.0, size=(K, d))
        covs = np.empty((K, d, d))
        for k in range(K):
            M = rng.normal(size=(d, d))
            covs[k] = M @ M.T + 0.5 * np.eye(d)
    else:
        means = rng.normal(scale=2.0, size=(A, K, d))
        covs = np.empty((A, K, d, d))
        for a in range(A):
            for k in range(K):
                M = rng.normal(size=(d, d))
                covs[a, k] = M @ M.T + 0.5 * np.eye(d)
    initial = rng.random(K) + 0.1
    initial /= initial.sum()
    model = IohmmModel(action_labels=tuple(f"a{i}" for i in range(A)),
                       transitions=trans, means=means, covariances=covs,
                       initial=initial, emission_mode=mode)
    seq = Sequence(rng.normal(scale=2.0, size=(T, d)), rng.integers(0, A, size=T))
    return model, seq


def test_criterion_01_posteriors_match_enumeration(criterion):
    criterion(1, "smoothed posteriors match exhaustive path enumeration "
                 "(100 cases, 1e-10)")
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        model, seq = _random_iohmm(seed)
        post = forward_backward(seq, model)
        gamma, xi, ll = enumerate_posteriors(seq, model)
        worst = max(worst, float(np.abs(post.gamma - gamma).max()))
        if seq.obs.shape[0] > 1:
            worst = max(worst, float(np.abs(post.xi - xi).max()))
        worst = max(worst, abs(post.loglik - ll))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"worst posterior deviation {worst:.2e}"
    assert elapsed < 10.0, f"enumeration check took {elapsed:.1f}s"


def test_criterion_02_solver_matches_exact_values(criterion):
    criterion(2, "solver corner values match exact value iteration under "
                 "full observability (1e-3)")
    start = time.perf_counter()
    worst = 0.0
    for i, (S, A) in enumerate([(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]):
        rng = np.random.default_rng(40 + i)
        X = rng.random((A, S, S)) + 0.2
        X /= X.sum(axis=2, keepdims=True)
        R = rng.uniform(-1.0, 1.0, size=(A, S))
        Z = np.tile(np.eye(S), (A, 1, 1))
        model = PomdpModel(transition=X, observation=Z, reward=R, discount=0.9,
                           action_labels=tuple(f"a{j}" for j in range(A)))
        V, _ = mdp_value_iteration(X, R, 0.9)
        policy = pbvi_solve(model, config=PbviConfig(improve_tol=1e-9,
                                                     max_improve_sweeps=500,
                                                     max_expansions=6))
        for s in range(S):
            corner = np.zeros(S)
            corner[s] = 1.0
            worst = max(worst, abs(policy.value(corner)[0] - V[s]))
    elapsed = time.perf_counter() - start
    assert worst < 1e-3, f"worst corner-value deviation {worst:.2e}"
    assert elapsed < 30.0, f"solver comparison took {elapsed:.1f}s"


def test_criterion_03_monotone_structure_enforced(criterion):
    criterion(3, "fitted models are strictly monotone; classical baseline "
                 "reverses on most seeds")
    truth = left_to_right_model(n_states=3, n_actions=2, n_features=2,
                                separation=2.0, stay=(0.7, 0.55))
    reversing_seeds = 0
    for seed in range(20):
        data = sample_dataset(truth, n_seqs=8, T=25, seed=100 + seed)
        model, _ = gem_fit(data, GemConfig(n_states=3, max_iters=30, tol=1e-5,
                                           seed=seed))
        backward_mass = sum(float(np.tril(model.transitions[a], -1).sum())
                            for a in range(model.n_actions))
        assert backward_mass == 0.0
        assert np.all(np.diff(model.means[:, 0]) >= 0.0)
        for a in range(model.n_actions):
            rows = model.transitions[a]
            assert np.all(rows >= 0.0)
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(model.initial >= 0.0)
        assert abs(model.initial.sum() - 1.0) <= 1e-12
        for k in range(model.n_states):
            cov = model.covariances[k]
            np.testing.assert_allclose(cov, cov.T, atol=1e-12)
            assert np.all(np.diag(cov) > 0.0)

        classical, _ = gem_fit(data, GemConfig(n_states=3, max_iters=30,
                                               tol=1e-5, seed=seed,
                                               constrained=False))
        if decoded_reverse_steps(data, classical)["reverse_steps"] > 0.0:
            reversing_seeds += 1
    assert reversing_seeds >= 14, \
        f"classical baseline reversed on only {reversing_seeds}/20 seeds"


def test_criterion_04_training_improves_and_recovers(criterion):
    criterion(4, "training loglik never decreases; 3-state transition "
                 "recovery within 0.1")
    truth = left_to_right_model()
    recovered = 0
    for seed in range(10):
        data = sample_dataset(truth, n_seqs=80, T=40, seed=200 + seed)
        model, trace = gem_fit(data, GemConfig(n_states=3, max_iters=60,
                                               tol=1e-6, seed=seed))
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-8), \
            f"seed {seed}: loglik dropped by {-diffs.min():.2e}"
        if np.abs(model.transitions - truth.transitions).max() <= 0.1:
            recovered += 1
    assert recovered >= 8, f"transitions recovered on only {recovered}/10 seeds"


def test_criterion_05_bearing_policy_structure(criterion):
    criterion(5, "bearing policy: early C=1.2, degraded C=1.5, "
                 "near-failure PM")
    start = time.perf_counter()
    model = bearing_pomdp()
    policy = pbvi_solve(model, config=PbviConfig(improve_tol=1e-5,
                                                 max_expansions=8))

    def act(belief):
        return policy.action_labels[policy.value(np.asarray(belief, float))[1]]

    healthiest = np.zeros(6)
    healthiest[0] = 1.0
    assert act(healthiest) == "C=1.2"

    degraded_found = False
    for mass in (0.6, 0.7, 0.8):
        for w in (0.0, 0.25, 0.5, 0.75, 1.0):
            b = np.zeros(6)
            b[3] = mass * w
            b[4] = mass * (1.0 - w)
            b[2] = 1.0 - mass
            if act(b) == "C=1.5":
                degraded_found = True
    assert degraded_found, "no heavily degraded belief selects C=1.5"

    near_failure = np.zeros(6)
    near_failure[4] = 1.0
    assert act(near_failure) == "PM"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"bearing solve took {elapsed:.1f}s"


def test_criterion_06_bearing_simulation_ordering(criterion):
    criterion(6, "bearing simulation: policy > fixed capacities, lowest "
                 "capacity negative")
    start = time.perf_counter()
    model = bearing_pomdp()
    policy = pbvi_solve(model, config=PbviConfig(improve_tol=1e-5,
                                                 max_expansions=8))
    config = SimConfig(horizon=10000, n_runs=100, seed=0)
    mean_policy = simulate(model, policy, config).mean
    mean_c1 = simulate(model, "C=1.2", config).mean
    mean_c2 = simulate(model, "C=1.3", config).mean
    mean_c3 = simulate(model, "C=1.5", config).mean
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"simulation study took {elapsed:.1f}s"
    assert mean_policy > mean_c1 > mean_c2 > mean_c3, (
        f"mean-reward ordering violated: policy={mean_policy:.1f} "
        f"C1={mean_c1:.1f} C2={mean_c2:.1f} C3={mean_c3:.1f}")
    assert mean_c3 < 0.0, (
        f"highest fixed capacity has positive mean reward {mean_c3:.1f}: its "
        f"stationary reward rate is +0.128/epoch under these matrices, so a "
        f"negative mean is unreachable at any horizon")


def test_criterion_07_information_criteria(criterion):
    criterion(7, "information criteria: AIC hand value exact, BIC recovers "
                 "K=3")
    assert aic(-805.02, 155) == 1920.04

    truth = left_to_right_model()
    hits = 0
    for seed in range(10):
        data = sample_dataset(truth, n_seqs=25, T=15, seed=300 + seed)
        report = select_k(data, (2, 3, 4),
                          GemConfig(n_states=3, max_iters=30, tol=1e-5,
                                    seed=seed))
        if report.best_bic == 3:
            hits += 1
    assert hits >= 6, f"BIC recovered K=3 on only {hits}/10 seeds"


def test_criterion_08_symbol_posteriors(criterion):
    criterion(8, "symbol posteriors normalized (1e-12), hand case exact, "
                 "blobs >= 99%")
    rng = np.random.default_rng(7)
    k, d = 3, 4
    covs = np.empty((k, d, d))
    for j in range(k):
        M = rng.normal(size=(d, d))
        covs[j] = M @ M.T + 0.5 * np.eye(d)
    weights = rng.random(k) + 0.2
    model = GmmModel(weights=weights / weights.sum(),
                     means=rng.normal(scale=3.0, size=(k, d)),
                     covariances=covs)
    X = rng.normal(scale=5.0, size=(10000, d))
    resp = responsibilities(model, X)
    assert np.abs(resp.sum(axis=1) - 1.0).max() <= 1e-12

    sigma1 = 1.0 / (2.0 * np.sqrt(2.0 * np.pi))
    sigma2 = 1.0 / np.sqrt(2.0 * np.pi)
    hand = GmmModel(weights=np.array([0.3, 0.7]),
                    means=np.array([[2.0], [2.0]]),
                    covariances=np.array([[[sigma1 ** 2]], [[sigma2 ** 2]]]))
    got = responsibilities(hand, np.array([[2.0]]))[0]
    np.testing.assert_allclose(got, [0.6 / 1.3, 0.7 / 1.3], atol=1e-12)

    centers = np.array([[-8.0, 0.0], [0.0, 8.0], [8.0, 0.0]])
    blob_rng = np.random.default_rng(11)
    X_blobs = np.vstack([c + blob_rng.normal(size=(200, 2)) for c in centers])
    labels = np.repeat(np.arange(3), 200)
    fitted = fit_gmm(X_blobs, GmmConfig(n_components=3, seed=0))
    order = np.argsort(fitted.means[:, 0])
    remap = np.empty(3, dtype=int)
    remap[order] = np.argsort(centers[:, 0])
    accuracy = np.mean(remap[discretize(fitted, X_blobs)] == labels)
    assert accuracy >= 0.99, f"blob assignment accuracy {accuracy:.3f}"


def test_criterion_09_rul_band_calibration(criterion):
    criterion(9, "RUL 95% band coverage in [0.85, 1.0]; deterministic chain "
                 "exact")
    start = time.perf_counter()
    truth = left_to_right_model(n_states=4, n_actions=1, n_features=2,
                                separation=5.0, stay=(0.6,))
    data = sample_failure_dataset(truth, n_seqs=30, seed=0, max_T=120, min_T=2)
    result = rul_experiment(data, truth, "a0", horizon=500)
    assert 0.85 <= result["coverage"] <= 1.0, \
        f"band coverage {result['coverage']:.3f}"

    chain = deterministic_chain_model(n_states=5)
    chain_data = sample_failure_dataset(chain, n_seqs=3, seed=1, max_T=10,
                                        min_T=2)
    chain_result = rul_experiment(chain_data, chain, "a0", horizon=50)
    assert chain_result["coverage"] == 1.0
    for row in chain_result["rows"]:
        assert not row["censored"]
        assert row["lower"] == row["median"] == row["upper"] == row["true_rul"]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"calibration check took {elapsed:.1f}s"


def _run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "cbmpomdp", *map(str, args)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def _compare_dirs(d1, d2):
    names1 = sorted(p.name for p in d1.iterdir())
    names2 = sorted(p.name for p in d2.iterdir())
    assert names1 == names2 and names1, f"output sets differ: {names1} vs {names2}"
    for name in names1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), \
            f"{name} differs between repeated runs"


def test_criterion_10_reports_are_reproducible(criterion, tmp_path):
    criterion(10, "same seed, same bytes for every command's reports")
    inputs = write_inputs(tmp_path)
    setup = tmp_path / "setup"
    for argv in setup_commands(inputs, setup):
        _run_cli(*argv, "--out", setup)

    for name, argv in commands(inputs, setup).items():
        out1 = tmp_path / name / "one"
        out2 = tmp_path / name / "two"
        for out in (out1, out2):
            _run_cli(*argv, "--seed", 0, "--out", out)
        _compare_dirs(out1, out2)
