import numpy as np
import pytest

from cbmpomdp import (Dataset, GemConfig, IohmmModel, PbviConfig, PomdpModel, Sequence,
                      SimConfig, compare_classical, decode_states, decoded_reverse_steps,
                      forward_filter, gem_fit, pbvi_solve, rul_experiment, simulate,
                      transition_diagnostics)
from cbmpomdp.bearing import CAPACITY_LABELS, bearing_pomdp
from cbmpomdp.errors import DataError
from cbmpomdp.sim import _CHUNK, rul_rows
from oracles import per_belief_rul, per_run_simulate
from synth import (deterministic_chain_model, left_to_right_model,
                   sample_dataset, sample_failure_dataset)


def cycle_pomdp(discount=0.9):
    """Deterministic 0 -> 1 -> 0 cycle; state 1 is the failure state."""
    X = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    Z = np.tile(np.eye(2), (1, 1, 1))
    R = np.array([[1.0, -3.0]])
    return PomdpModel(action_labels=("a",), transition=X, observation=Z,
                      reward=R, discount=discount).validate()


def test_fixed_action_deterministic_cycle_exact():
    model = cycle_pomdp(discount=0.5)
    rep = simulate(model, 0, SimConfig(horizon=4, n_runs=2, seed=0))
    # states 0,1,0,1 pay 1,-3,1,-3
    np.testing.assert_array_equal(rep.totals, [-4.0, -4.0])
    expected_disc = 1.0 - 3 * 0.5 + 0.25 - 3 * 0.125
    np.testing.assert_allclose(rep.discounted, [expected_disc] * 2, atol=1e-12)
    assert rep.failure_rate == 0.5
    assert rep.pm_ratio == 0.0
    assert rep.action_counts == {"a": 8}
    assert rep.std == 0.0


def test_fixed_action_by_label_matches_index():
    model = bearing_pomdp()
    cfg = SimConfig(horizon=200, n_runs=5, seed=3)
    by_idx = simulate(model, 2, cfg)
    by_label = simulate(model, "C=1.5", cfg)
    np.testing.assert_array_equal(by_idx.totals, by_label.totals)


def test_unknown_policy_source_rejected():
    model = cycle_pomdp()
    with pytest.raises(DataError):
        simulate(model, 3.5, SimConfig(horizon=10, n_runs=1))


def test_simulate_deterministic_and_seeded():
    model = bearing_pomdp()
    cfg = SimConfig(horizon=500, n_runs=4, seed=7)
    a = simulate(model, "C=1.3", cfg)
    b = simulate(model, "C=1.3", cfg)
    np.testing.assert_array_equal(a.totals, b.totals)
    np.testing.assert_array_equal(a.discounted, b.discounted)
    c = simulate(model, "C=1.3", SimConfig(horizon=500, n_runs=4, seed=8))
    assert not np.array_equal(a.totals, c.totals)


def test_per_run_streams_xor_seeded():
    # run i consumes default_rng(seed ^ i), so run 1 of a seed-3 batch equals
    # run 0 of a seed-2 batch
    model = bearing_pomdp()
    batch = simulate(model, "C=1.2", SimConfig(horizon=300, n_runs=2, seed=3))
    single = simulate(model, "C=1.2", SimConfig(horizon=300, n_runs=1, seed=2))
    assert batch.totals[1] == single.totals[0]


def test_policy_simulation_on_fixture_beats_fixed():
    from cbmpomdp import PbviConfig, pbvi_solve
    model = bearing_pomdp()
    policy = pbvi_solve(model, config=PbviConfig(improve_tol=1e-4,
                                                 max_expansions=5))
    cfg = SimConfig(horizon=2000, n_runs=10, seed=0)
    with_policy = simulate(model, policy, cfg)
    fixed = simulate(model, "C=1.5", cfg)
    assert with_policy.mean > fixed.mean
    assert 0.0 < with_policy.pm_ratio < 0.5
    assert with_policy.failure_rate < fixed.failure_rate


def test_policy_callable_source():
    model = cycle_pomdp()
    rep = simulate(model, lambda belief: 0, SimConfig(horizon=4, n_runs=1, seed=0))
    assert rep.totals[0] == -4.0


@pytest.fixture(scope="module")
def bearing_policy():
    return pbvi_solve(bearing_pomdp(), config=PbviConfig(improve_tol=1e-4,
                                                         max_expansions=5))


@pytest.mark.parametrize("source", ["policy", "fixed", "callable"])
def test_lockstep_matches_per_run_reference(bearing_policy, source):
    # horizon 2500 spans three chunks of uniforms, the last one partial
    horizon, n_runs, seed = 2500, 7, 5
    assert _CHUNK < horizon and horizon % _CHUNK
    model = bearing_pomdp()
    policy_source = {"policy": bearing_policy, "fixed": "C=1.3",
                     "callable": lambda b: "PM" if b[3:].sum() > 0.6 else "C=1.2"}[source]
    rep = simulate(model, policy_source, SimConfig(horizon=horizon, n_runs=n_runs, seed=seed))
    totals, discounted, counts, failures = per_run_simulate(model, policy_source,
                                                            horizon, n_runs, seed)
    np.testing.assert_array_equal(rep.totals, totals)
    np.testing.assert_array_equal(rep.discounted, discounted)
    assert rep.action_counts == dict(zip(model.action_labels, counts.tolist()))
    assert rep.failure_rate == failures / (horizon * n_runs)


@pytest.mark.parametrize("label", CAPACITY_LABELS)
def test_fixed_action_means_match_exact_expectation(label):
    # the state distribution propagated through the action's chain gives the
    # exact expected H-epoch total and discounted sum from state 0
    model = bearing_pomdp()
    cfg = SimConfig(horizon=2000, n_runs=50, seed=11)
    rep = simulate(model, label, cfg)
    a = model.action_index(label)
    dist = np.eye(model.n_states)[0]
    total = discounted = 0.0
    for t in range(cfg.horizon):
        total += dist @ model.reward[a]
        discounted += model.discount ** t * (dist @ model.reward[a])
        dist = dist @ model.transition[a]
    se_total = rep.std / np.sqrt(cfg.n_runs)
    se_disc = rep.discounted.std(ddof=1) / np.sqrt(cfg.n_runs)
    assert abs(rep.mean - total) < 5 * se_total, (rep.mean, total, se_total)
    assert abs(rep.discounted_mean - discounted) < 5 * se_disc, \
        (rep.discounted_mean, discounted, se_disc)


def test_report_dict_is_json_ready():
    import json
    model = cycle_pomdp()
    rep = simulate(model, 0, SimConfig(horizon=6, n_runs=2, seed=1))
    payload = json.dumps(rep.to_dict(), sort_keys=True)
    assert "totals" in payload and "pm_ratio" in payload


def test_transition_diagnostics_identity_and_shift():
    eye = np.tile(np.eye(3), (2, 1, 1))
    d = transition_diagnostics(eye)
    assert d == {"avg_stay": 1.0, "avg_forward": 0.0, "avg_backward": 0.0}
    shift = np.zeros((1, 3, 3))
    shift[0, 0, 1] = shift[0, 1, 2] = shift[0, 2, 2] = 1.0
    d = transition_diagnostics(shift)
    assert d["avg_stay"] == pytest.approx(1 / 3)
    assert d["avg_forward"] == pytest.approx(2 / 3)
    assert d["avg_backward"] == 0.0
    model = left_to_right_model()
    d = transition_diagnostics(model)
    assert d["avg_backward"] == 0.0


def test_decoded_reverse_steps_zero_on_monotone_truth():
    truth = left_to_right_model()
    data = sample_dataset(truth, n_seqs=6, T=15, seed=0)
    diag = decoded_reverse_steps(data, truth)
    assert diag["reverse_steps"] == 0.0
    assert diag["total_reverse"] == 0
    assert diag["backward_prob"] == 0.0


def test_decoded_reverse_steps_counts_oscillation():
    from cbmpomdp import IohmmModel
    truth = left_to_right_model()
    osc = IohmmModel(action_labels=("a0",),
                     transitions=np.array([[[0.1, 0.9], [0.9, 0.1]]]),
                     means=np.array([[0.0, 0.0], [5.0, 2.5]]),
                     covariances=np.tile(np.eye(2), (2, 1, 1)),
                     initial=np.array([1.0, 0.0]))
    data = sample_dataset(osc, n_seqs=5, T=12, seed=1)
    diag = decoded_reverse_steps(data, osc)
    assert diag["total_reverse"] > 0
    assert diag["backward_prob"] == pytest.approx(0.9)


def ragged_fleet(model, seed=5):
    """Sequences of 7, 1, 12, 3, 9 and 1 epochs under random actions; the
    first, second and fourth are flagged failed."""
    lengths, failed = (7, 1, 12, 3, 9, 1), (True, True, False, True, False, False)
    data = sample_dataset(model, n_seqs=len(lengths), T=max(lengths), seed=seed)
    return Dataset([Sequence(s.obs[:T], s.actions[:T], failed=f)
                    for s, T, f in zip(data.sequences, lengths, failed)], data.action_labels)


def test_decoded_reverse_steps_matches_per_sequence_decode():
    osc = IohmmModel(action_labels=("a0", "a1"),
                     transitions=np.array([[[0.3, 0.7, 0.0], [0.5, 0.2, 0.3], [0.0, 0.6, 0.4]],
                                           [[0.6, 0.4, 0.0], [0.1, 0.6, 0.3], [0.3, 0.0, 0.7]]]),
                     means=np.array([[0.0, 0.0], [3.0, 1.5], [6.0, 3.0]]),
                     covariances=np.tile(np.eye(2), (3, 1, 1)),
                     initial=np.array([0.2, 0.3, 0.5]))
    data = ragged_fleet(osc)
    labels = [decode_states(seq, osc)[0] for seq in data.sequences]
    expected = sum(int((np.diff(lab) < 0).sum()) for lab in labels)
    diag = decoded_reverse_steps(data, osc)
    assert diag["total_reverse"] == expected > 0
    assert diag["reverse_steps"] == expected / len(data.sequences)
    # some sequence starts below where the one before it ended; that step must not count
    assert (np.diff(np.concatenate(labels)) < 0).sum() > expected


def test_rul_rows_match_per_sequence_loop():
    model = left_to_right_model(n_states=3, n_actions=2, stay=(0.8, 0.5))
    data = ragged_fleet(model)
    quantiles = (0.025, 0.5, 0.975)
    np.testing.assert_array_equal(forward_filter(data, model),
                                  np.vstack([forward_filter(s, model) for s in data.sequences]))
    expected = []
    for i, seq in enumerate(data.sequences):
        T = seq.obs.shape[0]
        for t, b in enumerate(forward_filter(seq, model)):
            values, censored = per_belief_rul(b, model, 1, 8, quantiles)
            expected.append({"sequence": i, "epoch": t,
                             "true_rul": T - 1 - t if seq.failed else None,
                             "lower": values[0], "median": values[1], "upper": values[2],
                             "censored": censored})
    assert rul_rows(data, range(6), model, "a1", 8, quantiles) == expected
    failed = [r for r in expected if r["true_rul"] is not None]
    scored = [r for r in failed if not r["censored"]]
    result = rul_experiment(data, model, "a1", horizon=8, quantiles=quantiles)
    assert result["rows"] == failed
    assert result["coverage"] == sum(r["lower"] <= r["true_rul"] <= r["upper"]
                                     for r in scored) / len(scored)
    assert (result["n_evaluated"], result["n_censored"]) == (len(scored),
                                                             len(failed) - len(scored))
    assert result["n_censored"] > 0 and result["n_evaluated"] > 0


def test_compare_classical_reports_both_variants():
    truth = left_to_right_model(separation=2.0)
    data = sample_dataset(truth, n_seqs=10, T=15, seed=2)
    rows = compare_classical(data, GemConfig(n_states=3, seed=0, max_iters=30))
    assert [r["variant"] for r in rows] == ["constrained", "classical"]
    constrained, classical = rows
    assert constrained["backward_prob"] == 0.0
    assert constrained["reverse_steps"] == 0.0
    for r in rows:
        assert np.isfinite(r["loglik"])


def test_rul_experiment_deterministic_chain_exact():
    model = deterministic_chain_model(n_states=5)
    data = sample_failure_dataset(model, n_seqs=4, seed=0, max_T=20, min_T=3)
    assert all(s.failed for s in data.sequences)
    result = rul_experiment(data, model, action=0, horizon=50)
    assert result["coverage"] == 1.0
    assert result["n_censored"] == 0
    for row in result["rows"]:
        assert row["lower"] == row["median"] == row["upper"] == row["true_rul"]


def test_rul_experiment_stochastic_coverage():
    model = left_to_right_model(n_states=4, n_actions=1, stay=(0.6,),
                                separation=6.0)
    data = sample_failure_dataset(model, n_seqs=30, seed=1, max_T=100, min_T=2)
    assert any(s.failed for s in data.sequences)
    result = rul_experiment(data, model, action=0, horizon=1000)
    assert 0.85 <= result["coverage"] <= 1.0


def test_rul_experiment_needs_failures():
    model = deterministic_chain_model(n_states=5)
    data = sample_dataset(model, n_seqs=2, T=3, seed=0, actions=0)
    with pytest.raises(DataError):
        rul_experiment(data, model, action=0)


def test_forward_filter_tracks_chain():
    model = deterministic_chain_model(n_states=4)
    data = sample_failure_dataset(model, n_seqs=1, seed=0, max_T=10, min_T=3)
    seq = data.sequences[0]
    beliefs = forward_filter(seq, model)
    labels = beliefs.argmax(axis=1)
    np.testing.assert_array_equal(labels, np.arange(seq.obs.shape[0]))
