import numpy as np
import pytest

from cbmpomdp import (Dataset, GemConfig, IohmmModel, Sequence, aic, bic,
                      decode_states, enforce_left_to_right, forward_backward,
                      forward_filter, gem_fit, init_kmeans, loglik, n_parameters,
                      predict_rul, sample_sequence, select_k)
from cbmpomdp.errors import DataError, NumericalError
from cbmpomdp.gmm import _component_logdensities, weighted_gaussians
from cbmpomdp.iohmm import InvalidAction, NoFailureState
from oracles import enumerate_posteriors, per_belief_rul
from synth import left_to_right_model, sample_dataset


def random_model(rng, K=3, A=2, d=2, emission_mode="shared", constrained=False):
    """Unstructured random model for oracle comparisons."""
    transitions = rng.random((A, K, K)) + 0.1
    if constrained:
        for a in range(A):
            transitions[a] = np.triu(transitions[a])
    transitions /= transitions.sum(axis=2, keepdims=True)
    if emission_mode == "shared":
        means = rng.normal(scale=3.0, size=(K, d))
        covariances = np.empty((K, d, d))
        for k in range(K):
            L = rng.normal(size=(d, d)) * 0.3
            covariances[k] = L @ L.T + np.eye(d)
    else:
        means = rng.normal(scale=3.0, size=(A, K, d))
        covariances = np.empty((A, K, d, d))
        for a in range(A):
            for k in range(K):
                L = rng.normal(size=(d, d)) * 0.3
                covariances[a, k] = L @ L.T + np.eye(d)
    initial = rng.random(K) + 0.05
    initial /= initial.sum()
    return IohmmModel(action_labels=tuple(f"a{i}" for i in range(A)),
                      transitions=transitions, means=means,
                      covariances=covariances, initial=initial,
                      emission_mode=emission_mode)


def random_sequence(rng, model, T):
    return Sequence(obs=rng.normal(scale=3.0, size=(T, model.n_features)),
                    actions=rng.integers(0, model.n_actions, size=T))


# ---------------------------------------------------------------------------
# inference vs the enumeration oracle


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("emission_mode", ["shared", "action"])
def test_forward_backward_matches_enumeration(seed, emission_mode):
    rng = np.random.default_rng(seed)
    model = random_model(rng, K=3, A=2, emission_mode=emission_mode)
    seq = random_sequence(rng, model, T=5)
    post = forward_backward(seq, model)
    g, x, ll = enumerate_posteriors(seq, model)
    np.testing.assert_allclose(post.gamma, g, atol=1e-10)
    np.testing.assert_allclose(post.xi, x, atol=1e-10)
    assert post.loglik == pytest.approx(ll, abs=1e-10)


def test_posterior_invariants():
    rng = np.random.default_rng(9)
    model = random_model(rng)
    seq = random_sequence(rng, model, T=8)
    post = forward_backward(seq, model)
    np.testing.assert_allclose(post.gamma.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(post.xi.sum(axis=(1, 2)), 1.0, atol=1e-12)
    # marginalizing a pairwise slice recovers the adjacent single-epoch laws
    for t in range(post.xi.shape[0]):
        np.testing.assert_allclose(post.xi[t].sum(axis=1), post.gamma[t], atol=1e-9)
        np.testing.assert_allclose(post.xi[t].sum(axis=0), post.gamma[t + 1], atol=1e-9)


def test_forward_filter_last_epoch_equals_smoothed():
    rng = np.random.default_rng(11)
    model = random_model(rng)
    seq = random_sequence(rng, model, T=6)
    filt = forward_filter(seq, model)
    post = forward_backward(seq, model)
    np.testing.assert_allclose(filt[-1], post.gamma[-1], atol=1e-10)
    np.testing.assert_allclose(filt.sum(axis=1), 1.0, atol=1e-12)


def test_single_epoch_sequence():
    rng = np.random.default_rng(13)
    model = random_model(rng)
    seq = random_sequence(rng, model, T=1)
    post = forward_backward(seq, model)
    g, x, ll = enumerate_posteriors(seq, model)
    np.testing.assert_allclose(post.gamma, g, atol=1e-10)
    assert post.xi.shape == (0, 3, 3)
    assert post.loglik == pytest.approx(ll, abs=1e-10)


def test_zero_probability_sequence_raises():
    model = IohmmModel(action_labels=("a0",),
                       transitions=np.array([[[1.0, 0.0], [0.0, 1.0]]]),
                       means=np.array([[0.0], [1e8]]),
                       covariances=np.array([[[1e-4]], [[1e-4]]]),
                       initial=np.array([1.0, 0.0]))
    seq = Sequence(obs=np.array([[1e8]]), actions=np.array([0]))
    with pytest.raises(NumericalError):
        forward_backward(seq, model)


def test_invalid_action_raises():
    rng = np.random.default_rng(17)
    model = random_model(rng, A=2)
    seq = Sequence(obs=rng.normal(size=(3, 2)), actions=np.array([0, 5, 1]))
    with pytest.raises(InvalidAction):
        forward_backward(seq, model)


def test_sequence_length_mismatch():
    with pytest.raises(DataError):
        Sequence(obs=np.zeros((3, 2)), actions=np.array([0, 1]))


def test_decode_ties_pick_lower_state():
    # symmetric model, observation exactly between the two emission means
    model = IohmmModel(action_labels=("a0",),
                       transitions=np.array([[[0.5, 0.5], [0.5, 0.5]]]),
                       means=np.array([[-1.0], [1.0]]),
                       covariances=np.array([[[1.0]], [[1.0]]]),
                       initial=np.array([0.5, 0.5]))
    seq = Sequence(obs=np.array([[0.0]]), actions=np.array([0]))
    labels, gamma = decode_states(seq, model)
    assert gamma[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert labels[0] == 0


# ---------------------------------------------------------------------------
# canonicalization


def two_state_model(transitions, means):
    return IohmmModel(action_labels=("a0",),
                      transitions=np.asarray(transitions, dtype=float)[None],
                      means=np.asarray(means, dtype=float),
                      covariances=np.tile(np.eye(1), (2, 1, 1)),
                      initial=np.array([1.0, 0.0]))


def test_enforce_sorts_then_projects():
    # states come out of the M-step in reverse order; sorting swaps labels,
    # carrying A entries along as A'[s(i), s(j)] = A[i, j]
    model = two_state_model([[1.0, 0.0], [0.7, 0.3]], [[5.0], [1.0]])
    out = enforce_left_to_right(model)
    np.testing.assert_allclose(out.means, [[1.0], [5.0]])
    np.testing.assert_allclose(out.transitions[0], [[0.3, 0.7], [0.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(out.initial, [0.0, 1.0])


def test_enforce_projection_renormalizes():
    model = two_state_model([[0.7, 0.3], [0.3, 0.7]], [[0.0], [1.0]])
    out = enforce_left_to_right(model)
    np.testing.assert_allclose(out.transitions[0], [[0.7, 0.3], [0.0, 1.0]], atol=1e-15)


def test_enforce_zero_row_becomes_self_loop():
    # the entire second row points backward; projection leaves nothing, so
    # the state becomes absorbing
    model = two_state_model([[0.5, 0.5], [1.0, 0.0]], [[0.0], [1.0]])
    out = enforce_left_to_right(model)
    np.testing.assert_allclose(out.transitions[0][1], [0.0, 1.0])


def test_enforce_idempotent():
    rng = np.random.default_rng(23)
    model = random_model(rng, K=4, A=3)
    once = enforce_left_to_right(model)
    twice = enforce_left_to_right(once)
    np.testing.assert_array_equal(once.transitions, twice.transitions)
    np.testing.assert_array_equal(once.means, twice.means)
    K = once.n_states
    for a in range(once.n_actions):
        assert once.transitions[a][np.tril_indices(K, k=-1)].sum() == 0.0
        np.testing.assert_allclose(once.transitions[a].sum(axis=1), 1.0, atol=1e-12)
    assert (np.diff(once.means[:, once.sort_key]) >= 0).all()


def test_enforce_projection_matches_row_loop():
    rng = np.random.default_rng(29)
    model = random_model(rng, K=4, A=3)
    model.means = np.arange(4.0)[:, None] * np.ones((1, model.n_features))
    model.transitions[1, 2] = [0.5, 0.5, 0.0, 0.0]  # nothing left after projection
    expected = np.triu(model.transitions)
    for a in range(3):
        for row in range(4):
            total = expected[a, row].sum()
            expected[a, row] = np.eye(4)[row] if total <= 0 else expected[a, row] / total
    out = enforce_left_to_right(model)
    np.testing.assert_array_equal(out.transitions, expected)


def test_enforce_action_mode_sorts_by_mean_over_actions():
    transitions = np.tile(np.eye(2), (2, 1, 1))
    means = np.array([[[3.0], [0.0]], [[5.0], [0.0]]])  # state 0 larger on average
    model = IohmmModel(action_labels=("a0", "a1"), transitions=transitions,
                       means=means,
                       covariances=np.tile(np.eye(1), (2, 2, 1, 1)),
                       initial=np.array([1.0, 0.0]),
                       emission_mode="action")
    out = enforce_left_to_right(model)
    np.testing.assert_allclose(out.means[:, :, 0], [[0.0, 3.0], [0.0, 5.0]], atol=0)
    np.testing.assert_allclose(out.initial, [0.0, 1.0])


# ---------------------------------------------------------------------------
# one exact GEM step against hand math


def one_step_fixture():
    init = two_state_model([[0.8, 0.2], [0.0, 1.0]], [[0.0], [4.0]])
    seq = Sequence(obs=np.array([[0.5], [3.0]]), actions=np.array([0, 0]),
                   failed=True)
    dataset = Dataset(sequences=[seq], action_labels=["a0"])
    return init, seq, dataset


def manual_m_step(init, seq, ridge, clamp):
    gamma, xi, _ = enumerate_posteriors(seq, init)
    if clamp:
        gamma = gamma.copy()
        gamma[-1] = [0.0, 1.0]
    counts = xi[0]
    trans = init.transitions[0].copy()
    for row in range(2):
        if counts[row].sum() > 0:
            trans[row] = counts[row] / counts[row].sum()
    X = seq.obs
    means = np.array([[gamma[:, k] @ X[:, 0] / gamma[:, k].sum()] for k in range(2)])
    covs = []
    for k in range(2):
        dev = X[:, 0] - means[k, 0]
        covs.append([[float((gamma[:, k] * dev * dev).sum() / gamma[:, k].sum())
                      + ridge]])
    return trans, means, np.array(covs)


def test_single_gem_step_matches_hand_math():
    ridge = 1e-6
    init, seq, dataset = one_step_fixture()
    cfg = GemConfig(n_states=2, max_iters=1, ridge=ridge)
    model, trace = gem_fit(dataset, cfg, init=init)
    trans, means, covs = manual_m_step(init, seq, ridge, clamp=True)
    # means already ascending, so sorting is a no-op; projection zeroes the
    # backward entry of row 1 and renormalizes (row 1 had none to start)
    trans[0, :] /= trans[0, :].sum()
    trans[1, 0] = 0.0
    trans[1, 1] = 1.0
    np.testing.assert_allclose(model.transitions[0], trans, atol=1e-12)
    np.testing.assert_allclose(model.means, means, atol=1e-12)
    np.testing.assert_allclose(model.covariances, covs, atol=1e-12)
    assert len(trace) == 1


def test_failed_clamp_changes_emissions_only():
    init, seq, dataset = one_step_fixture()
    free = Dataset(sequences=[Sequence(seq.obs, seq.actions, failed=False)],
                   action_labels=["a0"])
    cfg = GemConfig(n_states=2, max_iters=1)
    clamped, _ = gem_fit(dataset, cfg, init=init)
    plain, _ = gem_fit(free, cfg, init=init)
    np.testing.assert_allclose(clamped.transitions, plain.transitions, atol=1e-12)
    _, means_clamped, _ = manual_m_step(init, seq, 1e-6, clamp=True)
    _, means_plain, _ = manual_m_step(init, seq, 1e-6, clamp=False)
    np.testing.assert_allclose(clamped.means, means_clamped, atol=1e-12)
    np.testing.assert_allclose(plain.means, means_plain, atol=1e-12)
    # clamping strips the final epoch's healthy-state mass, shifting that mean
    assert abs(clamped.means[0, 0] - plain.means[0, 0]) > 1e-3


def test_unconstrained_step_skips_projection():
    init, seq, dataset = one_step_fixture()
    cfg = GemConfig(n_states=2, max_iters=1, constrained=False)
    model, _ = gem_fit(dataset, cfg, init=init)
    trans, _, _ = manual_m_step(init, seq, 1e-6, clamp=True)
    np.testing.assert_allclose(model.transitions[0], trans, atol=1e-12)


# ---------------------------------------------------------------------------
# full training behavior


def test_gem_loglik_trace_monotone():
    truth = left_to_right_model()
    data = sample_dataset(truth, n_seqs=12, T=20, seed=0)
    model, trace = gem_fit(data, GemConfig(n_states=3, seed=0, max_iters=50))
    diffs = np.diff(np.asarray(trace))
    assert (diffs >= -1e-8 * np.maximum(1.0, np.abs(np.asarray(trace)[:-1]))).all()
    K = model.n_states
    for a in range(model.n_actions):
        assert model.transitions[a][np.tril_indices(K, k=-1)].sum() == 0.0
        np.testing.assert_allclose(model.transitions[a].sum(axis=1), 1.0, atol=1e-9)
    assert (np.diff(model.means[:, 0]) >= 0).all()
    np.testing.assert_array_equal(model.initial, [1.0, 0.0, 0.0])


def test_gem_recovers_generator_smoke():
    truth = left_to_right_model()
    data = sample_dataset(truth, n_seqs=40, T=30, seed=1)
    model, _ = gem_fit(data, GemConfig(n_states=3, seed=1))
    np.testing.assert_allclose(model.transitions, truth.transitions, atol=0.1)
    np.testing.assert_allclose(model.means, truth.means, atol=0.5)


def test_init_kmeans_structure():
    truth = left_to_right_model()
    data = sample_dataset(truth, n_seqs=8, T=15, seed=2)
    init = init_kmeans(data, GemConfig(n_states=3, seed=0))
    np.testing.assert_array_equal(init.initial, [1.0, 0.0, 0.0])
    assert (np.diff(init.means[:, 0]) >= 0).all()
    for a in range(init.n_actions):
        np.testing.assert_allclose(init.transitions[a],
                                   [[1 / 3, 1 / 3, 1 / 3],
                                    [0.0, 0.5, 0.5],
                                    [0.0, 0.0, 1.0]], atol=1e-12)


def test_init_kmeans_unconstrained_uniform_rows():
    truth = left_to_right_model()
    data = sample_dataset(truth, n_seqs=8, T=15, seed=3)
    init = init_kmeans(data, GemConfig(n_states=3, seed=0, constrained=False))
    np.testing.assert_allclose(init.transitions, np.full((2, 3, 3), 1 / 3), atol=1e-12)


def test_emission_mode_action_training_runs():
    truth = left_to_right_model()
    data = sample_dataset(truth, n_seqs=10, T=15, seed=4)
    model, trace = gem_fit(data, GemConfig(n_states=3, emission_mode="action",
                                           seed=0, max_iters=30))
    assert model.means.shape == (2, 3, 2)
    diffs = np.diff(np.asarray(trace))
    assert (diffs >= -1e-8 * np.maximum(1.0, np.abs(np.asarray(trace)[:-1]))).all()


# ---------------------------------------------------------------------------
# model selection


def test_aic_bic_formulas():
    assert aic(-805.02, 155) == 1920.04
    assert bic(-10.0, 3, 100) == pytest.approx(3 * np.log(100) + 20.0, abs=1e-12)


def test_n_parameters_hand_counts():
    # K=3, d=2, A=2, shared, constrained:
    # transitions 2*(6-3)=6, emissions 3*2 + 3*3 = 15, initial 2
    assert n_parameters(3, 2, 2) == 23
    # unconstrained transitions 2*(9-3)=12
    assert n_parameters(3, 2, 2, constrained=False) == 29
    # action-dependent emissions double the emission block
    assert n_parameters(3, 2, 2, emission_mode="action") == 6 + 30 + 2


def test_select_k_prefers_truth():
    truth = left_to_right_model()
    data = sample_dataset(truth, n_seqs=25, T=20, seed=5)
    report = select_k(data, [2, 3, 4], GemConfig(n_states=3, seed=0, max_iters=40))
    assert [r["K"] for r in report.rows] == [2, 3, 4]
    for r in report.rows:
        assert set(r) >= {"K", "loglik", "p", "aic", "bic", "train_sec"}
        assert r["aic"] == aic(r["loglik"], r["p"])
    best_bic = min(report.rows, key=lambda r: r["bic"])["K"]
    assert report.best_bic == best_bic
    assert best_bic == 3


# ---------------------------------------------------------------------------
# RUL forecasting


def geometric_model(p=0.5):
    return IohmmModel(action_labels=("a0",),
                      transitions=np.array([[[1 - p, p], [0.0, 1.0]]]),
                      means=np.array([[0.0], [5.0]]),
                      covariances=np.tile(np.eye(1), (2, 1, 1)),
                      initial=np.array([1.0, 0.0]))


def test_rul_geometric_quantiles():
    fc = predict_rul(np.array([1.0, 0.0]), geometric_model(), action=0)
    assert (fc.lower, fc.median, fc.upper) == (1, 1, 6)
    assert not fc.censored
    assert fc.quantiles == (0.025, 0.5, 0.975)


def test_rul_point_mass_on_failure_state():
    fc = predict_rul(np.array([0.0, 1.0]), geometric_model(), action=0)
    assert (fc.lower, fc.median, fc.upper) == (0, 0, 0)


def test_rul_censoring():
    fc = predict_rul(np.array([1.0, 0.0]), geometric_model(), action=0, horizon=3)
    assert fc.censored
    assert fc.upper == 3
    assert (fc.lower, fc.median) == (1, 1)


def test_rul_requires_absorbing_failure_state():
    model = left_to_right_model()
    leaky = IohmmModel(action_labels=model.action_labels,
                       transitions=np.array([[[0.5, 0.5, 0.0],
                                              [0.0, 0.5, 0.5],
                                              [0.1, 0.0, 0.9]],
                                             [[0.5, 0.5, 0.0],
                                              [0.0, 0.5, 0.5],
                                              [0.0, 0.0, 1.0]]]),
                       means=model.means, covariances=model.covariances,
                       initial=model.initial)
    with pytest.raises(NoFailureState):
        predict_rul(np.array([1.0, 0.0, 0.0]), leaky, action=0)


def test_rul_action_by_label_matches_index():
    model = left_to_right_model()
    b = np.array([0.7, 0.3, 0.0])
    by_idx = predict_rul(b, model, action=1)
    by_label = predict_rul(b, model, action="a1")
    assert by_idx.values == by_label.values


def test_rul_action_callable():
    model = left_to_right_model()
    b = np.array([1.0, 0.0, 0.0])
    fixed = predict_rul(b, model, action=0)
    picked = predict_rul(b, model, action=lambda belief: 0)
    assert fixed.values == picked.values


@pytest.mark.parametrize("action", [0, 1, lambda b: int(b[0] < 0.5)],
                         ids=["fixed-0", "fixed-1", "callable"])
@pytest.mark.parametrize("quantiles", [(0.025, 0.5, 0.975), (0.9, 0.5, 0.5, 0.0, 1.0)],
                         ids=["band", "duplicates-and-ends"])
@pytest.mark.parametrize("horizon", [1, 4, 500])
def test_rul_stack_matches_per_belief_oracle(action, quantiles, horizon):
    model = left_to_right_model(n_states=4, stay=(0.9, 0.6))
    rng = np.random.default_rng(11)
    beliefs = rng.dirichlet(np.full(4, 0.4), size=60) * rng.uniform(0.5, 3.0, size=(60, 1))
    beliefs[0] = [0.0, 0.0, 0.0, 2.0]      # failed already: every quantile at step 0
    stacked = predict_rul(beliefs, model, action, horizon=horizon, quantiles=quantiles)
    assert stacked.values.shape == (60, len(quantiles))
    assert stacked.quantiles == quantiles
    for i, b in enumerate(beliefs):
        values, censored = per_belief_rul(b, model, action, horizon, quantiles)
        assert tuple(stacked.values[i].tolist()) == values
        assert bool(stacked.censored[i]) == censored
        one = predict_rul(b, model, action, horizon=horizon, quantiles=quantiles)
        assert (one.values, one.censored) == (values, censored)
        assert (one.lower, one.median, one.upper) == (stacked.lower[i], stacked.median[i],
                                                       stacked.upper[i])
    if horizon == 1:
        assert stacked.censored.any()


@pytest.mark.parametrize("kwargs", [
    {"horizon": 0}, {"horizon": -5}, {"quantiles": (-0.2, 0.5)}, {"quantiles": (0.5, 1.5)},
    {"quantiles": (float("nan"),)}, {"quantiles": ()},
    {"belief": [0.0, 0.0]}, {"belief": [float("nan"), 1.0]}, {"belief": [-0.5, 1.5]},
    {"belief": [float("inf"), 1.0]}, {"belief": [[1.0, 0.0], [0.0, 0.0]]},
], ids=["horizon-0", "horizon-negative", "quantile-negative", "quantile-above-1",
        "quantile-nan", "no-quantiles", "zero-belief", "nan-belief", "negative-belief",
        "infinite-belief", "zero-row-in-stack"])
def test_rul_rejects_bad_arguments(kwargs):
    args = {"belief": [1.0, 0.0], "horizon": 10, "quantiles": (0.5,), **kwargs}
    with pytest.raises(DataError):
        predict_rul(np.array(args["belief"]), geometric_model(), 0, horizon=args["horizon"],
                    quantiles=args["quantiles"])


# ---------------------------------------------------------------------------
# sampling and serialization


def test_sample_sequence_deterministic_chain():
    from synth import deterministic_chain_model
    model = deterministic_chain_model(n_states=4)
    rng = np.random.default_rng(0)
    seq, states = sample_sequence(model, np.zeros(4, dtype=int), rng)
    np.testing.assert_array_equal(states, [0, 1, 2, 3])
    assert seq.obs.shape == (4, 1)
    np.testing.assert_allclose(seq.obs[:, 0], model.means[:, 0], atol=1.0)


def test_model_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(29)
    model = random_model(rng, emission_mode="action")
    path = tmp_path / "m.json"
    model.save(path)
    back = IohmmModel.load(path)
    np.testing.assert_array_equal(back.transitions, model.transitions)
    np.testing.assert_array_equal(back.means, model.means)
    np.testing.assert_array_equal(back.covariances, model.covariances)
    np.testing.assert_array_equal(back.initial, model.initial)
    assert back.emission_mode == "action"
    assert back.action_labels == model.action_labels
    p2 = tmp_path / "m2.json"
    back.save(p2)
    assert path.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# the fleet-wide kernel against the per-sequence recursion


def reference_pass(dataset, model):
    """Scaled forward-backward (Rabiner 1989) one sequence and one epoch at a
    time, on emissions scored once on the pooled observations. Returns the
    stacked gamma, the pairwise marginals summed per action (per sequence in
    time order, then over sequences) and each sequence's loglik."""
    X = dataset.pooled_obs()
    acts = np.concatenate([s.actions for s in dataset.sequences])
    if model.emission_mode == "shared":
        logb = _component_logdensities(model.emission_gaussians(0), X)
    else:
        logb = np.empty((X.shape[0], model.n_states))
        for a in range(model.n_actions):
            if (acts == a).any():
                logb[acts == a] = _component_logdensities(model.emission_gaussians(a),
                                                          X[acts == a])
    K, A = model.n_states, model.n_actions
    gammas, counts, logliks, start = [], np.zeros((A, K, K)), [], 0
    for seq in dataset.sequences:
        T = seq.obs.shape[0]
        lb = logb[start:start + T]
        start += T
        shift = lb.max(axis=1)
        p = np.exp(lb - shift[:, None])
        alpha, scale = np.empty((T, K)), np.empty(T)
        cur = model.initial * p[0]
        for t in range(T):
            if t:
                cur = (alpha[t - 1] @ model.transitions[seq.actions[t]]) * p[t]
            scale[t] = cur.sum()
            alpha[t] = cur / scale[t]
        beta = np.empty((T, K))
        beta[T - 1] = 1.0
        for t in range(T - 2, -1, -1):
            beta[t] = (model.transitions[seq.actions[t + 1]]
                       @ (p[t + 1] * beta[t + 1])) / scale[t + 1]
        gamma = alpha * beta
        gammas.append(gamma / gamma.sum(axis=1, keepdims=True))
        xi = np.empty((T - 1, K, K))
        for t in range(1, T):
            slab = (alpha[t - 1][:, None] * model.transitions[seq.actions[t]]
                    * (p[t] * beta[t])[None, :]) / scale[t]
            xi[t - 1] = slab / slab.sum()
        for a in range(A):
            steps = np.flatnonzero(seq.actions[1:] == a)
            if steps.size:
                counts[a] += xi[steps].sum(axis=0)
        logliks.append(float(np.log(scale).sum() + shift.sum()))
    return np.vstack(gammas), counts, logliks


def ragged_fleet(model, lengths=(7, 1, 30, 2, 7), seed=0):
    """Sequences of the given lengths, out of length order, every other one failed."""
    rng = np.random.default_rng(seed)
    seqs = [Sequence(rng.normal(scale=3.0, size=(T, model.n_features)),
                     rng.integers(0, model.n_actions, size=T), failed=i % 2 == 0)
            for i, T in enumerate(lengths)]
    return Dataset(seqs, list(model.action_labels)).validate()


@pytest.mark.parametrize("emission_mode", ["shared", "action"])
@pytest.mark.parametrize("seed", [0, 1])
def test_fleet_pass_matches_per_sequence_recursion_bit_for_bit(seed, emission_mode):
    rng = np.random.default_rng(seed)
    model = random_model(rng, K=4, A=3, emission_mode=emission_mode, constrained=True)
    model.transitions[1, 0, 2] = 0.0    # zero entries inside the allowed band too
    model.transitions /= model.transitions.sum(axis=2, keepdims=True)
    data = ragged_fleet(model, seed=seed)
    post = forward_backward(data, model)
    gamma, counts, logliks = reference_pass(data, model)
    assert np.array_equal(post.gamma, gamma)
    assert np.array_equal(post.counts, counts)
    assert post.logliks.tolist() == logliks
    assert post.loglik == sum(logliks)
    assert post.xi is None
    # one sequence is the same kernel; it also keeps its pairwise marginals per step
    one = forward_backward(data.sequences[2], model)
    assert np.array_equal(one.gamma, post.gamma[8:38])
    assert one.logliks.tolist() == [logliks[2]]
    assert one.xi.shape == (29, 4, 4)
    assert loglik(data, model) == post.loglik


def reference_gem(dataset, model, config, n_iters):
    """The GEM loop one sequence at a time: E-step by reference_pass, clamp of
    failed last epochs, weighted M-step, projection."""
    X = dataset.pooled_obs()
    acts = np.concatenate([s.actions for s in dataset.sequences])
    ends = np.cumsum([s.obs.shape[0] for s in dataset.sequences]) - 1
    trace = []
    for _ in range(n_iters):
        W, counts, logliks = reference_pass(dataset, model)
        trace.append(float(sum(logliks)))
        for seq, end in zip(dataset.sequences, ends):
            if seq.failed:
                W[end] = 0.0
                W[end, -1] = 1.0
        transitions = model.transitions.copy()
        row_tot = counts.sum(axis=2)
        transitions[row_tot > 0] = counts[row_tot > 0] / row_tot[row_tot > 0][:, None]
        if model.emission_mode == "shared":
            means, covs = weighted_gaussians(W, X, model.means, model.covariances,
                                             config.ridge)
        else:
            means, covs = model.means.copy(), model.covariances.copy()
            for a in range(model.n_actions):
                if (acts == a).any():
                    means[a], covs[a] = weighted_gaussians(W[acts == a], X[acts == a],
                                                           means[a], covs[a], config.ridge)
        model = enforce_left_to_right(IohmmModel(
            model.action_labels, transitions, means, covs, model.initial.copy(),
            emission_mode=model.emission_mode))
    return model, trace


@pytest.mark.parametrize("emission_mode", ["shared", "action"])
def test_gem_fit_matches_reference_loop(emission_mode):
    truth = left_to_right_model()
    data = sample_dataset(truth, n_seqs=6, T=12, seed=7)
    data.sequences[1] = Sequence(data.sequences[1].obs[:1], data.sequences[1].actions[:1])
    data.sequences[4] = Sequence(data.sequences[4].obs[:5], data.sequences[4].actions[:5],
                                 failed=True)
    config = GemConfig(n_states=3, emission_mode=emission_mode, max_iters=4, tol=0.0)
    init = init_kmeans(data, config)
    model, trace = gem_fit(data, config, init=init)
    ref_model, ref_trace = reference_gem(data, init, config, n_iters=4)
    assert trace == ref_trace
    for name in ("transitions", "means", "covariances", "initial"):
        assert np.array_equal(getattr(model, name), getattr(ref_model, name)), name


def test_zero_probability_names_first_sequence_in_dataset_order():
    # sequence 0 becomes impossible at epoch 3; sequence 1, which the
    # time-major walk reaches first, at epoch 0
    model = IohmmModel(action_labels=("a0",),
                       transitions=np.array([[[1.0, 0.0], [0.0, 1.0]]]),
                       means=np.array([[0.0], [1e8]]),
                       covariances=np.array([[[1e-4]], [[1e-4]]]),
                       initial=np.array([1.0, 0.0]))
    data = Dataset([Sequence(np.array([[0.0], [0.0], [0.0], [1e8]]), np.zeros(4)),
                    Sequence(np.array([[1e8], [0.0]]), np.zeros(2))], ["a0"])
    with pytest.raises(NumericalError, match="sequence 0 has zero probability under the "
                                             "model at epoch 3"):
        forward_backward(data, model)
    with pytest.raises(NumericalError, match="sequence 0 .* at epoch 0"):
        forward_filter(data.sequences[1], model)
