import logging

import numpy as np
import pytest

from cbmpomdp import (CostTable, PbviConfig, Policy, PomdpModel, backup,
                      belief_update, build_pomdp, build_pomdp_from_matrices,
                      expand, expected_reward, observation_prob, pbvi_solve,
                      prune_alphas)
from cbmpomdp.bearing import (CAPACITY_LABELS, CAPACITY_TRANSITIONS, COST_TABLE,
                              OBSERVATION_MATRIX, bearing_pomdp)
from cbmpomdp.errors import DataError
from cbmpomdp.pomdp import ZeroProbabilityObservation, _filter
from oracles import exact_belief_update, mdp_value_iteration
from synth import left_to_right_model


def tiny_pomdp(discount=0.9):
    """Two states, one capacity action plus PM, identity-ish observations."""
    X = np.array([[[0.9, 0.1], [0.0, 1.0]],
                  [[1.0, 0.0], [1.0, 0.0]]])
    Z = np.tile(np.array([[0.8, 0.2], [0.3, 0.7]]), (2, 1, 1))
    R = np.array([[1.0, -10.0], [-3.0, -3.0]])
    return PomdpModel(action_labels=("run", "PM"), transition=X, observation=Z,
                      reward=R, discount=discount).validate()


def random_pomdp(rng, S=3, A=2, O=3, discount=0.9, identity_obs=False):
    X = rng.random((A, S, S)) + 0.05
    X /= X.sum(axis=2, keepdims=True)
    if identity_obs:
        Z = np.tile(np.eye(S), (A, 1, 1))
    else:
        Z = rng.random((A, S, O)) + 0.05
        Z /= Z.sum(axis=2, keepdims=True)
    R = rng.normal(scale=3.0, size=(A, S))
    return PomdpModel(action_labels=tuple(f"a{i}" for i in range(A)),
                      transition=X, observation=Z, reward=R,
                      discount=discount).validate()


# ---------------------------------------------------------------------------
# belief machinery


def test_belief_update_hand_case():
    model = tiny_pomdp()
    b = belief_update(np.array([1.0, 0.0]), 0, 0, model)
    np.testing.assert_allclose(b, np.array([0.72, 0.03]) / 0.75, atol=1e-15)


def test_belief_update_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        model = random_pomdp(rng)
        b = rng.random(3)
        b /= b.sum()
        a = int(rng.integers(2))
        o = int(rng.integers(3))
        ours = belief_update(b, a, o, model)
        ref = exact_belief_update(b, model.transition[a], model.observation[a], o)
        np.testing.assert_allclose(ours, ref, atol=1e-12)
        assert ours.sum() == pytest.approx(1.0, abs=1e-12)


def test_belief_update_zero_probability_raises():
    X = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    Z = np.array([[[1.0, 0.0], [1.0, 0.0]]])  # symbol 1 unreachable
    R = np.zeros((1, 2))
    model = PomdpModel(action_labels=("a",), transition=X, observation=Z,
                       reward=R, discount=0.9)
    with pytest.raises(ZeroProbabilityObservation):
        belief_update(np.array([1.0, 0.0]), 0, 1, model)


def test_filter_stack_falls_back_to_prediction_per_row():
    # symbol 1 is impossible from state 0; row 0 predicts onto state 0 alone
    X = np.array([[[0.5, 0.5], [0.0, 1.0]], [[1.0, 0.0], [1.0, 0.0]]])
    Z = np.tile(np.array([[1.0, 0.0], [0.3, 0.7]]), (2, 1, 1))
    model = PomdpModel(action_labels=("a", "b"), transition=X, observation=Z,
                       reward=np.zeros((2, 2)), discount=0.9).validate()
    beliefs = np.array([[0.5, 0.0], [0.5, 0.5], [0.2, 0.8]])
    rows, ok = _filter(beliefs, np.array([1, 0, 1]), np.array([1, 1, 0]), model)
    np.testing.assert_array_equal(ok, [False, True, True])
    np.testing.assert_array_equal(rows[0], [1.0, 0.0])  # the renormalized prediction
    for i, (a, o) in enumerate(((0, 1), (1, 0)), start=1):
        np.testing.assert_array_equal(rows[i], belief_update(beliefs[i], a, o, model))


def test_belief_update_accepts_action_labels():
    model = tiny_pomdp()
    by_idx = belief_update(np.array([0.5, 0.5]), 1, 1, model)
    by_label = belief_update(np.array([0.5, 0.5]), "PM", 1, model)
    np.testing.assert_array_equal(by_idx, by_label)


def test_expected_reward_and_observation_prob():
    model = tiny_pomdp()
    b = np.array([0.5, 0.5])
    assert expected_reward(b, 0, model) == pytest.approx(0.5 * 1.0 - 0.5 * 10.0)
    # action 0 from uniform: predicted = [0.45, 0.55]; P(o=0) = 0.45*0.8 + 0.55*0.3
    assert observation_prob(b, 0, 0, model) == pytest.approx(0.45 * 0.8 + 0.55 * 0.3,
                                                             abs=1e-12)


# ---------------------------------------------------------------------------
# model container


def test_cost_table_matrix():
    m = COST_TABLE.matrix(5)
    assert m.shape == (4, 6)
    np.testing.assert_array_equal(m[0], [1.2] * 5 + [-25.0])
    np.testing.assert_array_equal(m[1], [1.3] * 5 + [-25.0])
    np.testing.assert_array_equal(m[2], [1.5] * 5 + [-25.0])
    np.testing.assert_array_equal(m[3], [-6.0] * 5 + [-25.0])


def test_validate_rejects_bad_rows():
    model = tiny_pomdp()
    broken = PomdpModel(action_labels=model.action_labels,
                        transition=model.transition * 1.1,
                        observation=model.observation,
                        reward=model.reward, discount=0.9)
    with pytest.raises(DataError):
        broken.validate()


def test_validate_rejects_bad_discount():
    model = tiny_pomdp()
    for gamma in (1.0, -0.1, 1.5):
        bad = PomdpModel(action_labels=model.action_labels,
                         transition=model.transition,
                         observation=model.observation,
                         reward=model.reward, discount=gamma)
        with pytest.raises(DataError):
            bad.validate()


def test_action_index_lookup():
    model = tiny_pomdp()
    assert model.action_index("PM") == 1
    assert model.action_index(0) == 0
    with pytest.raises(DataError):
        model.action_index("nope")


def test_pomdp_serialization_roundtrip(tmp_path):
    model = bearing_pomdp()
    p1 = tmp_path / "m.json"
    model.save(p1)
    back = PomdpModel.load(p1)
    np.testing.assert_array_equal(back.transition, model.transition)
    np.testing.assert_array_equal(back.observation, model.observation)
    np.testing.assert_array_equal(back.reward, model.reward)
    assert back.discount == model.discount
    p2 = tmp_path / "m2.json"
    back.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# solver pieces


def test_backup_myopic_when_undiscounted():
    model = tiny_pomdp(discount=0.0)
    alphas = np.zeros((1, 2))
    b = np.array([1.0, 0.0])
    vec, act = backup(b, alphas, model)
    assert act == 0
    np.testing.assert_array_equal(vec, model.reward[0])
    vec, act = backup(np.array([0.0, 1.0]), alphas, model)
    assert act == 1  # PM pays -3 after reset vs run paying -10 in failure
    np.testing.assert_array_equal(vec, model.reward[1])


def test_backup_single_alpha_hand_math():
    model = tiny_pomdp(discount=0.5)
    alpha = np.array([[2.0, -4.0]])
    b = np.array([0.6, 0.4])
    vec, act = backup(b, alpha, model)
    best_val = -np.inf
    for a in range(2):
        X, Z = model.transition[a], model.observation[a]
        manual = model.reward[a].astype(float).copy()
        for o in range(2):
            G = X @ (Z[:, o][:, None] * alpha.T)
            manual += 0.5 * G[:, 0]
        val = manual @ b
        if val > best_val:
            best_val, best_vec, best_act = val, manual, a
    assert act == best_act
    np.testing.assert_allclose(vec, best_vec, atol=1e-12)


def test_backup_batch_matches_hand_math_per_row():
    # several beliefs and alphas; upper-triangular transitions with identity
    # observations leave some symbols unreachable from some beliefs
    rng = np.random.default_rng(3)
    base = random_pomdp(rng, S=4, A=3, O=4, identity_obs=True)
    X = np.triu(base.transition)
    X /= X.sum(axis=2, keepdims=True)
    model = PomdpModel(action_labels=base.action_labels, transition=X,
                       observation=base.observation, reward=base.reward,
                       discount=0.8).validate()
    alphas = rng.normal(scale=5.0, size=(6, 4))
    beliefs = np.vstack([np.eye(4), rng.dirichlet(np.full(4, 0.5), size=8)])
    vecs, acts = backup(beliefs, alphas, model)
    for b, vec, act in zip(beliefs, vecs, acts):
        best_val = -np.inf
        for a in range(3):
            X_a, Z_a = model.transition[a], model.observation[a]
            manual = model.reward[a].astype(float).copy()
            for o in range(4):
                if (b @ X_a) @ Z_a[:, o] <= 0.0:
                    continue
                G = X_a @ (Z_a[:, o][:, None] * alphas.T)
                manual += 0.8 * G[:, np.argmax(b @ G)]
            val = manual @ b
            if val > best_val:
                best_val, best_vec, best_act = val, manual, a
        assert act == best_act
        np.testing.assert_allclose(vec, best_vec, atol=1e-12)
        one_vec, one_act = backup(b, alphas, model)
        assert one_act == act
        np.testing.assert_array_equal(one_vec, vec)


def test_prune_drops_dominated_and_duplicates():
    alphas = np.array([[1.0, 1.0], [0.5, 0.5], [1.0, 1.0], [2.0, 0.0]])
    actions = np.array([0, 1, 2, 3])
    kept, acts = prune_alphas(alphas, actions)
    np.testing.assert_array_equal(kept, [[1.0, 1.0], [2.0, 0.0]])
    np.testing.assert_array_equal(acts, [0, 3])  # first duplicate wins


def test_prune_matches_pairwise_loop():
    # the pairwise rule, one pair at a time: i falls to j when j >= i
    # everywhere and j is strictly better somewhere or an earlier duplicate
    rng = np.random.default_rng(5)
    alphas = rng.integers(0, 3, size=(40, 3)).astype(float)
    actions = np.arange(40)
    keep = [i for i in range(40)
            if not any(j != i and (alphas[j] >= alphas[i]).all()
                       and ((alphas[j] > alphas[i]).any() or j < i)
                       for j in range(40))]
    kept, acts = prune_alphas(alphas, actions)
    np.testing.assert_array_equal(acts, keep)
    np.testing.assert_array_equal(kept, alphas[keep])


def test_prune_keeps_incomparable():
    alphas = np.array([[1.0, 0.0], [0.0, 1.0]])
    actions = np.array([0, 1])
    kept, acts = prune_alphas(alphas, actions)
    assert kept.shape == (2, 2)


def pairwise_keep(alphas):
    """The one-pair-at-a-time rule of test_prune_matches_pairwise_loop."""
    rows = alphas.tolist()
    return [i for i, a in enumerate(rows)
            if not any(j != i and all(x >= y for x, y in zip(b, a))
                       and (any(x > y for x, y in zip(b, a)) or j < i)
                       for j, b in enumerate(rows))]


@pytest.mark.parametrize("width", [1, 2, 6, 8])
@pytest.mark.parametrize("n", [2, 37, 150])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prune_matches_pairwise_rule_with_ties(seed, n, width):
    # values from {0, 1, 2}: ties and exact duplicates are common
    rng = np.random.default_rng(seed)
    alphas = rng.integers(0, 3, size=(n, width)).astype(float)
    actions = rng.integers(0, 4, size=n)
    keep = pairwise_keep(alphas)
    kept, acts = prune_alphas(alphas, actions)
    np.testing.assert_array_equal(kept, alphas[keep])
    np.testing.assert_array_equal(acts, actions[keep])


@pytest.mark.parametrize("n", [0, 1])
def test_prune_passes_tiny_stacks_through(n):
    alphas, actions = np.ones((n, 3)), np.arange(n)
    kept, acts = prune_alphas(alphas, actions)
    np.testing.assert_array_equal(kept, alphas)
    np.testing.assert_array_equal(acts, actions)


def test_prune_all_equal_keeps_first():
    alphas = np.full((50, 4), 2.5)
    kept, acts = prune_alphas(alphas, np.arange(50))
    np.testing.assert_array_equal(kept, alphas[:1])
    np.testing.assert_array_equal(acts, [0])


def test_expand_reaches_new_corners():
    X = np.array([[[0.0, 1.0], [0.0, 1.0]]])
    Z = np.tile(np.eye(2), (1, 1, 1))
    model = PomdpModel(action_labels=("a",), transition=X, observation=Z,
                       reward=np.zeros((1, 2)), discount=0.9).validate()
    e0 = np.array([1.0, 0.0])
    grown = expand([e0], model)
    assert len(grown) == 2
    np.testing.assert_allclose(grown[1], [0.0, 1.0], atol=1e-12)
    # a second expansion finds nothing new
    again = expand(grown, model)
    assert len(again) == 2


def test_expand_deterministic():
    rng = np.random.default_rng(2)
    model = random_pomdp(rng)
    b0 = [np.array([1.0, 0.0, 0.0])]
    one = expand(b0, model)
    two = expand(b0, model)
    assert len(one) == len(two)
    for u, v in zip(one, two):
        np.testing.assert_array_equal(u, v)


def test_policy_value_and_ties():
    pol = Policy(alphas=np.array([[0.0, 10.0], [5.0, 5.0]]),
                 alpha_actions=np.array([1, 0]),
                 action_labels=["run", "PM"], discount=0.9)
    v, a = pol.value(np.array([0.0, 1.0]))
    assert (v, a) == (10.0, 1)
    v, a = pol.value(np.array([1.0, 0.0]))
    assert (v, a) == (5.0, 0)
    v, a = pol.value(np.array([0.5, 0.5]))
    assert (v, a) == (5.0, 1)  # tie resolved to the first vector
    assert pol.action_label(1) == "PM"


def test_pbvi_single_state_closed_form():
    model = PomdpModel(action_labels=("a",), transition=np.ones((1, 1, 1)),
                       observation=np.ones((1, 1, 1)),
                       reward=np.array([[2.0]]), discount=0.9).validate()
    pol = pbvi_solve(model, config=PbviConfig(improve_tol=1e-10,
                                              max_improve_sweeps=500,
                                              max_expansions=0))
    v, _ = pol.value(np.array([1.0]))
    assert v == pytest.approx(2.0 / 0.1, abs=1e-6)


def test_pbvi_matches_mdp_on_observable_model():
    rng = np.random.default_rng(7)
    model = random_pomdp(rng, S=3, A=2, identity_obs=True, discount=0.9)
    V, _ = mdp_value_iteration(model.transition, model.reward, 0.9)
    pol = pbvi_solve(model, config=PbviConfig(improve_tol=1e-9,
                                              max_improve_sweeps=400,
                                              max_expansions=5))
    for s in range(3):
        v, _ = pol.value(np.eye(3)[s])
        assert v == pytest.approx(V[s], abs=1e-3)


def test_pbvi_deterministic(tmp_path):
    model = bearing_pomdp()
    cfg = PbviConfig(improve_tol=1e-3, max_expansions=3)
    a = pbvi_solve(model, config=cfg)
    b = pbvi_solve(model, config=cfg)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    a.save(p1)
    b.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bearing_solve_work_is_pinned():
    # criterion 5/6 settings: a faster solve must do this same work
    pol = pbvi_solve(bearing_pomdp(), config=PbviConfig(improve_tol=1e-5, max_expansions=8))
    assert (pol.alphas.shape[0], len(pol.beliefs), pol.iterations) == (199, 256, 773)
    value, _ = pol.value(np.eye(pol.alphas.shape[1])[0])
    assert value == pytest.approx(21.327781931896883, abs=1e-9)


def test_pbvi_logs_summary_event(caplog):
    with caplog.at_level(logging.INFO, logger="cbmpomdp.pomdp"):
        pol = pbvi_solve(tiny_pomdp(), config=PbviConfig(max_expansions=2))
    rec, = [r for r in caplog.records if getattr(r, "event", None) == "pbvi_solve"]
    assert (rec.sweeps, rec.alphas, rec.beliefs, rec.residual) == (
        pol.iterations, pol.alphas.shape[0], len(pol.beliefs), pol.residual)
    assert rec.getMessage() == (f"pbvi: {rec.alphas} alpha vectors, {rec.beliefs} belief "
                                f"points, {rec.sweeps} sweeps, residual {rec.residual:.3g}")


def test_policy_serialization_roundtrip(tmp_path):
    model = tiny_pomdp()
    pol = pbvi_solve(model, config=PbviConfig(max_expansions=2,
                                              max_improve_sweeps=50))
    p1 = tmp_path / "p.json"
    pol.save(p1)
    back = Policy.load(p1)
    np.testing.assert_array_equal(back.alphas, pol.alphas)
    np.testing.assert_array_equal(back.alpha_actions, pol.alpha_actions)
    assert back.discount == pol.discount
    p2 = tmp_path / "p2.json"
    back.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# assembly


def test_build_from_matrices_bearing_structure():
    model = bearing_pomdp()
    assert model.action_labels == tuple(CAPACITY_LABELS) + ("PM",)
    S = model.n_states
    # failure row of every capacity action returns to the best state
    for a in range(3):
        np.testing.assert_array_equal(model.transition[a][S - 1],
                                      np.eye(S)[0])
    # PM returns every state to the best state
    np.testing.assert_array_equal(model.transition[3], np.tile(np.eye(S)[0], (S, 1)))
    # published observation rows are lightly rounded; assembly renormalizes
    np.testing.assert_allclose(model.observation.sum(axis=2), 1.0, atol=1e-12)
    assert np.abs(OBSERVATION_MATRIX.sum(axis=1) - 1.0).max() > 1e-5
    # all actions share the same symbol model
    for a in range(1, 4):
        np.testing.assert_array_equal(model.observation[a], model.observation[0])
    np.testing.assert_array_equal(model.reward, COST_TABLE.matrix(5))
    # operating rows match the published matrices after renormalization
    for a in range(3):
        rows = CAPACITY_TRANSITIONS[a][:5]
        np.testing.assert_allclose(model.transition[a][:5],
                                   rows / rows.sum(axis=1, keepdims=True),
                                   atol=1e-12)


def test_build_from_matrices_rejects_garbage():
    bad = CAPACITY_TRANSITIONS.copy()
    bad[0, 0] *= 2.0
    with pytest.raises(DataError):
        build_pomdp_from_matrices(bad, OBSERVATION_MATRIX, COST_TABLE)
    with pytest.raises(DataError):
        build_pomdp_from_matrices(CAPACITY_TRANSITIONS, OBSERVATION_MATRIX[:3],
                                  COST_TABLE)
    with pytest.raises(DataError):
        build_pomdp_from_matrices(CAPACITY_TRANSITIONS, OBSERVATION_MATRIX,
                                  np.zeros((2, 6)))


def test_build_pomdp_requires_absorbing_failure():
    model = left_to_right_model()
    leaky = model.transitions.copy()
    leaky[0, 2, 2] = 0.9
    leaky[0, 2, 0] = 0.1
    from cbmpomdp import IohmmModel
    bad = IohmmModel(action_labels=model.action_labels, transitions=leaky,
                     means=model.means, covariances=model.covariances,
                     initial=model.initial)
    with pytest.raises(DataError):
        build_pomdp(bad, None, CostTable((1.0, 1.2), -6.0, -25.0),
                    obs_matrix=np.full((3, 3), 1 / 3))


def test_build_pomdp_from_model_and_gmm():
    from cbmpomdp import GmmModel
    model = left_to_right_model()  # absorbing last state, K=3
    gmm = GmmModel(weights=np.full(3, 1 / 3), means=model.means.copy(),
                   covariances=model.covariances.copy())
    pomdp = build_pomdp(model, gmm, CostTable((1.0, 1.2), -6.0, -25.0),
                        discount=0.9, seed=0)
    assert pomdp.n_states == 3 and pomdp.n_actions == 3 and pomdp.n_obs == 3
    assert pomdp.action_labels == ("a0", "a1", "PM")
    # emissions are well separated, so the symbol map is nearly diagonal
    Z = pomdp.observation[0]
    assert (np.argmax(Z, axis=1) == np.arange(3)).all()
    assert Z.diagonal().min() > 0.95
    # operating rows of capacity actions keep the degradation dynamics
    np.testing.assert_allclose(pomdp.transition[0][:2], model.transitions[0][:2],
                               atol=1e-12)


def test_build_pomdp_hazard_appends_failure_state():
    model = left_to_right_model()
    hazard = np.array([0.1, 0.2, 0.3])
    obs = np.eye(3)
    pomdp = build_pomdp(model, None, CostTable((1.0, 1.2), -6.0, -25.0),
                        failure_hazard=hazard, obs_matrix=obs, discount=0.9)
    assert pomdp.n_states == 4
    X = pomdp.transition
    for a in range(2):
        np.testing.assert_allclose(X[a][:3, 3], hazard, atol=1e-12)
        np.testing.assert_allclose(X[a][:3, :3],
                                   model.transitions[a] * (1 - hazard)[:, None],
                                   atol=1e-12)
        np.testing.assert_array_equal(X[a][3], np.eye(4)[0])
    # failure state inherits the last operating state's symbol row
    np.testing.assert_array_equal(pomdp.observation[0][3], pomdp.observation[0][2])
    # reward table gained the failure column
    np.testing.assert_array_equal(pomdp.reward[:, 3], [-25.0, -25.0, -25.0])


def test_build_pomdp_hazard_per_action_and_custom_row():
    model = left_to_right_model()
    hazard = np.array([[0.1, 0.1, 0.1], [0.0, 0.2, 0.4]])
    fail_row = np.array([0.0, 0.0, 1.0])
    pomdp = build_pomdp(model, None, CostTable((1.0, 1.2), -6.0, -25.0),
                        failure_hazard=hazard, obs_matrix=np.eye(3),
                        failure_obs_row=fail_row, discount=0.9)
    np.testing.assert_allclose(pomdp.transition[1][:3, 3], hazard[1], atol=1e-12)
    np.testing.assert_array_equal(pomdp.observation[0][3], fail_row)
