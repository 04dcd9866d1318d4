import logging

import numpy as np
import pytest

from cbmpomdp import (DecisionContext, GmmModel, Policy, PomdpModel,
                      belief_from_symbols, belief_update, decide_from_features,
                      decide_recursive, decide_stateless, run_session,
                      windows_to_features)
from cbmpomdp.errors import DataError, NumericalError

B2 = np.array([[0.9, 0.1], [0.2, 0.8]])


def scalar_gmm():
    return GmmModel(weights=np.array([0.5, 0.5]),
                    means=np.array([[0.0], [10.0]]),
                    covariances=np.array([[[1.0]], [[1.0]]]))


def two_state_pomdp(Z_row_state1=(0.2, 0.8)):
    X = np.array([[[0.7, 0.3], [0.0, 1.0]],
                  [[1.0, 0.0], [1.0, 0.0]]])
    Z0 = np.array([[0.9, 0.1], list(Z_row_state1)])
    Z = np.tile(Z0, (2, 1, 1))
    R = np.array([[1.0, -10.0], [-3.0, -3.0]])
    return PomdpModel(action_labels=("run", "PM"), transition=X, observation=Z,
                      reward=R, discount=0.9).validate()


def make_ctx(belief_mode="verbatim", with_pomdp=True, **pomdp_kw):
    pomdp = two_state_pomdp(**pomdp_kw)
    policy = Policy(alphas=np.array([[10.0, 0.0], [0.0, 10.0]]),
                    alpha_actions=np.array([0, 1]),
                    action_labels=list(pomdp.action_labels), discount=0.9)
    return DecisionContext(gmm=scalar_gmm(), obs_to_state=pomdp.observation[0],
                           policy=policy, pomdp=pomdp if with_pomdp else None,
                           belief_mode=belief_mode)


def test_belief_from_symbols_verbatim_hand():
    ctx = make_ctx()
    ctx.obs_to_state = B2
    b = belief_from_symbols(ctx, np.array([1.0, 0.0]))
    np.testing.assert_allclose(b, [0.9 / 1.1, 0.2 / 1.1], atol=1e-15)


def test_belief_from_symbols_bayes_hand():
    ctx = make_ctx(belief_mode="bayes")
    ctx.obs_to_state = B2
    b = belief_from_symbols(ctx, np.array([0.5, 0.5]))
    # column posteriors under a uniform prior: [9/11, 2/11] and [1/9, 8/9]
    expected = 0.5 * np.array([9 / 11, 2 / 11]) + 0.5 * np.array([1 / 9, 8 / 9])
    np.testing.assert_allclose(b, expected, atol=1e-12)
    # mixing differs from verbatim renormalization when column masses differ
    ctx.belief_mode = "verbatim"
    v = belief_from_symbols(ctx, np.array([0.5, 0.5]))
    assert np.abs(v - b).max() > 1e-3


def test_belief_from_symbols_state_prior():
    ctx = make_ctx(belief_mode="bayes")
    ctx.obs_to_state = B2
    ctx.state_prior = np.array([1.0, 0.0])
    b = belief_from_symbols(ctx, np.array([0.3, 0.7]))
    np.testing.assert_allclose(b, [1.0, 0.0], atol=1e-12)


def test_belief_from_symbols_zero_column_guard():
    ctx = make_ctx(belief_mode="bayes")
    ctx.obs_to_state = np.array([[1.0, 0.0], [1.0, 0.0]])
    b = belief_from_symbols(ctx, np.array([0.5, 0.5]))
    np.testing.assert_allclose(b, [0.5, 0.5], atol=1e-12)


def test_belief_from_symbols_all_zero_raises():
    ctx = make_ctx()
    ctx.obs_to_state = np.zeros((2, 2))
    with pytest.raises(NumericalError):
        belief_from_symbols(ctx, np.array([0.5, 0.5]))


def test_belief_from_symbols_unknown_mode():
    ctx = make_ctx()
    ctx.belief_mode = "magic"
    with pytest.raises(DataError):
        belief_from_symbols(ctx, np.array([1.0, 0.0]))


def test_decide_from_features_end_to_end():
    ctx = make_ctx()
    healthy = decide_from_features(np.array([0.0]), ctx)
    assert healthy.symbol == 0
    assert healthy.action == "run" and healthy.action_idx == 0
    assert healthy.belief[0] > 0.7
    worn = decide_from_features(np.array([10.0]), ctx)
    assert worn.symbol == 1
    assert worn.action == "PM" and worn.action_idx == 1
    # value equals the policy surface at the belief
    v, a = ctx.policy.value(worn.belief)
    assert (worn.value, worn.action_idx) == (v, a)


def test_decide_from_features_is_pure():
    ctx = make_ctx()
    x = np.array([3.0])
    first = decide_from_features(x, ctx)
    second = decide_from_features(x, ctx)
    assert first.action == second.action
    np.testing.assert_array_equal(first.belief, second.belief)
    np.testing.assert_array_equal(first.symbol_probs, second.symbol_probs)


def test_decide_from_features_rejects_nan():
    ctx = make_ctx()
    with pytest.raises(DataError):
        decide_from_features(np.array([float("nan")]), ctx)


def window_gmm():
    """Symbols anchored at the feature vectors of two reference windows."""
    w0 = [1.0, -1.0, 1.0, -1.0]
    w1 = [5.0, -5.0, 5.0, -5.0]
    means = windows_to_features([w0, w1])
    covs = np.tile(0.01 * np.eye(11), (2, 1, 1))
    return GmmModel(weights=np.array([0.5, 0.5]), means=means, covariances=covs)


def make_window_ctx(**pomdp_kw):
    ctx = make_ctx(**pomdp_kw)
    ctx.gmm = window_gmm()
    return ctx


def test_decide_stateless_from_window():
    ctx = make_window_ctx()
    d = decide_stateless([1.0, -1.0, 1.0, -1.0], ctx)
    assert d.symbol == 0 and d.action == "run"
    d = decide_stateless([5.0, -5.0, 5.0, -5.0], ctx)
    assert d.symbol == 1 and d.action == "PM"


def test_decide_recursive_matches_manual_filter():
    ctx = make_window_ctx()
    prev = np.array([1.0, 0.0])
    d = decide_recursive([5.0, -5.0, 5.0, -5.0], prev, 0, ctx)
    assert d.symbol == 1
    expected = belief_update(prev, 0, 1, ctx.pomdp)
    np.testing.assert_allclose(d.belief, expected, atol=1e-12)
    v, a = ctx.policy.value(expected)
    assert (d.value, d.action_idx) == (v, a)


def test_decide_recursive_needs_pomdp():
    ctx = make_window_ctx()
    ctx.pomdp = None
    with pytest.raises(DataError):
        decide_recursive([1.0, -1.0], np.array([1.0, 0.0]), 0, ctx)


def test_decide_recursive_fallback_on_impossible_symbol(caplog):
    # state 1 never emits symbol 1; from an absorbed belief the filter sees a
    # zero-probability observation and falls back to the stateless path
    ctx = make_window_ctx(Z_row_state1=(1.0, 0.0))
    prev = np.array([0.0, 1.0])
    window = [5.0, -5.0, 5.0, -5.0]
    with caplog.at_level(logging.WARNING, logger="cbmpomdp.runtime"):
        d = decide_recursive(window, prev, 0, ctx)
    assert any("falling back" in r.message for r in caplog.records)
    stateless = decide_stateless(window, ctx)
    np.testing.assert_allclose(d.belief, stateless.belief, atol=1e-12)
    assert d.action == stateless.action


def test_run_session_stateless_rows():
    ctx = make_window_ctx()
    epochs = [[1.0, -1.0, 1.0, -1.0], [5.0, -5.0, 5.0, -5.0]]
    rows = run_session(epochs, ctx)
    assert [r["epoch"] for r in rows] == [0, 1]
    assert rows[0]["action"] == "run" and rows[1]["action"] == "PM"
    for r in rows:
        assert sum(r["belief"]) == pytest.approx(1.0, abs=1e-9)
        assert isinstance(r["value"], float)


def test_run_session_skips_bad_epochs():
    ctx = make_window_ctx()
    epochs = [[1.0, -1.0, 1.0, -1.0], [0.0, 0.0, 0.0, 0.0], [1.0, -1.0, 1.0, -1.0]]
    rows = run_session(epochs, ctx)
    assert "error" in rows[1] and "action" not in rows[1]
    assert rows[0]["action"] == rows[2]["action"] == "run"


def test_run_session_recursive_carries_belief():
    ctx = make_window_ctx()
    w0 = [1.0, -1.0, 1.0, -1.0]
    w1 = [5.0, -5.0, 5.0, -5.0]
    rows = run_session([w0, w1, w1], ctx, mode="recursive")
    seed = decide_stateless(w0, ctx)
    np.testing.assert_allclose(rows[0]["belief"], seed.belief, atol=1e-12)
    b1 = belief_update(seed.belief, seed.action_idx, 1, ctx.pomdp)
    np.testing.assert_allclose(rows[1]["belief"], b1, atol=1e-12)
    a1 = ctx.policy.value(b1)[1]
    b2 = belief_update(b1, a1, 1, ctx.pomdp)
    np.testing.assert_allclose(rows[2]["belief"], b2, atol=1e-12)


def test_run_session_recursive_needs_pomdp():
    ctx = make_window_ctx()
    ctx.pomdp = None
    with pytest.raises(DataError):
        run_session([[1.0, -1.0, 1.0, -1.0]] * 2, ctx, mode="recursive")


def test_run_session_features_input():
    ctx = make_ctx()
    rows = run_session(np.array([[0.0], [10.0]]), ctx, epochs_are_features=True)
    assert rows[0]["action"] == "run" and rows[1]["action"] == "PM"


def test_run_session_rejects_unknown_mode():
    ctx = make_ctx()
    with pytest.raises(DataError):
        run_session([], ctx, mode="sideways")
