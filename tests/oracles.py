"""Independent reference implementations used to pin test expectations.

Deliberately naive: hidden-path enumeration for posterior quantities,
dense value iteration for fully observable planning, and a simulator that
steps one run and one epoch at a time. Nothing here shares code with the
package under test beyond the data containers.
"""
from __future__ import annotations

import itertools
from bisect import bisect_right

import numpy as np
from scipy.stats import multivariate_normal


def enumerate_posteriors(seq, model):
    """Exact gamma, xi, and loglik by summing over every hidden state path.

    Only feasible for tiny K and T; complexity K**T.
    """
    K = model.n_states
    T = seq.obs.shape[0]

    def emission(t: int, state: int) -> float:
        if model.emission_mode == "shared":
            mean, cov = model.means[state], model.covariances[state]
        else:
            a = seq.actions[t]
            mean, cov = model.means[a, state], model.covariances[a, state]
        return float(multivariate_normal.pdf(seq.obs[t], mean=mean, cov=cov))

    gamma = np.zeros((T, K))
    xi = np.zeros((max(T - 1, 0), K, K))
    total = 0.0
    for path in itertools.product(range(K), repeat=T):
        p = model.initial[path[0]] * emission(0, path[0])
        for t in range(1, T):
            p *= model.transitions[seq.actions[t]][path[t - 1], path[t]]
            p *= emission(t, path[t])
        total += p
        for t in range(T):
            gamma[t, path[t]] += p
        for t in range(1, T):
            xi[t - 1, path[t - 1], path[t]] += p
    return gamma / total, xi / total, float(np.log(total))


def mdp_value_iteration(transition, reward, discount, tol=1e-12, max_iters=100000):
    """Exact optimal values and greedy policy for a fully observable MDP.

    transition: (A, S, S) row-stochastic, reward: (A, S) for taking action a
    in state s before the transition.
    """
    transition = np.asarray(transition, dtype=float)
    reward = np.asarray(reward, dtype=float)
    S = transition.shape[1]
    V = np.zeros(S)
    for _ in range(max_iters):
        Q = reward + discount * (transition @ V)
        newV = Q.max(axis=0)
        if np.max(np.abs(newV - V)) < tol:
            V = newV
            break
        V = newV
    Q = reward + discount * (transition @ V)
    return V, Q.argmax(axis=0)


def exact_belief_update(belief, X_a, Z_a, obs):
    """Textbook Bayes filter step written independently of the package."""
    predicted = np.asarray(belief, dtype=float) @ np.asarray(X_a, dtype=float)
    unnorm = predicted * np.asarray(Z_a, dtype=float)[:, obs]
    return unnorm / unnorm.sum()


def per_run_simulate(model, policy_source, horizon, n_runs, seed):
    """Monte-Carlo rollouts one run and one epoch at a time.

    The same sampling contract as the package's simulator: run i draws
    2 * horizon uniforms from default_rng(seed ^ i); epoch t samples the next
    state with u[2t] and the symbol with u[2t + 1] by inverse CDF, and a
    zero-probability symbol leaves the belief at its renormalized
    prediction. policy_source is a Policy (greedy on its alphas), an action
    label, or a callable from belief to action label. Returns (totals,
    discounted, action counts, failure epochs).
    """
    A, S = model.n_actions, model.n_states
    labels = list(model.action_labels)
    cum_X = [[list(np.cumsum(model.transition[a][s])) for s in range(S)] for a in range(A)]
    cum_Z = [[list(np.cumsum(model.observation[a][s])) for s in range(S)] for a in range(A)]
    reward = [[float(v) for v in row] for row in model.reward]

    def pick(belief):
        if isinstance(policy_source, str):
            return labels.index(policy_source)
        if hasattr(policy_source, "alphas"):
            return int(policy_source.alpha_actions[np.argmax(policy_source.alphas @ belief)])
        return labels.index(policy_source(belief))

    totals, discounted = np.empty(n_runs), np.empty(n_runs)
    counts = np.zeros(A, dtype=int)
    failures = 0
    for i in range(n_runs):
        u = np.random.default_rng(seed ^ i).random(2 * horizon)
        state, total, disc, g = 0, 0.0, 0.0, 1.0
        belief = np.eye(S)[0]
        for t in range(horizon):
            a = pick(belief)
            counts[a] += 1
            total += reward[a][state]
            disc += g * reward[a][state]
            g *= model.discount
            failures += state == S - 1
            state = bisect_right(cum_X[a][state], u[2 * t])
            o = bisect_right(cum_Z[a][state], u[2 * t + 1])
            predicted = belief @ model.transition[a]
            unnorm = predicted * model.observation[a][:, o]
            belief = (unnorm / unnorm.sum() if unnorm.sum() > 1e-300
                      else predicted / predicted.sum())
        totals[i], discounted[i] = total, disc
    return totals, discounted, counts, failures


def per_belief_rul(belief, model, action, horizon, quantiles):
    """predict_rul one belief at a time: propagate b @ X[a] step by step and
    record the first step at which the failure mass reaches each sorted
    quantile. action is an index or a callable belief -> index. Returns
    (values in the given quantile order, censored)."""
    pick = action if callable(action) else (lambda _b: action)
    b = np.asarray(belief, dtype=float).copy()
    b /= b.sum()
    todo = sorted(quantiles)
    values = {}
    step = 0
    while True:
        while todo and b[-1] >= todo[0] - 1e-12:
            values[todo.pop(0)] = step
        if not todo or step >= horizon:
            break
        b = b @ model.transitions[int(pick(b))]
        step += 1
    for q in todo:
        values[q] = horizon
    return tuple(values[q] for q in quantiles), bool(todo)
