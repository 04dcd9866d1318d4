"""Discrete POMDP over degradation states and point-based value iteration.

The model couples per-action transition matrices (capacity choices plus a
preventive-maintenance action that returns the machine to the best state),
a state-to-symbol observation matrix, and a per-(action, state) reward
table. The solver is point-based value iteration: backups over a growing
set of belief points, with pointwise-dominance pruning and farthest-point
belief expansion.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _json
from .errors import DataError, NumericalError
from .gmm import GmmModel, factor_gaussians, responsibilities

log = logging.getLogger(__name__)

#: label of the preventive-maintenance action, always the last action
PM_LABEL = "PM"


class ZeroProbabilityObservation(NumericalError):
    pass


@dataclass(frozen=True)
class CostTable:
    """Reward structure: production reward per capacity while operating,
    a preventive-maintenance cost, and a corrective (failure) cost."""
    capacity_rewards: tuple
    pm_cost: float
    failure_cost: float

    def matrix(self, n_operating: int) -> np.ndarray:
        rows = [[c] * n_operating + [self.failure_cost] for c in self.capacity_rewards]
        rows.append([self.pm_cost] * n_operating + [self.failure_cost])
        return np.array(rows, dtype=float)


@dataclass
class PomdpModel:
    """(A, S, S) transitions, (A, S, O) observation rows per arrival state,
    (A, S) rewards, and a discount in [0, 1)."""
    action_labels: tuple
    transition: np.ndarray
    observation: np.ndarray
    reward: np.ndarray
    discount: float

    def __post_init__(self):
        self.action_labels = tuple(self.action_labels)

    @property
    def n_states(self) -> int:
        return self.transition.shape[1]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[0]

    @property
    def n_obs(self) -> int:
        return self.observation.shape[2]

    def validate(self) -> "PomdpModel":
        A, S, O = self.n_actions, self.n_states, self.n_obs
        if len(self.action_labels) != A:
            raise DataError(f"{len(self.action_labels)} labels for {A} actions")
        if self.transition.shape != (A, S, S):
            raise DataError(f"transition shape {self.transition.shape}")
        if self.observation.shape != (A, S, O):
            raise DataError(f"observation shape {self.observation.shape}")
        if self.reward.shape != (A, S):
            raise DataError(f"reward shape {self.reward.shape}")
        if not np.isfinite(self.reward).all():
            raise DataError("non-finite rewards")
        if not (0.0 <= self.discount < 1.0):
            raise DataError(f"discount {self.discount} outside [0, 1)")
        for name, tensor in (("transition", self.transition), ("observation", self.observation)):
            if (tensor < -1e-12).any():
                raise DataError(f"negative entries in {name} matrix")
            sums = tensor.sum(axis=2)
            if np.abs(sums - 1.0).max() > 1e-9:
                raise DataError(f"{name} rows must sum to 1 (max deviation "
                                f"{np.abs(sums - 1.0).max():.3e})")
        return self

    def action_index(self, action) -> int:
        if isinstance(action, str):
            if action not in self.action_labels:
                raise DataError(f"unknown action label {action!r}")
            return self.action_labels.index(action)
        a = int(action)
        if not 0 <= a < self.n_actions:
            raise DataError(f"action index {a} out of range")
        return a

    def to_dict(self) -> dict:
        return {
            "kind": "pomdp",
            "action_labels": list(self.action_labels),
            "transition": self.transition.tolist(),
            "observation": self.observation.tolist(),
            "reward": self.reward.tolist(),
            "discount": self.discount,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PomdpModel":
        if d.get("kind") != "pomdp":
            raise DataError(f"not a pomdp model file (kind={d.get('kind')!r})")
        return cls(
            action_labels=tuple(d["action_labels"]),
            transition=np.asarray(d["transition"], dtype=float),
            observation=np.asarray(d["observation"], dtype=float),
            reward=np.asarray(d["reward"], dtype=float),
            discount=float(d["discount"]),
        ).validate()

    save = _json.save
    load = classmethod(_json.load)


def expected_reward(belief: np.ndarray, action, model: PomdpModel) -> float:
    return float(model.reward[model.action_index(action)] @ belief)


def observation_prob(belief: np.ndarray, action, obs: int, model: PomdpModel) -> float:
    a = model.action_index(action)
    return float((belief @ model.transition[a]) @ model.observation[a][:, obs])


def _filter(beliefs: np.ndarray, a: np.ndarray, o: np.ndarray,
            model: PomdpModel) -> tuple[np.ndarray, np.ndarray]:
    """Bayes filter step for every row of an (N, S) belief stack: predict row
    i through action a[i]'s transitions, weight by the arrival state's
    likelihood of symbol o[i], renormalize. Returns (rows, ok); a row whose
    symbol has zero probability comes back as the renormalized prediction,
    with ok False."""
    pred = np.matmul(beliefs[:, None, :], model.transition[a])[:, 0]
    num = model.observation[a, :, o] * pred
    denom = num.sum(axis=1)
    ok = denom > 1e-300
    rows = np.where(ok[:, None], num, pred)
    return rows / np.where(ok, denom, pred.sum(axis=1))[:, None], ok


def belief_update(belief: np.ndarray, action, obs: int, model: PomdpModel) -> np.ndarray:
    """The Bayes filter step for an action index or label; a zero-probability
    observation raises ZeroProbabilityObservation."""
    a = model.action_index(action)
    rows, ok = _filter(np.asarray(belief, dtype=float)[None], np.array([a]),
                       np.array([obs]), model)
    if not ok[0]:
        raise ZeroProbabilityObservation(
            f"observation {obs} has zero probability under action "
            f"{model.action_labels[a]!r} at this belief")
    return rows[0]


# ---------------------------------------------------------------------------
# Point-based value iteration


@dataclass
class PbviConfig:
    improve_tol: float = 1e-4
    max_improve_sweeps: int = 100
    max_expansions: int = 6


@dataclass
class Policy:
    """Max-plane value function: value(b) = max_i alphas[i] . b, and the
    action attached to the maximizing vector (ties to the lowest index)."""
    alphas: np.ndarray           # (n, S)
    alpha_actions: np.ndarray    # (n,)
    action_labels: tuple
    discount: float
    beliefs: np.ndarray | None = None
    iterations: int = 0
    residual: float = float("nan")

    def __post_init__(self):
        self.action_labels = tuple(self.action_labels)

    def value(self, belief: np.ndarray) -> tuple:
        """(value, action index) at a belief, or (values (N,), action indices
        (N,)) at each row of an (N, S) belief stack."""
        scores = self.alphas @ np.asarray(belief, dtype=float).T
        best = np.argmax(scores, axis=0)
        if scores.ndim == 1:
            return float(scores[best]), int(self.alpha_actions[best])
        return scores.max(axis=0), self.alpha_actions[best]

    def action_label(self, action_idx: int) -> str:
        return self.action_labels[action_idx]

    def to_dict(self) -> dict:
        return {
            "kind": "policy",
            "alphas": self.alphas.tolist(),
            "alpha_actions": self.alpha_actions.tolist(),
            "action_labels": list(self.action_labels),
            "discount": self.discount,
            "beliefs": None if self.beliefs is None else self.beliefs.tolist(),
            "iterations": self.iterations,
            "residual": self.residual,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Policy":
        if d.get("kind") != "policy":
            raise DataError(f"not a policy file (kind={d.get('kind')!r})")
        alphas = np.asarray(d["alphas"], dtype=float)
        alpha_actions = np.asarray(d["alpha_actions"], dtype=int)
        action_labels = tuple(d["action_labels"])
        if alphas.ndim != 2 or alpha_actions.shape != alphas.shape[:1]:
            raise DataError(f"policy needs 2-D alphas and one action per row, got "
                            f"shapes {alphas.shape} and {alpha_actions.shape}")
        if ((alpha_actions < 0) | (alpha_actions >= len(action_labels))).any():
            raise DataError(f"alpha actions must index the {len(action_labels)} action labels")
        return cls(
            alphas=alphas,
            alpha_actions=alpha_actions,
            action_labels=action_labels,
            discount=float(d["discount"]),
            beliefs=None if d["beliefs"] is None else np.asarray(d["beliefs"], dtype=float),
            iterations=int(d["iterations"]),
            residual=float(d["residual"]),
        )

    save = _json.save
    load = classmethod(_json.load)


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, with the bits of the 1-D x @ y."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _values(alphas: np.ndarray, beliefs: np.ndarray) -> np.ndarray:
    """max_i alphas[i] . b per belief row, with the bits of the 1-D alphas @ b."""
    return np.matmul(alphas, beliefs[:, :, None])[..., 0].max(axis=1)


def backup(beliefs: np.ndarray, alphas: np.ndarray, model: PomdpModel) -> tuple:
    """One point-based Bellman backup at each row of an (N, S) belief stack
    (Pineau, Gordon & Thrun 2003). Per action and observation, the candidate
    continuations G = X_a diag(Z_a[:, o]) alphas^T are formed once; each
    belief takes its best column, or none where the observation is
    unreachable from it. The action scoring highest at the belief wins (ties
    to the lowest index). Returns (vectors (N, S), action indices (N,)), or
    (vector (S,), action index) for a single belief."""
    single = np.ndim(beliefs) == 1
    B = np.atleast_2d(np.asarray(beliefs, dtype=float))
    vecs = np.empty((model.n_actions,) + B.shape)
    for a in range(model.n_actions):
        X, Z = model.transition[a], model.observation[a]
        reachable = (B @ X) @ Z > 0.0                          # (N, O)
        vecs[a] = model.reward[a]
        if model.discount > 0.0:
            for o in range(model.n_obs):
                G = X @ (Z[:, o][:, None] * alphas.T)          # (S, n): candidate continuations
                cont = G.T[np.argmax(B @ G, axis=1)]
                vecs[a] = np.where(reachable[:, o, None], vecs[a] + model.discount * cont, vecs[a])
    best = np.argmax(_rowdot(vecs, B), axis=0)
    if single:
        return vecs[best[0], 0], int(best[0])
    return vecs[best, np.arange(B.shape[0])], best


def prune_alphas(alphas: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop pointwise-dominated vectors and duplicates (keeping the first),
    comparing one state column at a time: O(n^2) booleans of scratch."""
    n = alphas.shape[0]
    ge = np.ones((n, n), dtype=bool)                       # ge[j, i]: j >= i pointwise
    for col in alphas.T:
        ge &= col[:, None] >= col
    # vector i falls to j when j >= i pointwise and j is strictly better
    # somewhere (i is not >= j), or j is an earlier duplicate (j < i)
    earlier = np.arange(n)[:, None] < np.arange(n)
    keep = ~(ge & (~ge.T | earlier)).any(axis=0)
    return alphas[keep], actions[keep]


def expand(beliefs, model: PomdpModel) -> np.ndarray:
    """Grow the belief set: for each point, add its one-step successor that
    lies farthest (Euclidean) from everything already kept. Successors closer
    than 1e-9 are duplicates and are skipped. Deterministic: every successor
    is enumerated, and ties go to the first in action-then-observation order.
    Points are taken in order, since each is measured against the successors
    added before it."""
    A, O = model.n_actions, model.n_obs
    a, o = np.repeat(np.arange(A), O), np.tile(np.arange(O), A)
    out = [np.asarray(b, dtype=float) for b in beliefs]
    for b in out[:len(beliefs)]:
        successors, ok = _filter(np.repeat(b[None], A * O, axis=0), a, o, model)
        candidates = successors[ok]
        if not len(candidates):
            continue
        diff = candidates[:, None, :] - np.array(out)[None]
        dists = np.sqrt(_rowdot(diff, diff)).min(axis=1)
        pick = int(np.argmax(dists))
        if dists[pick] > 1e-9:
            out.append(candidates[pick])
    return np.array(out)


def pbvi_solve(model: PomdpModel, b0: np.ndarray | None = None,
               config: PbviConfig | None = None) -> Policy:
    """Point-based value iteration from an initial belief (default: state 0).

    Alternates improvement sweeps (a backup at every belief point, keeping
    the union of old and new vectors, pruned) with belief-set expansion.
    Each sweep scores the belief points once, and sweeps stop when no value
    moves by improve_tol or more. The single starting vector min(R)/(1-gamma)
    keeps the value function a lower bound, so sweeps never decrease it. The
    summary log record carries event "pbvi_solve" and its counts as fields.
    """
    model.validate()
    config = config or PbviConfig()
    if b0 is None:
        b0 = np.zeros(model.n_states)
        b0[0] = 1.0
    beliefs = np.asarray(b0, dtype=float)[None]

    floor = model.reward.min() / (1.0 - model.discount)
    alphas = np.full((1, model.n_states), floor)
    actions = np.zeros(1, dtype=int)

    sweeps = 0
    residual = float("inf")
    for round_idx in range(config.max_expansions + 1):
        values = _values(alphas, beliefs)
        for _ in range(config.max_improve_sweeps):
            new_vecs, new_acts = backup(beliefs, alphas, model)
            alphas, actions = prune_alphas(np.vstack([alphas, new_vecs]),
                                           np.concatenate([actions, new_acts]))
            sweeps += 1
            before, values = values, _values(alphas, beliefs)
            residual = float(np.max(np.abs(values - before)))
            if residual < config.improve_tol:
                break
        if round_idx < config.max_expansions:
            beliefs = expand(beliefs, model)
    log.info("pbvi: %d alpha vectors, %d belief points, %d sweeps, residual %.3g",
             alphas.shape[0], len(beliefs), sweeps, residual,
             extra={"event": "pbvi_solve", "sweeps": sweeps, "alphas": alphas.shape[0],
                    "beliefs": len(beliefs), "residual": residual})
    return Policy(alphas=alphas, alpha_actions=actions,
                  action_labels=list(model.action_labels), discount=model.discount,
                  beliefs=beliefs, iterations=sweeps, residual=residual)


# ---------------------------------------------------------------------------
# Assembly from learned components


def build_pomdp_from_matrices(capacity_transitions, obs_matrix, costs,
                              discount: float = 0.95,
                              action_labels: list | None = None) -> PomdpModel:
    """Assemble a maintenance POMDP from explicit matrices.

    capacity_transitions: per-capacity (S, S) matrices whose last state is
    failure. obs_matrix: (S, O) symbol probabilities per state. costs: a
    CostTable or a ready (A_cap + 1, S) reward matrix. The capacity actions
    are followed by the PM action, labelled PM_LABEL. The failure row of
    every action is replaced by a return to state 0 (corrective maintenance
    happens within one epoch), and the PM action sends every state to 0.
    Rows are renormalized, so lightly rounded inputs are fine.
    """
    X_cap = np.asarray(capacity_transitions, dtype=float)
    if X_cap.ndim != 3 or X_cap.shape[1] != X_cap.shape[2]:
        raise DataError(f"capacity transitions must be (A, S, S), got {X_cap.shape}")
    n_cap, S = X_cap.shape[0], X_cap.shape[1]
    obs = np.atleast_2d(np.asarray(obs_matrix, dtype=float))
    if obs.shape[0] != S:
        raise DataError(f"observation matrix has {obs.shape[0]} rows for {S} states")

    n_actions = n_cap + 1
    if action_labels is None:
        action_labels = [f"a{i}" for i in range(n_cap)]
    else:
        action_labels = list(action_labels)
    if len(action_labels) != n_cap:
        raise DataError(f"{len(action_labels)} labels for {n_cap} capacity actions")
    action_labels = action_labels + [PM_LABEL]

    X = np.zeros((n_actions, S, S))
    X[:n_cap] = X_cap
    X[:n_cap, S - 1] = 0.0
    X[:n_cap, S - 1, 0] = 1.0
    X[n_cap, :, 0] = 1.0

    if isinstance(costs, CostTable):
        reward = costs.matrix(S - 1)
    else:
        reward = np.asarray(costs, dtype=float)
    if reward.shape != (n_actions, S):
        raise DataError(f"reward shape {reward.shape}, expected {(n_actions, S)}")

    row_sums = X.sum(axis=2)
    if np.abs(row_sums - 1.0).max() > 0.02:
        raise DataError("transition rows are too far from stochastic to renormalize")
    X /= row_sums[:, :, None]
    obs_sums = obs.sum(axis=1)
    if np.abs(obs_sums - 1.0).max() > 0.02 or (obs < -1e-12).any():
        raise DataError("observation rows are too far from stochastic to renormalize")
    obs = obs / obs_sums[:, None]
    Z = np.broadcast_to(obs, (n_actions,) + obs.shape).copy()

    return PomdpModel(action_labels=action_labels, transition=X, observation=Z,
                      reward=reward, discount=float(discount)).validate()


def estimate_observation_rows(means, covariances, gmm: GmmModel,
                              n_samples: int = 4096, seed: int = 0) -> np.ndarray:
    """Monte-Carlo estimate of symbol probabilities per state: average GMM
    responsibilities over fixed-seed draws from each state's emission."""
    rng = np.random.default_rng(seed)
    K = means.shape[0]
    chols = factor_gaussians(means, covariances).chols
    rows = np.empty((K, gmm.n_components))
    for k in range(K):
        draws = means[k] + rng.standard_normal((n_samples, means.shape[1])) @ chols[k].T
        rows[k] = responsibilities(gmm, draws).mean(axis=0)
    return rows / rows.sum(axis=1, keepdims=True)


def build_pomdp(iohmm_model, gmm: GmmModel | None, costs,
                discount: float = 0.95,
                failure_hazard=None,
                obs_matrix=None,
                n_obs_samples: int = 4096,
                seed: int = 0,
                failure_obs_row=None) -> PomdpModel:
    """Assemble the decision model from a trained degradation model.

    Without failure_hazard the degradation model's last state must already
    be absorbing and is taken as the failure state. With failure_hazard
    (per-state or (A, K) probabilities of jumping to failure) a fresh failure
    state is appended; its observation row defaults to the last operating
    state's row unless failure_obs_row is given. Symbol probabilities come
    from obs_matrix when given, otherwise they are estimated from the GMM
    against each state's emission distribution (fixed-seed sampling; in
    action-dependent emission mode the first action's emissions are used).
    """
    K = iohmm_model.n_states
    A_cap = iohmm_model.n_actions
    trans = iohmm_model.transitions

    if failure_hazard is None:
        for a in range(A_cap):
            if trans[a][K - 1, K - 1] < 1.0 - 1e-9:
                raise DataError(
                    "last state is not absorbing; pass failure_hazard to append a failure state")
        X_cap = trans.copy()
        S = K
    else:
        hazard = np.asarray(failure_hazard, dtype=float)
        if hazard.ndim == 1:
            hazard = np.broadcast_to(hazard, (A_cap, K)).copy()
        if hazard.shape != (A_cap, K) or (hazard < 0).any() or (hazard > 1).any():
            raise DataError(f"failure hazard must be probabilities shaped ({A_cap}, {K})")
        S = K + 1
        X_cap = np.zeros((A_cap, S, S))
        X_cap[:, :K, :K] = trans * (1.0 - hazard)[:, :, None]
        X_cap[:, :K, K] = hazard
        X_cap[:, K, K] = 1.0

    if obs_matrix is not None:
        obs = np.atleast_2d(np.asarray(obs_matrix, dtype=float))
    else:
        if gmm is None:
            raise DataError("either a gmm or an explicit observation matrix is required")
        if gmm.n_features != iohmm_model.n_features:
            raise DataError(f"gmm has {gmm.n_features} features; the iohmm model has "
                            f"{iohmm_model.n_features}")
        emit_means, emit_covs = iohmm_model.emission_params(0)
        obs = estimate_observation_rows(emit_means, emit_covs, gmm,
                                        n_samples=n_obs_samples, seed=seed)
    if obs.shape[0] == S - 1 and failure_hazard is not None:
        fail_row = np.asarray(failure_obs_row, dtype=float) if failure_obs_row is not None \
            else obs[-1]
        obs = np.vstack([obs, fail_row])
    if obs.shape[0] != S:
        raise DataError(f"observation matrix has {obs.shape[0]} rows for {S} states")

    return build_pomdp_from_matrices(
        X_cap, obs, costs, discount=discount,
        action_labels=list(iohmm_model.action_labels))
