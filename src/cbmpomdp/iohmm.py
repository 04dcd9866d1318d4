"""Left-to-right input-output HMM for degradation modeling.

States are latent degradation levels, inputs are the operating actions
chosen each epoch, and observations are feature vectors with Gaussian
emissions. The transition matrix for each action is row-stochastic over
(from, to) pairs and constrained so a worse state is never followed by a
better one; training is generalized EM with a projection step that zeroes
backward transitions and a sorting step that keeps state indices ordered
by emission mean.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from . import _json
from ._cluster import TooFewObservations, cluster_covariances, kmeans
from .errors import DataError, NumericalError
from .gmm import Gaussians, _component_logdensities, factor_gaussians, weighted_gaussians

log = logging.getLogger(__name__)

__all__ = [
    "Sequence", "Dataset", "IohmmModel", "Posteriors", "GemConfig",
    "RulForecast", "SelectionReport", "InvalidAction", "NoProgress",
    "NoFailureState", "TooFewObservations", "forward_backward",
    "forward_filter", "init_kmeans", "gem_fit", "enforce_left_to_right",
    "decode_states", "loglik", "n_parameters", "aic", "bic", "select_k",
    "predict_rul", "sample_sequence",
]


class InvalidAction(DataError):
    pass


class NoProgress(NumericalError):
    pass


class NoFailureState(DataError):
    pass


@dataclass
class Sequence:
    """One unit's run: observations (T, d) and the action taken each epoch (T,).

    actions[t] drives the transition into epoch t (and the emission at t in
    action-dependent mode); actions[0] is unused by transitions because the
    initial state is fixed. failed marks run-to-failure sequences whose last
    epoch is known to be the terminal state.
    """
    obs: np.ndarray
    actions: np.ndarray
    failed: bool = False

    def __post_init__(self):
        self.obs = np.atleast_2d(np.asarray(self.obs, dtype=float))
        self.actions = np.asarray(self.actions, dtype=int)
        if self.actions.shape != (self.obs.shape[0],):
            raise DataError(
                f"actions shape {self.actions.shape} does not match {self.obs.shape[0]} epochs")


@dataclass
class Dataset:
    sequences: list
    action_labels: list

    @property
    def n_actions(self) -> int:
        return len(self.action_labels)

    def validate(self) -> "Dataset":
        for i, seq in enumerate(self.sequences):
            bad = (seq.actions < 0) | (seq.actions >= self.n_actions)
            if bad.any():
                raise InvalidAction(
                    f"sequence {i} uses action id {int(seq.actions[bad][0])}, "
                    f"only {self.n_actions} actions are defined")
        return self

    def pooled_obs(self) -> np.ndarray:
        return np.vstack([s.obs for s in self.sequences])


@dataclass
class IohmmModel:
    """Model parameters.

    transitions[a][i, j] is P(next=j | current=i, action=a). means/covariances
    are (K, d)/(K, d, d) when emissions are shared across actions, or
    (A, K, d)/(A, K, d, d) in action-dependent mode.
    """
    action_labels: tuple
    transitions: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    initial: np.ndarray
    emission_mode: str = "shared"
    sort_key: int = 0

    def __post_init__(self):
        self.action_labels = tuple(self.action_labels)

    @property
    def n_states(self) -> int:
        return self.transitions.shape[1]

    @property
    def n_actions(self) -> int:
        return self.transitions.shape[0]

    @property
    def n_features(self) -> int:
        return self.means.shape[-1]

    def emission_params(self, action: int) -> tuple[np.ndarray, np.ndarray]:
        if self.emission_mode == "shared":
            return self.means, self.covariances
        return self.means[action], self.covariances[action]

    def emission_gaussians(self, action: int) -> Gaussians:
        return factor_gaussians(*self.emission_params(action))

    def validate(self) -> "IohmmModel":
        """Check shapes, labels and sort key, that every parameter is finite,
        and that the transition rows and the initial distribution are
        non-negative and sum to 1."""
        trans = self.transitions
        K = trans.shape[-1] if trans.ndim else 0
        if trans.ndim != 3 or trans.shape[1:] != (K, K) or 0 in trans.shape:
            raise DataError(f"iohmm transitions have shape {trans.shape}, expected (A, K, K)")
        if len(self.action_labels) != trans.shape[0]:
            raise DataError(f"{len(self.action_labels)} action labels for "
                            f"{trans.shape[0]} transition matrices")
        if self.emission_mode not in ("shared", "action"):
            raise DataError(f"unknown emission mode {self.emission_mode!r}")
        lead = (K,) if self.emission_mode == "shared" else (self.n_actions, K)
        d = self.means.shape[-1] if self.means.ndim else 0
        if d < 1 or self.means.shape != lead + (d,) or self.covariances.shape != lead + (d, d):
            raise DataError(f"iohmm means {self.means.shape} and covariances "
                            f"{self.covariances.shape} do not fit {lead} emissions")
        if self.initial.shape != (K,):
            raise DataError(f"iohmm initial has shape {self.initial.shape}, expected ({K},)")
        if not 0 <= self.sort_key < d:
            raise DataError(f"sort key {self.sort_key} is not one of the {d} features")
        if not all(np.isfinite(x).all() for x in (trans, self.means, self.covariances,
                                                  self.initial)):
            raise DataError("iohmm parameters must be finite")
        for name, rows in (("transition", trans), ("initial", self.initial)):
            if (rows < 0).any() or np.abs(rows.sum(axis=-1) - 1.0).max() > 1e-9:
                raise DataError(f"iohmm {name} rows must be non-negative and sum to 1")
        return self

    def to_dict(self) -> dict:
        return {
            "kind": "iohmm",
            "action_labels": list(self.action_labels),
            "transitions": self.transitions.tolist(),
            "means": self.means.tolist(),
            "covariances": self.covariances.tolist(),
            "initial": self.initial.tolist(),
            "emission_mode": self.emission_mode,
            "sort_key": self.sort_key,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "IohmmModel":
        if d.get("kind") != "iohmm":
            raise DataError(f"not an iohmm model file (kind={d.get('kind')!r})")
        return cls(
            action_labels=tuple(d["action_labels"]),
            transitions=np.asarray(d["transitions"], dtype=float),
            means=np.asarray(d["means"], dtype=float),
            covariances=np.asarray(d["covariances"], dtype=float),
            initial=np.asarray(d["initial"], dtype=float),
            emission_mode=str(d["emission_mode"]),
            sort_key=int(d["sort_key"]),
        ).validate()

    save = _json.save
    load = classmethod(_json.load)


@dataclass
class Posteriors:
    """Smoothed posteriors of one sequence, or of a dataset's stacked in dataset order."""
    gamma: np.ndarray             # (epochs, K) state marginals
    counts: np.ndarray            # (A, K, K) pairwise (from, to) marginals summed per action
    logliks: np.ndarray           # (sequences,) each sequence's loglik
    loglik: float                 # their sum, in dataset order
    xi: np.ndarray | None = None  # one sequence's (T-1, K, K) pairwise marginals


@dataclass
class GemConfig:
    n_states: int
    emission_mode: str = "shared"
    max_iters: int = 200
    tol: float = 1e-6        # relative loglik change
    ridge: float = 1e-6
    sort_key: int = 0
    seed: int = 0
    constrained: bool = True  # False gives the classical unconstrained baseline


def _forward(sequences: list, model: IohmmModel):
    """Scaled forward recursion over all sequences at once, time-major.

    Arrays are indexed by pooled row (sequences stacked in dataset order).
    rows[t] holds epoch t of each sequence still running, longest first, and
    order their dataset indices, so a step is one stacked matmul, unpadded.
    Returns the actions, the emission likelihoods p, each row divided by its
    max, the filtered alpha = P(S_t | O_1..t, A_1..t), the scales, each
    sequence's loglik, rows and order."""
    X = np.vstack([s.obs for s in sequences])
    acts = np.concatenate([s.actions for s in sequences])
    bad = (acts < 0) | (acts >= model.n_actions)
    if bad.any():
        raise InvalidAction(f"unknown action id {int(acts[bad][0])}")
    lengths = np.array([s.obs.shape[0] for s in sequences])
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(-lengths, kind="stable")
    running = len(lengths) - np.cumsum(np.bincount(lengths))[:-1]
    rows = [starts[order[:n]] + t for t, n in enumerate(running)]
    if model.emission_mode == "shared":
        logb = _component_logdensities(model.emission_gaussians(0), X)
    else:
        logb = np.empty((X.shape[0], model.n_states))
        for a in np.unique(acts):
            logb[acts == a] = _component_logdensities(model.emission_gaussians(a), X[acts == a])
    shift = logb.max(axis=1)
    p = np.exp(logb - shift[:, None])
    alpha, scale = np.empty_like(p), np.empty(len(p))
    with np.errstate(divide="ignore", invalid="ignore"):
        for t, r in enumerate(rows):
            prior = np.matmul(alpha[r - 1][:, None], model.transitions[acts[r]])[:, 0] \
                if t else model.initial
            cur = prior * p[r]
            scale[r] = cur.sum(axis=1)
            alpha[r] = cur / scale[r][:, None]
    zero = np.flatnonzero(scale <= 0)
    if zero.size:
        i = int(np.searchsorted(starts, zero[0], side="right")) - 1
        raise NumericalError(f"sequence {i} has zero probability under the model "
                             f"at epoch {zero[0] - starts[i]}")
    # one .sum() per sequence slice: the summation order of a lone sequence
    logliks = np.array([np.log(scale[s:s + n]).sum() + shift[s:s + n].sum()
                        for s, n in zip(starts, lengths)])
    return acts, p, alpha, scale, logliks, rows, order


def forward_backward(data: Sequence | Dataset, model: IohmmModel) -> Posteriors:
    """Scaled forward-backward pass over one Sequence or a whole Dataset.

    Every step is renormalized, the log scales summed into the loglik, so
    nothing underflows. Pairwise marginals are summed per (sequence, action)
    in time order, then over sequences in dataset order (one Sequence also
    keeps them per step)."""
    sequences = data.sequences if isinstance(data, Dataset) else [data]
    acts, p, alpha, scale, logliks, rows, order = _forward(sequences, model)
    trans, K = model.transitions, model.n_states
    beta = np.ones_like(p)
    for r in reversed(rows[1:]):
        beta[r - 1] = np.matmul(trans[acts[r]], (p[r] * beta[r])[:, :, None])[:, :, 0] \
            / scale[r][:, None]
    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)
    counts = np.zeros((len(sequences), model.n_actions, K, K))
    xi = np.empty((len(p), K, K)) if len(sequences) == 1 else None
    for r in rows[1:]:
        slab = (alpha[r - 1][:, :, None] * trans[acts[r]]
                * (p[r] * beta[r])[:, None, :]) / scale[r][:, None, None]
        slab /= slab.reshape(len(r), -1).sum(axis=1)[:, None, None]
        counts[order[:len(r)], acts[r]] += slab
        if xi is not None:
            xi[r] = slab
    return Posteriors(gamma, counts.sum(axis=0), logliks, float(sum(logliks.tolist())),
                      None if xi is None else xi[1:])


def forward_filter(data: Sequence | Dataset, model: IohmmModel) -> np.ndarray:
    """Filtered state beliefs P(S_t | O_1..t, A_1..t), one row per epoch of
    one Sequence or of a whole Dataset (stacked in dataset order)."""
    return _forward(data.sequences if isinstance(data, Dataset) else [data], model)[2]


def loglik(dataset: Dataset, model: IohmmModel) -> float:
    return float(sum(_forward(dataset.sequences, model)[4].tolist()))


def decode_states(seq: Sequence, model: IohmmModel) -> tuple[np.ndarray, np.ndarray]:
    """Per-epoch MAP state labels (ties to the lower index) and the smoothed gamma."""
    post = forward_backward(seq, model)
    return post.gamma.argmax(axis=1), post.gamma


def init_kmeans(dataset: Dataset, config: GemConfig) -> IohmmModel:
    """Cluster-based starting point.

    Emission means are k-means centroids sorted on the sort-key coordinate,
    covariances are within-cluster covariances with a ridge, transitions are
    uniform over the allowed entries of each row, and the initial distribution
    is a point mass on state 0 (units enter service as new).
    """
    dataset.validate()
    K, A = config.n_states, dataset.n_actions
    if K < 1:
        raise DataError(f"need at least one state, got {K}")
    X = dataset.pooled_obs()
    d = X.shape[1]
    rng = np.random.default_rng(config.seed)

    def cluster_stats(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        centroids, labels = kmeans(points, K, rng)
        order = np.argsort(centroids[:, config.sort_key], kind="stable")
        covs = cluster_covariances(points, centroids, labels, config.ridge)
        return centroids[order], covs[order]

    if config.emission_mode == "shared":
        means, covs = cluster_stats(X)
    elif config.emission_mode == "action":
        means = np.empty((A, K, d))
        covs = np.empty((A, K, d, d))
        for a in range(A):
            rows = np.vstack([s.obs[s.actions == a] for s in dataset.sequences])
            if rows.shape[0] < K:
                rows = X  # too few epochs under this action; borrow the pooled data
            means[a], covs[a] = cluster_stats(rows)
    else:
        raise DataError(f"unknown emission mode {config.emission_mode!r}")

    transitions = np.zeros((A, K, K))
    if config.constrained:
        for row in range(K):
            transitions[:, row, row:] = 1.0 / (K - row)
    else:
        transitions[:] = 1.0 / K
    initial = np.zeros(K)
    initial[0] = 1.0
    return IohmmModel(list(dataset.action_labels), transitions, means, covs, initial,
                      emission_mode=config.emission_mode, sort_key=config.sort_key)


def enforce_left_to_right(model: IohmmModel) -> IohmmModel:
    """Canonicalize in place: sort states by emission mean, then project.

    Sorting applies one permutation to means, covariances, the initial
    distribution, and both axes of every transition matrix. Projection then
    zeroes backward entries and renormalizes each row; a row left empty
    becomes a self point mass. Projection runs after sorting so the returned
    model always satisfies the constraint.
    """
    state_axis = 0 if model.emission_mode == "shared" else 1
    keys = model.means[..., model.sort_key]
    order = np.argsort(keys if state_axis == 0 else keys.mean(axis=0), kind="stable")
    if not np.array_equal(order, np.arange(model.n_states)):
        model.means = np.take(model.means, order, axis=state_axis)
        model.covariances = np.take(model.covariances, order, axis=state_axis)
        model.initial = model.initial[order]
        model.transitions = model.transitions[:, order][:, :, order]

    K = model.n_states
    trans = model.transitions
    trans[:, np.tril(np.ones((K, K), dtype=bool), k=-1)] = 0.0
    sums = trans.sum(axis=2, keepdims=True)
    empty = sums[:, :, 0] <= 0
    trans /= np.where(empty[:, :, None], 1.0, sums)
    trans[empty] = np.eye(K)[np.nonzero(empty)[1]]
    return model


def _m_step(dataset: Dataset, post: Posteriors, model: IohmmModel,
            config: GemConfig) -> IohmmModel:
    transitions = model.transitions.copy()
    row_tot = post.counts.sum(axis=2)
    visited = row_tot > 0
    transitions[visited] = post.counts[visited] / row_tot[visited][:, None]

    X = dataset.pooled_obs()
    W = post.gamma
    if model.emission_mode == "shared":
        means, covs = weighted_gaussians(W, X, model.means, model.covariances, config.ridge)
    else:
        means = model.means.copy()
        covs = model.covariances.copy()
        all_actions = np.concatenate([s.actions for s in dataset.sequences])
        for a in range(model.n_actions):
            rows = all_actions == a
            if rows.any():
                means[a], covs[a] = weighted_gaussians(W[rows], X[rows], means[a], covs[a],
                                                       config.ridge)

    return IohmmModel(model.action_labels, transitions, means, covs,
                      model.initial.copy(), emission_mode=model.emission_mode,
                      sort_key=model.sort_key)


def gem_fit(dataset: Dataset, config: GemConfig,
            init: IohmmModel | None = None) -> tuple[IohmmModel, list]:
    """Generalized EM training loop.

    Returns the fitted model and the per-iteration loglik trace (each entry
    evaluates the parameters entering that iteration). Sequences flagged as
    run-to-failure have their final-epoch gamma clamped to the last state
    before the M-step. The initial distribution stays a point mass on state 0.
    """
    dataset.validate()
    model = init if init is not None else init_kmeans(dataset, config)
    lengths = np.array([s.obs.shape[0] for s in dataset.sequences])
    last = (np.cumsum(lengths) - 1)[np.array([s.failed for s in dataset.sequences], dtype=bool)]
    trace: list[float] = []
    prev = None
    for it in range(config.max_iters):
        post = forward_backward(dataset, model)
        if np.isnan(post.loglik):
            raise NoProgress(f"loglik became nan at iteration {it}")
        trace.append(post.loglik)
        if prev is not None and abs(post.loglik - prev) < config.tol * max(1.0, abs(prev)):
            break
        prev = post.loglik
        post.gamma[last] = 0.0      # the last epoch of a failed sequence is the last state
        post.gamma[last, -1] = 1.0
        model = _m_step(dataset, post, model, config)
        if config.constrained:
            model = enforce_left_to_right(model)
    else:
        log.info("gem_fit stopped at max_iters=%d without converging", config.max_iters)
    return model, trace


def n_parameters(n_states: int, n_features: int, n_actions: int,
                 emission_mode: str = "shared", constrained: bool = True) -> int:
    """Free parameter count: transition entries net of row constraints,
    emission means and covariance entries, and the initial distribution
    minus one."""
    K, d = n_states, n_features
    per_action = K * (K + 1) // 2 - K if constrained else K * K - K
    trans = n_actions * per_action
    emis_sets = 1 if emission_mode == "shared" else n_actions
    emis = emis_sets * (K * d + K * d * (d + 1) // 2)
    return trans + emis + (K - 1)


def aic(loglik_value: float, n_params: int) -> float:
    return 2.0 * n_params - 2.0 * loglik_value


def bic(loglik_value: float, n_params: int, n_obs: int) -> float:
    return n_params * float(np.log(n_obs)) - 2.0 * loglik_value


@dataclass
class SelectionReport:
    rows: list
    best_aic: int
    best_bic: int


def select_k(dataset: Dataset, k_values, config: GemConfig) -> SelectionReport:
    """Fit one model per candidate state count and score AIC/BIC."""
    n_obs = sum(s.obs.shape[0] for s in dataset.sequences)
    d = dataset.pooled_obs().shape[1]
    rows = []
    if not k_values:
        raise DataError("no candidate state counts to score")
    for K in k_values:
        cfg = replace(config, n_states=K)
        start = time.perf_counter()
        _, trace = gem_fit(dataset, cfg)
        elapsed = time.perf_counter() - start
        ll = trace[-1]
        p = n_parameters(K, d, dataset.n_actions, config.emission_mode, config.constrained)
        rows.append({"K": K, "loglik": ll, "p": p,
                     "aic": aic(ll, p), "bic": bic(ll, p, n_obs),
                     "train_sec": elapsed})
    best_aic = min(rows, key=lambda r: r["aic"])["K"]
    best_bic = min(rows, key=lambda r: r["bic"])["K"]
    return SelectionReport(rows=rows, best_aic=best_aic, best_bic=best_bic)


@dataclass
class RulForecast:
    """RUL quantiles of one belief (values a tuple, censored a bool) or of
    a stack of N beliefs (values an (N, quantiles) int array, censored (N,))."""
    quantiles: tuple
    values: tuple | np.ndarray   # cycles until the failure mass reaches each quantile
    censored: bool | np.ndarray

    def _at(self, i: int):
        return self.values[i] if isinstance(self.values, tuple) else self.values[:, i]

    @property
    def lower(self):
        return self._at(int(np.argmin(self.quantiles)))

    @property
    def upper(self):
        return self._at(int(np.argmax(self.quantiles)))

    @property
    def median(self):
        return self._at(int(np.argmin(np.abs(np.asarray(self.quantiles) - 0.5))))


def predict_rul(belief: np.ndarray, model: IohmmModel, action,
                horizon: int = 10000,
                quantiles: tuple = (0.025, 0.5, 0.975)) -> RulForecast:
    """Remaining-useful-life quantiles, in cycles, from a (K,) state belief
    or an (N, K) stack of them.

    The last state is treated as the absorbing failure state; each belief is
    propagated through the transition matrix of the given action (an index,
    a label, or a callable belief -> action index, called on each belief
    still propagating) and each quantile is the first step at which the
    accumulated failure mass reaches it. Quantiles not reached within the
    horizon report the horizon and set censored. All beliefs step together,
    each by the same vector-matrix product a lone belief takes.
    """
    K = model.n_states
    for a in range(model.n_actions):
        if model.transitions[a][K - 1, K - 1] < 1.0 - 1e-9:
            raise NoFailureState(
                f"last state is not absorbing under action {model.action_labels[a]!r}")
    if horizon < 1:
        raise DataError(f"RUL horizon must be at least 1, got {horizon}")
    q = np.asarray(quantiles, dtype=float)
    if q.ndim != 1 or not q.size or not ((q >= 0.0) & (q <= 1.0)).all():
        raise DataError(f"RUL quantiles must lie in [0, 1], got {list(quantiles)}")
    if isinstance(action, str):
        if action not in model.action_labels:
            raise InvalidAction(f"unknown action label {action!r}")
        action = model.action_labels.index(action)
    if not callable(action) and not 0 <= action < model.n_actions:
        raise InvalidAction(f"action index {action} out of range")

    B = np.array(belief, dtype=float, ndmin=2)
    if np.ndim(belief) not in (1, 2) or B.shape[1] != K:
        raise DataError(f"belief shape {np.shape(belief)} does not match {K} states")
    mass = B.sum(axis=1, keepdims=True)
    if not ((B >= 0.0).all() and ((mass > 0.0) & (mass < np.inf)).all()):
        raise DataError("a belief must be finite and non-negative with positive mass")
    B /= mass

    order = np.argsort(q, kind="stable")
    thresholds = q[order] - 1e-12
    first = np.full((len(B), q.size), -1)     # step each sorted quantile is reached
    live = np.arange(len(B))
    step = 0
    while True:
        reached = (first[live] < 0) & (B[:, -1:] >= thresholds)
        first[live] = np.where(reached, step, first[live])
        keep = first[live, -1] < 0
        live, B = live[keep], B[keep]
        if not live.size or step >= horizon:
            break
        a = action
        if callable(action):
            a = np.array([int(action(b)) for b in B])
            bad = (a < 0) | (a >= model.n_actions)
            if bad.any():
                raise InvalidAction(f"action index {a[bad][0]} out of range")
        B = np.matmul(B[:, None, :], model.transitions[a])[:, 0]
        step += 1
    censored = first[:, -1] < 0
    values = np.empty_like(first)
    values[:, order] = np.where(first < 0, horizon, first)
    if np.ndim(belief) == 1:
        return RulForecast(tuple(quantiles), tuple(values[0].tolist()), bool(censored[0]))
    return RulForecast(tuple(quantiles), values, censored)


def sample_sequence(model: IohmmModel, actions,
                    rng: np.random.Generator) -> tuple[Sequence, np.ndarray]:
    """Draw one trajectory and its observations under a fixed action plan."""
    actions = np.asarray(actions, dtype=int)
    K = model.n_states
    gaussians = [model.emission_gaussians(a) for a in range(model.n_actions)]

    def emit(state: int, action: int) -> np.ndarray:
        g = gaussians[action]
        return g.means[state] + g.chols[state] @ rng.standard_normal(model.n_features)

    state = int(rng.choice(K, p=model.initial))
    states = [state]
    obs = [emit(state, int(actions[0]))]
    for t in range(1, actions.shape[0]):
        state = int(rng.choice(K, p=model.transitions[actions[t]][state]))
        states.append(state)
        obs.append(emit(state, int(actions[t])))
    return Sequence(np.array(obs), actions), np.array(states, dtype=int)
