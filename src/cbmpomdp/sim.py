"""Monte-Carlo policy evaluation and model diagnostics."""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .gmm import GmmConfig, fit_gmm
from .iohmm import (Dataset, GemConfig, IohmmModel, forward_backward, forward_filter,
                    gem_fit, predict_rul)
from .pomdp import (PM_LABEL, PbviConfig, Policy, PomdpModel, _filter, build_pomdp,
                    pbvi_solve)

log = logging.getLogger(__name__)


@dataclass
class SimConfig:
    horizon: int = 10000
    n_runs: int = 100
    seed: int = 0


@dataclass
class SimReport:
    totals: np.ndarray
    discounted: np.ndarray
    pm_ratio: float
    failure_rate: float
    action_counts: dict
    horizon: int
    n_runs: int
    seed: int

    @property
    def mean(self) -> float:
        return float(self.totals.mean())

    @property
    def std(self) -> float:
        return float(self.totals.std(ddof=1)) if self.totals.size > 1 else 0.0

    @property
    def discounted_mean(self) -> float:
        return float(self.discounted.mean())

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std": self.std,
            "discounted_mean": self.discounted_mean,
            "pm_ratio": self.pm_ratio,
            "failure_rate": self.failure_rate,
            "action_counts": dict(self.action_counts),
            "horizon": self.horizon,
            "n_runs": self.n_runs,
            "seed": self.seed,
            "totals": self.totals.tolist(),
            "discounted": self.discounted.tolist(),
        }


#: epochs of uniforms drawn per run at a time, so memory does not grow with the horizon
_CHUNK = 1024


def _as_action_picker(model: PomdpModel, policy_source):
    """Normalize a policy source to picker(beliefs (N, S)) -> action indices
    (N,), or to a fixed action index when the source needs no belief."""
    if isinstance(policy_source, Policy):
        return lambda B: policy_source.value(B)[1]
    if isinstance(policy_source, (int, np.integer, str)):
        return model.action_index(policy_source)
    if callable(policy_source):
        return lambda B: np.array([model.action_index(policy_source(b)) for b in B])
    raise DataError(f"unsupported policy source {type(policy_source).__name__}")


def simulate(model: PomdpModel, policy_source, config: SimConfig) -> SimReport:
    """Roll out trajectories of the true state chain under a policy.

    All runs advance in lockstep on an (n_runs, S) belief array. Run i draws
    from a generator seeded with seed XOR i, so per-run streams are
    reproducible and shared across policy variants. Each epoch accrues
    reward r(state, action); hitting the failure state costs one epoch there
    before the built-in corrective reset row takes effect. Reported totals
    are undiscounted; a discounted accumulation is kept alongside.
    """
    model.validate()
    if config.horizon < 1 or config.n_runs < 1:
        raise DataError(f"horizon and n_runs must be at least 1, got "
                        f"{config.horizon} and {config.n_runs}")
    pick = _as_action_picker(model, policy_source)
    fixed = not callable(pick)
    n, S = config.n_runs, model.n_states
    cum_X, cum_Z = np.cumsum(model.transition, axis=2), np.cumsum(model.observation, axis=2)
    rngs = [np.random.default_rng(config.seed ^ i) for i in range(n)]
    state = np.zeros(n, dtype=int)
    beliefs = np.tile(np.eye(S)[0], (n, 1))
    a = np.full(n, pick) if fixed else None
    totals, discounted = np.zeros(n), np.zeros(n)
    action_counts = np.zeros(model.n_actions, dtype=np.int64)
    failures, g = 0, 1.0
    for t in range(config.horizon):
        k = t % _CHUNK
        if k == 0:
            u = np.stack([r.random(2 * min(_CHUNK, config.horizon - t)) for r in rngs])
        if not fixed:
            a = pick(beliefs)
        action_counts += np.bincount(a, minlength=model.n_actions)
        earned = model.reward[a, state]
        totals += earned
        discounted += g * earned
        g *= model.discount
        failures += int(np.count_nonzero(state == S - 1))
        state = (cum_X[a, state] <= u[:, 2 * k, None]).sum(axis=1)
        if not fixed:
            o = (cum_Z[a, state] <= u[:, 2 * k + 1, None]).sum(axis=1)
            beliefs, ok = _filter(beliefs, a, o, model)
            for i in np.flatnonzero(~ok):
                log.warning("run %d epoch %d: zero-probability symbol %d, "
                            "using predicted belief", i, t, o[i])

    n_epochs = n * config.horizon
    counts = dict(zip(model.action_labels, action_counts.tolist()))
    return SimReport(totals=totals, discounted=discounted,
                     pm_ratio=counts.get(PM_LABEL, 0) / n_epochs,
                     failure_rate=failures / n_epochs, action_counts=counts,
                     horizon=config.horizon, n_runs=n, seed=config.seed)


def transition_diagnostics(model_or_transitions) -> dict:
    """Average self, forward, and backward transition mass across actions and rows."""
    if isinstance(model_or_transitions, IohmmModel):
        trans = model_or_transitions.transitions
    else:
        trans = np.asarray(model_or_transitions, dtype=float)
    A, K = trans.shape[0], trans.shape[1]
    stay = np.mean([np.diag(trans[a]) for a in range(A)])
    forward = np.mean([[trans[a][r, r + 1:].sum() for r in range(K)] for a in range(A)])
    backward = np.mean([[trans[a][r, :r].sum() for r in range(K)] for a in range(A)])
    return {"avg_stay": float(stay), "avg_forward": float(forward),
            "avg_backward": float(backward)}


def decoded_reverse_steps(dataset: Dataset, model: IohmmModel) -> dict:
    """Decoded-path regressions: mean per-sequence count of epochs whose MAP
    state is lower than the previous one, plus the model's summed
    lower-triangular transition mass. One forward-backward pass decodes
    every sequence."""
    labels = forward_backward(dataset, model).gamma.argmax(axis=1)
    reverse = np.diff(labels) < 0
    lengths = [s.obs.shape[0] for s in dataset.sequences]
    reverse[np.cumsum(lengths)[:-1] - 1] = False   # steps into the next sequence
    total_reverse = int(reverse.sum())
    K = model.n_states
    back_mass = float(sum(model.transitions[a][np.tril_indices(K, k=-1)].sum()
                          for a in range(model.n_actions)))
    return {"reverse_steps": total_reverse / len(dataset.sequences),
            "total_reverse": total_reverse,
            "backward_prob": back_mass}


def compare_classical(dataset: Dataset, config: GemConfig) -> list:
    """Fit the constrained model and the unconstrained classical baseline on
    the same data and report loglik plus decoded-regression diagnostics."""
    rows = []
    for variant, constrained in (("constrained", True), ("classical", False)):
        cfg = replace(config, constrained=constrained)
        model, trace = gem_fit(dataset, cfg)
        diag = decoded_reverse_steps(dataset, model)
        rows.append({"variant": variant, "loglik": trace[-1],
                     "reverse_steps": diag["reverse_steps"],
                     "backward_prob": diag["backward_prob"]})
    return rows


def k_sweep(dataset: Dataset, k_values, gmm_components: int, costs, discount: float,
            sim_config: SimConfig, gem_config: GemConfig,
            pbvi_config: PbviConfig | None = None) -> list:
    """Robustness of the closed-loop pipeline to the state-count choice.

    For each K: train the degradation model, fit the symbol mixture, assemble
    and solve the POMDP, and simulate the policy. Returns one row per K with
    undiscounted and discounted mean returns and the PM ratio.
    """
    rows = []
    for K in k_values:
        cfg = replace(gem_config, n_states=K)
        model, _ = gem_fit(dataset, cfg)
        mixture = fit_gmm(dataset.pooled_obs(),
                          GmmConfig(n_components=gmm_components, ridge=cfg.ridge,
                                    sort_key=cfg.sort_key, seed=cfg.seed))
        pomdp = build_pomdp(model, mixture, costs, discount=discount, seed=cfg.seed)
        policy = pbvi_solve(pomdp, config=pbvi_config)
        report = simulate(pomdp, policy, sim_config)
        rows.append({"K": K, "mean_total": report.mean,
                     "mean_discounted": report.discounted_mean,
                     "pm_ratio": report.pm_ratio,
                     "failure_rate": report.failure_rate})
    return rows


def rul_rows(dataset: Dataset, indices, model: IohmmModel, action, horizon: int,
             quantiles: tuple) -> list:
    """One row per epoch of each sequence dataset.sequences[i], i in indices:
    the predict_rul band from the filtered state belief, and the true
    remaining life (None unless the sequence failed). One filtered pass and
    one stacked predict_rul serve every row."""
    seqs = [dataset.sequences[i] for i in indices]
    lengths = np.array([s.obs.shape[0] for s in seqs])
    fc = predict_rul(forward_filter(Dataset(seqs, dataset.action_labels), model), model,
                     action, horizon=horizon, quantiles=quantiles)
    epoch = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    life = np.repeat(lengths - 1, lengths) - epoch
    failed = np.repeat([s.failed for s in seqs], lengths)
    columns = {"sequence": np.repeat(np.asarray(indices, dtype=int), lengths), "epoch": epoch,
               "true_rul": np.where(failed, life, None), "lower": fc.lower,
               "median": fc.median, "upper": fc.upper, "censored": fc.censored}
    return [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]


def rul_experiment(dataset: Dataset, model: IohmmModel, action,
                   horizon: int = 10000,
                   quantiles: tuple = (0.025, 0.5, 0.975)) -> dict:
    """Remaining-useful-life calibration on run-to-failure sequences.

    At every epoch of every failed sequence the filtered state belief feeds
    predict_rul, and the resulting band is compared with the known remaining
    life. Censored forecasts are counted but excluded from coverage.
    """
    failed = [i for i, seq in enumerate(dataset.sequences) if seq.failed]
    if len(failed) < len(dataset.sequences):
        log.info("%d sequence(s) have no failure time; skipped",
                 len(dataset.sequences) - len(failed))
    rows = rul_rows(dataset, failed, model, action, horizon, quantiles) if failed else []
    scored = [r for r in rows if not r["censored"]]
    if not scored:
        raise DataError("no uncensored forecasts; nothing to calibrate")
    covered = sum(r["lower"] <= r["true_rul"] <= r["upper"] for r in scored)
    return {"rows": rows, "coverage": covered / len(scored),
            "n_evaluated": len(scored), "n_censored": len(rows) - len(scored)}
