"""Online decision-making from raw sensor windows.

The stateless path follows the deployed-controller recipe: extract features,
read symbol probabilities off the mixture, map them to a state belief
through the observation matrix, and pick the action whose alpha vector
scores highest. The recursive path instead carries the belief forward with
the full Bayes filter, conditioning on the discretized symbol and the
previously executed action.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .features import extract_features
from .gmm import GmmModel, responsibilities
from .pomdp import Policy, PomdpModel, ZeroProbabilityObservation, belief_update

log = logging.getLogger(__name__)


@dataclass
class DecisionContext:
    gmm: GmmModel
    obs_to_state: np.ndarray            # (S, O) state-conditional symbol probabilities
    policy: Policy
    pomdp: PomdpModel | None = None     # required for the recursive mode
    belief_mode: str = "verbatim"       # "verbatim" or "bayes"
    state_prior: np.ndarray | None = None


@dataclass
class Decision:
    action: str
    action_idx: int
    value: float
    belief: np.ndarray
    symbol_probs: np.ndarray
    symbol: int
    features: np.ndarray


def belief_from_symbols(ctx: DecisionContext, symbol_probs: np.ndarray) -> np.ndarray:
    """State belief from symbol probabilities.

    verbatim: normalize(B @ p), reading each B column as a state profile.
    bayes: mixes proper posteriors P(s | o) built from B columns and a state
    prior (uniform unless ctx.state_prior is set).
    """
    B = ctx.obs_to_state
    p = np.asarray(symbol_probs, dtype=float)
    if ctx.belief_mode == "verbatim":
        belief = B @ p
    elif ctx.belief_mode == "bayes":
        prior = ctx.state_prior if ctx.state_prior is not None \
            else np.full(B.shape[0], 1.0 / B.shape[0])
        joint = B * prior[:, None]
        col = joint.sum(axis=0)
        posterior = np.divide(joint, col[None, :], out=np.zeros_like(joint),
                              where=col[None, :] > 0)
        belief = posterior @ p
    else:
        raise DataError(f"unknown belief mode {ctx.belief_mode!r}")
    total = belief.sum()
    if total <= 0:
        raise NumericalError("symbol probabilities map to an all-zero state belief")
    return belief / total


def _decide(features: np.ndarray, ctx: DecisionContext, prev=None) -> Decision:
    """The per-epoch decision from a feature vector. Stateless when prev is
    None; otherwise the discretized symbol is filtered into the (belief,
    action) carried in prev, falling back to stateless if it is impossible."""
    feats = np.asarray(features, dtype=float).ravel()
    if not np.isfinite(feats).all():
        raise DataError("feature vector has non-finite entries (degenerate window?)")
    probs = responsibilities(ctx.gmm, feats[None, :])[0]
    symbol = int(np.argmax(probs))
    belief = None
    if prev is not None:
        try:
            belief = belief_update(np.asarray(prev[0], dtype=float), prev[1], symbol,
                                   ctx.pomdp)
        except ZeroProbabilityObservation:
            log.warning("symbol %d impossible under the carried belief; "
                        "falling back to stateless", symbol)
    if belief is None:
        belief = belief_from_symbols(ctx, probs)
    value, action_idx = ctx.policy.value(belief)
    return Decision(action=ctx.policy.action_label(action_idx), action_idx=action_idx,
                    value=value, belief=belief, symbol_probs=probs,
                    symbol=symbol, features=feats)


def _require_filter(ctx: DecisionContext) -> None:
    if ctx.pomdp is None:
        raise DataError("recursive decisions need ctx.pomdp for the belief filter")


def decide_from_features(features: np.ndarray, ctx: DecisionContext) -> Decision:
    """Stateless decision from an already-extracted feature vector."""
    return _decide(features, ctx)


def decide_stateless(signal, ctx: DecisionContext) -> Decision:
    """Decision for one raw sample window; pure, carries no state."""
    return _decide(extract_features(signal), ctx)


def decide_recursive(signal, prev_belief: np.ndarray, prev_action,
                     ctx: DecisionContext) -> Decision:
    """Decision with a carried belief.

    The window's features are discretized to a single symbol and the belief
    is propagated by the Bayes filter under the previously executed action
    (so a PM or post-failure reset flows in through the transition model).
    A zero-probability symbol falls back to the stateless decision.
    """
    _require_filter(ctx)
    return _decide(extract_features(signal), ctx, (prev_belief, prev_action))


def run_session(epochs, ctx: DecisionContext, mode: str = "stateless",
                epochs_are_features: bool = False) -> list:
    """Drive the policy across a stream of epochs and log one row per epoch.

    epochs yields raw windows (or 11-column feature rows when
    epochs_are_features). In recursive mode the first epoch is decided
    statelessly to seed the belief; afterwards the belief is filtered under
    each executed action, which also realizes PM and post-failure resets.
    Per-epoch failures are logged and skipped rather than aborting the run.
    """
    if mode not in ("stateless", "recursive"):
        raise DataError(f"unknown session mode {mode!r}")
    if mode == "recursive":
        _require_filter(ctx)
    rows = []
    prev = None
    for t, epoch in enumerate(epochs):
        try:
            feats = epoch if epochs_are_features else extract_features(epoch)
            decision = _decide(feats, ctx, prev)
            if mode == "recursive":
                prev = (decision.belief, decision.action_idx)
            rows.append({
                "epoch": t,
                "action": decision.action,
                "value": decision.value,
                "symbol": decision.symbol,
                "belief": [float(v) for v in decision.belief],
            })
        except (DataError, NumericalError) as exc:
            log.warning("epoch %d skipped: %s", t, exc)
            rows.append({"epoch": t, "error": str(exc)})
    return rows
