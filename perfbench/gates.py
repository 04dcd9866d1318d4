"""Correctness gates. Each raises GateFailure; a failed gate fails the run.

The gates take plain outputs (policies, reports, rows, file bytes), so the
self-test can feed them corrupted outputs and check that they fire.
"""
from __future__ import annotations

import numpy as np

#: Monte-Carlo means must lie within this many standard errors of the exact
#: expectation. Five keeps the false-alarm rate near 1e-6 per check, so
#: even a long series of runs does not trip it by chance.
CI_SIGMAS = 5.0
BELIEF_TOL = 1e-9


class GateFailure(AssertionError):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


# ---------------------------------------------------------------------------
# exact values for fixed-action chains


def _stationary(transition: np.ndarray) -> np.ndarray:
    """pi with pi (P - I) = 0 and sum pi = 1, as one least-squares solve."""
    S = transition.shape[0]
    A = np.vstack([(transition - np.eye(S)).T, np.ones(S)])
    b = np.zeros(S + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(A, b, rcond=None)[0]


def stationary_rate(transition: np.ndarray, reward: np.ndarray) -> float:
    """Long-run reward per epoch of a closed chain."""
    return float(_stationary(transition) @ reward)


def expected_total(transition: np.ndarray, reward: np.ndarray, horizon: int,
                   start: int = 0) -> float:
    """E[sum of rewards over horizon epochs] from a start state.

    horizon * rate plus the start state's transient bias e0' D r, with the
    deviation matrix D = (I - P + 1 pi')^-1 - 1 pi'. The neglected term
    decays geometrically and is far below the Monte-Carlo error here.
    """
    S = transition.shape[0]
    pi = _stationary(transition)
    one_pi = np.outer(np.ones(S), pi)
    deviation = np.linalg.solve(np.eye(S) - transition + one_pi, np.eye(S)) - one_pi
    return float(horizon * (pi @ reward) + (deviation @ reward)[start])


def check_fixed_sim(model, action: str, totals: np.ndarray, horizon: int) -> dict:
    """The Monte-Carlo mean of a fixed-action simulation against its exact value."""
    a = model.action_index(action)
    rate = stationary_rate(model.transition[a], model.reward[a])
    exact = expected_total(model.transition[a], model.reward[a], horizon)
    totals = np.asarray(totals, dtype=float)
    se = totals.std(ddof=1) / np.sqrt(totals.size)
    mean = float(totals.mean())
    check(abs(mean - exact) <= CI_SIGMAS * se + 1e-9 * abs(exact),
          f"{action}: Monte-Carlo mean {mean:.2f} outside {exact:.2f} +/- "
          f"{CI_SIGMAS:g} x {se:.2f} (stationary rate {rate:.4f}/epoch)")
    return {"action": action, "rate_per_epoch": rate, "exact_total": exact,
            "mc_mean": mean, "mc_se": float(se)}


# ---------------------------------------------------------------------------
# policies


def _act(policy, belief) -> str:
    return policy.action_label(policy.value(np.asarray(belief, dtype=float))[1])


def check_bearing_structure(policy) -> None:
    """Criterion 5: C=1.2 when surely healthy, PM when surely near failure."""
    healthy = np.eye(6)[0]
    near_failure = np.eye(6)[4]
    check(_act(policy, healthy) == "C=1.2",
          f"healthy belief picks {_act(policy, healthy)}, expected C=1.2")
    check(_act(policy, near_failure) == "PM",
          f"near-failure belief picks {_act(policy, near_failure)}, expected PM")


def check_policy_beats_fixed(policy_mean: float, fixed_means: dict) -> None:
    for action, mean in fixed_means.items():
        check(policy_mean > mean,
              f"policy mean {policy_mean:.2f} does not beat fixed {action} ({mean:.2f})")


# ---------------------------------------------------------------------------
# pipeline and session outputs


def check_exit_codes(codes: dict) -> None:
    bad = {cmd: rc for cmd, rc in codes.items() if rc != 0}
    check(not bad, f"subcommands exited non-zero: {bad}")


def check_upper_triangular(transitions) -> None:
    t = np.asarray(transitions, dtype=float)
    lower = np.tril(t, k=-1)
    check(t.ndim == 3 and not lower.any(),
          f"trained transitions have backward mass {float(np.abs(lower).sum()):.3g}")


def check_identical(blobs: list, what: str) -> None:
    check(len(blobs) >= 2, f"{what}: need two runs of one seed to compare")
    check(all(b == blobs[0] for b in blobs[1:]), f"{what} differs between runs of one seed")


def check_session_rows(rows: list, labels) -> int:
    """Every non-skipped row has a known action and a belief summing to 1.

    Returns the number of skipped rows.
    """
    skipped = 0
    for row in rows:
        if "error" in row:
            skipped += 1
            continue
        check(row.get("action") in labels,
              f"epoch {row.get('epoch')}: action {row.get('action')!r} not in {labels}")
        total = float(np.sum(row["belief"]))
        check(abs(total - 1.0) <= BELIEF_TOL,
              f"epoch {row.get('epoch')}: belief sums to {total!r}")
    return skipped


def check_symbol_map(labels: np.ndarray, symbol: int, min_share: float = 0.9) -> None:
    """Windows drawn for symbol j are read back as mixture component j."""
    share = float(np.mean(np.asarray(labels) == symbol))
    check(share >= min_share,
          f"only {share:.0%} of symbol-{symbol} windows map to component {symbol}")
