"""Seeded input generators for the benchmark workloads.

Everything here is benchmark-side: the program under test only ever sees
the arrays and files these functions produce. The same seed always gives
the same inputs.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from cbmpomdp import bearing

N_STATES = bearing.CAPACITY_TRANSITIONS.shape[1]      # 5 operating states + failure
FAILURE = N_STATES - 1

# Vibration profile per hidden state: broadband amplitude and the expected
# number of impulses per 256 samples both grow as the unit degrades.
STATE_AMPLITUDE = np.array([1.0, 1.4, 1.9, 2.5, 3.2, 4.0])
STATE_IMPULSE_RATE = np.array([1.0, 2.0, 4.0, 8.0, 14.0, 20.0])
STATE_IMPULSE_GAIN = 4.0


def vibration_window(rng: np.random.Generator, n: int, amplitude: float,
                     impulse_rate: float, gain: float) -> np.ndarray:
    """Gaussian broadband noise plus signed impulses of gain x amplitude."""
    x = amplitude * rng.standard_normal(n)
    k = rng.poisson(impulse_rate * n / 256.0)
    if k:
        pos = rng.integers(0, n, size=k)
        x[pos] += gain * amplitude * rng.choice((-1.0, 1.0), size=k)
    return x


def state_window(rng: np.random.Generator, n: int, state: int) -> np.ndarray:
    return vibration_window(rng, n, STATE_AMPLITUDE[state], STATE_IMPULSE_RATE[state],
                            STATE_IMPULSE_GAIN)


MAX_EPOCHS = 400     # a unit still running after this many epochs is censored


def _step(rng: np.random.Generator, transition: np.ndarray, state: int) -> int:
    return int(rng.choice(transition.shape[1], p=transition[state]))


# ---------------------------------------------------------------------------
# cli-pipeline: a run-to-failure fleet written as one raw sample stream


def fleet(rng: np.random.Generator, n_units: int, window: int):
    """Run-to-failure units under per-epoch random capacities.

    actions[t] drives the transition into epoch t (the degradation model's
    convention); every unit starts healthy and stops at its first epoch in
    the failure state. Returns (windows (n, window), units, action labels,
    failed flags), one entry per epoch.
    """
    X = bearing.CAPACITY_TRANSITIONS
    labels = bearing.CAPACITY_LABELS
    windows, units, actions, failed = [], [], [], []
    for u in range(n_units):
        state = 0
        for t in range(MAX_EPOCHS):
            a = int(rng.integers(len(labels)))
            if t > 0:
                state = _step(rng, X[a], state)
            windows.append(state_window(rng, window, state))
            units.append(f"u{u:03d}")
            actions.append(labels[a])
            if state == FAILURE:
                break
        failed.extend([str(int(state == FAILURE))] * (t + 1))
    return np.array(windows), units, actions, failed


def session_windows(rng: np.random.Generator, n_epochs: int, window: int) -> np.ndarray:
    """One machine at the lowest capacity, reset to healthy after failure."""
    X = bearing.CAPACITY_TRANSITIONS[0]
    out = np.empty((n_epochs, window))
    state = 0
    for t in range(n_epochs):
        out[t] = state_window(rng, window, state)
        state = 0 if state == FAILURE else _step(rng, X, state)
    return out


def write_samples_csv(path: Path, windows: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample"])
        writer.writerows([repr(float(v))] for v in windows.ravel())


# ---------------------------------------------------------------------------
# live-session: symbol prototypes, a window pool per symbol, a symbol stream

N_SYMBOLS = bearing.OBSERVATION_MATRIX.shape[1]
# Prototype j is the vibration signature of symbol j; amplitude rises with j,
# so ordering mixture components by rms makes component j symbol j. The
# amplitude ratio and the mild impulses keep the prototypes far apart in
# every feature, so k-means seeding finds one cluster per prototype.
SYMBOL_AMPLITUDE = 1.6 ** np.arange(N_SYMBOLS)
SYMBOL_IMPULSE_RATE = 1.0
SYMBOL_IMPULSE_GAIN = 3.0


def symbol_windows(rng: np.random.Generator, symbol: int, count: int,
                   window: int) -> np.ndarray:
    return np.array([vibration_window(rng, window, SYMBOL_AMPLITUDE[symbol],
                                      SYMBOL_IMPULSE_RATE, SYMBOL_IMPULSE_GAIN)
                     for _ in range(count)])


def symbol_stream(rng: np.random.Generator, n_epochs: int, transition: np.ndarray,
                  observation: np.ndarray) -> np.ndarray:
    """Symbols emitted by one machine following a (reset-row) transition matrix."""
    cum_x = np.cumsum(transition, axis=1)
    cum_z = np.cumsum(observation, axis=1)
    u = rng.random((n_epochs, 2))
    out = np.empty(n_epochs, dtype=int)
    state = 0
    for t in range(n_epochs):
        out[t] = min(int(np.searchsorted(cum_z[state], u[t, 0], side="right")), N_SYMBOLS - 1)
        state = min(int(np.searchsorted(cum_x[state], u[t, 1], side="right")), N_STATES - 1)
    return out
