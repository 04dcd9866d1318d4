"""Bundled bearing-rig fixture.

Matrices learned from run-to-failure tests of rolling bearings operated at
three production capacities. Five operating states plus a failure state;
per-capacity transition matrices, a state-to-symbol observation matrix over
five vibration symbols, and the operating reward table. Used by the demos
and the regression tests, and replayable through the CLI as CSV blocks.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .pomdp import CostTable, PomdpModel, build_pomdp_from_matrices

CAPACITY_LABELS = ("C=1.2", "C=1.3", "C=1.5")

#: (3, 6, 6) transition matrices, one per capacity; rows are the current
#: state (1..5 then failure), columns the next state. Failure is absorbing
#: here; the POMDP assembly swaps that row for the corrective reset.
CAPACITY_TRANSITIONS = np.array([
    [[0.9330, 0.0670, 0.0000, 0.0000, 0.0000, 0.0000],
     [0.0000, 0.8735, 0.1265, 0.0000, 0.0000, 0.0000],
     [0.0000, 0.0000, 0.4639, 0.5361, 0.0000, 0.0000],
     [0.0000, 0.0000, 0.0000, 0.0844, 0.9156, 0.0000],
     [0.0000, 0.0000, 0.0000, 0.0000, 0.1091, 0.8909],
     [0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 1.0000]],
    [[0.8119, 0.1881, 0.0000, 0.0000, 0.0000, 0.0000],
     [0.0000, 0.0428, 0.9572, 0.0000, 0.0000, 0.0000],
     [0.0000, 0.0000, 0.9048, 0.0952, 0.0000, 0.0000],
     [0.0000, 0.0000, 0.0000, 0.7707, 0.2293, 0.0000],
     [0.0000, 0.0000, 0.0000, 0.0000, 0.6425, 0.3575],
     [0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 1.0000]],
    [[0.5606, 0.4394, 0.0000, 0.0000, 0.0000, 0.0000],
     [0.0000, 0.4445, 0.5555, 0.0000, 0.0000, 0.0000],
     [0.0000, 0.0000, 0.8823, 0.1177, 0.0000, 0.0000],
     [0.0000, 0.0000, 0.0000, 0.5407, 0.4593, 0.0000],
     [0.0000, 0.0000, 0.0000, 0.0000, 0.7195, 0.2805],
     [0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 1.0000]],
])

#: (6, 5) symbol probabilities per state. Two rows were published rounded to
#: a total just off 1; the assembly renormalizes.
OBSERVATION_MATRIX = np.array([
    [0.1983, 0.0000, 0.8013, 0.0000, 0.0003],
    [0.0025, 0.0098, 0.5522, 0.0000, 0.4355],
    [0.0000, 0.2810, 0.1381, 0.0000, 0.5809],
    [0.0000, 0.7224, 0.0279, 0.0014, 0.2359],
    [0.0000, 0.7531, 0.0001, 0.1630, 0.0838],
    [0.0000, 0.7651, 0.0000, 0.1907, 0.0442],
])

COST_TABLE = CostTable(capacity_rewards=(1.2, 1.3, 1.5), pm_cost=-6.0, failure_cost=-25.0)

#: (4, 6) reward per (action, state): capacities pay their rate while the
#: machine operates, PM pays its cost, and any action in the failure state
#: pays the corrective cost.
COSTS = COST_TABLE.matrix(5)


def bearing_pomdp(discount: float = 0.95) -> PomdpModel:
    """The assembled 6-state, 4-action decision model."""
    return build_pomdp_from_matrices(
        CAPACITY_TRANSITIONS, OBSERVATION_MATRIX, COST_TABLE,
        discount=discount, action_labels=list(CAPACITY_LABELS))


def write_fixture_csvs(out_dir) -> dict:
    """Drop the fixture as plain CSV blocks (one file per matrix) for CLI replay."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for label, matrix in zip(("transitions_c12", "transitions_c13", "transitions_c15"),
                             CAPACITY_TRANSITIONS):
        paths[label] = _write_matrix(out / f"{label}.csv", matrix)
    paths["observation"] = _write_matrix(out / "observation.csv", OBSERVATION_MATRIX)
    paths["costs"] = _write_matrix(out / "costs.csv", COSTS)
    return paths


def _write_matrix(path: Path, matrix: np.ndarray) -> str:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.atleast_2d(matrix):
            writer.writerow([repr(float(v)) for v in row])
    return str(path)
