"""The three benchmark workloads.

Each workload builds its models in ``setup`` (timed, repeated, reported as
``setup_s``), then runs identical passes of its timed section until the run's
time is spent. A pass returns one sample of each end-to-end metric plus the
outputs the correctness gates need. See NOTES.md for why each workload
exists and which layers it isolates.

Every workload reports all end-to-end metrics. Metrics outside a
workload's own path (train and session latency on bearing-solve-eval,
simulation on live-session) come from a small fixed ``side_pass``. run.py
calls it after each pass, outside the timed section and outside the
tracer, so it counts towards neither ``wall_s`` nor the per-layer figures.
Models only a side pass needs are built before setup, so they do not
count towards ``setup_s``.
"""
from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cbmpomdp.cli
from cbmpomdp import (DecisionContext, GmmConfig, PbviConfig, Policy, PomdpModel, SimConfig,
                      bearing, bearing_pomdp, discretize, fit_gmm, gem_fit, pbvi_solve,
                      read_features_csv, run_session, simulate, windows_to_features,
                      write_features_csv)
from cbmpomdp.iohmm import Dataset, GemConfig, Sequence

import gates
import inputs

CAPACITIES = bearing.CAPACITY_LABELS
HEALTHY = np.eye(len(inputs.STATE_AMPLITUDE))[0]
#: The cli-pipeline training fleet is one fixed dataset (see NOTES.md).
FLEET_SEED = 0
#: Default 1e-6 makes gem_fit fail on these nearly collinear features (NOTES.md).
RIDGE = 0.01


@dataclass(frozen=True)
class Sizes:
    solve: PbviConfig                 # bearing-solve-eval's PBVI settings
    sim_runs: int                     # bearing-solve-eval simulation
    sim_horizon: int
    fleet_units: int                  # cli-pipeline training fleet
    fleet_window: int
    cli_session_epochs: int
    cli_sim_runs: int
    cli_sim_horizon: int
    live_epochs: int                  # per session mode
    live_window: int
    live_pool: int                    # pre-generated windows per symbol
    live_train_windows: int           # per symbol, for the setup GMM fit
    live_em_iters: int
    side_epochs: int                  # side pass: session epochs per mode
    side_fleet_units: int             # side pass: training fleet
    side_sim_runs: int                # side pass: simulation
    side_sim_horizon: int


SIZES = {
    "full": Sizes(solve=PbviConfig(improve_tol=1e-5, max_expansions=8),
                  sim_runs=100, sim_horizon=10_000,
                  fleet_units=300, fleet_window=256, cli_session_epochs=2500,
                  cli_sim_runs=50, cli_sim_horizon=10_000,
                  live_epochs=4000, live_window=2048, live_pool=32,
                  live_train_windows=100, live_em_iters=30,
                  side_epochs=2000, side_fleet_units=60,
                  side_sim_runs=50, side_sim_horizon=2000),
    "tiny": Sizes(solve=PbviConfig(improve_tol=1e-3, max_expansions=3),
                  sim_runs=10, sim_horizon=2000,
                  fleet_units=40, fleet_window=256, cli_session_epochs=100,
                  cli_sim_runs=5, cli_sim_horizon=500,
                  live_epochs=300, live_window=2048, live_pool=8,
                  live_train_windows=30, live_em_iters=10,
                  side_epochs=100, side_fleet_units=20,
                  side_sim_runs=5, side_sim_horizon=500),
}

# the live-session policy is cheap on purpose: it is built in setup
LIVE_SOLVE = PbviConfig(improve_tol=1e-3, max_expansions=3)
#: Distinct session streams, cycled over passes. Which epochs land in the
#: latency tail depends on the stream, so spreading passes over several
#: streams keeps p99 from following one stream's make-up.
STREAMS = 3
#: Each session is replayed this many times in a pass, stateless and
#: recursive alternating, and an epoch's latency is its fastest replay. On a
#: shared host, bursts of interference slow a few percent of epochs at
#: random and set the pooled p99; they rarely hit one epoch in every replay,
#: while a slow path in the program does (see NOTES.md).
REPLAYS = 3


@dataclass
class Pass:
    """One pass: metric samples, op counts, and outputs for the gates."""
    wall_s: float = 0.0
    values: dict = field(default_factory=dict)
    latencies: dict = field(default_factory=lambda: {"stateless": [], "recursive": []})
    attempted: int = 0
    failed: int = 0


def stamped(epochs, out: list):
    """Yield epochs, appending the time from each hand-over to the next request."""
    for epoch in epochs:
        start = time.perf_counter()
        yield epoch
        out.append(time.perf_counter() - start)


def replayed(p: Pass, session) -> None:
    """Run ``session(mode, latencies)`` REPLAYS times per mode, modes alternating,
    and add each epoch's fastest replay to the pass's latency samples."""
    replays = {mode: [] for mode in p.latencies}
    for _ in range(REPLAYS):
        for mode, runs in replays.items():
            runs.append([])
            session(mode, runs[-1])
    for mode, runs in replays.items():
        p.latencies[mode] += np.min(np.asarray(runs), axis=0).tolist()


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _read_json(path: Path):
    return json.loads(path.read_text())


def _fleet_dataset(features: np.ndarray, units, actions, failed) -> Dataset:
    index = {lbl: i for i, lbl in enumerate(CAPACITIES)}
    units = np.asarray(units)
    acts = np.array([index[a] for a in actions])
    flags = np.asarray(failed) == "1"
    seqs = [Sequence(features[units == u], acts[units == u], failed=bool(flags[units == u][0]))
            for u in dict.fromkeys(units)]
    return Dataset(sequences=seqs, action_labels=list(CAPACITIES))


# ---------------------------------------------------------------------------
# shared pieces: the live decision context and the side passes


class LiveModels:
    """Bearing POMDP, a cheap policy and a GMM over symbol prototypes.

    Inputs (prototype windows, per-symbol pools, the symbol stream) come from
    the seed and are drawn once; ``build`` fits the models. live-session
    times it as its setup; bearing-solve-eval builds once, before setup.
    """

    def __init__(self, rng: np.random.Generator, sizes: Sizes, n_epochs: int):
        self.sizes, self.n_epochs, self.sessions_run = sizes, n_epochs, 0
        w = sizes.live_window
        self.train_windows = np.vstack([
            inputs.symbol_windows(rng, j, sizes.live_train_windows, w)
            for j in range(inputs.N_SYMBOLS)])
        self.pool = np.stack([inputs.symbol_windows(rng, j, sizes.live_pool, w)
                              for j in range(inputs.N_SYMBOLS)])
        self.pomdp = bearing_pomdp()
        stream_action = 0   # the machine runs at the lowest capacity
        self.symbols = inputs.symbol_stream(rng, STREAMS * n_epochs,
                                            self.pomdp.transition[stream_action],
                                            self.pomdp.observation[stream_action])
        self.picks = rng.integers(0, sizes.live_pool, size=STREAMS * n_epochs)

    def build(self) -> dict:
        """Fit the models; returns the solve and fit times."""
        self.policy, solve_s = _timed(pbvi_solve, self.pomdp, config=LIVE_SOLVE)
        start = time.perf_counter()
        feats = windows_to_features(self.train_windows)
        self.gmm = fit_gmm(feats, GmmConfig(n_components=inputs.N_SYMBOLS, ridge=RIDGE,
                                            max_iters=self.sizes.live_em_iters, tol=0.0))
        train_s = time.perf_counter() - start
        self.ctx = DecisionContext(gmm=self.gmm, obs_to_state=self.pomdp.observation[0],
                                   policy=self.policy, pomdp=self.pomdp)
        return {"solve_s": solve_s, "train_s": train_s}

    def check_symbols(self) -> None:
        for j in range(inputs.N_SYMBOLS):
            gates.check_symbol_map(discretize(self.gmm, windows_to_features(self.pool[j])), j)

    def epochs(self):
        start = (self.sessions_run % STREAMS) * self.n_epochs
        pool, symbols, picks = self.pool, self.symbols, self.picks
        return (pool[symbols[t], picks[t]] for t in range(start, start + self.n_epochs))

    def sessions(self, p: Pass) -> None:
        """Replayed stateless and recursive sessions over the next stream."""
        def session(mode, latencies):
            rows = run_session(stamped(self.epochs(), latencies), self.ctx, mode=mode)
            skipped = gates.check_session_rows(rows, self.policy.action_labels)
            p.attempted += len(rows)
            p.failed += skipped

        replayed(p, session)
        self.sessions_run += 1


def timed_sims(p: Pass, model, policy, cfg: SimConfig):
    """Simulate the policy and each fixed capacity, recording both epochs/s.

    Returns the policy's report and {capacity: report}.
    """
    report, dt = _timed(simulate, model, policy, cfg)
    p.values["sim_policy_epochs_per_s"] = cfg.n_runs * cfg.horizon / dt
    fixed, fixed_s = {}, 0.0
    for c in CAPACITIES:
        fixed[c], dt = _timed(simulate, model, c, cfg)
        fixed_s += dt
    p.values["sim_fixed_epochs_per_s"] = len(CAPACITIES) * cfg.n_runs * cfg.horizon / fixed_s
    p.attempted += 1 + len(CAPACITIES)
    return report, fixed


def side_train(p: Pass, dataset: Dataset, features: np.ndarray) -> None:
    """gem_fit plus fit_gmm on a small fixed fleet, for train_s."""
    start = time.perf_counter()
    model, _ = gem_fit(dataset, GemConfig(n_states=inputs.N_STATES, ridge=RIDGE))
    fit_gmm(features, GmmConfig(n_components=inputs.N_SYMBOLS, ridge=RIDGE))
    p.values["train_s"] = time.perf_counter() - start
    gates.check_upper_triangular(model.transitions)
    p.attempted += 2


# ---------------------------------------------------------------------------
# workloads


class BearingSolveEval:
    """PBVI on the bearing fixture, then Monte-Carlo evaluation of the policy
    and of each fixed capacity. Stresses pomdp and sim."""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes = seed, sizes
        rng = np.random.default_rng(seed)
        self.live = LiveModels(rng, sizes, sizes.side_epochs)
        win, units, actions, failed = inputs.fleet(np.random.default_rng(FLEET_SEED),
                                                   sizes.side_fleet_units, sizes.fleet_window)
        self.side_feats = windows_to_features(win)
        self.side_data = _fleet_dataset(self.side_feats, units, actions, failed)
        self.live.build()
        self.analytic: list = []

    def setup(self) -> None:
        self.model = bearing_pomdp()

    def run_pass(self) -> Pass:
        s, p = self.sizes, Pass()
        start = time.perf_counter()
        policy, p.values["solve_s"] = _timed(pbvi_solve, self.model, config=s.solve)
        cfg = SimConfig(horizon=s.sim_horizon, n_runs=s.sim_runs, seed=self.seed)
        report, fixed = timed_sims(p, self.model, policy, cfg)
        p.wall_s = time.perf_counter() - start
        p.attempted += 1    # the solve
        p.values["policy_value_b0"] = policy.value(HEALTHY)[0]

        gates.check_bearing_structure(policy)
        gates.check_policy_beats_fixed(report.mean, {c: r.mean for c, r in fixed.items()})
        self.analytic = [gates.check_fixed_sim(self.model, c, fixed[c].totals, cfg.horizon)
                         for c in CAPACITIES]
        return p

    def side_pass(self, p: Pass) -> None:
        side_train(p, self.side_data, self.side_feats)
        self.live.sessions(p)

    def finish(self) -> dict:
        self.live.check_symbols()
        return {"analytic": self.analytic}


class CliPipeline:
    """The CLI end to end, in-process: features, train, fit-gmm, solve,
    simulate and run-session on a synthetic run-to-failure fleet."""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        w = sizes.fleet_window
        windows, self.units, self.actions, self.failed = inputs.fleet(
            np.random.default_rng(FLEET_SEED), sizes.fleet_units, w)
        self.fleet_csv = workdir / "fleet.csv"
        inputs.write_samples_csv(self.fleet_csv, windows)
        rng = np.random.default_rng(seed)
        self.session_csvs = [workdir / f"session{i}.csv" for i in range(STREAMS)]
        for path in self.session_csvs:
            inputs.write_samples_csv(path, inputs.session_windows(
                rng, sizes.cli_session_epochs, w))
        self.n_pass = 0
        self.policy_bytes: list = []
        self.fleet_epochs = windows.shape[0]

    def setup(self) -> None:
        pass    # the CLI builds every model inside the timed section

    def _cli(self, p: Pass, codes: dict, key: str, *argv) -> float:
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            codes[key] = cbmpomdp.cli.main(list(argv) + ["--out", str(self.out)])
        dt = time.perf_counter() - start
        p.attempted += 1
        p.failed += codes[key] != 0
        return dt

    def _session(self, p: Pass, codes: dict, mode: str, lat: list) -> None:
        """run-session with its epoch iterator stamped from outside."""
        original = cbmpomdp.cli.run_session

        def stamping(epochs, *args, **kwargs):
            return original(stamped(epochs, lat), *args, **kwargs)

        cbmpomdp.cli.run_session = stamping
        try:
            self._cli(p, codes, f"run-session-{mode}-{len(codes)}", "run-session",
                      "--pomdp", str(self.out / "pomdp.json"),
                      "--policy", str(self.out / "policy.json"),
                      "--gmm", str(self.out / "gmm.json"),
                      "--samples", str(self.session_csv),
                      "--window", str(self.sizes.fleet_window), "--mode", mode)
        finally:
            cbmpomdp.cli.run_session = original
        with open(self.out / "session.jsonl") as fh:
            rows = [json.loads(line) for line in fh]
        labels = _read_json(self.out / "policy.json")["action_labels"]
        skipped = gates.check_session_rows(rows, labels)
        p.attempted += len(rows)
        p.failed += skipped

    def run_pass(self) -> Pass:
        s, p, codes = self.sizes, Pass(), {}
        self.out = self.workdir / f"pass{self.n_pass}"
        self.session_csv = self.session_csvs[self.n_pass % STREAMS]
        self.n_pass += 1
        o = self.out
        start = time.perf_counter()
        self._cli(p, codes, "features", "features", "--samples", str(self.fleet_csv),
                  "--window", str(s.fleet_window))
        table = read_features_csv(o / "features.csv")
        write_features_csv(o / "fleet.csv", table["features"],
                           {"unit": self.units, "action": self.actions, "failed": self.failed})
        train_s = self._cli(p, codes, "train", "train", "--data", str(o / "fleet.csv"),
                            "--states", str(inputs.N_STATES), "--ridge", str(RIDGE))
        train_s += self._cli(p, codes, "fit-gmm", "fit-gmm", "--data", str(o / "fleet.csv"),
                             "--components", str(inputs.N_SYMBOLS), "--ridge", str(RIDGE))
        p.values["train_s"] = train_s
        p.values["solve_s"] = self._cli(
            p, codes, "solve", "solve", "--iohmm", str(o / "iohmm.json"),
            "--gmm", str(o / "gmm.json"), "--capacity-rewards", "1.2", "1.3", "1.5")
        sim = ["--pomdp", str(o / "pomdp.json"), "--runs", str(s.cli_sim_runs),
               "--horizon", str(s.cli_sim_horizon), "--seed", str(self.seed)]
        epochs = s.cli_sim_runs * s.cli_sim_horizon
        dt = self._cli(p, codes, "simulate-policy", "simulate", "--policy",
                       str(o / "policy.json"), *sim)
        p.values["sim_policy_epochs_per_s"] = epochs / dt
        sim_report = _read_json(o / "sim_report.json")
        fixed_s, fixed = 0.0, {}
        for c in CAPACITIES:
            fixed_s += self._cli(p, codes, f"simulate-{c}", "simulate", "--fixed-action", c, *sim)
            fixed[c] = _read_json(o / "sim_report.json")["totals"]
        p.values["sim_fixed_epochs_per_s"] = len(CAPACITIES) * epochs / fixed_s
        replayed(p, lambda mode, lat: self._session(p, codes, mode, lat))
        p.wall_s = time.perf_counter() - start

        # read outputs with from_dict, so the gates add no traced load calls
        gates.check_exit_codes(codes)
        gates.check_upper_triangular(_read_json(o / "iohmm.json")["transitions"])
        model = PomdpModel.from_dict(_read_json(o / "pomdp.json"))
        for c in CAPACITIES:
            gates.check_fixed_sim(model, c, fixed[c], s.cli_sim_horizon)
        gates.check_policy_beats_fixed(float(np.mean(sim_report["totals"])),
                                       {c: float(np.mean(t)) for c, t in fixed.items()})
        self.policy_bytes.append((o / "policy.json").read_bytes())
        policy = Policy.from_dict(json.loads(self.policy_bytes[-1]))
        p.values["policy_value_b0"] = policy.value(HEALTHY)[0]
        self.gem_iters = _read_json(o / "train_log.json")["n_iters"]
        return p

    def side_pass(self, p: Pass) -> None:
        pass    # every metric comes from the pipeline itself

    def finish(self) -> dict:
        gates.check_identical(self.policy_bytes, "policy.json")
        return {"fleet_epochs": self.fleet_epochs, "fleet_units": self.sizes.fleet_units,
                "gem_iters": self.gem_iters}


class LiveSession:
    """Per-epoch decisions from raw 2048-sample windows, stateless and
    recursive. Stresses features, gmm.responsibilities, runtime and
    pomdp.belief_update one row at a time; no fitting, no PBVI sweeps."""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes = seed, sizes
        self.live = LiveModels(np.random.default_rng(seed), sizes, sizes.live_epochs)
        self.builds: list = []

    def setup(self) -> None:
        self.builds.append(self.live.build())

    def run_pass(self) -> Pass:
        p = Pass()
        start = time.perf_counter()
        self.live.sessions(p)
        p.wall_s = time.perf_counter() - start
        p.values["solve_s"] = float(np.median([b["solve_s"] for b in self.builds]))
        p.values["train_s"] = float(np.median([b["train_s"] for b in self.builds]))
        p.values["policy_value_b0"] = self.live.policy.value(HEALTHY)[0]
        return p

    def side_pass(self, p: Pass) -> None:
        s = self.sizes
        cfg = SimConfig(horizon=s.side_sim_horizon, n_runs=s.side_sim_runs, seed=self.seed)
        timed_sims(p, self.live.pomdp, self.live.policy, cfg)

    def finish(self) -> dict:
        self.live.check_symbols()
        return {}


WORKLOADS = {
    "bearing-solve-eval": BearingSolveEval,
    "cli-pipeline": CliPipeline,
    "live-session": LiveSession,
}
