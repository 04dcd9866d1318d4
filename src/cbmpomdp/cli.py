"""Command-line interface.

Subcommands mirror the pipeline: features, train, select-k, fit-gmm,
build-pomdp, solve, decide, run-session, simulate, k-sweep,
compare-classical, rul. Tabular reports are CSV, models are JSON, session
logs are JSON lines. Exit codes: 0 success, 2 usage or data error,
3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import bearing
from ._json import write_json
from .errors import DataError, NumericalError
from .features import (FEATURE_NAMES, read_features_csv, read_samples_csv,
                       segment_stream, windows_to_features, write_features_csv)
from .gmm import GmmConfig, GmmModel, fit_gmm
from .iohmm import Dataset, GemConfig, IohmmModel, Sequence, gem_fit, select_k
from .pomdp import (CostTable, PbviConfig, Policy, PomdpModel, build_pomdp,
                    build_pomdp_from_matrices, pbvi_solve)
from .runtime import DecisionContext, decide_from_features, run_session
from .sim import SimConfig, compare_classical, k_sweep, rul_experiment, rul_rows, simulate

log = logging.getLogger(__name__)


def _write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])


def _read_matrix_csv(path) -> np.ndarray:
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DataError(f"{path}: non-numeric matrix entry") from exc
    if not rows:
        raise DataError(f"{path}: empty matrix file")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{path}: ragged matrix rows (widths {sorted(widths)})")
    return np.asarray(rows, dtype=float)


def _csv_header(path) -> list:
    with open(path, newline="") as fh:
        try:
            return [h.strip() for h in next(csv.reader(fh))]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None


def _load_dataset(path, actions_order=None) -> Dataset:
    """Features CSV with unit and action columns (optional failed column)."""
    header = _csv_header(path)
    extras = ["unit", "action"] + (["failed"] if "failed" in header else [])
    table = read_features_csv(path, extra_columns=tuple(extras))
    labels = list(actions_order) if actions_order else sorted(set(table["action"]))
    unknown = set(table["action"]) - set(labels)
    if unknown:
        raise DataError(f"action labels {sorted(unknown)} not in {labels}")
    index = {lbl: i for i, lbl in enumerate(labels)}
    units: dict[str, list[int]] = {}
    for row_idx, unit in enumerate(table["unit"]):
        units.setdefault(unit, []).append(row_idx)
    sequences = []
    for unit, row_ids in units.items():
        obs = table["features"][row_ids]
        acts = np.array([index[table["action"][r]] for r in row_ids], dtype=int)
        failed = False
        if "failed" in extras:
            failed = any(table["failed"][r].lower() in ("1", "true", "yes") for r in row_ids)
        sequences.append(Sequence(obs, acts, failed=failed))
    return Dataset(sequences=sequences, action_labels=labels).validate()


def _costs_from_args(args, n_capacity: int):
    if args.costs:
        matrix = _read_matrix_csv(args.costs)
        if matrix.shape[0] != n_capacity + 1:
            raise DataError(f"cost matrix has {matrix.shape[0]} rows, "
                            f"expected {n_capacity + 1} (capacities + PM)")
        return matrix
    if args.capacity_rewards is None:
        raise DataError("either --costs or --capacity-rewards is required")
    if len(args.capacity_rewards) != n_capacity:
        raise DataError(f"{len(args.capacity_rewards)} capacity rewards "
                        f"for {n_capacity} capacity actions")
    return CostTable(tuple(args.capacity_rewards), args.pm_cost, args.failure_cost)


def _assemble_pomdp(args) -> PomdpModel:
    if args.fixture:
        if args.fixture != "bearing":
            raise DataError(f"unknown fixture {args.fixture!r}")
        return bearing.bearing_pomdp(discount=args.gamma)
    if args.transitions:
        mats = [_read_matrix_csv(p) for p in args.transitions]
        shapes = {m.shape for m in mats}
        if len(shapes) != 1:
            raise DataError(f"transition matrices disagree on shape: {sorted(shapes)}")
        obs = _read_matrix_csv(args.obs) if args.obs else None
        if obs is None:
            raise DataError("--obs is required with --transitions")
        labels = args.labels or [f"a{i}" for i in range(len(mats))]
        return build_pomdp_from_matrices(np.stack(mats), obs,
                                         _costs_from_args(args, len(mats)),
                                         discount=args.gamma, action_labels=labels)
    if args.iohmm:
        model = IohmmModel.load(args.iohmm)
        mixture = GmmModel.load(args.gmm) if args.gmm else None
        obs = _read_matrix_csv(args.obs) if args.obs else None
        return build_pomdp(model, mixture, _costs_from_args(args, model.n_actions),
                           discount=args.gamma, obs_matrix=obs,
                           n_obs_samples=args.obs_samples, seed=args.seed)
    raise DataError("one of --fixture, --transitions, or --iohmm is required")


def _pbvi_config(args) -> PbviConfig:
    return PbviConfig(improve_tol=args.improve_tol, max_improve_sweeps=args.max_sweeps,
                      max_expansions=args.max_expansions)


def _gem_config(args) -> GemConfig:
    return GemConfig(n_states=getattr(args, "states", 2),
                     emission_mode=args.emission_mode, max_iters=args.max_iters,
                     tol=args.tol, ridge=args.ridge, sort_key=args.sort_key,
                     seed=args.seed)


# ---------------------------------------------------------------------------
# subcommand bodies


def cmd_features(args, out: Path) -> None:
    stream = read_samples_csv(args.samples)
    windows = segment_stream(stream, args.window, args.hop)
    feats = windows_to_features(windows)
    write_features_csv(out / "features.csv", feats)
    print(f"features: {feats.shape[0]} epochs x {feats.shape[1]} features "
          f"-> {out / 'features.csv'}")


def cmd_train(args, out: Path) -> None:
    dataset = _load_dataset(args.data, args.actions)
    model, trace = gem_fit(dataset, _gem_config(args))
    model.save(out / "iohmm.json")
    write_json(out / "train_log.json", {
        "loglik_trace": trace,
        "n_iters": len(trace),
        "converged": len(trace) < args.max_iters,
        "n_sequences": len(dataset.sequences),
        "actions": dataset.action_labels,
    })
    print(f"train: K={args.states} loglik={trace[-1]:.4f} after {len(trace)} iterations "
          f"-> {out / 'iohmm.json'}")


def cmd_select_k(args, out: Path) -> None:
    dataset = _load_dataset(args.data, args.actions)
    base = _gem_config(args)
    report = select_k(dataset, range(args.k_min, args.k_max + 1), base)
    header = ["K", "loglik", "p", "aic", "bic"]
    if not args.no_train_sec:
        header.append("train_sec")
    rows = [[r[c] for c in header] for r in report.rows]
    _write_csv(out / "select_k.csv", header, rows)
    print(f"select-k: best AIC K={report.best_aic}, best BIC K={report.best_bic} "
          f"-> {out / 'select_k.csv'}")


def cmd_fit_gmm(args, out: Path) -> None:
    table = read_features_csv(args.data)
    config = GmmConfig(n_components=args.components, covariance=args.covariance,
                       max_iters=args.max_iters, tol=args.tol, ridge=args.ridge,
                       sort_key=args.sort_key, seed=args.seed)
    model = fit_gmm(table["features"], config)
    model.save(out / "gmm.json")
    print(f"fit-gmm: {args.components} symbols, loglik={model.loglik_trace[-1]:.4f} "
          f"-> {out / 'gmm.json'}")


def cmd_build_pomdp(args, out: Path) -> None:
    model = _assemble_pomdp(args)
    model.save(out / "pomdp.json")
    print(f"build-pomdp: {model.n_states} states, {model.n_actions} actions, "
          f"{model.n_obs} symbols -> {out / 'pomdp.json'}")


def cmd_solve(args, out: Path) -> None:
    model = _assemble_pomdp(args)
    model.save(out / "pomdp.json")
    policy = pbvi_solve(model, config=_pbvi_config(args))
    policy.save(out / "policy.json")
    print(f"solve: {policy.alphas.shape[0]} alpha vectors, residual {policy.residual:.2e} "
          f"-> {out / 'policy.json'}")


def _check_policy(policy: Policy, pomdp: PomdpModel) -> None:
    """The policy must have been solved for this decision model."""
    if policy.alphas.shape[1] != pomdp.n_states:
        raise DataError(f"policy alphas have {policy.alphas.shape[1]} entries for a "
                        f"{pomdp.n_states}-state pomdp")
    if policy.action_labels != pomdp.action_labels:
        raise DataError(f"policy actions {list(policy.action_labels)} differ from the "
                        f"pomdp's {list(pomdp.action_labels)}")


def _decision_context(args, belief_mode: str) -> DecisionContext:
    pomdp = PomdpModel.load(args.pomdp)
    policy = Policy.load(args.policy)
    _check_policy(policy, pomdp)
    gmm = GmmModel.load(args.gmm)
    if (gmm.n_components, gmm.n_features) != (pomdp.n_obs, len(FEATURE_NAMES)):
        raise DataError(f"gmm has {gmm.n_components} symbols over {gmm.n_features} features; "
                        f"the pomdp has {pomdp.n_obs} symbols and the data "
                        f"{len(FEATURE_NAMES)} feature columns")
    return DecisionContext(gmm=gmm, obs_to_state=pomdp.observation[0], policy=policy,
                           pomdp=pomdp, belief_mode=belief_mode)


def cmd_decide(args, out: Path) -> None:
    ctx = _decision_context(args, args.mode)
    if args.features:
        feats = read_features_csv(args.features)["features"][0]
    else:
        if not args.samples:
            raise DataError("either --samples or --features is required")
        window = read_samples_csv(args.samples)
        feats = windows_to_features([window])[0]
    decision = decide_from_features(feats, ctx)
    payload = {
        "action": decision.action,
        "value": decision.value,
        "belief": decision.belief.tolist(),
        "symbol": decision.symbol,
        "symbol_probs": decision.symbol_probs.tolist(),
    }
    write_json(out / "decision.json", payload)
    print(f"decide: action={decision.action} value={decision.value:.4f} "
          f"-> {out / 'decision.json'}")


def cmd_run_session(args, out: Path) -> None:
    ctx = _decision_context(args, args.belief_mode)
    if args.data:
        epochs = read_features_csv(args.data)["features"]
        rows = run_session(epochs, ctx, mode=args.mode, epochs_are_features=True)
    else:
        if not args.samples:
            raise DataError("either --data or --samples is required")
        if args.window is None:
            raise DataError("--window is required with --samples")
        stream = read_samples_csv(args.samples)
        windows = segment_stream(stream, args.window, args.hop)
        rows = run_session(windows, ctx, mode=args.mode)
    with open(out / "session.jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    n_err = sum(1 for r in rows if "error" in r)
    print(f"run-session: {len(rows)} epochs ({n_err} skipped) -> {out / 'session.jsonl'}")


def cmd_simulate(args, out: Path) -> None:
    model = PomdpModel.load(args.pomdp)
    if args.policy:
        source = Policy.load(args.policy)
        _check_policy(source, model)
        name = "policy"
    elif args.fixed_action is not None:
        source = args.fixed_action
        name = f"fixed:{args.fixed_action}"
    else:
        raise DataError("either --policy or --fixed-action is required")
    report = simulate(model, source, SimConfig(horizon=args.horizon,
                                               n_runs=args.runs, seed=args.seed))
    write_json(out / "sim_report.json", {"policy_source": name, **report.to_dict()})
    _write_csv(out / "sim_runs.csv", ["run", "total", "discounted"],
               [[i, float(report.totals[i]), float(report.discounted[i])]
                for i in range(report.n_runs)])
    print(f"simulate: mean={report.mean:.2f} std={report.std:.2f} "
          f"pm_ratio={report.pm_ratio:.4f} -> {out / 'sim_report.json'}")


def cmd_k_sweep(args, out: Path) -> None:
    dataset = _load_dataset(args.data, args.actions)
    base = _gem_config(args)
    costs = CostTable(tuple(args.capacity_rewards), args.pm_cost, args.failure_cost)
    if len(args.capacity_rewards) != dataset.n_actions:
        raise DataError(f"{len(args.capacity_rewards)} capacity rewards for "
                        f"{dataset.n_actions} actions in the data")
    rows = k_sweep(dataset, range(args.k_min, args.k_max + 1), args.components,
                   costs, args.gamma,
                   SimConfig(horizon=args.horizon, n_runs=args.runs, seed=args.seed),
                   base, _pbvi_config(args))
    header = ["K", "mean_total", "mean_discounted", "pm_ratio", "failure_rate"]
    _write_csv(out / "k_sweep.csv", header, [[r[c] for c in header] for r in rows])
    print(f"k-sweep: K={args.k_min}..{args.k_max} -> {out / 'k_sweep.csv'}")


def cmd_compare_classical(args, out: Path) -> None:
    dataset = _load_dataset(args.data, args.actions)
    rows = compare_classical(dataset, _gem_config(args))
    header = ["variant", "loglik", "reverse_steps", "backward_prob"]
    _write_csv(out / "compare_classical.csv", header,
               [[r[c] for c in header] for r in rows])
    print(f"compare-classical: -> {out / 'compare_classical.csv'}")


def cmd_rul(args, out: Path) -> None:
    model = IohmmModel.load(args.iohmm)
    dataset = _load_dataset(args.data, model.action_labels)
    if model.n_features != len(FEATURE_NAMES):
        raise DataError(f"iohmm model has {model.n_features} features; the data has "
                        f"{len(FEATURE_NAMES)} feature columns")
    quantiles = tuple(args.quantiles)
    header = ["sequence", "epoch", "true_rul", "lower", "median", "upper", "censored"]
    if any(s.failed for s in dataset.sequences):
        result = rul_experiment(dataset, model, args.action,
                                horizon=args.horizon, quantiles=quantiles)
    else:   # no true remaining life: every sequence is forecast, none scored
        rows = rul_rows(dataset, range(len(dataset.sequences)), model, args.action,
                        args.horizon, quantiles)
        result = {"rows": rows, "coverage": None, "n_evaluated": 0,
                  "n_censored": sum(r["censored"] for r in rows)}
    _write_csv(out / "rul.csv", header, [[r[c] for c in header] for r in result["rows"]])
    summary = {k: result[k] for k in ("coverage", "n_evaluated", "n_censored")}
    write_json(out / "rul_summary.json", summary)
    cov = summary["coverage"]
    print(f"rul: {len(result['rows'])} forecasts"
          + (f", coverage={cov:.4f}" if cov is not None else "")
          + f" -> {out / 'rul.csv'}")


# ---------------------------------------------------------------------------
# parser


def _add_em_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--ridge", type=float, default=1e-6)
    p.add_argument("--sort-key", type=int, default=0,
                   help="feature coordinate that orders states/symbols")


def _add_gem_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--emission-mode", choices=("shared", "action"), default="shared")
    _add_em_options(p)
    p.add_argument("--actions", nargs="+", default=None,
                   help="action label order (default: sorted labels found in the data)")


def _add_pomdp_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fixture", choices=("bearing",), default=None,
                   help="use the bundled bearing matrices")
    p.add_argument("--iohmm", default=None, help="trained degradation model JSON")
    p.add_argument("--gmm", default=None, help="symbol mixture JSON")
    p.add_argument("--transitions", nargs="+", default=None,
                   help="per-capacity transition matrix CSVs (failure state last)")
    p.add_argument("--obs", default=None, help="state-by-symbol matrix CSV")
    p.add_argument("--labels", nargs="+", default=None, help="capacity action labels")
    p.add_argument("--costs", default=None, help="reward matrix CSV (capacities + PM rows)")
    p.add_argument("--capacity-rewards", nargs="+", type=float, default=None)
    p.add_argument("--pm-cost", type=float, default=-6.0)
    p.add_argument("--failure-cost", type=float, default=-25.0)
    p.add_argument("--gamma", type=float, default=0.95)
    p.add_argument("--obs-samples", type=int, default=4096,
                   help="draws per state when estimating symbol probabilities")


def _add_pbvi_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--improve-tol", type=float, default=1e-4)
    p.add_argument("--max-sweeps", type=int, default=100)
    p.add_argument("--max-expansions", type=int, default=6)


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """Construct the CLI parser.

    `defaults` overrides option defaults by dest name. Subparsers parse into
    a fresh namespace, so the overrides must be applied to every subparser,
    not just the root.
    """
    parser = argparse.ArgumentParser(
        prog="cbmpomdp",
        description="Degradation modeling and maintenance policy optimization.")
    parser.add_argument("--config", default=None,
                        help="JSON file of option defaults (keys are option names)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--config", default=None,
                       help="JSON file of option defaults (keys are option names)")
        if defaults:
            p.set_defaults(**defaults)
        return p

    p = add("features", cmd_features, "extract feature epochs from a raw sample stream")
    p.add_argument("--samples", required=True, help="single-column CSV (header 'sample')")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--hop", type=int, default=None)

    p = add("train", cmd_train, "fit the left-to-right degradation model")
    p.add_argument("--data", required=True, help="features CSV with unit and action columns")
    p.add_argument("--states", type=int, required=True)
    _add_gem_options(p)

    p = add("select-k", cmd_select_k, "score candidate state counts with AIC/BIC")
    p.add_argument("--data", required=True)
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--no-train-sec", action="store_true",
                   help="omit the wall-clock column so reports are byte-reproducible")
    _add_gem_options(p)

    p = add("fit-gmm", cmd_fit_gmm, "fit the symbol alphabet mixture")
    p.add_argument("--data", required=True, help="features CSV")
    p.add_argument("--components", type=int, required=True)
    p.add_argument("--covariance", choices=("full", "diag"), default="full")
    _add_em_options(p)

    p = add("build-pomdp", cmd_build_pomdp, "assemble the decision model")
    _add_pomdp_inputs(p)

    p = add("solve", cmd_solve, "assemble and solve with point-based value iteration")
    _add_pomdp_inputs(p)
    _add_pbvi_options(p)

    p = add("decide", cmd_decide, "one-shot action recommendation for an epoch")
    p.add_argument("--pomdp", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--gmm", required=True)
    p.add_argument("--samples", default=None, help="single-column CSV, one window")
    p.add_argument("--features", default=None, help="feature CSV, first row used")
    p.add_argument("--mode", choices=("verbatim", "bayes"), default="verbatim")

    p = add("run-session", cmd_run_session, "drive the policy across an epoch stream")
    p.add_argument("--pomdp", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--gmm", required=True)
    p.add_argument("--data", default=None, help="features CSV, one epoch per row")
    p.add_argument("--samples", default=None, help="raw stream CSV to window")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--hop", type=int, default=None)
    p.add_argument("--mode", choices=("stateless", "recursive"), default="stateless")
    p.add_argument("--belief-mode", choices=("verbatim", "bayes"), default="verbatim")

    p = add("simulate", cmd_simulate, "Monte-Carlo policy evaluation")
    p.add_argument("--pomdp", required=True)
    p.add_argument("--policy", default=None)
    p.add_argument("--fixed-action", default=None, help="action label")
    p.add_argument("--horizon", type=int, default=10000)
    p.add_argument("--runs", type=int, default=100)

    p = add("k-sweep", cmd_k_sweep, "pipeline robustness across state counts")
    p.add_argument("--data", required=True)
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--components", type=int, required=True)
    p.add_argument("--capacity-rewards", nargs="+", type=float, required=True)
    p.add_argument("--pm-cost", type=float, default=-6.0)
    p.add_argument("--failure-cost", type=float, default=-25.0)
    p.add_argument("--gamma", type=float, default=0.95)
    p.add_argument("--horizon", type=int, default=2000)
    p.add_argument("--runs", type=int, default=20)
    _add_gem_options(p)
    _add_pbvi_options(p)

    p = add("compare-classical", cmd_compare_classical,
            "constrained model vs the unconstrained classical baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--states", type=int, required=True)
    _add_gem_options(p)

    p = add("rul", cmd_rul, "remaining-useful-life forecasts along sequences")
    p.add_argument("--iohmm", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--action", required=True, help="action label held fixed in the forecast")
    p.add_argument("--horizon", type=int, default=10000)
    p.add_argument("--quantiles", nargs="+", type=float, default=[0.025, 0.5, 0.975])
    return parser


def _extract_config_path(argv: list) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                raise DataError("--config needs a file argument")
            return argv[i + 1]
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config_path = _extract_config_path(argv)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    defaults = None
    if config_path:
        try:
            with open(config_path) as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config {config_path}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(overrides, dict):
            print(f"error: config {config_path} must hold a JSON object of option defaults",
                  file=sys.stderr)
            return 2
        defaults = {k.replace("-", "_"): v for k, v in overrides.items()}
    parser = build_parser(defaults)
    args = parser.parse_args(argv)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        args.fn(args, out)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
