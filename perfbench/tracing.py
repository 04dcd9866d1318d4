"""Per-layer tracing from outside the program.

The tracer replaces each public function listed in LAYERS with a timing
wrapper, in every module namespace that holds it (the package binds names
with ``from .x import y``, so one function can live under several names).
Spans are kept in memory and written when the run ends. Work counters are
read off return values, and fallback counters off the package's log
records. ``uninstall`` puts every original back, so untraced
passes in the same process run the unmodified program.
"""
from __future__ import annotations

import functools
import gzip
import json
import logging
import sys
import time
from array import array
from collections import Counter

import cbmpomdp.cli  # noqa: F401  (loaded so install() can wrap its subcommands)
from cbmpomdp import gmm, iohmm, pomdp
from cbmpomdp.pomdp import ZeroProbabilityObservation

#: layer -> public functions wrapped in every namespace that binds them.
LAYERS = {
    "features": ("extract_features", "read_samples_csv", "read_features_csv",
                 "write_features_csv"),
    "_cluster": ("kmeans",),
    "gmm": ("fit_gmm", "responsibilities", "gaussian_logpdf"),
    "iohmm": ("gem_fit", "forward_backward", "enforce_left_to_right"),
    "pomdp": ("pbvi_solve", "backup", "prune_alphas", "expand", "belief_update",
              "build_pomdp"),
    "sim": ("simulate",),
    "runtime": ("run_session", "decide_from_features"),
    "cli": ("cmd_features", "cmd_train", "cmd_select_k", "cmd_fit_gmm",
            "cmd_build_pomdp", "cmd_solve", "cmd_decide", "cmd_run_session",
            "cmd_simulate", "cmd_k_sweep", "cmd_compare_classical", "cmd_rul"),
}

#: model-file methods, reported under the cli layer as cli.<Class>.<method>.
MODEL_CLASSES = (iohmm.IohmmModel, gmm.GmmModel, pomdp.PomdpModel, pomdp.Policy)

#: (logger, message fragment, counter) for fallbacks the package only logs.
LOG_COUNTERS = (
    ("cbmpomdp.gmm", "re-seeded collapsed mixture component", "gmm.reseeds"),
    ("cbmpomdp.iohmm", "stopped at max_iters", "iohmm.hit_max_iters"),
    ("cbmpomdp.runtime", "impossible", "runtime.reseeds"),
    ("cbmpomdp.sim", "zero-probability symbol", "sim.zero_prob_fallbacks"),
)

WORK_COUNTERS = ("gmm.em_iters", "iohmm.gem_iters", "iohmm.hit_max_iters",
                 "pomdp.sweeps", "pomdp.alpha_vectors", "pomdp.belief_points",
                 "sim.epochs", "runtime.epochs", "runtime.skipped_epochs",
                 "pomdp.zero_prob_observations")
FALLBACK_COUNTERS = tuple(c for _, _, c in LOG_COUNTERS if c not in WORK_COUNTERS)
RUN_METRICS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s")


def _span(layer: str, fn: str) -> str:
    # metric names must start with a letter, so _cluster reports as cluster
    return f"{layer.lstrip('_')}.{fn}"


def span_names() -> list[str]:
    names = [_span(layer, fn) for layer, fns in LAYERS.items() for fn in fns]
    names += [f"cli.{cls.__name__}.{m}" for cls in MODEL_CLASSES for m in ("save", "load")]
    return names


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s")]
    out += [(c, "count") for c in WORK_COUNTERS + FALLBACK_COUNTERS]
    out += [(m, "s") for m in RUN_METRICS]
    return out


def _count_results(name: str, result, counters: Counter) -> None:
    if name == "gmm.fit_gmm":
        counters["gmm.em_iters"] += len(result.loglik_trace)
    elif name == "iohmm.gem_fit":
        counters["iohmm.gem_iters"] += len(result[1])
    elif name == "pomdp.pbvi_solve":
        counters["pomdp.sweeps"] += result.iterations
        counters["pomdp.alpha_vectors"] += result.alphas.shape[0]
        counters["pomdp.belief_points"] += result.beliefs.shape[0]
    elif name == "sim.simulate":
        counters["sim.epochs"] += result.n_runs * result.horizon
    elif name == "runtime.run_session":
        counters["runtime.epochs"] += len(result)
        counters["runtime.skipped_epochs"] += sum(1 for r in result if "error" in r)


class _LogCounter(logging.Handler):
    def __init__(self, counters: Counter):
        super().__init__(level=logging.DEBUG)
        self.counters = counters

    def emit(self, record: logging.LogRecord) -> None:
        for logger, fragment, counter in LOG_COUNTERS:
            if record.name == logger and fragment in str(record.msg):
                self.counters[counter] += 1


class Tracer:
    """Spans, self time and counters for the calls made while installed."""

    def __init__(self):
        self.names = span_names()
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.calls = Counter()
        self.busy = Counter()
        self.counters = Counter()
        self.passes: list[dict] = []
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._handler = _LogCounter(self.counters)
        self._pkg_logger = logging.getLogger("cbmpomdp")
        self._saved_level = self._pkg_logger.level

    # -- spans -------------------------------------------------------------

    def begin_pass(self, run_id: str) -> None:
        self._cur = {"run": run_id, "name": array("i"), "start": array("d"),
                     "end": array("d"), "parent": array("i")}
        self.passes.append(self._cur)

    def _wrap(self, name: str, fn):
        sid = self._ids[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cur = self._cur
            idx = len(cur["name"])
            parent = self._stack[-1][0] if self._stack else -1
            cur["name"].append(sid)
            cur["start"].append(0.0)
            cur["end"].append(0.0)
            cur["parent"].append(parent)
            frame = [idx, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ZeroProbabilityObservation:
                self.counters["pomdp.zero_prob_observations"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - start
                cur["start"][idx] = start
                cur["end"][idx] = end
                self.calls[name] += 1
                self.busy[name] += dur - frame[1]
                if self._stack:
                    self._stack[-1][1] += dur
            _count_results(name, result, self.counters)
            return result

        return wrapper

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        # every loaded module, the benchmark's own included: a name is only
        # replaced where it is bound to the very function being wrapped
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"cbmpomdp.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self._wrap(_span(layer, fn_name), original)
                for mod in modules:
                    if vars(mod).get(fn_name) is original:
                        self._patch(mod, fn_name, wrapped)
        for cls in MODEL_CLASSES:
            name = f"cli.{cls.__name__}"
            self._patch(cls, "save", self._wrap(f"{name}.save", cls.save))
            load = self._wrap(f"{name}.load", cls.load.__func__)
            self._patch(cls, "load", classmethod(load))
        self._pkg_logger.addHandler(self._handler)
        self._pkg_logger.setLevel(logging.INFO)

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()
        self._pkg_logger.removeHandler(self._handler)
        self._pkg_logger.setLevel(self._saved_level)

    # -- output ------------------------------------------------------------

    def metrics(self, n_passes: int) -> dict:
        """Per traced pass: calls, self time and counters (means over passes)."""
        n = max(n_passes, 1)
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name] / n
            out[f"{name}.busy_s"] = self.busy[name] / n
        for c in WORK_COUNTERS + FALLBACK_COUNTERS:
            out[c] = self.counters[c] / n
        return out

    def write(self, path) -> None:
        """One gzipped JSON line per traced pass, spans stored column-wise."""
        with gzip.open(path, "wt") as fh:
            for p in self.passes:
                fh.write(json.dumps({
                    "run": p["run"], "names": self.names,
                    "name": p["name"].tolist(), "start": p["start"].tolist(),
                    "end": p["end"].tolist(), "parent": p["parent"].tolist(),
                }) + "\n")
