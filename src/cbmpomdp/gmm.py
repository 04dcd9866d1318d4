"""Gaussian mixture over feature vectors, defining a discrete symbol alphabet.

Each mixture component is one observation symbol. Component responsibilities
are computed in log space, and components are kept sorted by a designated
feature coordinate so symbol indices are stable across fits.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import _json
from ._cluster import cluster_covariances, kmeans
from .errors import DataError, NumericalError

log = logging.getLogger(__name__)

_WEIGHT_FLOOR = 1e-12


@dataclass
class GmmConfig:
    n_components: int
    covariance: str = "full"        # "full" or "diag"
    max_iters: int = 200
    tol: float = 1e-6               # relative loglik change
    ridge: float = 1e-6
    sort_key: int = 0
    seed: int = 0


@dataclass(frozen=True)
class Gaussians:
    """A stack of Gaussians with each covariance factored once: the lower
    Cholesky factors and their log-determinants."""
    means: np.ndarray               # (k, d)
    covariances: np.ndarray         # (k, d, d), the arrays factored
    chols: np.ndarray               # (k, d, d)
    logdets: np.ndarray             # (k,)


def _cholesky(cov: np.ndarray) -> np.ndarray:
    """One covariance's Cholesky factor, retried once with a trace-scaled jitter."""
    d = cov.shape[0]
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        try:
            return np.linalg.cholesky(cov + 1e-10 * np.trace(cov) / d * np.eye(d))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("covariance matrix is not positive definite") from exc


def factor_gaussians(means: np.ndarray, covariances: np.ndarray) -> Gaussians:
    """Factor every covariance of a (k, d, d) stack, in one call when all are
    positive definite and matrix by matrix (with the jitter retry) otherwise."""
    try:
        chols = np.linalg.cholesky(covariances)
    except np.linalg.LinAlgError:
        chols = np.stack([_cholesky(cov) for cov in covariances])
    logdets = 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
    return Gaussians(means, covariances, chols, logdets)


@dataclass
class GmmModel:
    weights: np.ndarray             # (k,)
    means: np.ndarray               # (k, d)
    covariances: np.ndarray         # (k, d, d)
    sort_key: int = 0
    covariance_type: str = "full"
    loglik_trace: list = field(default_factory=list, repr=False, compare=False)
    _gaussians: Gaussians | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.means.shape[1]

    def gaussians(self) -> Gaussians:
        """The components, factored on first use and again whenever means or
        covariances is rebound (a write into either array in place must
        also reset _gaussians)."""
        g = self._gaussians
        if g is None or g.means is not self.means or g.covariances is not self.covariances:
            g = self._gaussians = factor_gaussians(self.means, self.covariances)
        return g

    def validate(self) -> "GmmModel":
        """Check shapes and weights, and factor every covariance (a
        covariance that cannot be factored raises NumericalError)."""
        w, mu, cov = self.weights, self.means, self.covariances
        if w.ndim != 1 or w.shape[0] < 1:
            raise DataError(f"mixture weights must be a non-empty vector, got shape {w.shape}")
        k = w.shape[0]
        if mu.ndim != 2 or mu.shape[0] != k or mu.shape[1] < 1:
            raise DataError(f"mixture means have shape {mu.shape}, expected ({k}, d)")
        d = mu.shape[1]
        if cov.shape != (k, d, d):
            raise DataError(f"mixture covariances have shape {cov.shape}, "
                            f"expected ({k}, {d}, {d})")
        if not np.isfinite(w).all() or (w < 0).any() or abs(w.sum() - 1.0) > 1e-6:
            raise DataError(f"mixture weights must be finite, non-negative and sum to 1, "
                            f"got {w.tolist()}")
        if not (np.isfinite(mu).all() and np.isfinite(cov).all()):
            raise DataError("mixture means and covariances must be finite")
        if self.covariance_type not in ("full", "diag"):
            raise DataError(f"unknown covariance type {self.covariance_type!r}")
        self.gaussians()
        return self

    def to_dict(self) -> dict:
        return {
            "kind": "gmm",
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covariances": self.covariances.tolist(),
            "sort_key": self.sort_key,
            "covariance_type": self.covariance_type,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GmmModel":
        if d.get("kind") != "gmm":
            raise DataError(f"not a gmm model file (kind={d.get('kind')!r})")
        return cls(
            weights=np.asarray(d["weights"], dtype=float),
            means=np.asarray(d["means"], dtype=float),
            covariances=np.asarray(d["covariances"], dtype=float),
            sort_key=int(d["sort_key"]),
            covariance_type=str(d["covariance_type"]),
        ).validate()

    save = _json.save
    load = classmethod(_json.load)


def _logsumexp(a: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along axis, bit for bit as scipy.special.logsumexp
    (1.17) computes it for real input: entries equal to the maximum are
    counted, not summed, so the result is log1p(s/m) + log(m) + max. A
    non-finite result (an all -inf row) falls back to log(sum(exp(a)))."""
    a_max = a.max(axis=axis, keepdims=True)
    at_max = a == a_max
    m = at_max.sum(axis=axis, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rest = a.copy()
        rest[at_max] = -np.inf
        s = np.exp(rest - a_max).sum(axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        inf = ~np.isfinite(out)
        if inf.any():
            out = np.where(inf, np.log(np.exp(a).sum(axis=axis, keepdims=True)), out)
    return out if keepdims else out.squeeze(axis)


def _component_logdensities(g: Gaussians, X: np.ndarray) -> np.ndarray:
    """Log density of every row of X under every component, (n, k) in C order
    (a transposed result would send later products down another BLAS path)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = X.shape[1]
    dev = (X[None, :, :] - g.means[:, None, :]).transpose(0, 2, 1)
    sol = np.linalg.solve(g.chols, dev)
    out = -0.5 * (d * np.log(2.0 * np.pi) + g.logdets[:, None] + (sol ** 2).sum(axis=1))
    return np.ascontiguousarray(out.T)


def gaussian_logpdf(X: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Multivariate normal log density of rows of X, via Cholesky."""
    mean = np.asarray(mean, dtype=float)[None, :]
    cov = np.asarray(cov, dtype=float)[None, :, :]
    return _component_logdensities(factor_gaussians(mean, cov), X)[:, 0]


def _log_joint(model: GmmModel, X: np.ndarray) -> np.ndarray:
    return _component_logdensities(model.gaussians(), X) + np.log(model.weights)[None, :]


def responsibilities(model: GmmModel, X: np.ndarray) -> np.ndarray:
    """Posterior symbol probabilities, rows summing to 1; log-sum-exp throughout."""
    log_joint = _log_joint(model, X)
    return np.exp(log_joint - _logsumexp(log_joint, axis=1, keepdims=True))


def loglik(model: GmmModel, X: np.ndarray) -> float:
    return float(_logsumexp(_log_joint(model, X), axis=1).sum())


def discretize(model: GmmModel, X: np.ndarray) -> np.ndarray:
    """Hard symbol labels: argmax responsibility, ties resolved to the lower index."""
    return responsibilities(model, X).argmax(axis=1)


def weighted_gaussians(W: np.ndarray, X: np.ndarray, means: np.ndarray,
                       covariances: np.ndarray, ridge: float, skip=None,
                       diag: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Weighted Gaussian M-step: per column of W (n, k), the weighted mean and
    covariance (plus ridge; diagonal only when diag) of the rows of X. Components
    in skip (default: those with no weight) keep their incoming parameters."""
    nk = W.sum(axis=0)
    skip = nk <= 0 if skip is None else skip
    means, covariances = means.copy(), covariances.copy()
    ridge_eye = ridge * np.eye(X.shape[1])
    for k in np.flatnonzero(~skip):
        means[k] = W[:, k] @ X / nk[k]
        dev = X - means[k]
        cov = (W[:, k][:, None] * dev).T @ dev / nk[k] + ridge_eye
        covariances[k] = np.diag(np.diag(cov)) if diag else cov
    return means, covariances


def fit_gmm(X: np.ndarray, config: GmmConfig) -> GmmModel:
    """EM fit. Components come back sorted ascending on the sort-key coordinate."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    k = config.n_components
    if k < 1:
        raise DataError(f"need at least one mixture component, got {k}")
    if config.covariance not in ("full", "diag"):
        raise DataError(f"unknown covariance type {config.covariance!r}")
    rng = np.random.default_rng(config.seed)
    centroids, labels = kmeans(X, k, rng)
    global_cov = np.cov(X.T, bias=True).reshape(d, d) + config.ridge * np.eye(d)
    weights = np.maximum(np.bincount(labels, minlength=k), 1) / n
    weights /= weights.sum()
    model = GmmModel(weights, centroids.copy(),
                     cluster_covariances(X, centroids, labels, config.ridge),
                     sort_key=config.sort_key, covariance_type=config.covariance)

    trace: list[float] = []
    prev = None
    for it in range(config.max_iters):
        lg = _log_joint(model, X)
        norm = _logsumexp(lg, axis=1)
        ll = float(norm.sum())
        trace.append(ll)
        if np.isnan(ll):
            raise DataError("mixture loglik became nan")
        if prev is not None and abs(ll - prev) < config.tol * max(1.0, abs(prev)):
            break
        prev = ll
        resp = np.exp(lg - norm[:, None])
        model.weights = resp.sum(axis=0) / n
        starved = model.weights < _WEIGHT_FLOOR
        model.means, model.covariances = weighted_gaussians(
            resp, X, model.means, model.covariances, config.ridge, skip=starved,
            diag=config.covariance == "diag")
        if starved.any():
            _reseed_collapsed(model, X, np.flatnonzero(starved), global_cov)
            prev = None  # re-seeding breaks the monotone guarantee; reset the gate
    _sort_components(model)
    model.loglik_trace = trace
    return model


def _reseed_collapsed(model: GmmModel, X: np.ndarray, collapsed: np.ndarray,
                      global_cov: np.ndarray) -> None:
    """Move starved components to the worst-explained data point (deterministic)."""
    for j in collapsed:
        lg = (_component_logdensities(model.gaussians(), X)
              + np.log(np.maximum(model.weights, _WEIGHT_FLOOR)))
        worst = int(_logsumexp(lg, axis=1).argmin())
        model.means[j] = X[worst]
        model.covariances[j] = (np.diag(np.diag(global_cov))
                                if model.covariance_type == "diag" else global_cov.copy())
        model.weights[j] = 1.0 / X.shape[0]
        model._gaussians = None     # the arrays above were written in place
        log.warning("re-seeded collapsed mixture component %d at data point %d", j, worst)
    model.weights /= model.weights.sum()


def _sort_components(model: GmmModel) -> None:
    order = np.argsort(model.means[:, model.sort_key], kind="stable")
    model.weights = model.weights[order]
    model.means = model.means[order]
    model.covariances = model.covariances[order]
