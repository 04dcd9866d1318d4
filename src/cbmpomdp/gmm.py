"""Gaussian mixture over feature vectors, defining a discrete symbol alphabet.

Each mixture component is one observation symbol. Component responsibilities
are computed in log space, and components are kept sorted by a designated
feature coordinate so symbol indices are stable across fits.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

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


@dataclass
class GmmModel:
    weights: np.ndarray             # (k,)
    means: np.ndarray               # (k, d)
    covariances: np.ndarray         # (k, d, d)
    sort_key: int = 0
    covariance_type: str = "full"
    loglik_trace: list = field(default_factory=list, repr=False, compare=False)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.means.shape[1]

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
        model = cls(
            weights=np.asarray(d["weights"], dtype=float),
            means=np.asarray(d["means"], dtype=float),
            covariances=np.asarray(d["covariances"], dtype=float),
            sort_key=int(d["sort_key"]),
            covariance_type=str(d["covariance_type"]),
        )
        # a covariance the density cannot factor is a numerical error, found at load
        for mean, cov in zip(model.means, model.covariances):
            gaussian_logpdf(mean, mean, cov)
        return model

    save = _json.save
    load = classmethod(_json.load)


def gaussian_logpdf(X: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Multivariate normal log density of rows of X, via Cholesky."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = X.shape[1]
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        try:
            chol = np.linalg.cholesky(cov + 1e-10 * np.trace(cov) / d * np.eye(d))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("covariance matrix is not positive definite") from exc
    dev = X - mean
    sol = np.linalg.solve(chol, dev.T)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + (sol ** 2).sum(axis=0))


def _component_logdensities(model: GmmModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.column_stack([
        gaussian_logpdf(X, model.means[j], model.covariances[j])
        for j in range(model.n_components)
    ])


def _log_joint(model: GmmModel, X: np.ndarray) -> np.ndarray:
    return _component_logdensities(model, X) + np.log(model.weights)[None, :]


def responsibilities(model: GmmModel, X: np.ndarray) -> np.ndarray:
    """Posterior symbol probabilities, rows summing to 1; log-sum-exp throughout."""
    log_joint = _log_joint(model, X)
    return np.exp(log_joint - logsumexp(log_joint, axis=1, keepdims=True))


def loglik(model: GmmModel, X: np.ndarray) -> float:
    return float(logsumexp(_log_joint(model, X), axis=1).sum())


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
        norm = logsumexp(lg, axis=1)
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
        lg = _component_logdensities(model, X) + np.log(np.maximum(model.weights, _WEIGHT_FLOOR))
        worst = int(logsumexp(lg, axis=1).argmin())
        model.means[j] = X[worst]
        model.covariances[j] = (np.diag(np.diag(global_cov))
                                if model.covariance_type == "diag" else global_cov.copy())
        model.weights[j] = 1.0 / X.shape[0]
        log.warning("re-seeded collapsed mixture component %d at data point %d", j, worst)
    model.weights /= model.weights.sum()


def _sort_components(model: GmmModel) -> None:
    order = np.argsort(model.means[:, model.sort_key], kind="stable")
    model.weights = model.weights[order]
    model.means = model.means[order]
    model.covariances = model.covariances[order]
