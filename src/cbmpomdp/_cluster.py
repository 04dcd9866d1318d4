"""Deterministic k-means used to initialize the mixture and HMM emissions."""
from __future__ import annotations

import numpy as np

from .errors import DataError


class TooFewObservations(DataError):
    pass


def kmeans(X: np.ndarray, k: int, rng: np.random.Generator,
           max_iters: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++ seeding.

    Deterministic given the generator state. An emptied cluster is re-seeded
    at the point farthest from its assigned centroid (first such point on
    ties), so k centroids always come back. Returns (centroids (k, d),
    labels (n,)).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if n < k:
        raise TooFewObservations(f"need at least {k} observations for {k} clusters, got {n}")
    centroids = _plusplus_seed(X, k, rng)
    labels = np.zeros(n, dtype=int)
    for _ in range(max_iters):
        d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        new_centroids = centroids.copy()
        for j in range(k):
            members = labels == j
            if members.any():
                new_centroids[j] = X[members].mean(axis=0)
            else:
                farthest = int(d2[np.arange(n), labels].argmax())
                new_centroids[j] = X[farthest]
                labels[farthest] = j
        if np.allclose(new_centroids, centroids):
            centroids = new_centroids
            break
        centroids = new_centroids
    d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return centroids, d2.argmin(axis=1)


def _plusplus_seed(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = [X[int(rng.integers(n))]]
    for _ in range(1, k):
        d2 = np.min(((X[:, None, :] - np.array(centroids)[None, :, :]) ** 2).sum(axis=2), axis=1)
        total = d2.sum()
        if total <= 0:
            centroids.append(X[int(rng.integers(n))])
            continue
        centroids.append(X[int(rng.choice(n, p=d2 / total))])
    return np.array(centroids, dtype=float)


def cluster_covariances(X: np.ndarray, centroids: np.ndarray, labels: np.ndarray,
                        ridge: float) -> np.ndarray:
    """Within-cluster covariance about each centroid plus a ridge, in cluster
    order (k, d, d); an empty cluster gets the ridge alone."""
    k, d = centroids.shape
    covs = np.empty((k, d, d))
    for j in range(k):
        dev = X[labels == j] - centroids[j]
        covs[j] = dev.T @ dev / max(dev.shape[0], 1) + ridge * np.eye(d)
    return covs
