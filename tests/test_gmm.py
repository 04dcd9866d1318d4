import math
import subprocess
import sys

import numpy as np
import pytest

from cbmpomdp import GmmConfig, GmmModel, discretize, fit_gmm, gmm, responsibilities
from cbmpomdp._cluster import TooFewObservations, kmeans
from cbmpomdp.errors import DataError, NumericalError
from cbmpomdp.gmm import _component_logdensities, _logsumexp, factor_gaussians, gaussian_logpdf
from cbmpomdp.gmm import loglik as gmm_loglik


def two_component_hand_model():
    """Weights (0.3, 0.7); both components centered on the query point so the
    densities are exactly 2 and 1, giving responsibilities 0.6/1.3, 0.7/1.3."""
    s1 = 1.0 / (2.0 * math.sqrt(2.0 * math.pi))
    s2 = 1.0 / math.sqrt(2.0 * math.pi)
    return GmmModel(weights=np.array([0.3, 0.7]),
                    means=np.array([[0.0], [0.0]]),
                    covariances=np.array([[[s1 ** 2]], [[s2 ** 2]]]))


def test_hand_responsibilities():
    model = two_component_hand_model()
    r = responsibilities(model, np.array([[0.0]]))
    assert r.shape == (1, 2)
    assert r[0, 0] == pytest.approx(0.6 / 1.3, abs=1e-12)
    assert r[0, 1] == pytest.approx(0.7 / 1.3, abs=1e-12)


def test_hand_loglik():
    model = two_component_hand_model()
    # mixture density at 0 is 0.3*2 + 0.7*1 = 1.3
    assert gmm_loglik(model, np.array([[0.0]])) == pytest.approx(math.log(1.3), abs=1e-12)


def test_gaussian_logpdf_matches_scipy():
    from scipy.stats import multivariate_normal
    rng = np.random.default_rng(3)
    mean = rng.normal(size=3)
    A = rng.normal(size=(3, 3))
    cov = A @ A.T + 0.5 * np.eye(3)
    X = rng.normal(size=(20, 3))
    ours = gaussian_logpdf(X, mean, cov)
    ref = multivariate_normal.logpdf(X, mean=mean, cov=cov)
    np.testing.assert_allclose(ours, ref, atol=1e-10)


def test_responsibilities_rows_sum_to_one():
    rng = np.random.default_rng(7)
    model = GmmModel(weights=np.array([0.2, 0.5, 0.3]),
                     means=rng.normal(size=(3, 2)),
                     covariances=np.tile(np.eye(2), (3, 1, 1)))
    X = rng.normal(scale=50.0, size=(500, 2))
    r = responsibilities(model, X)
    np.testing.assert_allclose(r.sum(axis=1), 1.0, atol=1e-12)
    assert (r >= 0).all()


def make_blobs(seed=0, n=300):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [4.0, 7.0]])
    X = np.vstack([c + rng.normal(scale=0.6, size=(n, 2)) for c in centers])
    labels = np.repeat(np.arange(3), n)
    return X, labels, centers


def test_fit_recovers_blobs():
    X, labels, centers = make_blobs(seed=1)
    model = fit_gmm(X, GmmConfig(n_components=3, seed=0))
    # components come out sorted by mean coordinate 0
    order = np.argsort(centers[:, 0], kind="stable")
    np.testing.assert_allclose(model.means, centers[order], atol=0.15)
    np.testing.assert_allclose(model.weights, [1 / 3] * 3, atol=0.02)
    sym = discretize(model, X)
    relabel = {old: new for new, old in enumerate(order)}
    expected = np.array([relabel[l] for l in labels])
    assert (sym == expected).mean() >= 0.99


def test_loglik_trace_non_decreasing():
    X, _, _ = make_blobs(seed=2, n=100)
    model = fit_gmm(X, GmmConfig(n_components=3, seed=0))
    trace = np.asarray(model.loglik_trace)
    assert trace.size >= 2
    assert (np.diff(trace) >= -1e-8).all()


def test_components_sorted_by_key():
    X, _, _ = make_blobs(seed=3, n=80)
    for key in (0, 1):
        model = fit_gmm(X, GmmConfig(n_components=3, sort_key=key, seed=0))
        assert (np.diff(model.means[:, key]) >= 0).all()


def test_diag_covariance_mode():
    X, _, _ = make_blobs(seed=4, n=120)
    model = fit_gmm(X, GmmConfig(n_components=3, covariance="diag", seed=0))
    for cov in model.covariances:
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() == 0.0
    r = responsibilities(model, X)
    np.testing.assert_allclose(r.sum(axis=1), 1.0, atol=1e-12)


def test_discretize_tie_goes_to_lower_index():
    model = GmmModel(weights=np.array([0.5, 0.5]),
                     means=np.array([[-1.0], [1.0]]),
                     covariances=np.array([[[1.0]], [[1.0]]]))
    sym = discretize(model, np.array([[0.0]]))
    assert sym[0] == 0


def test_serialization_roundtrip(tmp_path):
    X, _, _ = make_blobs(seed=5, n=60)
    model = fit_gmm(X, GmmConfig(n_components=2, seed=0))
    path = tmp_path / "gmm.json"
    model.save(path)
    back = GmmModel.load(path)
    np.testing.assert_array_equal(back.weights, model.weights)
    np.testing.assert_array_equal(back.means, model.means)
    np.testing.assert_array_equal(back.covariances, model.covariances)
    # byte-identical on re-save
    p2 = tmp_path / "gmm2.json"
    back.save(p2)
    assert path.read_bytes() == p2.read_bytes()


def test_fit_deterministic():
    X, _, _ = make_blobs(seed=6, n=90)
    a = fit_gmm(X, GmmConfig(n_components=3, seed=11))
    b = fit_gmm(X, GmmConfig(n_components=3, seed=11))
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_too_few_points():
    with pytest.raises(TooFewObservations):
        fit_gmm(np.zeros((2, 2)), GmmConfig(n_components=3))


def test_kmeans_basic():
    X, labels, centers = make_blobs(seed=8, n=50)
    rng = np.random.default_rng(0)
    cents, assign = kmeans(X, 3, rng)
    assert cents.shape == (3, 2)
    assert assign.shape == (X.shape[0],)
    # every cluster is used and centroids are near the true centers
    assert set(assign.tolist()) == {0, 1, 2}
    dists = np.linalg.norm(cents[:, None, :] - centers[None, :, :], axis=2)
    assert dists.min(axis=1).max() < 0.5


def one_at_a_time_logpdf(X, mean, cov):
    """The density as it was computed before the factors were stacked: one
    Cholesky factor (retried once with a jitter) and one solve per component."""
    d = X.shape[1]
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        chol = np.linalg.cholesky(cov + 1e-10 * np.trace(cov) / d * np.eye(d))
    sol = np.linalg.solve(chol, (X - mean).T)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + (sol ** 2).sum(axis=0))


@pytest.mark.parametrize("kind", ["full", "diag", "jitter"])
@pytest.mark.parametrize("n", [1, 2, 37])
def test_batched_densities_match_component_loop_bit_for_bit(kind, n):
    rng = np.random.default_rng(n)
    k, d = 5, 11
    A = rng.normal(size=(k, d, d))
    covs = A @ A.transpose(0, 2, 1) + 0.1 * np.eye(d)
    if kind == "diag":
        covs = np.stack([np.diag(np.diag(c)) for c in covs])
    if kind == "jitter":
        v = rng.normal(size=d)
        covs[2] = np.outer(v, v)      # rank one: factored only after the jitter
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(covs[2])
    means = rng.normal(size=(k, d))
    X = rng.normal(scale=3.0, size=(n, d))
    got = _component_logdensities(factor_gaussians(means, covs), X)
    ref = np.column_stack([one_at_a_time_logpdf(X, means[j], covs[j]) for j in range(k)])
    assert got.flags.c_contiguous and got.shape == (n, k)
    np.testing.assert_array_equal(got, ref)
    for j in range(k):
        np.testing.assert_array_equal(gaussian_logpdf(X, means[j], covs[j]), ref[:, j])


def test_unfactorable_covariance_is_numerical_error():
    covs = np.stack([np.eye(2), -np.eye(2)])
    with pytest.raises(NumericalError):
        factor_gaussians(np.zeros((2, 2)), covs)


def logsumexp_rows():
    rng = np.random.default_rng(0)
    rows = []
    for spread in (1.0, 10.0, 1e3, 1e6):
        a = rng.normal(scale=spread, size=(40, 5))
        rows.append(a)
        rows.append(np.round(a / spread) * spread)             # exact ties
        holes = a.copy()
        holes[rng.random(a.shape) < 0.3] = -np.inf
        rows.append(holes)
    rows.append(np.full((3, 5), -np.inf))
    rows.append(np.array([[2.0, 2.0, 2.0, 2.0, 2.0], [0.0, -np.inf, 0.0, -np.inf, 1e-300]]))
    return np.vstack(rows)


@pytest.mark.parametrize("keepdims", [False, True])
def test_logsumexp_matches_scipy_bit_for_bit(keepdims):
    from scipy.special import logsumexp
    a = logsumexp_rows()
    got = _logsumexp(a, axis=1, keepdims=keepdims)
    ref = logsumexp(a, axis=1, keepdims=keepdims)
    assert got.shape == ref.shape
    np.testing.assert_array_equal(got, ref)
    assert np.isneginf(got.ravel()[-5:-2]).all()     # the all -inf rows


def test_reseeded_fit_matches_refactoring_every_call(monkeypatch):
    """Re-seeding writes a component's mean and covariance in place; a factor
    cached from before the write would make the fit differ from one that
    factors afresh on every density call."""
    X, _, _ = make_blobs(seed=9, n=40)
    config = GmmConfig(n_components=4, seed=0, max_iters=15)
    monkeypatch.setattr(gmm, "_WEIGHT_FLOOR", 0.2)    # starve the smallest components
    reseeds = []
    monkeypatch.setattr(gmm.log, "warning", lambda *args: reseeds.append(args))
    cached = fit_gmm(X, config)
    assert reseeds
    monkeypatch.setattr(GmmModel, "gaussians",
                        lambda self: factor_gaussians(self.means, self.covariances))
    fresh = fit_gmm(X, config)
    assert cached.to_dict() == fresh.to_dict()
    assert cached.loglik_trace == fresh.loglik_trace


def test_zero_components_rejected():
    with pytest.raises(DataError):
        fit_gmm(np.zeros((5, 2)), GmmConfig(n_components=0))


@pytest.mark.parametrize("field,value", [
    ("weights", [1.0, 1.5]),               # sums to 2.5
    ("weights", [1.5, -0.5]),
    ("weights", [0.5, float("nan")]),
    ("weights", [[0.5, 0.5]]),
    ("means", [0.0, 1.0]),
    ("covariances", [[[1.0]]]),
    ("means", [[0.0], [float("nan")]]),
    ("covariances", [[[1.0]], [[float("inf")]]]),
    ("covariance_type", "banded"),
])
def test_validate_rejects_malformed_mixture(field, value):
    d = GmmModel(weights=np.array([0.5, 0.5]), means=np.array([[0.0], [1.0]]),
                 covariances=np.ones((2, 1, 1))).to_dict()
    d[field] = value
    with pytest.raises(DataError):
        GmmModel.from_dict(d)


def test_runtime_import_leaves_scipy_out():
    code = ("import sys, cbmpomdp, cbmpomdp.cli; "
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
