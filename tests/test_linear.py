from statistics import NormalDist

import numpy as np
import pytest

from stockalloc import DegenerateWeightsError, FeatureTable, ShapeError, train_linear


def table(X, y, w=None):
    return FeatureTable.from_arrays(np.asarray(X, float), np.asarray(y, float), weights=w)


def test_recovers_exact_line():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 10, size=(80, 2))
    y = 3.0 + 2.0 * X[:, 0] - 0.5 * X[:, 1]
    m = train_linear(table(X, y), n_samples=5)
    assert m.intercept == pytest.approx(3.0, abs=1e-8)
    assert np.allclose(m.coef, [2.0, -0.5], atol=1e-8)
    assert m.resid_scale == pytest.approx(0.0, abs=1e-6)


def test_weighted_fit_follows_heavy_rows():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 1.0, 100.0, 100.0])
    w = np.array([1.0, 1.0, 0.0, 0.0])
    m = train_linear(table(X, y, w), n_samples=3)
    assert m.predict_point(np.array([0.5])) == pytest.approx(0.5, abs=1e-8)


def test_point_mass_when_residuals_zero():
    X = np.array([[0.0], [1.0]])
    m = train_linear(table(X, np.array([1.0, 2.0])), n_samples=7)
    s = m.predict_samples(np.array([1.0]))
    assert s.shape == (7,)
    assert np.ptp(s) < 1e-12  # residual scale ~0 collapses the fan
    assert s[0] == pytest.approx(2.0, abs=1e-9)


def test_samples_are_deterministic_quantile_fan(monkeypatch):
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(40, 1))
    y = 5.0 + X[:, 0] + rng.normal(0, 1.0, 40)
    m = train_linear(table(X, y), n_samples=9)
    inv_cdf, probed = NormalDist.inv_cdf, []
    monkeypatch.setattr(NormalDist, "inv_cdf", lambda nd, p: probed.append(p) or inv_cdf(nd, p))
    s1 = m.predict_samples(X[:3])
    s2 = m.predict_samples(X[:3])
    other = train_linear(table(X, 2 * y), n_samples=9)
    assert probed == []  # the grid of each size is derived once, and models share it
    assert other.quantiles is m.quantiles and not m.quantiles.flags.writeable
    grid = [NormalDist().inv_cdf((i + 0.5) / 9) for i in range(9)]
    assert m.quantiles.tobytes() == np.array(grid).tobytes()
    assert np.array_equal(s1, s2)
    assert s1.shape == (3, 9)
    # symmetric grid: sample mean equals the point forecast (pre-clamp)
    assert np.allclose(s1.mean(axis=1), m.predict_point(X[:3]), atol=1e-9)
    assert np.all(np.diff(s1, axis=1) >= 0)


def test_samples_clamped_at_zero():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0.5, 0.4, 0.6])
    m = train_linear(table(X, y), n_samples=15)
    assert np.all(m.predict_samples(X) >= 0.0)


def test_single_sample_is_point_forecast():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(30, 2))
    y = rng.uniform(0, 5, 30)
    m = train_linear(table(X, y), n_samples=1)
    probe = rng.uniform(size=(4, 2))
    assert np.allclose(
        m.predict_samples(probe)[:, 0],
        np.clip(m.predict_point(probe), 0.0, None),
        atol=1e-12,
    )


def test_degenerate_weights():
    with pytest.raises(DegenerateWeightsError):
        train_linear(table(np.ones((3, 1)), np.ones(3), np.zeros(3)))


def test_shape_error():
    m = train_linear(table(np.ones((3, 2)), np.ones(3)))
    with pytest.raises(ShapeError):
        m.predict_point(np.ones(3))
