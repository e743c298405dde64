"""Weighted least-squares demand model with Gaussian quantile samples.

Deliberately low-capacity: one global line through all rows, which is the
classic misspecified forecaster for mixed facility populations. It exposes
the same weighted-training and sampling interface as the forest so the
pipeline can swap it in, with the predictive distribution taken as a
Gaussian centred at the point forecast with the weighted residual scale.
Samples are a fixed quantile grid of that Gaussian, so the model is fully
deterministic. `n_samples=1` degenerates to the pure point forecast.
"""

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DegenerateWeightsError
from .forest import feature_rows


def _quantile_grid(k):
    nd = NormalDist()
    return np.array([nd.inv_cdf((i + 0.5) / k) for i in range(k)])


@dataclass
class LinearModel:
    coef: np.ndarray
    intercept: float
    resid_scale: float
    n_samples: int

    @property
    def feature_dim(self):
        return len(self.coef)

    def predict_point(self, x):
        X, single = feature_rows(x, self.feature_dim)
        out = X @ self.coef + self.intercept
        return float(out[0]) if single else out

    def predict_samples(self, x):
        X, single = feature_rows(x, self.feature_dim)
        point = X @ self.coef + self.intercept
        z = _quantile_grid(self.n_samples)
        out = np.clip(point[:, None] + self.resid_scale * z[None, :], 0.0, None)
        return out[0] if single else out


def train_linear(table, n_samples=100):
    """Fit weighted ordinary least squares on a FeatureTable."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    X = np.asarray(table.X, dtype=float)
    y = np.asarray(table.y, dtype=float)
    w = np.asarray(table.weights, dtype=float)
    if len(y) == 0:
        raise DegenerateWeightsError("empty training table")
    if not (w > 0).any():
        raise DegenerateWeightsError("all row weights are zero")

    sw = np.sqrt(w)
    A = np.hstack([X, np.ones((len(y), 1))]) * sw[:, None]
    beta, *_ = np.linalg.lstsq(A, y * sw, rcond=None)
    coef, intercept = beta[:-1], float(beta[-1])

    resid = y - (X @ coef + intercept)
    scale = float(np.sqrt(np.dot(w, resid**2) / w.sum()))
    return LinearModel(coef=coef, intercept=intercept, resid_scale=scale, n_samples=n_samples)
