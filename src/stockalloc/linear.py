"""Weighted least-squares demand model with Gaussian quantile samples.

Deliberately low-capacity: one global line through all rows, which is the
classic misspecified forecaster for mixed facility populations. It exposes
the same weighted-training and sampling interface as the forest so the
pipeline can swap it in, with the predictive distribution taken as a
Gaussian centred at the point forecast with the weighted residual scale.
Samples are a fixed quantile grid of that Gaussian, so the model is fully
deterministic. `n_samples=1` degenerates to the pure point forecast.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .errors import DegenerateWeightsError
from .forest import feature_rows


@lru_cache
def _quantile_grid(k):
    """The k standard normal quantiles at (i + 0.5) / k, computed once per k
    and shared, read-only, by every model of that size."""
    nd = NormalDist()
    grid = np.array([nd.inv_cdf((i + 0.5) / k) for i in range(k)])
    grid.flags.writeable = False
    return grid


@dataclass
class LinearModel:
    coef: np.ndarray
    intercept: float
    resid_scale: float
    n_samples: int
    quantiles: np.ndarray = field(init=False, repr=False, compare=False)  # z of each sample

    def __post_init__(self):
        self.quantiles = _quantile_grid(self.n_samples)

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
        out = np.clip(point[:, None] + self.resid_scale * self.quantiles[None, :], 0.0, None)
        return out[0] if single else out


def train_linear(table, n_samples=100):
    """Fit weighted ordinary least squares on a FeatureTable."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    X, y, w = table.X, table.y, table.weights  # float arrays: `FeatureTable` converts them
    if len(y) == 0:
        raise DegenerateWeightsError("empty training table")
    if not (w > 0).any():
        raise DegenerateWeightsError("all row weights are zero")

    sw = np.sqrt(w)
    A = np.empty((len(y), X.shape[1] + 1))  # [X, 1] scaled by row, one array
    np.multiply(X, sw[:, None], out=A[:, :-1])
    A[:, -1] = sw
    beta, *_ = np.linalg.lstsq(A, y * sw, rcond=None)
    coef, intercept = beta[:-1], float(beta[-1])

    resid = y - (X @ coef + intercept)
    scale = float(np.sqrt(np.dot(w, resid**2) / w.sum()))
    return LinearModel(coef=coef, intercept=intercept, resid_scale=scale, n_samples=n_samples)
