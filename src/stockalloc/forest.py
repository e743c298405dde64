"""Weighted multitask random-forest regression.

One model is trained across all (facility, product) rows. The K trees
double as a demand distribution: `predict_point` is the mean of the raw
per-tree outputs, `predict_samples` returns the K per-tree outputs
(clamped at zero, demand cannot be negative) for use as scenario samples
in the allocation stage.

Weighted training means three things here: rows are bootstrapped with
probability proportional to their weight, split gain is weighted, and
leaf values are weighted means. `min_leaf_weight` is measured in units of
the average bootstrap row weight so that rescaling every weight by a
constant changes nothing about the trained forest.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightsError, ShapeError

FOREST_FORMAT = "stockalloc-forest"
FOREST_VERSION = 1


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int = 12
    min_leaf_weight: float = 5.0
    features_per_split: int | None = None  # None -> ceil(sqrt(d))
    criterion: str = "mse"  # "mse" or "mae"

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.min_leaf_weight <= 0:
            raise ValueError("min_leaf_weight must be positive")
        if self.criterion not in ("mse", "mae"):
            raise ValueError(f"unknown criterion {self.criterion!r}")

    def resolve_features_per_split(self, d):
        m = self.features_per_split or int(math.ceil(math.sqrt(d)))
        return max(1, min(m, d))

    def to_dict(self):
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_leaf_weight": self.min_leaf_weight,
            "features_per_split": self.features_per_split,
            "criterion": self.criterion,
        }


@dataclass
class Tree:
    """Flat node arrays; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    support: np.ndarray

    def apply(self, X):
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = np.flatnonzero(self.feature[node] >= 0)
        while active.size:
            ids = node[active]
            feats = self.feature[ids]
            go_left = X[active, feats] <= self.threshold[ids]
            node[active] = np.where(go_left, self.left[ids], self.right[ids])
            active = active[self.feature[node[active]] >= 0]
        return self.value[node]

    def to_dict(self):
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
            "support": self.support.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            feature=np.array(d["feature"], dtype=np.int64),
            threshold=np.array(d["threshold"], dtype=float),
            left=np.array(d["left"], dtype=np.int64),
            right=np.array(d["right"], dtype=np.int64),
            value=np.array(d["value"], dtype=float),
            support=np.array(d["support"], dtype=float),
        )


def _weighted_median(y, w):
    order = np.argsort(y, kind="stable")
    cw = np.cumsum(w[order])
    idx = np.searchsorted(cw, 0.5 * cw[-1])
    return y[order[min(idx, len(y) - 1)]]


def _abs_deviation(y, w):
    if len(y) == 0:
        return 0.0
    return float(np.sum(w * np.abs(y - _weighted_median(y, w))))


class _TreeBuilder:
    def __init__(self, X, y, w, rng, params, min_leaf):
        self.X, self.y, self.w = X, y, w
        self.rng = rng
        self.params = params
        self.min_leaf = min_leaf
        self.m_features = params.resolve_features_per_split(X.shape[1])
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []
        self.support = []

    def _new_node(self, mean, weight):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(mean)
        self.support.append(weight)
        return len(self.feature) - 1

    def build(self):
        idx_all = np.arange(len(self.y))
        w_all = self.w[idx_all].sum()
        mean_all = float(np.dot(self.w, self.y) / w_all)
        root = self._new_node(mean_all, w_all)
        stack = [(root, idx_all, 0)]
        while stack:
            node, idx, depth = stack.pop()
            split = self._find_split(idx, depth)
            if split is None:
                continue
            f, thr, left_idx, right_idx = split
            wl = self.w[left_idx]
            wr = self.w[right_idx]
            left = self._new_node(float(np.dot(wl, self.y[left_idx]) / wl.sum()), wl.sum())
            right = self._new_node(float(np.dot(wr, self.y[right_idx]) / wr.sum()), wr.sum())
            self.feature[node] = f
            self.threshold[node] = thr
            self.left[node] = left
            self.right[node] = right
            # Right pushed first so the left child is processed next;
            # any fixed order works, it only has to be deterministic.
            stack.append((right, right_idx, depth + 1))
            stack.append((left, left_idx, depth + 1))
        return Tree(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold, dtype=float),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            value=np.array(self.value, dtype=float),
            support=np.array(self.support, dtype=float),
        )

    def _find_split(self, idx, depth):
        if depth >= self.params.max_depth or len(idx) < 2:
            return None
        ys = self.y[idx]
        ws = self.w[idx]
        total_w = ws.sum()
        if total_w < 2 * self.min_leaf:
            return None
        if np.all(ys == ys[0]):
            return None
        if self.params.criterion == "mse":
            mean = np.dot(ws, ys) / total_w
            parent = float(np.dot(ws, (ys - mean) ** 2))
            moment = float(np.dot(ws, ys * ys))
        else:
            parent = _abs_deviation(ys, ws)
            moment = float(np.dot(ws, np.abs(ys)))
        if parent <= 0.0:
            return None
        # Gains within `tol` of each other count as tied; ties resolve to
        # the lowest feature index, then the lowest threshold. Gains come
        # out of cancelling cumulative moment sums, so their float error
        # scales with the raw second moment, not with the gain itself; the
        # tolerance must do the same or uniform weight rescaling can flip
        # ties between equivalent splits.
        tol = 1e-11 * moment
        feats = np.sort(
            self.rng.choice(self.X.shape[1], size=self.m_features, replace=False)
        )
        best_gain = 0.0
        best = None
        for f in feats:
            found = self._scan_feature(idx, f, ys, ws, total_w, tol)
            if found is not None and found[0] > best_gain + tol:
                best_gain, best = found[0], (f,) + found[1:]
        if best is None:
            return None
        f, thr = best
        vals = self.X[idx, f]
        mask = vals <= thr
        return f, thr, idx[mask], idx[~mask]

    def _scan_feature(self, idx, f, ys, ws, total_w, tol):
        vals = self.X[idx, f]
        order = np.argsort(vals, kind="stable")
        v = vals[order]
        boundaries = np.flatnonzero(v[:-1] < v[1:])
        if boundaries.size == 0:
            return None
        yy = ys[order]
        ww = ws[order]
        cw = np.cumsum(ww)
        feasible = (cw[boundaries] >= self.min_leaf) & (
            total_w - cw[boundaries] >= self.min_leaf
        )
        boundaries = boundaries[feasible]
        if boundaries.size == 0:
            return None
        if self.params.criterion == "mse":
            gains = self._mse_gains(yy, ww, cw, total_w, boundaries)
        else:
            gains = self._mae_gains(yy, ww, boundaries)
        # First boundary within tol of the max: lowest threshold on ties.
        j = int(np.flatnonzero(gains >= gains.max() - tol)[0])
        cut = boundaries[j]
        thr = 0.5 * (v[cut] + v[cut + 1])
        return float(gains[j]), float(thr)

    def _mse_gains(self, yy, ww, cw, total_w, boundaries):
        cwy = np.cumsum(ww * yy)
        cwy2 = np.cumsum(ww * yy * yy)
        lw = cw[boundaries]
        ly = cwy[boundaries]
        ly2 = cwy2[boundaries]
        rw = total_w - lw
        ry = cwy[-1] - ly
        ry2 = cwy2[-1] - ly2
        parent = cwy2[-1] - cwy[-1] ** 2 / total_w
        sse_left = ly2 - ly**2 / lw
        sse_right = ry2 - ry**2 / rw
        return parent - sse_left - sse_right

    def _mae_gains(self, yy, ww, boundaries):
        # O(n) per boundary; the mae criterion is an opt-in for small
        # studies, the default mse path never comes through here.
        parent = _abs_deviation(yy, ww)
        gains = np.empty(boundaries.size)
        for j, cut in enumerate(boundaries):
            gains[j] = (
                parent
                - _abs_deviation(yy[: cut + 1], ww[: cut + 1])
                - _abs_deviation(yy[cut + 1 :], ww[cut + 1 :])
            )
        return gains


def feature_rows(x, feature_dim):
    """A model's input as an (n, feature_dim) float matrix, and whether `x`
    was a single feature vector. Shared by every model's predictions."""
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != feature_dim:
        raise ShapeError(
            f"expected feature dimension {feature_dim}, got shape {np.asarray(x).shape}"
        )
    return X, single


@dataclass
class Forest:
    trees: list
    feature_dim: int
    seed: int
    params: ForestParams

    @property
    def n_trees(self):
        return len(self.trees)

    def predict_point(self, x):
        """Mean of the raw per-tree outputs."""
        X, single = feature_rows(x, self.feature_dim)
        out = np.zeros(X.shape[0])
        for tree in self.trees:
            out += tree.apply(X)
        out /= self.n_trees
        return float(out[0]) if single else out

    def predict_samples(self, x):
        """Per-tree outputs in tree order, clamped at zero.

        Shape (K,) for a single feature vector, else (n_rows, K).
        """
        X, single = feature_rows(x, self.feature_dim)
        out = np.empty((X.shape[0], self.n_trees))
        for k, tree in enumerate(self.trees):
            out[:, k] = tree.apply(X)
        np.clip(out, 0.0, None, out=out)
        return out[0] if single else out

    def to_json(self):
        payload = {
            "format": FOREST_FORMAT,
            "version": FOREST_VERSION,
            "feature_dim": self.feature_dim,
            "seed": self.seed,
            "params": self.params.to_dict(),
            "trees": [t.to_dict() for t in self.trees],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        if payload.get("format") != FOREST_FORMAT:
            raise ValueError("not a stockalloc forest file")
        if payload.get("version") != FOREST_VERSION:
            raise ValueError(f"unsupported forest version {payload.get('version')}")
        params = ForestParams(**payload["params"])
        return cls(
            trees=[Tree.from_dict(t) for t in payload["trees"]],
            feature_dim=int(payload["feature_dim"]),
            seed=int(payload["seed"]),
            params=params,
        )

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def train_forest(table, params=None, seed=0):
    """Grow a weighted forest on a FeatureTable.

    Deterministic given (table, params, seed): tree k draws its bootstrap
    and split-feature subsets from an RNG stream derived from
    (seed, tree index), so serial and parallel training would agree.
    Rows with zero weight are dropped up front; they can neither be
    resampled nor influence any split, and excluding them keeps the RNG
    stream identical to a table that never contained them.
    """
    params = params or ForestParams()
    X = np.asarray(table.X, dtype=float)
    y = np.asarray(table.y, dtype=float)
    w = np.asarray(table.weights, dtype=float)
    if len(y) == 0:
        raise DegenerateWeightsError("empty training table")
    if X.ndim != 2 or X.shape[0] != len(y):
        raise ShapeError(f"bad feature matrix shape {X.shape} for {len(y)} rows")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and nonnegative")
    pos = w > 0
    if not pos.any():
        raise DegenerateWeightsError("all row weights are zero")
    Xp, yp, wp = X[pos], y[pos], w[pos]
    probs = wp / wp.sum()
    n = len(yp)

    trees = []
    for k in range(params.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        draw = rng.choice(n, size=n, replace=True, p=probs)
        Xb, yb, wb = Xp[draw], yp[draw], wp[draw]
        min_leaf = params.min_leaf_weight * (wb.sum() / n)
        builder = _TreeBuilder(Xb, yb, wb, rng, params, min_leaf)
        trees.append(builder.build())
    return Forest(trees=trees, feature_dim=X.shape[1], seed=seed, params=params)
