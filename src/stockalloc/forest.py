"""Weighted multitask random-forest regression.

One model is trained across all (facility, product) rows. The K trees
double as a demand distribution: `predict_point` is the mean of the raw
per-tree outputs, `predict_samples` returns the K per-tree outputs
(clamped at zero, demand cannot be negative) for use as scenario samples
in the allocation stage.

Both predictions come from one walk of every tree at once: the trees' node
arrays are stacked end to end on each call (a forest's trees may be
replaced or edited at any time), and every (row, tree) pair of a chunk of
rows steps down together, one vector step per depth (`_walk`). Each pair
lands on the leaf its own tree's walk reaches, so the (n_rows, K) matrix
of raw outputs is the per-tree outputs bit for bit; `predict_point` adds
its columns in tree order, as a loop over the trees would.

Weighted training means three things here: rows are bootstrapped with
probability proportional to their weight, split gain is weighted, and
leaf values are weighted means. `min_leaf_weight` is measured in units of
the average bootstrap row weight so that rescaling every weight by a
constant changes nothing about the trained forest.
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import check, is_int, is_real
from .errors import ConfigError, DegenerateWeightsError, SchemaError, ShapeError
from .ingest import read_text

FOREST_FORMAT = "stockalloc-forest"
FOREST_VERSION = 1

# Bootstrap rows grown together: a block holds as many trees as fit, and at
# least one. It bounds the memory of one depth's pass and does not change
# the forest. A depth pass holds 24 bytes per (sample, feature) pair and 40
# per bin at its peak (`stockalloc._levelwise`), and the 1.5 MB heap bound of
# `test_heap_peak_on_the_benchmark_shape` sets the size: on that shape (27
# trees of 300 rows a block) training peaks at 1.30 MB, at 10240 rows 1.55 MB.
BLOCK_ROWS = 8192

# Bootstrap rows (table rows x trees) from which a forest's trees are shared
# among forked workers, one per usable CPU (`stockalloc._levelwise`); a
# smaller forest grows in this process. Sharing never changes the forest. A
# fork and join costs ~2 ms (1.7-2.3 ms in a 30-70 MB process, 2-vCPU
# Xeon VM) and growth ~2 us per bootstrap row, so 16384 rows are ~15 fork
# costs of work; two shares of 32 benchmark-shape trees (9,600 rows) broke
# even, and the benchmark's 30,000-row forests train in ~0.76x the time.
FORK_ROWS = 16384

# (row, tree) pairs a prediction walks together: a chunk of rows takes as
# many as fit, and at least one row. It bounds the memory of one chunk's walk
# and does not change a prediction.
WALK_PAIRS = 4096


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int = 12
    min_leaf_weight: float = 5.0
    features_per_split: int | None = None  # None -> ceil(sqrt(d))
    criterion: str = "mse"  # the only criterion; a forest JSON still records it

    def __post_init__(self):
        check(self, "n_trees", is_int(self.n_trees, 1), "an integer >= 1")
        check(self, "max_depth", is_int(self.max_depth, 0), "an integer >= 0")
        check(self, "min_leaf_weight", is_real(self.min_leaf_weight) and self.min_leaf_weight > 0,
              "a finite number > 0")
        check(self, "features_per_split",
              self.features_per_split is None or is_int(self.features_per_split, 1),
              "None or an integer >= 1")
        if self.criterion != "mse":
            raise ConfigError(f"unknown criterion {self.criterion!r}, only 'mse' is supported")

    def resolve_features_per_split(self, d):
        if self.features_per_split is None:
            return int(math.ceil(math.sqrt(d)))
        return min(self.features_per_split, d)


@dataclass
class Tree:
    """Flat node arrays; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    support: np.ndarray

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

    def problem(self, feature_dim):
        """Why these arrays are not a tree the prediction walk can follow, or None."""
        arrays = (self.feature, self.threshold, self.left, self.right, self.value, self.support)
        size = len(self.feature) if self.feature.ndim == 1 else 0
        if size == 0 or any(a.ndim != 1 or len(a) != size for a in arrays):
            return "node arrays must be non-empty lists of one length"
        if not (np.all(np.isfinite(self.threshold)) and np.all(np.isfinite(self.value))):
            return "thresholds and values must be finite"
        if np.any(self.feature < -1) or np.any(self.feature >= feature_dim):
            return f"feature indices must lie in [-1, {feature_dim})"
        # Children come after their parent, so every walk ends at a leaf.
        inner = np.flatnonzero(self.feature >= 0)
        for child in (self.left[inner], self.right[inner]):
            if np.any(child <= inner) or np.any(child >= size):
                return f"child indices must follow their parent and be < {size}"
        return None


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


def _stack(trees):
    """The trees' node arrays end to end: each tree's root index, and the
    stacked feature, threshold, children and value arrays.

    Node i's children are `children[2 * i + go_left]`: its right child, then
    its left, each shifted by its tree's offset into the stack.
    """
    sizes = [len(tree.feature) for tree in trees]
    roots = np.zeros(len(trees), dtype=np.int64)
    np.cumsum(sizes[:-1], out=roots[1:])
    shift = np.repeat(roots, sizes)

    def joined(name):
        return np.concatenate([getattr(tree, name) for tree in trees])

    children = np.empty(2 * len(shift), dtype=np.int64)
    children[0::2] = joined("right") + shift
    children[1::2] = joined("left") + shift
    return roots, joined("feature"), joined("threshold"), children, joined("value")


def _walk(trees, X):
    """Raw output of tree k at row i, as an (n_rows, K) matrix.

    The (row, tree) pairs of a chunk of rows walk together from their
    trees' roots, one vector step per depth; a pair leaves the walk at its
    leaf. Each step takes the branch `Tree` nodes define: left where the
    row's feature value is <= the threshold, right otherwise (and for NaN).
    """
    roots, feature, threshold, children, value = _stack(trees)
    flat, d = X.ravel(), X.shape[1]  # row-major, a copy only if X is not
    n, K = X.shape[0], len(roots)
    out = np.empty((n, K))
    step = max(1, WALK_PAIRS // K)
    for start in range(0, n, step):
        m = min(step, n - start)
        node = np.tile(roots, m)
        base = (np.arange(start, start + m) * d).repeat(K)  # each pair's row in `flat`
        active = np.flatnonzero(feature[node] >= 0)
        while active.size:
            ids = node[active]
            go_left = flat[base[active] + feature[ids]] <= threshold[ids]
            ids *= 2
            ids += go_left
            ids = children[ids]
            node[active] = ids
            active = active[feature[ids] >= 0]
        out[start:start + m] = value[node].reshape(m, K)
    return out


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
        raw = _walk(self.trees, X)
        out = np.zeros(X.shape[0])
        for k in range(raw.shape[1]):  # in tree order, one tree's column at a time
            out += raw[:, k]
        out /= self.n_trees
        return float(out[0]) if single else out

    def predict_samples(self, x):
        """Per-tree outputs in tree order, clamped at zero.

        Shape (K,) for a single feature vector, else (n_rows, K).
        """
        X, single = feature_rows(x, self.feature_dim)
        out = _walk(self.trees, X)
        np.clip(out, 0.0, None, out=out)
        return out[0] if single else out

    def to_json(self):
        payload = {
            "format": FOREST_FORMAT,
            "version": FOREST_VERSION,
            "feature_dim": self.feature_dim,
            "seed": self.seed,
            "params": asdict(self.params),
            "trees": [t.to_dict() for t in self.trees],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text, source="forest JSON"):
        """Read `to_json` output; anything else raises SchemaError naming `source`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{source}, line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(payload, dict) or payload.get("format") != FOREST_FORMAT:
            raise SchemaError(f"{source}: not a stockalloc forest file")
        if payload.get("version") != FOREST_VERSION:
            raise SchemaError(f"{source}: unsupported forest version {payload.get('version')!r}")
        try:
            params = ForestParams(**payload["params"])
            feature_dim = payload["feature_dim"]
            seed = payload["seed"]
            if not (is_int(feature_dim, 0) and is_int(seed, 0)):
                raise ValueError("feature_dim and seed must be integers")
            if not isinstance(payload["trees"], list) or not payload["trees"]:
                raise ValueError("trees must be a non-empty list")
            trees = [Tree.from_dict(t) for t in payload["trees"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"{source}: bad forest: {exc!r}") from exc
        for k, tree in enumerate(trees):
            problem = tree.problem(feature_dim)
            if problem:
                raise SchemaError(f"{source}: tree {k}: {problem}")
        return cls(trees=trees, feature_dim=feature_dim, seed=seed, params=params)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path):
        return cls.from_json(read_text(path), source=str(path))


def train_forest(table, params=None, seed=0):
    """Grow a weighted forest on a FeatureTable.

    Trees grow level by level, a block of trees at a time: one vectorized
    pass per depth finds the best split of every open node of the block
    (`stockalloc._levelwise`). Nodes are numbered in level order: the root is 0 and
    each depth's nodes follow the previous depth's, left child before right.
    A forest of at least `FORK_ROWS` bootstrap rows (rows x trees) is cut
    into contiguous shares of trees, one per usable CPU and no more than
    it has blocks; forked children grow every share but the first and send
    their trees back, and a share whose child fails is grown here. No child
    outlives the call. With one usable CPU, without `os.fork` or below
    `FORK_ROWS` the trees grow in this process alone.

    Deterministic given (table, params, seed): tree k draws its bootstrap
    and then, once per depth, the feature subsets of its open nodes from an
    RNG stream derived from (seed, k). A tree therefore depends neither on
    the other trees nor on how many trees share its block or its worker.
    Rows with zero weight are dropped up front; they can neither be
    resampled nor influence any split, and excluding them keeps the RNG
    stream identical to a table that never contained them.
    """
    params = params or ForestParams()
    if not is_int(seed, 0):
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    X, y, w = table.X, table.y, table.weights  # float arrays: `FeatureTable` converts them
    if len(y) == 0:
        raise DegenerateWeightsError("empty training table")
    pos = w > 0
    if not pos.any():
        raise DegenerateWeightsError("all row weights are zero")
    if not pos.all():
        X, y, w = X[pos], y[pos], w[pos]
    # The builder is loaded on first use: importing the package to load or
    # predict with a forest, or for the linear model, does not load it.
    from ._levelwise import grow_trees

    trees = grow_trees(X, y, w, params, seed, BLOCK_ROWS, FORK_ROWS)
    return Forest(trees=trees, feature_dim=X.shape[1], seed=seed, params=params)
