"""Independent reference computations used to check the production code.

Everything here is deliberately written in the most transparent way
possible (loops, enumeration, dynamic programming) and shares no code
with the solvers under test.
"""

import itertools
import math
import re

import numpy as np


def shortfall_loops(a, xi):
    total = 0.0
    for an, xn in zip(a, xi):
        if xn > an:
            total += xn - an
    return total


def saa_loops(samples, a):
    return sum(shortfall_loops(a, xi) for xi in samples) / len(samples)


def facility_cost_curve(samples, n, cap):
    """Mean shortfall of facility n at every integer allocation 0..cap."""
    grid = np.arange(cap + 1)
    col = np.asarray(samples, dtype=float)[:, n]
    return np.maximum(col[:, None] - grid[None, :], 0.0).mean(axis=0)


def integer_grid_optimum(samples, budget):
    """Exact minimum of the mean shortfall over all integer allocations.

    Dynamic program over (facility, remaining budget); equivalent to an
    exhaustive scan of every integer allocation with sum <= budget, just
    organized so the scan finishes. Requires integer-valued samples and
    budget.
    """
    samples = np.asarray(samples, dtype=float)
    K, N = samples.shape
    budget = int(round(budget))
    caps = samples.max(axis=0).astype(int)

    best = np.zeros(budget + 1)  # no facilities yet: zero shortfall
    for n in range(N):
        curve = facility_cost_curve(samples, n, caps[n])
        new = np.full(budget + 1, np.inf)
        for b in range(budget + 1):
            top = min(caps[n], b)
            for a_n in range(top + 1):
                val = curve[a_n] + best[b - a_n]
                if val < new[b]:
                    new[b] = val
        best = new
    return float(best[budget])


def integer_grid_optimum_literal(samples, budget):
    """Same optimum by literally enumerating the integer lattice."""
    samples = np.asarray(samples, dtype=float)
    K, N = samples.shape
    budget = int(round(budget))
    caps = samples.max(axis=0).astype(int)
    best = np.inf
    for alloc in itertools.product(*(range(int(c) + 1) for c in caps)):
        if sum(alloc) > budget:
            continue
        best = min(best, saa_loops(samples, np.array(alloc, dtype=float)))
    return float(best)


def random_instance(rng, max_n=8, max_k=5, max_value=20):
    """Random integer-valued allocation instance for the solver suites."""
    n = int(rng.integers(1, max_n + 1))
    k = int(rng.integers(1, max_k + 1))
    samples = rng.integers(0, max_value + 1, size=(k, n)).astype(float)
    cap_total = int(samples.max(axis=0).sum())
    budget = float(rng.integers(0, cap_total + 3))
    return samples, budget


def reference_greedy(samples, budget):
    """Water-filling one segment at a time: the reference greedy solver.

    Per facility the sorted samples cut the allocation axis into segments;
    the segment ending at the (j+1)-th smallest sample is worth (K - j)/K
    per unit. Segments are consumed in order of decreasing value, ties to
    the lower facility, then the lower start, until the budget is spent.
    Returns (allocation, mean shortfall, fill steps as dicts).
    """
    samples = np.asarray(samples, dtype=float)
    K, N = samples.shape
    sorted_samples = np.sort(samples, axis=0)

    # Segment bookkeeping in flat arrays: one candidate segment per
    # (facility, sample index); zero-length segments are dropped.
    starts = np.vstack([np.zeros((1, N)), sorted_samples[:-1, :]])
    ends = sorted_samples
    lengths = ends - starts
    values = ((K - np.arange(K, dtype=float)) / K)[:, None] * np.ones((1, N))
    facilities = np.broadcast_to(np.arange(N), (K, N))

    keep = lengths.ravel() > 0.0
    seg_fac = facilities.ravel()[keep]
    seg_start = starts.ravel()[keep]
    seg_end = ends.ravel()[keep]
    seg_len = lengths.ravel()[keep]
    seg_val = values.ravel()[keep]

    order = np.lexsort((seg_start, seg_fac, -seg_val))

    allocation = np.zeros(N)
    trace = []
    remaining = float(budget)
    for idx in order:
        if remaining <= 0.0:
            break
        take = min(seg_len[idx], remaining)
        fac = int(seg_fac[idx])
        allocation[fac] += take
        remaining -= take
        trace.append(
            {
                "facility": fac,
                "start": float(seg_start[idx]),
                "end": float(seg_start[idx] + take),
                "amount": float(take),
                "marginal_value": float(seg_val[idx]),
            }
        )
    objective = float(np.maximum(samples - allocation[None, :], 0.0).sum() / K)
    return allocation, objective, trace


def reference_fd_columns(samples, budget, h, diagonal=False):
    """Central-difference Jacobian of the greedy optimum, one full solve
    per perturbation: column n is (a*(up_n) - a*(down_n)) / 2h, where up_n
    adds h to every sample of facility n and down_n subtracts it, clipped
    at zero. With `diagonal` only the diagonal is kept."""
    samples = np.asarray(samples, dtype=float)
    N = samples.shape[1]
    J = np.zeros((N, N))
    for n in range(N):
        up = samples.copy()
        up[:, n] = up[:, n] + h
        down = samples.copy()
        down[:, n] = np.clip(down[:, n] - h, 0.0, None)
        a_up = reference_greedy(up, budget)[0]
        a_down = reference_greedy(down, budget)[0]
        J[:, n] = (a_up - a_down) / (2.0 * h)
    return np.diag(np.diag(J)) if diagonal else J


_PERIOD_RE = re.compile(r"^(\d{4})-(\d{1,2})$")


def reference_period_index(period):
    """"YYYY-MM" to a month count, parsed afresh on every call (no memo)."""
    m = _PERIOD_RE.match(str(period).strip())
    if not m:
        raise ValueError(f"bad period {period!r}, expected YYYY-MM")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise ValueError(f"bad month in period {period!r}")
    return year * 12 + (month - 1)


def reference_clean(records, outlier_multiplier=10.0):
    """The cleaning rules with one `np.median` per record per round.

    Records are read by attribute (facility_id, product_id, the five
    stock-flow quantities; the demand is quantity_dispensed). Returns
    (kept, [(record, reason), ...]), both in input order.
    """
    if outlier_multiplier <= 1:
        raise ValueError("outlier_multiplier must be > 1")

    reasons = {}
    survivors = []
    for i, rec in enumerate(records):
        lhs = (
            rec.opening_balance
            + rec.quantity_received
            - rec.quantity_dispensed
            + rec.adjustment
        )
        quantities = (rec.opening_balance, rec.quantity_received, rec.quantity_dispensed,
                      rec.adjustment, rec.closing_balance)
        if not math.isclose(lhs, rec.closing_balance, rel_tol=0.0, abs_tol=1e-9):
            reasons[i] = "unbalanced"
        elif all(q == 0 for q in quantities):
            reasons[i] = "all_zero"
        else:
            survivors.append(i)

    series = {}
    for i in survivors:
        series.setdefault((records[i].facility_id, records[i].product_id), []).append(i)
    for alive in series.values():
        while True:
            flagged = []
            for i in alive:
                others = [
                    records[j].quantity_dispensed
                    for j in alive
                    if j != i and records[j].quantity_dispensed > 0
                ]
                if not others:
                    continue
                if records[i].quantity_dispensed > outlier_multiplier * float(np.median(others)):
                    flagged.append(i)
            if not flagged:
                break
            for i in flagged:
                reasons[i] = "outlier"
            alive = [i for i in alive if i not in reasons]

    kept = [rec for i, rec in enumerate(records) if i not in reasons]
    excluded = [(rec, reasons[i]) for i, rec in enumerate(records) if i in reasons]
    return kept, excluded


def _month_index(period):
    year, month = str(period).strip().split("-")
    return int(year) * 12 + int(month) - 1


def _month_str(index):
    return f"{index // 12:04d}-{index % 12 + 1:02d}"


def reference_features(records, lag_months, as_of, region_codes):
    """One period's lag rows, re-indexing every record: the reference featurizer.

    Records are read by attribute (facility_id, product_id, period, region,
    demand). Returns (facility_ids, product_ids, rows, targets) as lists,
    rows sorted by (facility, product).
    """
    as_of = _month_str(_month_index(as_of))
    as_of_idx = _month_index(as_of)
    history = {}
    current = {}
    for rec in records:
        key = (rec.facility_id, rec.product_id)
        history.setdefault(key, {})[_month_index(rec.period)] = rec.demand
        if rec.period == as_of:
            current[key] = rec

    fac, prod, rows, targets = [], [], [], []
    for key in sorted(current):
        rec = current[key]
        series = history[key]
        lags, flags = [], []
        for j in range(1, lag_months + 1):
            past = series.get(as_of_idx - j)
            if past is None:
                lags.append(-1.0)
                flags.append(0.0)
            else:
                lags.append(float(past))
                flags.append(1.0)
        rows.append(
            lags
            + flags
            + [
                float(as_of_idx % 12 + 1),
                float(as_of_idx // 12),
                float(region_codes.get(rec.region, -1)),
            ]
        )
        fac.append(rec.facility_id)
        prod.append(rec.product_id)
        targets.append(rec.demand)
    return fac, prod, rows, targets


def reference_feature_table(records, lag_months=10, periods=None):
    """`reference_features` stacked over periods with one shared region map.

    Returns (facility_ids, product_ids, periods, X, y, feature_names); X is
    (rows, 2 * lag_months + 3) and may have no rows.
    """
    records = list(records)
    codes = {r: i for i, r in enumerate(sorted({rec.region for rec in records}))}
    if periods is None:
        periods = sorted({r.period for r in records}, key=_month_index)
    fac, prod, per, rows, targets = [], [], [], [], []
    for period in periods:
        f, p, r, t = reference_features(records, lag_months, period, codes)
        fac += f
        prod += p
        per += [_month_str(_month_index(period))] * len(f)
        rows += r
        targets += t
    names = (
        [f"lag_{j}" for j in range(1, lag_months + 1)]
        + [f"lag_{j}_present" for j in range(1, lag_months + 1)]
        + ["month", "year", "region_code"]
    )
    X = np.array(rows, dtype=float).reshape(len(fac), len(names))
    return fac, prod, per, X, np.array(targets, dtype=float), names


class _ReferenceParams:
    def __init__(self, max_depth, features_per_split):
        self.max_depth = max_depth
        self.features_per_split = features_per_split
        self.criterion = "mse"

    def resolve_features_per_split(self, d):
        m = self.features_per_split or int(np.ceil(np.sqrt(d)))
        return max(1, min(m, d))


class _ReferenceTreeBuilder:
    """The depth-first tree builder, verbatim apart from the deleted `mae`
    criterion: one node at a time, one feature scan at a time."""

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
            with np.errstate(invalid="ignore"):  # an empty child's mean is nan
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
        return {
            "feature": np.array(self.feature, dtype=np.int64),
            "threshold": np.array(self.threshold, dtype=float),
            "left": np.array(self.left, dtype=np.int64),
            "right": np.array(self.right, dtype=np.int64),
            "value": np.array(self.value, dtype=float),
            "support": np.array(self.support, dtype=float),
        }

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
        mean = np.dot(ws, ys) / total_w
        parent = float(np.dot(ws, (ys - mean) ** 2))
        moment = float(np.dot(ws, ys * ys))
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
        gains = self._mse_gains(yy, ww, cw, total_w, boundaries)
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


def reference_forest(X, y, w, n_trees, max_depth, min_leaf_weight, features_per_split, seed):
    """Trees of the depth-first builder, each a dict of flat node arrays.

    Tree k bootstraps from the RNG stream of (seed, k), as the package's
    `train_forest` does; zero-weight rows are dropped first. Nodes are
    numbered in creation order (a split creates both children).
    """
    X, y, w = (np.asarray(a, dtype=float) for a in (X, y, w))
    params = _ReferenceParams(max_depth, features_per_split)
    pos = w > 0
    Xp, yp, wp = X[pos], y[pos], w[pos]
    probs = wp / wp.sum()
    n = len(yp)
    trees = []
    for k in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        draw = rng.choice(n, size=n, replace=True, p=probs)
        Xb, yb, wb = Xp[draw], yp[draw], wp[draw]
        min_leaf = min_leaf_weight * (wb.sum() / n)
        trees.append(_ReferenceTreeBuilder(Xb, yb, wb, rng, params, min_leaf).build())
    return trees


def preorder(tree):
    """Node indices of a tree (anything with `feature`, `left`, `right`
    items) in preorder: node, left subtree, right subtree."""
    order, stack = [], [0]
    while stack:
        node = stack.pop()
        order.append(node)
        if tree["feature"][node] >= 0:
            stack += [int(tree["right"][node]), int(tree["left"][node])]
    return order
