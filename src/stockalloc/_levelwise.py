"""Level-wise growth of the trees of a weighted forest (see `forest.train_forest`).

Trees are grown a block at a time; at each depth one vectorized pass finds
the best split of every open node of the block. Each open node's m features
are an ascending row of an (open nodes, m) index array, so the pass keys
one (sample, feature) pair per sample and feature of its node by (node,
feature, value rank). Pairs of one key, bootstrap duplicates and tied
values, are summed into one bin, and the split scan runs over the bins: a
cut can only fall between distinct values, as in exact-greedy tree
learners. Both orders a pass needs, the pairs by key for the bins and the
samples by child for the routing, come from `_stable_order`: one value sort
of int64 keys with each key's position packed into its low bits, which
gives numpy's stable argsort without running one.

A pass's memory sets how many trees a block holds (`forest.BLOCK_ROWS`).
At its peak, while the bins' moment sums are added up, a pass holds 24
bytes per pair (its row, its bin and one gathered moment, 8 bytes each) and
40 per bin (three moment sums, segment, row); the other steps hold less.
The scan frees each array once it is used, gathers the candidate cuts only
after the min_leaf filter and works the gain arithmetic in place, so at
most five float arrays of cuts are alive at once. Positions stay int64:
numpy gathers through int32 index arrays about 2.4x slower, and `np.take`
and `np.bincount` copy them to int64 first.

Trees are independent given (seed, k), so a forest of at least
`forest.FORK_ROWS` bootstrap rows grows in contiguous, balanced shares of
trees, one per usable CPU (`os.sched_getaffinity`) and never more shares
than blocks, as SPRINT spreads its tree growth over processors (Shafer et
al., VLDB 1996). This process grows the first share; an `os.fork`ed child
grows each other one in the same blocks, pinned to a CPU of its own, and
sends its trees' node arrays back over a pipe. The trees are joined in
tree order, so the forest is byte for byte the serial one. A share whose
child fails, or sends a short payload, or cannot be forked, is grown here
after the first. Without `os.fork`, with one usable CPU or below the
threshold, the forest grows serially in this process.
"""

import contextlib
import os
import signal
from dataclasses import dataclass

import numpy as np

from .forest import Tree


@dataclass
class _Data:
    X: np.ndarray  # (n, d) positive-weight rows
    y: np.ndarray
    w: np.ndarray
    wy: np.ndarray  # w * y
    wyy: np.ndarray  # w * y * y
    rank: np.ndarray  # (d, n) dense value ranks
    rank_bits: int  # bits that hold any rank

    @classmethod
    def of(cls, X, y, w):
        """The training rows with their moments and feature value ranks."""
        # Dense rank of each value within its feature: sorting by rank sorts
        # by value, and equal values share a rank.
        rank = np.empty(X.shape[::-1], dtype=np.int32)
        for f in range(X.shape[1]):
            column = X[:, f].copy()
            order = np.argsort(column, kind="stable")
            ordered = column[order]
            rank[f, order] = np.cumsum(np.concatenate(([0], ordered[1:] != ordered[:-1])))
        wy = w * y
        return cls(X, y, w, wy, wy * y, rank, int(rank.max()).bit_length() if rank.size else 0)


def grow_trees(X, y, w, params, seed, block_rows, fork_rows):
    """The forest's trees, grown in blocks of as many trees as fit
    `block_rows` bootstrap rows (at least one); every weight is positive.

    A forest of at least `fork_rows` bootstrap rows (rows x trees) is cut
    into shares grown by forked children (see the module docstring). Every
    child is reaped, and this thread's CPUs restored, before this returns
    or raises.
    """
    # `Generator.choice(n, p=w / w.sum())` draws `cdf.searchsorted(u, "right")`
    # for n uniforms u; drawing so directly builds this CDF once, not per tree.
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    data = _Data.of(X, y, w)

    per_block = max(1, block_rows // len(y))
    n_trees = params.n_trees
    n_blocks = -(-n_trees // per_block)
    cpus = _usable_cpus() if len(y) * n_trees >= fork_rows else []
    n_shares = max(1, min(len(cpus), n_blocks))
    cuts = [n_trees * s // n_shares for s in range(n_shares + 1)]
    shares = [range(a, b) for a, b in zip(cuts, cuts[1:])]

    def grow(share):
        trees = []
        for first in range(share.start, share.stop, per_block):
            trees += _grow_block(data, cdf, params, seed, range(first, min(first + per_block, share.stop)))
        return trees

    if n_shares == 1:
        return grow(shares[0])
    children = []  # per forked share: (pid, pipe), or None if no fork
    mask = os.sched_getaffinity(0)
    try:
        for share, cpu in zip(shares[1:], cpus[1:]):
            children.append(_fork(grow, share, cpu))
        _pin(cpus[0])
        trees = grow(shares[0])
        payloads = [child and child[1].read() for child in children]
    except BaseException:
        for child in filter(None, children):
            os.kill(child[0], signal.SIGKILL)
        raise
    finally:
        done = [child is not None and _reap(*child) == 0 for child in children]
        _pin(*mask)
    for share, payload, ok in zip(shares[1:], payloads, done):
        grown = _unpack(payload, len(share)) if ok else None
        trees += grow(share) if grown is None else grown
    return trees


def _usable_cpus():
    """The CPUs this process may run on, ascending; none where a share
    cannot be forked."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def _pin(*cpus):
    """Run the calling thread on `cpus` only, or where it ran if they
    cannot be set. A scheduler that does not balance load keeps a forked
    child on its parent's CPU, so each share is placed on a CPU of its own."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, cpus)


def _fork(grow, share, cpu):
    """A forked child that grows `share` on `cpu` and writes its trees'
    node arrays to a pipe: its pid and the pipe's read end, or None if no
    process could be forked."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:  # the child leaves only through os._exit
        status = 1
        try:
            os.close(read_fd)
            _pin(cpu)
            with open(write_fd, "wb") as out:
                for part in _pack(grow(share)):
                    out.write(part)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _reap(pid, pipe):
    """Close the child's pipe, wait for it to end and return its exit code."""
    pipe.close()
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


# A tree's node arrays in `Tree` field order, each 8 bytes per node.
_FIELDS = (("feature", np.int64), ("threshold", np.float64), ("left", np.int64),
           ("right", np.int64), ("value", np.float64), ("support", np.float64))


def _pack(trees):
    """The trees' node counts, then each field's arrays end to end."""
    yield np.array([len(tree.feature) for tree in trees], dtype=np.int64).tobytes()
    for name, _ in _FIELDS:
        yield np.concatenate([getattr(tree, name) for tree in trees]).tobytes()


def _unpack(payload, n_trees):
    """The `n_trees` trees of a `_pack` payload, or None if it is short."""
    if len(payload) < 8 * n_trees:
        return None
    sizes = np.frombuffer(payload, dtype=np.int64, count=n_trees)
    total = int(sizes.sum())
    if len(payload) != 8 * (n_trees + len(_FIELDS) * total):
        return None
    fields = [
        np.frombuffer(payload, dtype=dtype, count=total, offset=8 * (n_trees + i * total))
        for i, (_, dtype) in enumerate(_FIELDS)
    ]
    ends = np.cumsum(sizes)
    return [
        Tree(**{name: column[a:b].copy() for (name, _), column in zip(_FIELDS, fields)})
        for a, b in zip(ends - sizes, ends)
    ]


def _grow_block(data, cdf, params, seed, tree_ids):
    """Grow the trees `tree_ids` breadth first; one vectorized pass per depth.

    `rows` holds the table rows of the bootstrap samples of the open nodes,
    grouped by node in level order and in bootstrap order within a node;
    `node` gives each one's node.
    """
    n, d = data.X.shape
    m = params.resolve_features_per_split(d)
    rngs, draws = [], []
    min_leaf = np.empty(len(tree_ids))
    for t, k in enumerate(tree_ids):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        draw = cdf.searchsorted(rng.random(n), side="right")
        min_leaf[t] = params.min_leaf_weight * (data.w[draw].sum() / n)
        rngs.append(rng)
        draws.append(draw)
    rows = np.concatenate(draws)
    del draws

    n_trees = len(tree_ids)
    level_tree = np.arange(n_trees)  # tree of each node at this depth
    level_id = np.zeros(n_trees, dtype=np.int64)  # its level-order id in its tree
    node = np.repeat(np.arange(n_trees), n)
    n_nodes = np.zeros(n_trees, dtype=np.int64)
    levels = []
    for depth in range(params.max_depth + 1):
        size = len(level_tree)
        weight, wy, wyy, varied = _node_sums(data, rows, node, size)
        n_nodes += np.bincount(level_tree, minlength=n_trees)
        feature = np.full(size, -1, dtype=np.int64)
        threshold = np.zeros(size)
        left = np.full(size, -1, dtype=np.int64)
        right = np.full(size, -1, dtype=np.int64)
        levels.append((level_tree, level_id, feature, threshold, left, right, wy / weight, weight))
        if depth == params.max_depth:
            break
        is_open = varied & (weight >= 2 * min_leaf[level_tree])
        opened = np.flatnonzero(is_open)
        if not opened.size:
            break
        keep = is_open[node]
        rows = rows[keep]
        node = (np.cumsum(is_open) - 1)[node[keep]]
        tree = level_tree[opened]
        if m < d:
            # One draw per tree and depth: a uniform row per open node, in
            # level order; its m smallest entries pick the node's features.
            counts = np.bincount(tree, minlength=n_trees)
            u = np.concatenate([rngs[t].random((c, d)) for t, c in enumerate(counts) if c])
            chosen = np.sort(np.argsort(u, axis=1, kind="stable")[:, :m], axis=1)
        else:
            chosen = np.broadcast_to(np.arange(d), (len(opened), d))
        best_f, best_thr, last_left = _best_splits(
            data, rows, node, chosen, weight[opened], wy[opened], wyy[opened],
            min_leaf[tree],
        )
        split = best_f >= 0
        if not split.any():
            break
        parents = opened[split]
        feature[parents] = best_f[split]
        threshold[parents] = best_thr[split]
        child_tree = np.repeat(level_tree[parents], 2)
        child_id = (
            n_nodes[child_tree]
            + np.arange(len(child_tree))
            - np.searchsorted(child_tree, child_tree)
        )
        left[parents] = child_id[0::2]
        right[parents] = child_id[1::2]

        # Route the rows of split nodes: child 2i is the left child of the
        # i-th split node, 2i + 1 its right child.
        f_row = best_f[node]
        keep = f_row >= 0
        rows, node, f_row = rows[keep], node[keep], f_row[keep]
        go_right = data.rank.take(f_row * n + rows) > last_left[node]
        child = 2 * (np.cumsum(split) - 1)[node] + go_right
        order, node = _stable_order(child)
        rows = rows[order]
        level_tree, level_id = child_tree, child_id
        del keep, f_row, go_right, child, order  # not held through the next scan

    # Each tree gets arrays of its own, so it does not keep its block alive.
    columns = [np.concatenate(c) for c in zip(*levels)]
    order = np.argsort(columns[0] * n_nodes.max() + columns[1], kind="stable")
    feature, threshold, left, right, value, support = (c[order] for c in columns[2:])
    ends = np.cumsum(n_nodes)
    return [
        Tree(
            feature=feature[a:b].copy(),
            threshold=threshold[a:b].copy(),
            left=left[a:b].copy(),
            right=right[a:b].copy(),
            value=value[a:b].copy(),
            support=support[a:b].copy(),
        )
        for a, b in zip(ends - n_nodes, ends)
    ]


def _node_sums(data, rows, node, size):
    """Weight, w*y and w*y^2 sums per node of the table rows `rows` and
    whether each node's targets vary; `node` is sorted and every node has a
    row."""
    y = data.y[rows]
    starts = np.searchsorted(node, np.arange(size))
    varied = np.maximum.reduceat(y, starts) > np.minimum.reduceat(y, starts)
    return (
        np.bincount(node, data.w[rows], minlength=size),
        np.bincount(node, data.wy[rows], minlength=size),
        np.bincount(node, data.wyy[rows], minlength=size),
        varied,
    )


def _best_splits(data, rows, node, chosen, weight, wy, wyy, min_leaf):
    """Best split of every open node: feature (-1 if none), threshold, and
    the rank of the threshold's value in the feature (rows ranked higher go
    right).

    `rows` are the table rows of the open nodes' samples, `node` the open
    node of each (sorted) and `chosen` the (open node, m) array of each
    node's features to scan, ascending; the weight, w*y and w*y^2 sums
    and min_leaf come per open node. Every sample is paired with each of
    its node's features, and `_stable_order` sorts the pairs by one packed
    key, ((node * d + feature) << rank_bits) | value rank. Each run of
    equal keys becomes one bin, which holds the w, w*y and w*y^2 sums of
    its pairs, its (node, feature) segment and the row of its first pair;
    the scan runs over the bins. Every row of a bin has the bin's value.

    A node's feature is scanned as in one sort of its values: boundaries
    between bins, that is between distinct values, whose sides both weigh
    >= min_leaf, gain = parent SSE - left SSE - right SSE. Gains within
    `tol` count as tied: a feature keeps the first boundary within tol of
    its best, and a feature replaces the node's best only if it beats it by
    more than tol, so ties go to the lowest feature, then the lowest
    threshold. Gains come out of cancelling moment sums, so their float
    error scales with the node's raw second moment, and so does tol;
    uniform weight rescaling then cannot flip a tie between equivalent
    splits.
    """
    d = data.rank.shape[0]
    n_open = len(weight)
    tol = 1e-11 * wyy
    best_f = np.full(n_open, -1, dtype=np.int64)
    best_thr = np.zeros(n_open)
    last_left = np.zeros(n_open, dtype=np.int64)
    if not len(rows) or not chosen.shape[1]:  # a table without features has no split
        return best_f, best_thr, last_left

    # One sort puts every (node, feature) pair's values in order: a segment
    # per pair, nodes in level order, features ascending within a node.
    # (`np.take` copies whole rows of the small (open node, m) arrays, several
    # times faster than indexing them with `node`.)
    n_rows = data.rank.shape[1]
    key = np.take(chosen + np.arange(n_open)[:, None] * d, node, axis=0)
    key <<= data.rank_bits
    at_rank = np.take(chosen * n_rows, node, axis=0)
    at_rank += rows[:, None]
    key |= data.rank.take(at_rank)
    del at_rank
    order, key = _stable_order(key.ravel())
    order //= chosen.shape[1]
    row = rows[order]
    del order

    # One bin per run of equal keys: its segment, its first pair's row and
    # its moment sums, the pairs added in their sorted order. (A bool
    # `np.cumsum` would first copy the flags to int64.)
    is_first = np.empty(len(key), dtype=bool)
    is_first[0] = True
    np.not_equal(key[1:], key[:-1], out=is_first[1:])
    pair_bin = is_first.astype(np.int64)
    np.cumsum(pair_bin, out=pair_bin)
    pair_bin -= 1
    first = np.flatnonzero(is_first)
    del is_first
    segment = key[first] >> data.rank_bits
    del key
    sums = [np.bincount(pair_bin, per_row[row], minlength=len(first))
            for per_row in (data.w, data.wy, data.wyy)]
    row = row[first]
    del pair_bin, first
    _segment_cumsum(sums, _run_offsets(segment))

    # Candidate cut k: the last bin of the left side; bin k + 1 is of the
    # same segment and so of a higher value. Only the cuts whose sides both
    # weigh >= min_leaf are gathered out of the bins.
    at = segment // d
    ok = np.zeros(len(segment), dtype=bool)
    np.equal(segment[1:], segment[:-1], out=ok[:-1])
    floor = min_leaf[at]
    ok &= sums[0] >= floor
    rw = weight[at]
    rw -= sums[0]
    ok &= rw >= floor
    del floor, rw
    if not ok.any():
        return best_f, best_thr, last_left
    at, segment = at[ok], segment[ok]
    for i in range(3):  # a moment's cuts replace its bins one at a time
        sums[i] = sums[i][ok]
    lw, ly, ly2 = sums
    del sums

    # gain = parent SSE - (ly2 - ly**2 / lw) - (ry2 - ry**2 / rw), each
    # operation in place and in that order.
    rw = weight[at]
    rw -= lw
    ry = wy[at]
    ry -= ly
    ly **= 2
    ly /= lw
    del lw
    ry2 = wyy[at]
    ry2 -= ly2
    ly2 -= ly  # the left SSE
    del ly
    ry **= 2
    ry /= rw
    del rw
    ry2 -= ry  # the right SSE
    del ry
    gain = (wyy - wy**2 / weight)[at]
    gain -= ly2
    gain -= ry2
    del ly2, ry2

    # Per segment: the first cut within tol of the segment's best gain.
    starts, counts = _runs(segment)
    top = np.maximum.reduceat(gain, starts)
    near = np.flatnonzero(gain >= np.repeat(top - tol[at[starts]], counts))
    first = near[_runs(segment[near])[0]]
    gain, segment = gain[first], segment[first]
    cut = np.flatnonzero(ok)[first]
    at, f = segment // d, segment % d
    below, above = data.X[row[cut], f], data.X[row[cut + 1], f]
    threshold = 0.5 * (below + above)
    # The midpoint of two adjacent floats can round up to `above` (or
    # overflow); `below` then separates the sides as well.
    threshold = np.where(threshold < above, threshold, below)
    rank_left = data.rank[f, row[cut]]

    # Per node, features in ascending order: the s-th feature with a cut
    # takes over if it beats the best so far by more than tol.
    slot = _run_offsets(at)
    best_gain = np.zeros(n_open)
    for s in range(int(slot.max()) + 1):
        mine = np.flatnonzero(slot == s)
        mine = mine[gain[mine] > best_gain[at[mine]] + tol[at[mine]]]
        best_gain[at[mine]] = gain[mine]
        best_f[at[mine]] = f[mine]
        best_thr[at[mine]] = threshold[mine]
        last_left[at[mine]] = rank_left[mine]
    return best_f, best_thr, last_left


def _runs(keys):
    """Start and length of each run of equal values in sorted, non-empty `keys`."""
    edges = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1], [True])))
    return edges[:-1], np.diff(edges)


def _run_offsets(keys):
    """Position of each element of sorted `keys` inside its run."""
    starts, counts = _runs(keys)
    offsets = np.arange(len(keys))
    offsets -= np.repeat(starts, counts)
    return offsets


def _segment_cumsum(sums, offset):
    """Prefix sums of each of the arrays `sums`, restarted at every segment,
    in place.

    Each entry is one bin of `_best_splits`, the sums of its own pairs, and
    `offset` is its position inside its segment. The log-step scan adds
    only bins of the same segment, so a node's sums carry the rounding of
    its own values alone, as sums taken inside the node do: they are
    independent of the other nodes and trees of the block, and as precise
    as the node's moment that scales the tie tolerance.
    """
    step = 1
    longest = int(offset.max()) + 1
    while step < longest:
        same = offset[step:] >= step
        for moment in sums:
            moment[step:] += moment[:-step] * same
        step *= 2
    return sums


def _stable_order(keys):
    """`np.argsort(keys, kind="stable")` and the sorted keys, for nonnegative
    int64 `keys`.

    Each key is shifted up and its position put in the freed low bits; the
    packed values are distinct, so one plain value sort of them orders the
    keys and, among equal keys, their positions: the stable permutation.
    Keys too wide to share 63 bits with a position take the stable argsort.
    """
    shift = max(len(keys) - 1, 0).bit_length()
    if not len(keys) or int(keys.max()).bit_length() + shift > 63:
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    packed = keys << shift
    packed |= np.arange(len(keys))
    packed.sort()
    order = packed & ((1 << shift) - 1)
    packed >>= shift
    return order, packed
