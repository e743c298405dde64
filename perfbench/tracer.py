"""Outside-in span tracer for the stockalloc pipeline.

The program is not modified. Instead the tracer replaces the public
functions the pipeline calls with timing wrappers, at the place where each
caller looks the name up: `pipeline.py` and `weights.py` import with
`from .x import f`, so patching `stockalloc.allocator.solve_greedy` alone
would catch nothing. Model predictions are patched on the class.

Each call becomes a span (run id, span id, parent span id, name, start,
end). Spans stay in memory until `write` dumps them; self time is a
span's duration minus the time its direct children cover.
"""

import json
import random
import time
from contextlib import contextmanager

import numpy as np

from stockalloc import pipeline, weights
from stockalloc.forest import Forest
from stockalloc.linear import LinearModel

# (owner, attribute, span name). The owner is the namespace the caller reads.
TARGETS = (
    (pipeline, "generate", "synth.generate"),
    (pipeline, "parse_records", "ingest.parse"),
    (pipeline, "clean_records", "ingest.clean"),
    (pipeline, "build_feature_table", "ingest.features"),
    (pipeline, "split_train_eval", "ingest.split"),
    (pipeline, "prepare", "pipeline.prepare"),
    (pipeline, "train_forest", "forest.train"),
    (pipeline, "train_linear", "linear.train"),
    (pipeline, "compute_weights", "weights.compute"),
    (pipeline, "solve_greedy", "allocator.solve.pipeline"),
    (pipeline, "run_decision_blind", "pipeline.policy.decision_blind"),
    (pipeline, "run_decision_aware", "pipeline.policy.decision_aware"),
    (pipeline, "run_rolling_average", "pipeline.policy.rolling_average"),
    (pipeline, "run_oracle", "pipeline.policy.oracle"),
    (weights, "solve_greedy", "allocator.solve.weights"),
    (weights, "policy_jacobian", "weights.jacobian"),
    (Forest, "predict_samples", "forest.predict"),
    (Forest, "predict_point", "forest.predict"),
    (LinearModel, "predict_samples", "linear.predict"),
    (LinearModel, "predict_point", "linear.predict"),
)

SAMPLE_SIZE = 4  # solves kept for the LP cross-check


class Tracer:
    """Records spans around the TARGETS while entered as a context manager.

    `counters` collects what the layers return: parsed record counts,
    trained forests, and per-solve fill and budget totals. A seeded
    reservoir keeps SAMPLE_SIZE of the solves, as (problem, allocation),
    for an LP cross-check after the run.
    """

    def __init__(self, seed=0):
        self.spans = []  # [run_id, span_id, parent_id, name, start, end]
        self.counters = {"records_parsed": 0, "forests": [], "segments_filled": 0,
                         "allocated": 0.0, "budget": 0.0}
        self.sampled_solves = []  # (problem, copy of the returned allocation)
        self._solves_seen = 0
        self._rng = random.Random(seed)
        self._stack = []
        self._run_id = None
        self._saved = []

    @contextmanager
    def run(self, run_id):
        """Root span of one traced `compare` call; every span inside carries `run_id`."""
        self._run_id = run_id
        try:
            with self.span("compare"):
                yield
        finally:
            self._run_id = None

    @contextmanager
    def span(self, name):
        record = [self._run_id, len(self.spans), self._stack[-1] if self._stack else None,
                  name, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[1])
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, on_result):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self):
        def parsed(args, result):
            self.counters["records_parsed"] += len(result[0])

        def trained(args, result):
            self.counters["forests"].append(result)

        def solved(args, result):
            problem = args[0]
            self.counters["segments_filled"] += len(result.fill_trace)
            self.counters["allocated"] += float(result.allocation.sum())
            self.counters["budget"] += float(problem.budget)
            self._solves_seen += 1
            solve = (problem, np.array(result.allocation, dtype=float))
            if len(self.sampled_solves) < SAMPLE_SIZE:
                self.sampled_solves.append(solve)
            else:
                j = self._rng.randrange(self._solves_seen)
                if j < SAMPLE_SIZE:
                    self.sampled_solves[j] = solve

        return {
            "ingest.parse": parsed,
            "forest.train": trained,
            "allocator.solve.pipeline": solved,
            "allocator.solve.weights": solved,
        }

    def __enter__(self):
        hooks = self._hooks()
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hooks.get(name)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Span id -> duration minus the duration of its direct children."""
        own = {s[1]: s[5] - s[4] for s in self.spans}
        for s in self.spans:
            if s[2] is not None:
                own[s[2]] -= s[5] - s[4]
        return own

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        own = self.self_times()
        out = {}
        for s in self.spans:
            calls, total, self_s = out.get(s[3], (0, 0.0, 0.0))
            out[s[3]] = (calls + 1, total + s[5] - s[4], self_s + own[s[1]])
        return out

    def child_count(self, name, parent_name):
        """Calls of `name` made directly inside a span named `parent_name`."""
        names = {s[1]: s[3] for s in self.spans}
        return sum(1 for s in self.spans if s[3] == name and names.get(s[2]) == parent_name)

    def write(self, path):
        fields = ("run", "id", "parent", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(fields, s)) for s in self.spans], fh)
