"""Benchmark core: metric names, checked and timed `compare` calls, layer metrics.

Metric names and units come from BENCHMARK.json at the repository root.
`timed_run` gives the end-to-end metrics of one workload (tracing off);
`traced_run` gives the per-layer metrics of one traced call. Both count
every `compare` call as attempted, and as failed when it raises or when a
check in `checks` reports a problem.

The end-to-end times are at nominal machine speed. On a shared host the
machine's speed can drift by up to 2x over seconds to minutes, far more
than any in-run statistic removes, so each timed region is bracketed by
runs of a fixed reference and its wall time is scaled by the reference's
nominal time over the mean of the two reference times around it
(`at_nominal_speed`). The reference of a `compare` call is a compute
kernel; that of a fresh interpreter, which mostly maps and loads files,
is a fresh interpreter that imports numpy alone.
"""

import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import workloads
from checks import check_call, check_lp
from stockalloc.pipeline import POLICY_ORDER, compare, report_to_json
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

INPUTS = 6  # distinct inputs per timed run; quality metrics average over them
SETUP_REPEATS = 7
SETUP_CODE = "import stockalloc, stockalloc.pipeline"
SETUP_REF_CODE = "import numpy"  # the program's one dependency
# Nominal wall times of the references, about theirs on an unloaded host;
# they set the machine speed the end-to-end times are given at.
REF_S = 0.2
SETUP_REF_S = 0.15
_REF_ROWS = np.random.default_rng(0).random((100, 100))


def metric_units(section):
    """Metric name -> unit, in file order, of a section of BENCHMARK.json.

    `section` is "end_to_end" or "per_layer".
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def fresh_interpreter_seconds(code):
    """Wall time of a new interpreter that runs `code` (with the program importable) and exits."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], env=env)
    # wait(timeout=...) polls the child every 50 ms, which would round the
    # time up to the next poll; a blocking wait under a kill timer does not.
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()
    try:
        returncode = proc.wait()
    finally:
        watchdog.cancel()
    seconds = time.perf_counter() - start
    if returncode:
        raise subprocess.CalledProcessError(returncode, code)
    return seconds


def reference_seconds():
    """Wall time of a fixed kernel with the program's mix of work.

    Small numpy sorts, prefix sums and dot products inside a Python loop
    that also builds a dict, as the forest, the allocator and ingest do.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(16000):
        row = _REF_ROWS[i % len(_REF_ROWS)]
        total += float(np.cumsum(row[np.argsort(row)])[-1]) + float(np.dot(row, row))
        total += len({j: total * j for j in range(20)})
    return time.perf_counter() - start


def at_nominal_speed(durations, refs, nominal):
    """Scale each duration to the machine speed at which the reference takes `nominal`.

    `refs[k]` and `refs[k + 1]` are the reference times just before and
    just after `durations[k]`.
    """
    return [d * nominal / ((refs[k] + refs[k + 1]) / 2) for k, d in enumerate(durations)]


class Calls:
    """Attempted and failed `compare` calls of one benchmark run.

    `compare_fn` is a parameter so that the self-tests can substitute a
    broken program.
    """

    def __init__(self, compare_fn=compare):
        self.compare_fn = compare_fn
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self._last_ok = True

    def run(self, instance, wrap=None):
        """Time one call; check its outputs outside the timed region.

        `wrap`, if given, is entered around the `compare` call alone.
        Returns (seconds, result or None, report.json bytes or None).
        """
        self.attempted += 1
        self._last_ok = True
        start = time.perf_counter()
        try:
            with wrap or contextlib.nullcontext():
                result = self.compare_fn(instance.config)
        except Exception as exc:  # a raising call is a failed call, not a crash
            seconds = time.perf_counter() - start
            self.fail([f"compare raised {type(exc).__name__}: {exc}"])
            return seconds, None, None
        seconds = time.perf_counter() - start
        self.fail(check_call(instance, result))
        return seconds, result, report_to_json(result[0]).encode()

    def fail(self, messages):
        """Count the latest call as failed (once), keeping its messages."""
        if messages:
            self.failed += self._last_ok
            self._last_ok = False
            self.messages += messages

    def check_same(self, reference, report_bytes, what):
        if None not in (reference, report_bytes) and report_bytes != reference:
            self.fail([f"report.json bytes differ: {what}"])


def quality_metrics(result):
    report, outcomes, _, _ = result
    mdapes = [e["policies"]["decision_blind"]["mdape"] for e in report["products"].values()]
    mdapes = [m for m in mdapes if m is not None]
    return {
        "unmet_pct.decision_aware": outcomes["decision_aware"].mean_unmet_pct(),
        "unmet_pct.decision_blind": outcomes["decision_blind"].mean_unmet_pct(),
        "mdape.decision_blind": sum(mdapes) / len(mdapes),
    }


def timed_run(name, seed, seconds, workdir):
    """End-to-end metrics over INPUTS distinct inputs derived from `seed`.

    After a small warm-up call, calls cycle through the inputs: at least
    one full cycle plus a repeat of the first input, then more while
    another call of median length fits in `seconds`. A reference runs
    before the first call or fresh interpreter and after each one.
    `compare_s` is the median over all calls of their time at nominal
    speed, `setup_s` the median of SETUP_REPEATS fresh interpreters that
    import the program, at nominal speed; quality
    metrics are means over the inputs; repeats of an input must give
    identical report.json bytes.

    Returns (calls, metrics, log); `log` holds the raw wall times of the
    calls and reference runs, for display.
    """
    calls = Calls()
    reference_seconds()  # warm-up
    setup_refs, setups = [fresh_interpreter_seconds(SETUP_REF_CODE)], []
    for _ in range(SETUP_REPEATS):
        setups.append(fresh_interpreter_seconds(SETUP_CODE))
        setup_refs.append(fresh_interpreter_seconds(SETUP_REF_CODE))
    calls.run(workloads.build(name, seed, workdir, small=True))
    instances = [workloads.build(name, s, workdir) for s in workloads.instance_seeds(seed, INPUTS)]

    durations, refs, reports, quality, rows = [], [reference_seconds()], {}, {}, {}
    start = time.perf_counter()
    while len(durations) <= INPUTS or (
        time.perf_counter() - start + statistics.median(durations) + statistics.median(refs) <= seconds
    ):
        i = len(durations) % INPUTS
        took, result, report_bytes = calls.run(instances[i])
        refs.append(reference_seconds())
        durations.append(took)
        calls.check_same(reports.get(i), report_bytes, f"repeat of input {i}")
        reports.setdefault(i, report_bytes)
        if result is not None and i not in quality:
            quality[i] = quality_metrics(result)
            rows[i] = len(result[3].table)
        del result  # only the figures above are kept, so peak RSS is the program's

    compare_s = statistics.median(at_nominal_speed(durations, refs, REF_S))
    metrics = {
        "compare_s": compare_s,
        "setup_s": statistics.median(at_nominal_speed(setups, setup_refs, SETUP_REF_S)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if len(quality) == INPUTS:
        metrics["rows_per_s"] = statistics.mean(rows.values()) / compare_s
        for key in quality[0]:
            metrics[key] = statistics.mean(q[key] for q in quality.values())
    log = {"compare (s)": durations, "reference after each call (s)": refs[1:],
           "fresh interpreter (s)": setups, "numpy-only interpreter after each (s)": setup_refs[1:]}
    return calls, metrics, log


def layer_metrics(tracer, result, traced_s, untraced_s):
    """Per-layer metrics of one traced call from its spans and counters."""
    tot = tracer.totals()

    def calls(span):
        return tot.get(span, (0, 0.0, 0.0))[0]

    def total(span):
        return tot.get(span, (0, 0.0, 0.0))[1]

    def self_s(span):
        return tot.get(span, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    _, _, weight_report, prepared = result
    c = tracer.counters
    reasons = [e.reason for e in prepared.exclusions]
    ingest_s = total("ingest.parse") + total("ingest.clean") + total("ingest.features")
    forests = c["forests"]
    nodes = sum(len(t.feature) for f in forests for t in f.trees)
    solves = calls("allocator.solve.pipeline") + calls("allocator.solve.weights")
    solve_s = total("allocator.solve.pipeline") + total("allocator.solve.weights")
    config = weight_report.config
    modes = weight_report.group_jacobian_mode.values()
    pipeline_spans = ["compare", "pipeline.prepare"] + [f"pipeline.policy.{p}" for p in POLICY_ORDER]

    m = {
        "ingest.parse_s": total("ingest.parse"),
        "ingest.clean_s": total("ingest.clean"),
        "ingest.features_s": total("ingest.features"),
        "ingest.split_s": total("ingest.split"),
        "ingest.records_per_s": ratio(c["records_parsed"], ingest_s),
        "ingest.records_parsed": c["records_parsed"],
        "ingest.rows_rejected": len(prepared.rejects),
        "ingest.rows_excluded.unbalanced": reasons.count("unbalanced"),
        "ingest.rows_excluded.all_zero": reasons.count("all_zero"),
        "ingest.rows_excluded.outlier": reasons.count("outlier"),
        "synth.generate_s": total("synth.generate"),
        "forest.train_s": total("forest.train"),
        "forest.train_calls": calls("forest.train"),
        "forest.nodes": nodes,
        "forest.max_depth": max((tree_depth(t) for f in forests for t in f.trees), default=0),
        "forest.nodes_per_s": ratio(nodes, total("forest.train")),
        "forest.predict_s": total("forest.predict"),
        "linear.train_s": total("linear.train"),
        "linear.predict_s": total("linear.predict"),
        "allocator.solve_calls.pipeline": calls("allocator.solve.pipeline"),
        "allocator.solve_calls.weights": calls("allocator.solve.weights"),
        "allocator.solve_s.pipeline": total("allocator.solve.pipeline"),
        "allocator.solve_s.weights": total("allocator.solve.weights"),
        "allocator.us_per_solve": 1e6 * ratio(solve_s, solves),
        "allocator.segments_filled": c["segments_filled"],
        "allocator.budget_used_frac": ratio(c["allocated"], c["budget"]),
        "weights.compute_s": total("weights.compute"),
        "weights.self_s": self_s("weights.compute"),
        "weights.jacobian_s": total("weights.jacobian"),
        "weights.fd_solves": tracer.child_count("allocator.solve.weights", "weights.jacobian"),
        "weights.floor_frac": float((abs(weight_report.raw_weights) <= config.weight_floor).mean()),
        "weights.identity_fallback_groups": sum(
            1 for mode in modes if mode == "identity" and config.jacobian_mode != "identity"),
        "pipeline.prepare_s": total("pipeline.prepare"),
        "pipeline.self_s": sum(self_s(span) for span in pipeline_spans),
        "trace.compare_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    for policy in POLICY_ORDER:
        m[f"pipeline.policy_s.{policy}"] = total(f"pipeline.policy.{policy}")
    return m


def tree_depth(tree):
    """Depth of the deepest leaf (root alone has depth 0)."""
    deepest, stack = 0, [(0, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if tree.feature[node] >= 0:
            stack += [(int(tree.left[node]), depth + 1), (int(tree.right[node]), depth + 1)]
    return deepest


def traced_run(name, seed, workdir, spans_path):
    """Per-layer metrics: one untraced and one traced call of the same input.

    The spans go to `spans_path`. The LP cross-check of the sampled solves
    runs after the traced call, outside any timed region.
    """
    calls = Calls()
    calls.run(workloads.build(name, seed, workdir, small=True))
    instance = workloads.build(name, workloads.instance_seeds(seed, INPUTS)[0], workdir)
    untraced_s, _, reference = calls.run(instance)
    with Tracer(seed=seed) as tracer:
        traced_s, result, report_bytes = calls.run(instance, wrap=tracer.run(run_id=1))
    tracer.write(spans_path)
    calls.check_same(reference, report_bytes, "traced vs untraced")
    if result is None:
        return calls, {}

    calls.fail(check_lp(tracer.sampled_solves))
    expected = instance.expected_ingest
    if expected is not None and tracer.counters["records_parsed"] != expected["records"]:
        calls.fail([f"ingest parsed {tracer.counters['records_parsed']} records, "
                    f"generator wrote {expected['records']}"])
    return calls, layer_metrics(tracer, result, traced_s, untraced_s)
