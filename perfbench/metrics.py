"""Metric definitions and their computation from worker records.

Every end-to-end metric is reported on every workload, so each has one
meaning per workload (see README.md); ``WORKLOAD_NAMES`` gives the
workload-specific name printed next to it.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "throughput_per_s": "1/s",
    "swap_cost_mean": "swaps",
}

WORKLOAD_NAMES = {
    ("train-grid4x4", "throughput_per_s"): "train_episodes_per_s",
    ("train-grid4x4", "swap_cost_mean"): "train_val_cost",
    ("train-grid4x4", "latency_ms_p50"): "epoch_ms_p50",
    ("train-grid4x4", "latency_ms_p90"): "epoch_ms_p90",
    ("map-heavyhex65", "latency_ms_p50"): "map_ms_p50",
    ("map-heavyhex65", "latency_ms_p90"): "map_ms_p90",
    ("map-heavyhex65", "throughput_per_s"): "map_circuits_per_s",
    ("refine-heavyhex65", "latency_ms_p50"): "refine_ms_p50",
    ("refine-heavyhex65", "latency_ms_p90"): "refine_ms_p90",
    ("refine-heavyhex65", "throughput_per_s"): "refine_iters_per_s",
}

# name -> unit; names ending in ".ms" are self time per operation
PER_LAYER = {
    "circuit.parse_qasm.ms": "ms",
    "circuit.build_program_graph.ms": "ms",
    "topology.build.ms": "ms",
    "policy.load.ms": "ms",
    "policy.encode.ms": "ms",
    "policy.encode.calls": "count",
    "policy.make_context.ms": "ms",
    "policy.pointer_logits.ms": "ms",
    "policy.pointer_logits.calls": "count",
    "policy.masked_distribution.ms": "ms",
    "training.rollout_sample.ms": "ms",
    "training.rollout_greedy.ms": "ms",
    "training.rollout.calls": "count",
    "training.decode.ms": "ms",
    "training.gen_random_instance.ms": "ms",
    "diffcore.ops": "count",
    "diffcore.backward.ms": "ms",
    "diffcore.backward.calls": "count",
    "diffcore.tape_nodes": "count",
    "diffcore.adam_step.ms": "ms",
    "objective.cost_evals": "count",
    "objective.cost_eval.ms": "ms",
    "objective.layout_copies": "count",
    "postprocess.local_search.ms": "ms",
    "postprocess.local_search.calls": "count",
    "postprocess.iterations": "count",
    "postprocess.us_per_iter": "us",
    "postprocess.accepted": "count",
    "postprocess.accept_ratio": "ratio",
    "postprocess.stopped_early": "count",
    "trace.overhead_pct": "%",
}

# spans that run during program set-up; reported per set-up, not per op
SETUP_SPANS = ("topology.build", "policy.load")


def percentile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# columns of a worker's samples: [input, work units, wall s, scaled s]
WALL, SCALED = 2, 3


def timings(samples, column=SCALED):
    """Latency percentiles and throughput over the run's distinct inputs.

    Each input's time is the median over the run's operations on it, so
    a run's mix of inputs stays fixed however many passes the host's
    speed allowed."""
    times, work = defaultdict(list), {}
    for sample in samples:
        times[sample[0]].append(sample[column])
        work[sample[0]] = sample[1]
    seconds = [statistics.median(v) for v in times.values()]
    lat_ms = [1000.0 * s for s in seconds]
    return {"latency_ms_p50": percentile(lat_ms, 50),
            "latency_ms_p90": percentile(lat_ms, 90),
            "throughput_per_s": sum(work.values()) / sum(seconds)}


def end_to_end(record, setup_s):
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": record["peak_rss_mb"],
        **timings(record["samples"]),
        "swap_cost_mean": record["swap_cost_mean"],
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(record, overhead_pct):
    """Per-layer metrics from a traced worker record; absent layers are 0."""
    layers = record["layers"]
    ops = max(1, record["ops"])
    setup, run = layers["setup"], layers["ops"]

    def self_ms(name):
        phase, per = (setup, 1) if name in SETUP_SPANS else (run, ops)
        return 1000.0 * phase["self_s"].get(name, 0.0) / per

    def calls(name):
        return run["calls"].get(name, 0) / ops

    def count(name):
        return run["counts"].get(name, 0) / ops

    iterations = run["counts"].get("postprocess.iterations", 0)
    search_s = run["incl_s"].get("postprocess.local_search", 0.0)
    values = {}
    for name in PER_LAYER:
        if name.endswith(".ms"):
            values[name] = self_ms(name[:-3])
        elif name.endswith(".calls"):
            values[name] = calls(name[:-6])
        else:
            values[name] = count(name)
    values.update({
        "training.rollout.calls": (calls("training.rollout_sample")
                                   + calls("training.rollout_greedy")),
        "objective.cost_evals": calls("objective.cost_eval"),
        "postprocess.us_per_iter": (1e6 * search_s / iterations
                                    if iterations else 0.0),
        "postprocess.accept_ratio": (
            run["counts"].get("postprocess.accepted", 0) / iterations
            if iterations else 0.0),
        "trace.overhead_pct": overhead_pct,
    })
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}
