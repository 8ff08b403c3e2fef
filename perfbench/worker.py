"""One workload process: program set-up, then a closed loop of operations.

Run by ``run.py`` as ``python3 -m perfbench.worker ...`` from the checkout
root. Prints ``READY`` once the program is set up (``run.py`` times the
interval from process start to that line) and, unless ``--role setup``,
``RESULT <json>`` when the operations are done. Inputs are generated after
``READY``, so their cost is not set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from . import calib

ROOT = Path(__file__).resolve().parent.parent
# kernel runs after each set-up (about 0.1 s): the host's speed flips
# within fractions of a second, and a few runs did not track the speed the
# set-up saw (README.md, "Timing on a shared host")
SETUP_REF_REPS = 30
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--role", choices=("prepare", "setup", "measure"),
                   required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--ops", type=int, default=None,
                   help="run exactly this many operations (trace replay)")
    p.add_argument("--trace", action="store_true")
    return p.parse_args(argv)


def machine_facts(np):
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = ROOT / "src" / "qlayout"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "src_loc": sum(len(p.read_text().splitlines())
                       for p in sorted(src.rglob("*.py"))),
    }


def _digest_update(h, obj):
    h.update(json.dumps(obj, sort_keys=True).encode())


def run_ops(wl, seconds, fixed_ops, min_ops):
    """Closed loop over the workload's operations; returns its record."""
    spans, final_costs, failed = [], [], 0
    digest = hashlib.sha256()
    with calib.Sampler() as sampler:
        start = time.perf_counter()
        i = 0
        while True:
            if fixed_ops is not None:
                if i >= fixed_ops:
                    break
            elif i >= min_ops and time.perf_counter() - start >= seconds:
                break
            try:
                span, out = wl.op(i)
                problems = wl.check(i, out)
            except Exception:  # an operation that raises counts as failed
                traceback.print_exc()
                span, out, problems = None, None, ["raised"]
            if problems:
                failed += 1
                print(f"op {i} failed: {problems}", file=sys.stderr)
            if span is not None:
                spans.append((i % wl.pass_size, wl.work(i), span))
            _digest_update(digest, out)
            if i < wl.pass_size and out is not None and not problems:
                final_costs.append(wl.final_cost(i, out))
            i += 1
    return make_record(i, i, failed, spans, sampler, digest,
                       sum(final_costs) / len(final_costs) if final_costs
                       else math.nan)


def run_training(wl, seconds, fixed_epochs, tracer):
    """Train for the run's epochs, then decode the held-out circuits with
    each checkpoint.

    Training that raises ends the run: without epochs nothing is measured.
    """
    failed = 0
    digest = hashlib.sha256()
    with calib.Sampler() as sampler:
        epochs, checkpoints = wl.epochs(seconds, fixed_epochs)
    per_layer = tracer.take() if tracer else None
    for _, row in epochs:
        values = [row.mean_reward, row.baseline, row.grad_norm]
        if not all(math.isfinite(v) for v in values) or row.baseline > 0:
            failed += 1
            print(f"epoch {row.epoch} failed: {values}", file=sys.stderr)
        _digest_update(digest, values)
    costs = []
    for policy in checkpoints:
        for circuit in wl.heldout:
            try:
                out = wl.evaluate(policy, circuit)
                problems = wl.check_eval(circuit, out)
            except Exception:
                traceback.print_exc()
                out, problems = None, ["raised"]
            if problems:
                failed += 1
                print(f"held-out decode failed: {problems}", file=sys.stderr)
            else:
                costs.append(wl.oracle.cost(out["layout"], circuit,
                                            "adjacent-free"))
            _digest_update(digest, out)
    spans = [(k, wl.work_per_epoch(), span)
             for k, (span, _) in enumerate(epochs)]
    record = make_record(len(epochs),
                         len(epochs) + len(checkpoints) * len(wl.heldout),
                         failed, spans, sampler, digest,
                         sum(costs) / len(costs) if costs else math.nan)
    return record, per_layer


def make_record(ops, attempted, failed, spans, sampler, digest,
                swap_cost_mean):
    """``spans`` holds (input, work units, (start, end)) per timed
    operation; operations on the same input are aggregated later."""
    samples = [[key, work, end - start, sampler.scale(start, end)]
               for key, work, (start, end) in spans]
    return {
        "ops": ops, "attempted": attempted, "failed": failed,
        "samples": samples,
        "busy_s": sum(s[3] for s in samples),
        "ref_ms_median": 1000.0 * sampler.median_s(),
        "swap_cost_mean": swap_cost_mean,
        "digest": digest.hexdigest(),
    }


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import qlayout as ql

    from .tracer import Tracer
    from .workloads import MIN_OPS, WORKLOADS

    cls = WORKLOADS[args.workload]
    if args.role == "prepare":
        if hasattr(cls, "prepare"):
            cls.prepare(ql, args.checkpoint)
        return 0

    with Tracer() if args.trace else contextlib.nullcontext() as tracer:
        wl = cls(args.seed, args.checkpoint)
        wl.setup(ql)
        print("READY", flush=True)
        # host speed right after set-up, to scale set-up time by
        calib.warm_up()
        print(f"REF {calib.reference_s(reps=SETUP_REF_REPS)!r}", flush=True)
        if args.role == "setup":
            return 0
        setup_layers = tracer.take() if tracer else None
        wl.make_inputs()
        if tracer:
            tracer.take()  # drop what input generation touched
        if hasattr(wl, "epochs"):
            record, op_layers = run_training(wl, args.seconds, args.ops, tracer)
        else:
            record = run_ops(wl, args.seconds, args.ops,
                             max(MIN_OPS, wl.pass_size))
            op_layers = tracer.take() if tracer else None

    record["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    record["facts"] = machine_facts(np)
    if tracer:
        record["layers"] = {"setup": vars_of(setup_layers),
                            "ops": vars_of(op_layers)}
    print("RESULT " + json.dumps(record), flush=True)
    return 0


def vars_of(stats):
    return {k: dict(v) for k, v in vars(stats).items()}


if __name__ == "__main__":
    sys.exit(main())
