"""Entry point of the qlayout benchmark.

    python3 perfbench/run.py --workload map-heavyhex65 --seed 1 \
        --seconds 25 --trace 0

Run from the repository root. Each run is one closed-loop client in one
worker process; the workloads and metrics are described in README.md next
to this file. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import calib  # noqa: E402
from perfbench.metrics import (WALL, WORKLOAD_NAMES,  # noqa: E402
                               end_to_end, per_layer, timings)

WORKLOADS = ("train-grid4x4", "map-heavyhex65", "refine-heavyhex65")
SETUP_SAMPLES = 9  # fresh interpreters per run; setup_s is their median
CHILD_TIMEOUT_S = 170
THREAD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS")}


class BenchError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Worker:
    """One ``perfbench.worker`` process; its set-up time is the wall time
    from spawning it to its ``READY`` line, and the worker reports the
    reference kernel's time right after that line."""

    def __init__(self, args, role, checkpoint, *extra):
        self.cmd = [sys.executable, "-m", "perfbench.worker",
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--role", role, "--checkpoint", str(checkpoint),
                    "--seconds", str(args.seconds), *extra]
        self.role = role

    def run(self):
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            setup_s, ref_s, result = None, None, None
            for line in proc.stdout:
                if line.startswith("READY") and setup_s is None:
                    setup_s = time.perf_counter() - t0
                elif line.startswith("REF "):
                    ref_s = float(line.split()[1])
                elif line.startswith("RESULT "):
                    result = json.loads(line[len("RESULT "):])
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0:
            raise BenchError(f"{self.role} worker exited with code {code}")
        if self.role != "prepare" and (setup_s is None or ref_s is None):
            raise BenchError(f"{self.role} worker never became ready")
        if self.role == "measure" and not (result or {}).get("samples"):
            raise BenchError("measure worker completed no operation")
        return (setup_s, ref_s), result


def run(args, workdir):
    checkpoint = workdir / "policy.json"
    Worker(args, "prepare", checkpoint).run()
    if args.trace:
        _, plain = Worker(args, "measure", checkpoint).run()
        _, traced = Worker(args, "measure", checkpoint, "--trace",
                           "--ops", str(plain["ops"])).run()
        same = plain["digest"] == traced["digest"]
        if not same:
            print("traced and untraced outputs differ", file=sys.stderr)
        overhead = 100.0 * (traced["busy_s"] / plain["busy_s"] - 1.0)
        metrics = per_layer(traced, overhead)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        report(args, plain, {"trace.overhead_pct": overhead,
                             "outputs_identical": same}, {})
        return {"correct": failed == 0 and same, "attempted": attempted,
                "failed": failed, "metrics": metrics}

    # set-up samples before and after the measurement, so that setup_s
    # does not rest on one stretch of the machine's speed
    setup = Worker(args, "setup", checkpoint)
    setups = [setup.run()[0] for _ in range(SETUP_SAMPLES // 2)]
    measured, record = Worker(args, "measure", checkpoint).run()
    setups.append(measured)
    setups += [setup.run()[0] for _ in range(SETUP_SAMPLES - len(setups))]
    setup_s = statistics.median(calib.to_reference(wall_s, ref_s)
                                for wall_s, ref_s in setups)
    metrics = end_to_end(record, setup_s)
    wall = dict(timings(record["samples"], WALL),
                setup_s=statistics.median(wall_s for wall_s, _ in setups))
    report(args, record, metrics, wall)
    ok = record["failed"] == 0 and all(
        math.isfinite(m["value"]) and m["value"] > 0
        for m in metrics.values())
    return {"correct": ok, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def report(args, record, extra, wall):
    """Human-readable lines ahead of the result line; ``wall`` holds
    timings as measured, before scaling to reference speed."""
    print("facts " + json.dumps(record["facts"], sort_keys=True))
    print(f"reference kernel: median {record['ref_ms_median']:.4g} ms "
          f"this run, scaled to {calib.REF_MS} ms")
    print(f"workload {args.workload} seed {args.seed}: {record['ops']} "
          f"operations, {record['attempted']} checked, {record['failed']} "
          f"failed (failed_ratio "
          f"{record['failed'] / record['attempted']:.4f})")
    for name, value in extra.items():
        if isinstance(value, dict):
            alias = WORKLOAD_NAMES.get((args.workload, name))
            label = f"{name} ({alias})" if alias else name
            raw = f"  (wall {wall[name]:.6g})" if name in wall else ""
            print(f"  {label:44s} {value['value']:.6g} {value['unit']}{raw}")
        else:
            print(f"  {name:44s} {value}")


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "qlayout" / "__init__.py").is_file():
        print(f"qlayout sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        result = run(args, workdir)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
