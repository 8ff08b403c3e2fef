"""Set-up times on large grid devices: the coupling graph and a cold map.

For each ``--sizes`` s, on an s x s grid, prints:

- ``build_grid``: ``ql.build_grid(s, s)``, whose all-pairs distances are
  most of its time;
- ``cold map``: what ``qlayout map`` does after reading its arguments,
  in-process: load a checkpoint of the device (which builds the device
  again), build a 30-qubit random circuit's program graph and decode it
  with ``multistart_greedy``, k = 10. The policy is the map-heavyhex65
  benchmark workload's (default encoder and decoder, n_max 40, seed 0),
  saved before the clock starts, so the device encoding, the pointer's
  projections and the cost table are all computed inside the timed run.

Each figure is the median and the minimum of ``--repeat`` runs, in ms.
The dense attention arrays of the device encoding grow with the square
of the qubits: a 45 x 45 cold map holds about 0.5 GB. The script reads
only the public ``qlayout`` API, so it runs against any checkout's
``src``:

    PYTHONPATH=src python3 tools/device_setup.py --sizes 32 45
"""

from __future__ import annotations

import argparse
import os
import statistics
import tempfile
import time

import numpy as np

import qlayout as ql

QUBITS = 30
N_MAX = 40


def circuit_qasm(seed=0):
    """A random circuit of QUBITS qubits and 4 * QUBITS CX gates."""
    rng = np.random.default_rng(seed)
    lines = ["OPENQASM 2.0;", f"qreg q[{QUBITS}];"]
    for _ in range(4 * QUBITS):
        a, b = rng.choice(QUBITS, size=2, replace=False)
        lines.append(f"cx q[{a}], q[{b}];")
    return "\n".join(lines) + "\n"


def timed_ms(fn, repeat):
    """The median and the minimum of ``repeat`` runs of ``fn``, in ms."""
    runs = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        runs.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(runs), min(runs)


def cold_map(checkpoint, qasm):
    policy = ql.PolicyNetwork.load(checkpoint)
    pg = ql.build_program_graph(ql.parse_qasm(qasm), n_max=N_MAX)
    ql.decode(pg, policy.cg, policy,
              ql.DecodeStrategy.make("multistart_greedy", k=10))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[32, 45],
                        help="grid side lengths (default: 32 45)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per figure (default: 3)")
    args = parser.parse_args(argv)
    if min(args.sizes) ** 2 < QUBITS or args.repeat < 1:
        parser.error(f"each grid needs at least {QUBITS} qubits, and "
                     f"--repeat at least 1 run")
    qasm = circuit_qasm()
    print(f"{'grid':>8} {'qubits':>7} {'build_grid ms':>22} "
          f"{'cold map ms':>22}")
    with tempfile.TemporaryDirectory() as tmp:
        for side in args.sizes:
            build = timed_ms(lambda: ql.build_grid(side, side), args.repeat)
            checkpoint = os.path.join(tmp, f"grid{side}.json")
            ql.PolicyNetwork(ql.build_grid(side, side), ql.EncoderConfig(),
                             ql.DecoderConfig(), prog_feature_dim=N_MAX,
                             seed=0).save(checkpoint)
            cold = timed_ms(lambda: cold_map(checkpoint, qasm), args.repeat)
            print(f"{f'{side}x{side}':>8} {side * side:>7} "
                  f"{build[0]:>10.1f} (min {build[1]:>7.1f}) "
                  f"{cold[0]:>10.1f} (min {cold[1]:>7.1f})")


if __name__ == "__main__":
    main()
