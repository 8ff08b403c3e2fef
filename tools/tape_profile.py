"""Autodiff ops and backward time by op kind, over desk-scale epochs.

Trains the policy of the ``train-grid4x4`` benchmark workload (a 4x4
grid; 2 GAT layers of 4 heads, embed and context dim 16, graph norm;
epochs of 8 batches of 32 circuits of 6-12 qubits, validation size 32)
for ``--epochs`` epochs and prints, per epoch and per op kind:

- ``ops``: calls of ``diffcore._make``, eval forwards included (the
  benchmark's ``diffcore.ops``);
- ``nodes``: the nodes with a backward that ``Tape.run`` visits;
- ``vjp ms``: the time in those nodes' vjps;

and the minor page faults of each epoch (``ru_minflt`` of the process),
which a fresh large temporary array costs wherever the allocator maps new
memory for it.

An op's kind is the function that called ``_make``, or for a fused op the
function that called ``diffcore.fused``. ``Tape.run``'s own time beyond
the vjps (accumulation and the walk) is printed as one more line. The
tool wraps ``diffcore._make`` and ``diffcore.Tape.run`` while it runs and
reads only the public ``qlayout`` API otherwise, so it runs against any
checkout's ``src``:

    PYTHONPATH=src python3 tools/tape_profile.py --epochs 3
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from collections import Counter, defaultdict

import qlayout as ql
from qlayout import diffcore


class Profile:
    """Counts and times of the autodiff tape, by op kind."""

    def __init__(self):
        self.ops = Counter()
        self.nodes = Counter()
        self.vjp_s = defaultdict(float)
        self.run_s = 0.0

    def _timed(self, vjp, kind):
        vjp_s = self.vjp_s

        def timed(g):
            t0 = time.perf_counter()
            try:
                return vjp(g)
            finally:
                vjp_s[kind] += time.perf_counter() - t0

        timed.kind = kind
        return timed

    def __enter__(self):
        make, run = diffcore._make, diffcore.Tape.run
        self._undo = make, run

        def counted_make(data, *pairs):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "fused":
                caller = caller.f_back
            kind = caller.f_code.co_name
            self.ops[kind] += 1
            out = make(data, *pairs)
            if out._bwd is not None:
                out._bwd = tuple(self._timed(v, kind) for v in out._bwd)
            return out

        def timed_run(tape):
            for node in tape.order:
                if node._bwd is not None:
                    self.nodes[node._bwd[0].kind] += 1
            t0 = time.perf_counter()
            try:
                return run(tape)
            finally:
                self.run_s += time.perf_counter() - t0

        diffcore._make, diffcore.Tape.run = counted_make, timed_run
        return self

    def __exit__(self, *exc):
        diffcore._make, diffcore.Tape.run = self._undo
        return False

    def report(self, epochs, epoch_s):
        per = 1.0 / epochs
        print(f"{'kind':<16}{'ops':>9}{'nodes':>9}{'vjp ms':>10}")
        for kind in sorted(self.ops, key=lambda k: (-self.ops[k], k)):
            print(f"{kind:<16}{self.ops[kind] * per:>9.0f}"
                  f"{self.nodes[kind] * per:>9.0f}"
                  f"{self.vjp_s[kind] * 1e3 * per:>10.2f}")
        vjp_s = sum(self.vjp_s.values())
        print(f"{'all':<16}{sum(self.ops.values()) * per:>9.0f}"
              f"{sum(self.nodes.values()) * per:>9.0f}"
              f"{vjp_s * 1e3 * per:>10.2f}")
        print(f"Tape.run beyond the vjps: "
              f"{(self.run_s - vjp_s) * 1e3 * per:.2f} ms per epoch")
        print(f"Tape.run: {self.run_s * 1e3 * per:.2f} ms of a "
              f"{epoch_s * 1e3 * per:.1f} ms epoch (profiled)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1,
                        help="the training seed; the policy's seed is 0")
    args = parser.parse_args(argv)
    grid = ql.build_grid(4, 4)
    pol = ql.PolicyNetwork(
        grid, ql.EncoderConfig(layers=2, heads=4, embed_dim=16,
                               norm_kind="graph"),
        ql.DecoderConfig(heads=4, context_dim=16), prog_feature_dim=12,
        seed=0)
    cfg = ql.TrainConfig(epochs=args.epochs, batches_per_epoch=8,
                         batch_size=32, lr=3e-3, n_min=6, n_max=12,
                         edge_prob=0.3, seed=args.seed, val_size=32)
    faults = [minor_faults()]
    with Profile() as prof:
        t0 = time.perf_counter()
        ql.train(cfg, pol, grid, log_fn=lambda row: faults.append(
            minor_faults()))
        epoch_s = time.perf_counter() - t0
    print(f"per epoch, mean of {args.epochs} epochs of train-grid4x4 "
          f"(training seed {args.seed})")
    prof.report(args.epochs, epoch_s)
    print("minor page faults by epoch: "
          + ", ".join(str(b - a) for a, b in zip(faults, faults[1:])))
    return 0


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


if __name__ == "__main__":
    sys.exit(main())
