"""Spread of criterion 06's desk-scale improvement under 1-ulp nudges.

The desk-scale half of ``tests/test_acceptance.py::
test_criterion_06_learning_signal`` trains a 4x4-grid policy (seed 0) for
40 epochs and requires the mean greedy reward over 50 fixed instances to
improve by at least 20 %. That single trajectory is chaotic: moving one
initial weight by one ulp moves the improvement by far more than most
code changes do. This script repeats the check, with the test's own
settings, for the unperturbed initial weights and for eight copies in
which one entry of ``ptr.W_G`` is moved one ulp towards +inf (flat
positions 0, 32, ..., 224), and prints each improvement and their min,
mean and max. It reads only the public ``qlayout`` API, so it runs
against any checkout's ``src``:

    PYTHONPATH=src python3 tools/learning_spread.py
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

import qlayout as ql

POSITIONS = tuple(range(0, 256, 32))
BAR = 0.20


def desk_instances():
    """The criterion's 50 fixed evaluation instances."""
    rng = np.random.default_rng(777)
    return [ql.gen_random_instance(int(rng.integers(6, 13)), 0.3, rng,
                                   n_max=12) for _ in range(50)]


def improvement(position=None):
    """Criterion 06's desk-scale improvement, with ``ptr.W_G`` nudged at
    the flat ``position`` unless it is None."""
    grid = ql.build_grid(4, 4)
    cm = ql.CostModel("adjacent-free", grid.distances)
    graphs = desk_instances()

    def mean_greedy(pol):
        return float(np.mean([
            ql.rollout(pg, grid, pol, mode="greedy", cost_model=cm).reward
            for pg in graphs]))

    enc = ql.EncoderConfig(layers=2, heads=4, embed_dim=16, norm_kind="graph")
    dec = ql.DecoderConfig(heads=4, context_dim=16)
    pol = ql.PolicyNetwork(grid, enc, dec, prog_feature_dim=12, seed=0)
    if position is not None:
        flat = pol.store["ptr.W_G"].data.reshape(-1)
        flat[position] = np.nextafter(flat[position], np.inf)
    before = mean_greedy(pol)
    cfg = ql.TrainConfig(epochs=40, batches_per_epoch=8, batch_size=32,
                         n_min=6, n_max=12, edge_prob=0.3, seed=0,
                         val_size=32, lr=3e-3)
    ql.train(cfg, pol, grid)
    return (mean_greedy(pol) - before) / abs(before)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    base = improvement()
    print(f"unperturbed: {base:.3f}", flush=True)
    nudged = []
    for position in POSITIONS:
        nudged.append(improvement(position))
        print(f"ptr.W_G[{position}] + 1 ulp: {nudged[-1]:.3f}", flush=True)
    below = sum(v < BAR for v in nudged)
    print(f"nudged: min {min(nudged):.3f} mean {np.mean(nudged):.3f} "
          f"max {max(nudged):.3f}; {below} of {len(nudged)} below the "
          f"{BAR:.2f} bar")
    return 0


if __name__ == "__main__":
    sys.exit(main())
