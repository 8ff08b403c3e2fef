"""The three workloads: program set-up, seeded inputs, the timed
operation and its correctness check.

Every workload calls qlayout through attributes of the ``qlayout``
package looked up at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import copy

from . import calib, gen
from .oracle import Oracle

MIN_OPS = 100  # p90 needs at least ten samples beyond it


class MapWorkload:
    """One user ``map`` and then ``postprocess`` of one circuit:
    parse_qasm -> build_program_graph -> decode(multistart_greedy, k=10)
    -> local_search(SearchConfig()), the README's recommended path."""

    name = "map-heavyhex65"
    unit = "circuits"
    pass_size = MIN_OPS
    qubits = (20, 40)
    gate_factor = (1, 6)  # two-qubit gates per qubit
    policy_seed = 0

    def __init__(self, seed, checkpoint):
        self.seed = seed
        self.checkpoint = checkpoint

    @classmethod
    def prepare(cls, ql, checkpoint):
        """Save the untrained default policy that set-up loads."""
        policy = ql.PolicyNetwork(ql.build_heavy_hex(), ql.EncoderConfig(),
                                  ql.DecoderConfig(), prog_feature_dim=40,
                                  seed=cls.policy_seed)
        policy.save(checkpoint)

    def setup(self, ql):
        self.ql = ql
        self.policy = ql.PolicyNetwork.load(self.checkpoint)
        self.cg = self.policy.cg

    def make_inputs(self):
        self.circuits = gen.circuit_set(self.name, self.seed, self.pass_size,
                                        self.qubits, self.gate_factor)
        self.oracle = device_oracle(self.cg, 65, 72)

    def work(self, i):
        return 1

    def op(self, i):
        ql = self.ql
        circuit = self.circuits[i % self.pass_size]
        t0 = calib.clock()
        pg = ql.build_program_graph(ql.parse_qasm(circuit.qasm),
                                    n_max=self.policy.prog_feature_dim)
        layout, cost = ql.decode(pg, self.cg, self.policy,
                                 ql.DecodeStrategy.make("multistart_greedy",
                                                        k=10))
        refined = ql.local_search(layout, pg, self.cg, ql.SearchConfig())
        return (t0, calib.clock()), {"decoded": layout.assign.tolist(),
                                     "decoded_cost": cost,
                    "refined": refined.assign.tolist()}

    def check(self, i, out):
        circuit = self.circuits[i % self.pass_size]
        problems = self.oracle.check_layout(out["decoded"], circuit,
                                            "adjacent-free", out["decoded_cost"])
        problems += self.oracle.check_refinement(out["decoded"], out["refined"],
                                                 circuit, "adjacent-free")
        return problems

    def final_cost(self, i, out):
        return self.oracle.cost(out["refined"], self.circuits[i], "adjacent-free")


class RefineWorkload:
    """One user ``postprocess`` of one circuit: parse_qasm ->
    build_program_graph -> local_search from a seeded random injective
    layout. Operations cycle through both neighbourhoods and both cost
    modes, so a speed-up of one that costs the other shows."""

    name = "refine-heavyhex65"
    unit = "iterations"
    pass_size = 200
    qubits = (30, 60)
    gate_factor = (1, 10)
    iterations = 2000  # patience == budget, so every search runs all of them
    neighborhoods = ("random_assignment", "random_swap")
    cost_modes = ("adjacent-free", "literal")

    def __init__(self, seed, checkpoint=None):
        self.seed = seed

    def setup(self, ql):
        self.ql = ql
        self.cg = ql.build_heavy_hex()

    def make_inputs(self):
        self.circuits = gen.circuit_set(self.name, self.seed, self.pass_size,
                                        self.qubits, self.gate_factor)
        rng = gen.make_rng(self.name, self.seed, "layouts")
        seats = range(self.cg.num_physical)
        self.initial = [rng.sample(seats, c.num_qubits) for c in self.circuits]
        self.oracle = device_oracle(self.cg, 65, 72)

    def work(self, i):
        return self.iterations

    def config(self, i):
        j = i % self.pass_size
        return (self.neighborhoods[j % 2], self.cost_modes[(j // 2) % 2], j)

    def op(self, i):
        ql = self.ql
        neighborhood, mode, j = self.config(i)
        circuit = self.circuits[j]
        initial = ql.Layout(self.initial[j])
        cfg = ql.SearchConfig(neighborhood=neighborhood,
                              n_iters=self.iterations,
                              patience=self.iterations, seed=j,
                              cost_mode=mode)
        t0 = calib.clock()
        pg = ql.build_program_graph(ql.parse_qasm(circuit.qasm))
        refined = ql.local_search(initial, pg, self.cg, cfg)
        return (t0, calib.clock()), {"refined": refined.assign.tolist()}

    def check(self, i, out):
        _, mode, j = self.config(i)
        return self.oracle.check_refinement(self.initial[j], out["refined"],
                                            self.circuits[j], mode)

    def final_cost(self, i, out):
        _, mode, j = self.config(i)
        return self.oracle.cost(out["refined"], self.circuits[j], mode)


class TrainWorkload:
    """REINFORCE training at criterion-06's desk configuration. One
    operation is one epoch: the greedy baseline over the validation set
    plus eight batches of 32 sampled episodes."""

    name = "train-grid4x4"
    unit = "episodes"
    max_epochs = 10_000  # training is stopped from the epoch callback
    # The held-out cost is averaged over the policies after epochs
    # 1..eval_epochs: one checkpoint's cost swings by 10-20 % between
    # training seeds, the average over the learning curve far less.
    eval_epochs = 8
    heldout_size = 100
    policy_seed = 0  # as in criterion-06; TrainConfig.seed is the workload seed
    qubits = (6, 12)
    edge_prob = 0.3

    def __init__(self, seed, checkpoint=None):
        self.seed = seed

    def setup(self, ql):
        self.ql = ql
        self.cg = ql.build_grid(4, 4)
        self.policy = ql.PolicyNetwork(
            self.cg,
            ql.EncoderConfig(layers=2, heads=4, embed_dim=16,
                             norm_kind="graph"),
            ql.DecoderConfig(heads=4, context_dim=16),
            prog_feature_dim=self.qubits[1], seed=self.policy_seed)

    def config(self):
        return self.ql.TrainConfig(
            epochs=self.max_epochs, batches_per_epoch=8, batch_size=32,
            lr=3e-3, n_min=self.qubits[0], n_max=self.qubits[1],
            edge_prob=self.edge_prob, seed=self.seed, val_size=32)

    def make_inputs(self):
        self.heldout = gen.er_set(self.name, self.seed, self.heldout_size,
                                  self.qubits, self.edge_prob)
        self.oracle = Oracle(self.cg.num_physical, grid_edges(4, 4))

    def epochs(self, seconds, fixed_epochs):
        """Train until ``seconds`` have passed and at least ``eval_epochs``
        epochs ran, or for exactly ``fixed_epochs``. Returns per-epoch
        ((start, end) on ``calib.clock()``, EpochMetrics) and copies of
        the policy after each of the first ``eval_epochs`` epochs; copying
        is not epoch time."""
        out = []
        snapshots = []
        clock = {}

        def on_epoch(row):
            now = calib.clock()
            out.append(((clock["epoch_start"], now), row))
            if len(out) <= self.eval_epochs:
                snapshots.append(copy.deepcopy(self.policy))
            if fixed_epochs is not None:
                done = len(out) >= fixed_epochs
            else:
                done = (len(out) >= self.eval_epochs
                        and now - clock["start"] >= seconds)
            if done:
                raise _StopTraining
            clock["epoch_start"] = calib.clock()

        clock["start"] = clock["epoch_start"] = calib.clock()
        try:
            self.ql.train(self.config(), self.policy, self.cg,
                          log_fn=on_epoch)
        except _StopTraining:
            pass
        return out, snapshots

    def work_per_epoch(self):
        cfg = self.config()
        return cfg.batches_per_epoch * cfg.batch_size + cfg.val_size

    def evaluate(self, policy, circuit):
        ql = self.ql
        pg = ql.build_program_graph(ql.parse_qasm(circuit.qasm),
                                    n_max=self.qubits[1])
        layout, cost = ql.decode(pg, self.cg, policy,
                                 ql.DecodeStrategy.make("greedy"))
        return {"layout": layout.assign.tolist(), "cost": cost}

    def check_eval(self, circuit, out):
        return self.oracle.check_layout(out["layout"], circuit,
                                        "adjacent-free", out["cost"])


class _StopTraining(Exception):
    pass


def grid_edges(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((r * cols + c, r * cols + c + 1))
            if r + 1 < rows:
                edges.append((r * cols + c, (r + 1) * cols + c))
    return edges


def device_oracle(cg, num_physical, num_edges):
    """Oracle over the program's device, after checking its size."""
    edges = cg.edge_list
    if cg.num_physical != num_physical or len(edges) != num_edges:
        raise ValueError(f"device has {cg.num_physical} qubits and "
                         f"{len(edges)} couplers, expected {num_physical} "
                         f"and {num_edges}")
    return Oracle(num_physical, edges)


WORKLOADS = {w.name: w for w in (TrainWorkload, MapWorkload, RefineWorkload)}
