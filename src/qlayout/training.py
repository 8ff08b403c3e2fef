"""MDP environment, rollout/decoding strategies, and the REINFORCE loop.

Episodes consume logical qubits in ascending index order. No intermediate
reward is given; the terminal reward is the negated SWAP cost of the
finished layout. Training uses a greedy-rollout baseline: at the start of
each epoch the current policy is decoded greedily over a fixed validation
set and the scalar mean reward becomes the baseline for every episode of
that epoch.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .circuit import ProgramGraph, check_qubit_count, onehot_features
from .diffcore import Tensor
from .errors import ConfigError
from .objective import CostModel, Layout, fast_cost_fn
from .policy import DecoderConfig, EncoderConfig, PolicyNetwork
from .topology import CouplingGraph

STRATEGY_KINDS = ("greedy", "sampling", "multistart_greedy", "multistart_sampling")


@dataclass
class TrainConfig:
    epochs: int = 50
    batches_per_epoch: int = 20
    batch_size: int = 64
    lr: float = 3e-4
    n_min: int = 6
    n_max: int = 12
    edge_prob: float = 0.3
    seed: int = 0
    cost_mode: str = "adjacent-free"
    val_size: int = 256
    whiten_advantage: bool = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if not 0 < self.edge_prob <= 1:
            raise ConfigError("edge_prob must be in (0, 1]")
        if self.n_min < 2 or self.n_max < self.n_min:
            raise ConfigError("need 2 <= n_min <= n_max")


@dataclass
class DecodeStrategy:
    kind: str
    k: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown decoding strategy '{self.kind}'")
        multistart = self.kind.startswith("multistart")
        if multistart and self.k < 1:
            raise ConfigError("multistart strategies need k >= 1")
        if not multistart and self.k != 1:
            raise ConfigError(f"strategy '{self.kind}' requires k=1")

    @classmethod
    def make(cls, kind, k=10, seed=0):
        """Strategy by name; ``k`` is the number of starts of a multistart
        kind and is ignored by the single-start kinds."""
        return cls(kind, k=k if kind.startswith("multistart") else 1,
                   seed=seed)


def gen_random_instance(n, edge_prob, rng, n_max=None) -> ProgramGraph:
    """Erdos-Renyi program graph with randomized edge orientation and
    one-hot node features (padded to n_max)."""
    if n < 2:
        raise ConfigError("instances need at least two logical qubits")
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                if rng.random() < 0.5:
                    edges.append((i, j))
                else:
                    edges.append((j, i))
    return ProgramGraph(n, tuple(edges), onehot_features(n, n_max))


@dataclass
class RolloutResult:
    layout: Layout
    log_prob: object  # Tensor during training, float otherwise
    reward: float
    cost: float


def _episode(pg, cg, policy, cost_model, train):
    """The (n, N) logit table of an episode placing the logical qubits in
    ascending order, and the cost function its layouts are scored by."""
    check_qubit_count(pg.num_logical, cg.num_physical, "the device's N")
    table = policy.logit_table(policy.encode(pg, train=train),
                               np.arange(pg.num_logical))
    return table, fast_cost_fn(pg, cost_model or CostModel.for_graph(cg))


def rollout(pg: ProgramGraph, cg: CouplingGraph, policy: PolicyNetwork,
            mode="greedy", rng=None, cost_model=None, train=False
            ) -> RolloutResult:
    """Run one episode placing every logical qubit in ascending order.

    ``mode`` is "greedy" (argmax, first index on ties) or "sample". With
    ``train`` the result's ``log_prob`` is a tape whose gradient is that of
    the episode's log-probability.
    """
    table, cost_fn = _episode(pg, cg, policy, cost_model, train)
    n_sampled = pg.num_logical if mode == "sample" else 0
    seats, log_p = _walk(table.data, [rng], [n_sampled])
    assign = seats[0]
    cost = cost_fn(assign)
    log_prob = _log_prob(table, assign) if train else float(log_p[0])
    return RolloutResult(Layout(assign), log_prob, -cost, cost)


def _walk(logits, rngs, n_sampled):
    """Advance one start per RNG in lockstep over an (n, N) logit table.

    Start s samples its first ``n_sampled[s]`` steps from ``rngs[s]`` and
    takes the argmax (first index on ties) after that. Returns the seats
    chosen at each step, shape (k, n), and each start's log-probability.
    """
    n, n_phys = logits.shape
    k = len(rngs)
    starts = np.arange(k)
    feasible = np.ones((k, n_phys), dtype=bool)
    seats = np.empty((k, n), dtype=np.int64)
    log_p = np.zeros(k)
    for t in range(n):
        rows = Tensor(np.broadcast_to(logits[t], (k, n_phys)))
        probs = PolicyNetwork.masked_distribution(rows, feasible).data
        actions = np.argmax(probs, axis=1)
        for s in range(k):
            if t < n_sampled[s]:
                p = probs[s]
                actions[s] = rngs[s].choice(n_phys, p=p / p.sum())
        seats[:, t] = actions
        log_p += np.log(probs[starts, actions])
        feasible[starts, actions] = False
    return seats, log_p


def _log_prob(table, seats):
    """The episode's log-probability on the tape: every step's masked
    softmax in one (n, N) op, read at the chosen seats."""
    n, n_phys = table.shape
    feasible = np.ones((n, n_phys), dtype=bool)
    for t, seat in enumerate(seats[:-1]):
        feasible[t + 1:, seat] = False
    probs = PolicyNetwork.masked_distribution(table, feasible)
    chosen = dc.gather(probs.reshape(n * n_phys),
                       np.arange(n) * n_phys + seats)
    return dc.tsum(dc.log(chosen))


def _start_rng(seed, start):
    return np.random.default_rng([int(seed), int(start)])


def decode(pg: ProgramGraph, cg: CouplingGraph, policy: PolicyNetwork,
           strategy: DecodeStrategy, cost_model=None):
    """Decode one instance under the given strategy; returns (Layout, cost).

    All k starts share one logit table and advance in lockstep, each on its
    own RNG stream derived from the strategy seed; the stream of start 0
    matches the corresponding single-start strategy, so best-of-k can never
    be worse.
    """
    table, cost_fn = _episode(pg, cg, policy, cost_model, False)
    rngs = [_start_rng(strategy.seed, start) for start in range(strategy.k)]
    if "greedy" in strategy.kind:
        n_sampled = [0] + [1] * (strategy.k - 1)
    else:
        n_sampled = [pg.num_logical] * strategy.k
    seats, _ = _walk(table.data, rngs, n_sampled)
    costs = [cost_fn(assign) for assign in seats]
    best = int(np.argmin(costs))
    return Layout(seats[best]), costs[best]


@dataclass
class EpochMetrics:
    epoch: int
    mean_reward: float
    baseline: float
    grad_norm: float
    wallclock_s: float

    def as_row(self):
        return [self.epoch, self.mean_reward, self.baseline, self.grad_norm,
                self.wallclock_s]


def _mean_greedy_reward(instances, cg, policy, cost_model):
    total = 0.0
    for pg in instances:
        total += rollout(pg, cg, policy, mode="greedy",
                         cost_model=cost_model).reward
    return total / len(instances)


def train(cfg: TrainConfig, policy: PolicyNetwork, cg: CouplingGraph,
          log_fn=None):
    """REINFORCE with a greedy-rollout baseline; returns per-epoch metrics."""
    cost_model = CostModel(cfg.cost_mode, cg.distances)
    inst_rng = np.random.default_rng([cfg.seed, 0])
    episode_rng = np.random.default_rng([cfg.seed, 1])
    val_rng = np.random.default_rng([cfg.seed, 2])

    validation = [
        gen_random_instance(int(val_rng.integers(cfg.n_min, cfg.n_max + 1)),
                            cfg.edge_prob, val_rng, n_max=policy.prog_feature_dim)
        for _ in range(cfg.val_size)
    ]

    params = policy.store.data()
    state = dc.adam_init(params)
    metrics = []
    t0 = time.perf_counter()
    for epoch in range(cfg.epochs):
        baseline = _mean_greedy_reward(validation, cg, policy, cost_model)
        epoch_rewards = []
        grad_norms = []
        for _ in range(cfg.batches_per_epoch):
            episodes = []
            for _ in range(cfg.batch_size):
                n = int(inst_rng.integers(cfg.n_min, cfg.n_max + 1))
                pg = gen_random_instance(n, cfg.edge_prob, inst_rng,
                                         n_max=policy.prog_feature_dim)
                res = rollout(pg, cg, policy, mode="sample", rng=episode_rng,
                              cost_model=cost_model, train=True)
                episodes.append(res)
                epoch_rewards.append(res.reward)

            advantages = np.array([r.reward - baseline for r in episodes])
            if cfg.whiten_advantage and len(advantages) > 1:
                std = advantages.std()
                advantages = (advantages - advantages.mean()) / (std + 1e-8)

            grad_acc = {k: np.zeros_like(v) for k, v in params.items()}
            for res, adv in zip(episodes, advantages):
                if adv == 0.0:
                    continue
                loss = res.log_prob * (-float(adv))
                policy.store.zero_grad()
                loss.backward()
                for name, g in policy.store.grads().items():
                    grad_acc[name] += g / cfg.batch_size
            dc.adam_step(params, grad_acc, state, lr=cfg.lr)
            grad_norms.append(
                float(np.sqrt(sum(np.sum(g * g) for g in grad_acc.values())))
            )
        row = EpochMetrics(
            epoch=epoch,
            mean_reward=float(np.mean(epoch_rewards)),
            baseline=float(baseline),
            grad_norm=float(np.mean(grad_norms)),
            wallclock_s=time.perf_counter() - t0,
        )
        metrics.append(row)
        if log_fn is not None:
            log_fn(row)
    return metrics


def train_new(cfg: TrainConfig, enc_cfg: EncoderConfig, dec_cfg: DecoderConfig,
              cg: CouplingGraph, shared_encoder=False, log_fn=None):
    policy = PolicyNetwork(cg, enc_cfg, dec_cfg, prog_feature_dim=cfg.n_max,
                           shared_encoder=shared_encoder, seed=cfg.seed)
    metrics = train(cfg, policy, cg, log_fn=log_fn)
    return policy, metrics


def write_metrics_csv(metrics, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_reward", "baseline", "grad_norm",
                         "wallclock_s"])
        for row in metrics:
            writer.writerow(row.as_row())
