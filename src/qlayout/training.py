"""MDP environment, rollout/decoding strategies, and the REINFORCE loop.

Episodes consume logical qubits in ascending index order. No intermediate
reward is given; the terminal reward is the negated SWAP cost of the
finished layout. Training uses a greedy-rollout baseline: at the start of
each epoch the current policy is decoded greedily over a fixed validation
set, in one batched rollout as for a training batch, and the scalar mean
reward becomes the baseline for every episode of that epoch. Each training
batch builds one tape: the device graph is encoded once, every episode's
rows join one stacked logit table, and one backward gives the batch's
gradient.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import diffcore as dc
from .circuit import ProgramGraph, check_qubit_count, onehot_features
from .errors import ConfigError, check_integer
from .objective import COST_MODES, CostModel, Layout, fast_cost_fn
from .policy import DecoderConfig, EncoderConfig, PolicyNetwork, check_feasible
from .topology import CouplingGraph

STRATEGY_KINDS = ("greedy", "sampling", "multistart_greedy", "multistart_sampling")
ROLLOUT_MODES = ("greedy", "sample")


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

    def __post_init__(self):
        for name in ("epochs", "batches_per_epoch", "batch_size", "val_size"):
            check_integer(name, getattr(self, name), 1)
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be positive and finite, not {self.lr}")
        if self.cost_mode not in COST_MODES:
            raise ConfigError(f"unknown cost mode '{self.cost_mode}'")
        if not 0 < self.edge_prob <= 1:
            raise ConfigError("edge_prob must be in (0, 1]")
        check_integer("n_min", self.n_min, 2)
        check_integer("n_max", self.n_max, self.n_min)
        check_integer("seed", self.seed, 0)


@dataclass
class DecodeStrategy:
    kind: str
    k: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown decoding strategy '{self.kind}'")
        check_integer("k", self.k, 1)
        if not self.kind.startswith("multistart") and self.k != 1:
            raise ConfigError(f"strategy '{self.kind}' requires k=1")
        check_integer("seed", self.seed, 0)

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


def _episodes(batch, cg, policy, cost_model, train):
    """The stacked logit table of one episode per program graph in
    ``batch``, each placing its logical qubits in ascending order, and the
    cost functions their layouts are scored by.

    ``encode`` embeds the first program graph and the device graph; the
    other program graphs are embedded against that one device embedding,
    and one pointer pass scores every episode's rows.
    """
    for pg in batch:
        check_qubit_count(pg.num_logical, cg.num_physical, "the device's N")
    first = policy.encode(batch[0], train=train)
    programs = [first.program] + [policy.encode_program(pg, train=train)
                                  for pg in batch[1:]]
    table = policy.stacked_logit_table(
        programs, first.physical, [np.arange(pg.num_logical) for pg in batch])
    cost_model = cost_model or CostModel.for_graph(cg)
    return table, [fast_cost_fn(pg, cost_model) for pg in batch]


def rollout(pg: ProgramGraph, cg: CouplingGraph, policy: PolicyNetwork,
            mode="greedy", rng=None, cost_model=None, train=False
            ) -> RolloutResult:
    """Run one episode placing every logical qubit in ascending order.

    ``mode`` is "greedy" (argmax, first index on ties) or "sample". With
    ``train`` the result's ``log_prob`` is a tape whose gradient is that of
    the episode's log-probability.

    Given a list of program graphs, run one episode per graph, drawing from
    ``rng`` one episode after another, and return a list of results. The
    episodes share one device encode, one pointer pass and, with
    ``train``, one tape.
    """
    if mode not in ROLLOUT_MODES:
        raise ConfigError(
            f"unknown rollout mode {mode!r}; use one of {ROLLOUT_MODES}")
    batch = pg if isinstance(pg, list) else [pg]
    table, cost_fns = _episodes(batch, cg, policy, cost_model, train)
    seats, log_ps = [], []
    lo = 0
    for one in batch:
        n = one.num_logical
        chosen, log_p = _walk(table.data[lo:lo + n], [rng],
                              [n if mode == "sample" else 0])
        seats.append(chosen[0])
        log_ps.append(float(log_p[0]))
        lo += n
    if train:
        log_ps = _log_probs(table, seats)
    results = []
    for assign, log_p, cost_fn in zip(seats, log_ps, cost_fns):
        cost = cost_fn(assign)
        results.append(RolloutResult(Layout(assign), log_p, -cost, cost))
    return results if isinstance(pg, list) else results[0]


def _walk(logits, rngs, n_sampled):
    """Advance one start per RNG in lockstep over a plain (n, N) logit
    table; each step's (k, N) probabilities are those of
    ``masked_distribution``, computed without a tape.

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
        check_feasible(feasible)
        probs = dc.softmax_array(np.where(feasible, logits[t], -np.inf), 1)
        actions = np.argmax(probs, axis=1)
        for s in range(k):
            if t < n_sampled[s]:
                p = probs[s]
                actions[s] = rngs[s].choice(n_phys, p=p / p.sum())
        seats[:, t] = actions
        log_p += np.log(probs[starts, actions])
        feasible[starts, actions] = False
    return seats, log_p


def _log_probs(table, seats):
    """Each episode's log-probability on the tape. ``table`` stacks the
    episodes' rows and ``seats[i]`` holds episode i's chosen seats; every
    step's masked softmax is one (rows, N) op, read at the chosen seats."""
    rows, n_phys = table.shape
    feasible = np.ones((rows, n_phys), dtype=bool)
    lo = 0
    for assign in seats:
        # step t of an episode may not reuse the seats of its steps < t
        step, earlier = np.tril_indices(len(assign), -1)
        feasible[lo + step, assign[earlier]] = False
        lo += len(assign)
    probs = PolicyNetwork.masked_distribution(table, feasible)
    logs = dc.log(dc.gather(probs.reshape(rows * n_phys),
                            np.arange(rows) * n_phys + np.concatenate(seats)))
    ends = np.cumsum([len(assign) for assign in seats])
    return [dc.tsum(dc.gather(logs, np.arange(end - len(assign), end)))
            for assign, end in zip(seats, ends)]


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
    table, (cost_fn,) = _episodes([pg], cg, policy, cost_model, False)
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


def _batch_gradient(batch, cg, policy, cost_model, rng, baseline):
    """Sample one episode per instance of ``batch`` from ``rng`` and return
    the rewards and the REINFORCE gradient of the batch, the mean over
    episodes of -advantage * grad log-probability.

    The batch's episodes share one tape and one backward runs. Each
    parameter's gradient is an array, zero if the tape does not reach it.
    """
    episodes = rollout(batch, cg, policy, mode="sample", rng=rng,
                       cost_model=cost_model, train=True)
    rewards = [res.reward for res in episodes]
    advantages = np.array(rewards) - baseline
    policy.store.zero_grad()
    sum(res.log_prob * (-float(adv))
        for res, adv in zip(episodes, advantages)).backward()
    reached = policy.store.grads()
    grads = {name: reached[name] / len(batch) if name in reached
             else np.zeros_like(t.data)
             for name, t in policy.store.params.items()}
    return rewards, grads


def train(cfg: TrainConfig, policy: PolicyNetwork, cg: CouplingGraph,
          log_fn=None):
    """REINFORCE with a greedy-rollout baseline; returns per-epoch metrics."""
    cost_model = CostModel(cfg.cost_mode, cg.distances)
    inst_rng = np.random.default_rng([cfg.seed, 0])
    episode_rng = np.random.default_rng([cfg.seed, 1])
    val_rng = np.random.default_rng([cfg.seed, 2])

    def draw(rng):
        n = int(rng.integers(cfg.n_min, cfg.n_max + 1))
        return gen_random_instance(n, cfg.edge_prob, rng,
                                   n_max=policy.prog_feature_dim)

    validation = [draw(val_rng) for _ in range(cfg.val_size)]

    params = policy.store.data()
    state = dc.adam_init(params)
    metrics = []
    t0 = time.perf_counter()
    for epoch in range(cfg.epochs):
        greedy = rollout(validation, cg, policy, cost_model=cost_model)
        baseline = sum(res.reward for res in greedy) / len(greedy)
        epoch_rewards = []
        grad_norms = []
        for _ in range(cfg.batches_per_epoch):
            batch = [draw(inst_rng) for _ in range(cfg.batch_size)]
            rewards, grads = _batch_gradient(
                batch, cg, policy, cost_model, episode_rng, baseline)
            epoch_rewards.extend(rewards)
            dc.adam_step(params, grads, state, lr=cfg.lr)
            grad_norms.append(
                float(np.sqrt(sum(np.sum(g * g) for g in grads.values())))
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
        writer.writerow([f.name for f in fields(EpochMetrics)])
        writer.writerows(astuple(row) for row in metrics)
