"""MDP environment, rollout/decoding strategies, and the REINFORCE loop.

Episodes consume logical qubits in ascending index order. No intermediate
reward is given; the terminal reward is the negated SWAP cost of the
finished layout. Training uses a greedy-rollout baseline: at the start of
each epoch the current policy is decoded greedily over a fixed validation
set, in one batched rollout as for a training batch, and the scalar mean
reward becomes the baseline for every episode of that epoch. Each training
batch builds one tape: one encode call embeds the batch's program graphs
as one padded stack and the device graph once, every episode's rows join
one stacked logit table, one masked softmax over that table (every row's
mask built in one pass) and one indicator matmul give the batch's (B,)
vector of log-probabilities, and the loss is one dot of that vector with
-advantages. One backward gives the batch's gradient; each row's log
receives exactly its episode's -advantage, so the gradient is bit for bit
that of a sum of per-episode losses.

Every rollout and decode chooses its seats with one lockstep walk over the
plain logit table (``_walk``), every episode or start at once (a decode's
every start of every strategy) with a mask per episode. A sampled step
inverts the CDF with one uniform, exactly as ``Generator.choice`` does, and the uniforms are drawn up front: a batch's
sampled rollout draws all of them from its one ``rng`` in episode order,
and each decode start from its own stream. ``choice`` draws one double per
call, so the seats and the state of every stream are the same as with one
``choice`` per step. A walk holds at most ``WALK_ELEMENT_BUDGET``
elements: ``check_walk_budget`` bounds a decode's starts, and a training
batch and validation set (at ``n_max`` qubits each) before any instance
is drawn.
"""

from __future__ import annotations

import csv
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import diffcore as dc
from .circuit import ProgramGraph, check_qubit_count, onehot_features
from .errors import (ConfigError, NumericError, check_integer,
                     check_positive_float, check_probability)
from .objective import CostModel, Layout, check_cost_mode, fast_cost_fn
from .policy import DecoderConfig, EncoderConfig, PolicyNetwork
from .topology import MAX_QUBITS, CouplingGraph

STRATEGY_KINDS = ("greedy", "sampling", "multistart_greedy", "multistart_sampling")
ROLLOUT_MODES = ("greedy", "sample")
# The most elements a decode's walk may hold, 256 MiB of float64. A start
# holds its n x N logits, and its random stream and keys take about as
# much memory as START_ELEMENTS more.
WALK_ELEMENT_BUDGET = 2**25
START_ELEMENTS = 100


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
        check_positive_float("lr", self.lr)
        check_cost_mode(self.cost_mode)
        check_probability("edge_prob", self.edge_prob)
        check_integer("n_min", self.n_min, 2)
        check_integer("n_max", self.n_max, self.n_min, MAX_QUBITS)
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
        multistart = isinstance(kind, str) and kind.startswith("multistart")
        return cls(kind, k=k if multistart else 1, seed=seed)


def gen_random_instance(n, edge_prob, rng, n_max=None) -> ProgramGraph:
    """Erdos-Renyi program graph with randomized edge orientation and
    one-hot node features (padded to n_max).

    The pairs i < j are visited in row-major order. Each takes one draw,
    ``< edge_prob`` making it an edge, and an edge takes one more, ``< 0.5``
    orienting it i -> j. The draws come in blocks of exactly the values
    this sequence is sure to read next: one per pair left, plus the
    orientation of the last edge when it is still pending. So the edges
    and the state of ``rng`` afterwards are those of one ``rng.random()``
    call per draw.
    """
    if n < 2:
        raise ConfigError("instances need at least two logical qubits")
    edges = []
    i, j = 0, 1  # the next pair
    left = n * (n - 1) // 2  # pairs not yet drawn
    edge = None  # the last pair drawn, while it is an edge without orientation
    while left or edge:
        for u in rng.random(left + bool(edge)).tolist():
            if edge:
                edges.append(edge if u < 0.5 else edge[::-1])
                edge = None
                continue
            if u < edge_prob:
                edge = (i, j)
            left -= 1
            j += 1
            if j == n:
                i, j = i + 1, i + 2
    return ProgramGraph(n, tuple(edges), onehot_features(n, n_max))


@dataclass
class RolloutResult:
    layout: Layout
    reward: float
    cost: float


class RolloutBatch(list):
    """The results of a rollout over a list of program graphs, in order.
    With ``train``, ``log_probs`` is the (B,) tape of their
    log-probabilities; otherwise it is None."""

    log_probs = None


def _episodes(batch, cg, policy, cost_model, train):
    """The stacked logit table of one episode per program graph in
    ``batch``, each placing its logical qubits in ascending order (so its
    table rows are its program rows), and the cost functions their
    layouts are scored by.

    One ``encode`` call embeds every program graph, as one padded stack,
    and the device graph; one pointer pass scores every episode's rows.
    """
    if not batch:
        raise ConfigError("a rollout needs at least one program graph")
    policy.check_device(cg)
    for pg in batch:
        check_qubit_count(pg.num_logical, cg.num_physical, "the device's N")
    emb = policy.encode(batch, train=train)
    table = policy.stacked_logit_table(
        emb.program, emb.physical, [pg.num_logical for pg in batch])
    cost_model = cost_model or CostModel.for_graph(cg)
    return table, [fast_cost_fn(pg, cost_model) for pg in batch]


def rollout(pg: ProgramGraph, cg: CouplingGraph, policy: PolicyNetwork,
            mode="greedy", rng=None, cost_model=None, train=False
            ) -> RolloutResult:
    """Run one episode placing every logical qubit in ascending order.

    ``mode`` is "greedy" (argmax, first index on ties) or "sample", which
    draws from ``rng``.

    Given a list of program graphs, run one episode per graph and return a
    ``RolloutBatch`` of results. The episodes share one encode call, one
    pointer pass, one lockstep walk and, with ``train`` (which needs a
    list), one tape, which the batch's ``log_probs`` holds; sampled
    episodes draw from ``rng`` one episode after another.
    """
    if mode not in ROLLOUT_MODES:
        raise ConfigError(
            f"unknown rollout mode {mode!r}; use one of {ROLLOUT_MODES}")
    if mode == "sample" and rng is None:
        raise ConfigError("a sampled rollout needs an rng")
    if train and not isinstance(pg, list):
        raise ConfigError("a training rollout takes a list of program "
                          "graphs: its log-probabilities are the batch's")
    batch = pg if isinstance(pg, list) else [pg]
    table, cost_fns = _episodes(batch, cg, policy, cost_model, train)
    sizes = [one.num_logical for one in batch]
    firsts = np.cumsum([0] + sizes[:-1])
    if mode == "sample":
        uniforms = np.split(rng.random(sum(sizes)), firsts[1:])
    else:
        uniforms = [()] * len(batch)
    seats = _walk(table.data, firsts, sizes, uniforms)
    results = RolloutBatch()
    if train:
        results.log_probs = _log_probs(table, seats)
    for assign, cost_fn in zip(seats, cost_fns):
        cost = cost_fn(assign)
        results.append(RolloutResult(Layout(assign), -cost, cost))
    return results if isinstance(pg, list) else results[0]


def _walk(logits, firsts, sizes, uniforms):
    """Advance every episode in lockstep over a plain logit table; each
    step's probabilities are those of ``masked_distribution``, computed
    without a tape.

    Episode e takes its ``sizes[e]`` steps from the rows ``firsts[e]``
    onwards (episodes may share rows), at most one per seat. It samples
    its first ``len(uniforms[e])`` steps, step t with the uniform
    ``uniforms[e][t]``, and takes the argmax (first index on ties) after
    that. A draw inverts the distribution's CDF exactly as
    ``Generator.choice(p=...)`` does: normalise, cumulative sum, divide by
    the last entry, and count the entries <= u. Returns the seats.
    """
    # finite logits give finite probabilities at every step
    if not np.isfinite(logits).all():
        raise NumericError("the walk's logit table has non-finite entries")
    # longest episodes first, so that the episodes still running at any
    # step are a prefix and the per-step arrays are slices
    order = np.argsort(-np.asarray(sizes), kind="stable")
    sizes = np.asarray(sizes)[order]
    rows = np.asarray(firsts, dtype=np.intp)[order]
    n_sampled = np.array([len(uniforms[e]) for e in order])
    n_eps = len(order)
    most_sampled = n_sampled.max()
    draws = np.zeros((n_eps, sizes[0]))
    for i, e in enumerate(order):
        draws[i, :n_sampled[i]] = uniforms[e]
    # each episode's step-t row, clipped for the steps it does not take
    steps = logits[np.minimum(rows[:, None] + np.arange(sizes[0]),
                              len(logits) - 1)]
    eps = np.arange(n_eps)
    live = (sizes > np.arange(sizes[0])[:, None]).sum(axis=1)
    free = np.ones((n_eps, logits.shape[1]), dtype=bool)
    seats = np.zeros((n_eps, sizes[0]), dtype=np.int64)
    for t, m in enumerate(live):
        probs = dc.softmax_array(np.where(free[:m], steps[:m, t], -np.inf), 1)
        actions = np.argmax(probs, axis=1)
        if t < most_sampled:
            sampled = np.flatnonzero(n_sampled[:m] > t)
            p = probs[sampled]
            cdf = np.cumsum(p / p.sum(axis=1, keepdims=True), axis=1)
            cdf /= cdf[:, -1:]
            u = draws[sampled, t]
            actions[sampled] = (cdf <= u[:, None]).sum(axis=1)
        seats[:m, t] = actions
        free[eps[:m], actions] = False
    back = np.argsort(order)
    return [seats[i, :sizes[i]] for i in back]


def _step_masks(seats, n_phys):
    """The feasible seats of every row of a stacked table whose episode i
    takes ``seats[i]`` in its rows, one row per step; and the episode of
    each row. Step t may take a seat its episode takes at step t or
    later, so the mask compares the step that takes each seat with the
    row's step."""
    sizes = [len(assign) for assign in seats]
    episode = np.repeat(np.arange(len(seats)), sizes)
    step = np.arange(len(episode)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    taken = np.full((len(seats), n_phys), n_phys)  # no step reaches N
    taken[episode, np.concatenate(seats)] = step
    return taken[episode] >= step[:, None], episode


def _log_probs(table, seats):
    """The (B,) tape of the B episodes' log-probabilities. ``table`` stacks
    the episodes' rows and ``seats[i]`` holds episode i's chosen seats;
    every step's masked softmax is one (rows, N) op, read at the chosen
    seats, and one indicator matmul sums each episode's rows.

    The gradient of a weighted sum of the result reaches each row's log as
    exactly its episode's weight: the other terms are exact zeros."""
    rows, n_phys = table.shape
    feasible, episode = _step_masks(seats, n_phys)
    probs = PolicyNetwork.masked_distribution(table, feasible)
    logs = dc.log(dc.gather(probs.reshape(rows * n_phys),
                            np.arange(rows) * n_phys + np.concatenate(seats)))
    member = np.arange(len(seats))[:, None] == episode
    return dc.matmul(member.astype(np.float64), logs)


def check_walk_budget(name, count, n, n_phys, what="episodes"):
    """Raise ConfigError, naming ``name``, if ``count`` walks of ``n``
    qubits over ``n_phys`` seats would hold more than
    ``WALK_ELEMENT_BUDGET`` elements."""
    if count * (n * n_phys + START_ELEMENTS) > WALK_ELEMENT_BUDGET:
        raise ConfigError(
            f"{name}: {count} {what} of {n} qubits on {n_phys} qubits exceed "
            f"the walk's budget of {WALK_ELEMENT_BUDGET} elements")


def _start_rng(seed, start):
    return np.random.default_rng([int(seed), int(start)])


def decode(pg: ProgramGraph, cg: CouplingGraph, policy: PolicyNetwork,
           strategy: DecodeStrategy, cost_model=None):
    """Decode one instance under the given strategy; returns (Layout, cost).

    Given a list of strategies, returns one (Layout, cost) per strategy.
    Every start of every strategy shares one logit table and advances in
    one lockstep walk, each on its own RNG stream derived from its
    strategy's seed; the stream of start 0 matches the corresponding
    single-start strategy, so best-of-k can never be worse. Starts that
    draw the same uniforms are the same walk and are walked once: every
    start that draws none (``greedy``, start 0 of ``multistart_greedy``),
    and start 0 of ``multistart_sampling`` with ``sampling`` at one seed.
    """
    strategies = strategy if isinstance(strategy, list) else [strategy]
    if not strategies:
        raise ConfigError("decode needs at least one strategy")
    n = pg.num_logical
    check_walk_budget("k", sum(one.k for one in strategies), n,
                      cg.num_physical, "starts")
    table, (cost_fn,) = _episodes([pg], cg, policy, cost_model, False)
    # each start's uniforms: None if it draws none, else (seed, start,
    # count); a greedy kind samples the first step of every start but the
    # first
    keys = []
    for one in strategies:
        for start in range(one.k):
            count = int(start > 0) if "greedy" in one.kind else n
            keys.append((int(one.seed), start, count) if count else None)
    unique = list(dict.fromkeys(keys))
    uniforms = [() if key is None else _start_rng(*key[:2]).random(key[2])
                for key in unique]
    seats = _walk(table.data, [0] * len(unique), [n] * len(unique), uniforms)
    costs = [cost_fn(assign) for assign in seats]
    walk_of = {key: i for i, key in enumerate(unique)}
    results, lo = [], 0
    for one in strategies:
        walks = [walk_of[key] for key in keys[lo:lo + one.k]]
        best = walks[int(np.argmin([costs[w] for w in walks]))]
        results.append((Layout(seats[best]), costs[best]))
        lo += one.k
    return results if isinstance(strategy, list) else results[0]


@dataclass
class EpochMetrics:
    epoch: int
    mean_reward: float
    baseline: float
    grad_norm: float
    wallclock_s: float
    adv_std: float  # mean over the epoch's batches of the advantages' std


def _batch_gradient(batch, cg, policy, cost_model, rng, baseline):
    """Sample one episode per instance of ``batch`` from ``rng`` and return
    the rewards and the REINFORCE gradient of the batch, the mean over
    episodes of -advantage * grad log-probability.

    The batch's episodes share one tape, and the loss is one dot of their
    log-probability vector with -advantages, so one backward runs and
    each row's log receives exactly its episode's -advantage. Each
    parameter's gradient is an array, zero if the tape does not reach it.
    """
    episodes = rollout(batch, cg, policy, mode="sample", rng=rng,
                       cost_model=cost_model, train=True)
    rewards = [res.reward for res in episodes]
    advantages = np.array(rewards) - baseline
    policy.store.zero_grad()
    dc.matmul(episodes.log_probs, -advantages).backward()
    reached = policy.store.grads()
    grads = {name: reached[name] / len(batch) if name in reached
             else np.zeros_like(t.data)
             for name, t in policy.store.params.items()}
    return rewards, grads


def train(cfg: TrainConfig, policy: PolicyNetwork, cg: CouplingGraph,
          log_fn=None):
    """REINFORCE with a greedy-rollout baseline; returns per-epoch metrics.
    A batch or validation set too large for the walk is rejected before
    any instance is drawn."""
    policy.check_device(cg)
    for name in ("batch_size", "val_size"):
        check_walk_budget(name, getattr(cfg, name), cfg.n_max,
                          cg.num_physical)
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
        adv_stds = []
        for _ in range(cfg.batches_per_epoch):
            batch = [draw(inst_rng) for _ in range(cfg.batch_size)]
            rewards, grads = _batch_gradient(
                batch, cg, policy, cost_model, episode_rng, baseline)
            epoch_rewards.extend(rewards)
            adv_stds.append(float(np.std(np.array(rewards) - baseline)))
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
            adv_std=float(np.mean(adv_stds)),
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
