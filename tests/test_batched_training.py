"""The batched training step against per-episode references.

``train`` builds one tape per batch: one encode call embeds every program
graph as one padded stack and the device graph once, every episode's rows
join one stacked logit table from one pointer pass, one lockstep walk
chooses every episode's seats, and one backward gives the batch's
gradient. These tests pin that step to references that treat each episode
on its own: each episode's own logit table, a per-episode walk that draws
with ``Generator.choice``, the gradients of one-episode training batches,
and a REINFORCE loop with one tape and one backward per episode. They
cover every norm kind, context kind and encoder sharing.
"""

import copy
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qlayout.diffcore as dc
import qlayout.training as training
from qlayout.circuit import ProgramGraph, onehot_features
from qlayout.errors import ConfigError, NumericError
from qlayout.objective import CostModel, fast_cost_fn
from qlayout.policy import (
    CONTEXT_KINDS,
    NORM_KINDS,
    DecoderConfig,
    EncoderConfig,
    PolicyNetwork,
)
from qlayout.topology import build_grid
from qlayout.training import (
    STRATEGY_KINDS,
    DecodeStrategy,
    TrainConfig,
    _batch_gradient,
    _start_rng,
    _step_masks,
    _walk,
    decode,
    gen_random_instance,
    rollout,
    train,
)

from conftest import device_rows, program_rows, tiny_policy

N_MAX = 5
VARIANTS = list(itertools.product(NORM_KINDS, CONTEXT_KINDS, (False, True)))
SETTINGS = settings(max_examples=6, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def make_policy(norm, context, shared, seed=0):
    return tiny_policy(cg=build_grid(2, 3), n_max=N_MAX, norm=norm,
                       context=context, seed=seed, shared=shared)


@st.composite
def batches(draw):
    """2-5 instances of mixed sizes, 1..N_MAX logical qubits each."""
    out = []
    for _ in range(draw(st.integers(2, 5))):
        n = draw(st.integers(1, N_MAX))
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        edges = draw(st.lists(st.sampled_from(pairs), max_size=6)) \
            if pairs else []
        out.append(ProgramGraph(n, tuple(edges), onehot_features(n, N_MAX)))
    return out


def grads_of(pol, loss):
    pol.store.zero_grad()
    loss.backward()
    return {k: g.copy() for k, g in pol.store.grads().items()}


def assert_grads_close(got, want, tol):
    assert got.keys() >= want.keys()
    for name, g in got.items():
        ref = want.get(name, np.zeros_like(g))
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(g - ref).max() <= tol * scale, name


@pytest.mark.parametrize("norm,context,shared", VARIANTS)
class TestBatchStep:
    @SETTINGS
    @given(batch=batches())
    def test_stacked_table_rows_are_each_episodes_table(
            self, norm, context, shared, batch):
        pol = make_policy(norm, context, shared)
        sizes = [pg.num_logical for pg in batch]
        for train_mode in (False, True):
            physical = device_rows(pol, train_mode)
            programs = [program_rows(pol, pg, train_mode) for pg in batch]
            table = pol.stacked_logit_table(dc.concat(programs), physical,
                                            sizes).data
            assert table.shape == (sum(sizes), pol.cg.num_physical)
            lo = 0
            for pg, n in zip(batch, sizes):
                emb = pol.encode(pg, train_mode)
                own = pol.stacked_logit_table(emb.program, emb.physical,
                                              [n]).data
                assert np.abs(table[lo:lo + n] - own).max() <= 1e-12
                lo += n

    @SETTINGS
    @given(batch=batches(), seed=st.integers(0, 50))
    def test_one_backward_equals_per_episode_rollouts(
            self, norm, context, shared, batch, seed):
        pol = make_policy(norm, context, shared, seed=seed)
        ref_pol = copy.deepcopy(pol)
        cm = CostModel.for_graph(pol.cg)
        ref_rng = np.random.default_rng(seed)
        episodes = [rollout([pg], ref_pol.cg, ref_pol, mode="sample",
                            rng=ref_rng, cost_model=cm, train=True)
                    for pg in batch]
        rewards = np.array([res.reward for (res,) in episodes])
        # the first episode's advantage is exactly zero
        baseline = float(rewards[0])
        adv = rewards - baseline
        reference = {k: np.zeros_like(t.data)
                     for k, t in ref_pol.store.params.items()}
        for episode, a in zip(episodes, adv):
            for name, g in grads_of(ref_pol, episode.log_probs).items():
                reference[name] += -a * g / len(batch)

        got_rewards, grads = _batch_gradient(
            batch, pol.cg, pol, cm, np.random.default_rng(seed), baseline)
        assert got_rewards == rewards.tolist()
        assert grads.keys() == reference.keys()
        assert_grads_close(grads, reference, 1e-10)

    @SETTINGS
    @given(batch=batches(), seed=st.integers(0, 50))
    def test_gradient_is_bit_identical_to_per_episode_sums(
            self, norm, context, shared, batch, seed):
        """One dot of the log-probability vector with -advantages gives
        every row's log exactly its episode's -advantage, as the sum of
        per-episode ``tsum * -advantage`` terms did, so the gradients are
        equal bit for bit."""
        pol = make_policy(norm, context, shared, seed=seed)
        ref_pol = copy.deepcopy(pol)
        cm = CostModel.for_graph(pol.cg)
        emb = ref_pol.encode(batch, train=True)
        sizes = [pg.num_logical for pg in batch]
        table = ref_pol.stacked_logit_table(emb.program, emb.physical, sizes)
        firsts = np.cumsum([0] + sizes[:-1])
        uniforms = np.split(np.random.default_rng(seed).random(sum(sizes)),
                            firsts[1:])
        seats = _walk(table.data, firsts, sizes, uniforms)
        rewards = [-fast_cost_fn(pg, cm)(s) for pg, s in zip(batch, seats)]
        baseline = float(rewards[0])  # one advantage is exactly zero
        rows, n_phys = table.shape
        probs = PolicyNetwork.masked_distribution(
            table, reference_masks(seats, n_phys))
        logs = dc.log(dc.gather(probs.reshape(rows * n_phys),
                                np.arange(rows) * n_phys
                                + np.concatenate(seats)))
        loss = sum(dc.tsum(dc.gather(logs, np.arange(lo, lo + n)))
                   * (-float(reward - baseline))
                   for lo, n, reward in zip(firsts, sizes, rewards))
        reference = grads_of(ref_pol, loss)

        got_rewards, grads = _batch_gradient(
            batch, pol.cg, pol, cm, np.random.default_rng(seed), baseline)
        assert got_rewards == rewards
        for name, g in grads.items():
            want = reference.get(name, np.zeros_like(g)) / len(batch)
            assert (g == want).all(), name

    def test_episode_log_probs_read_the_batch_vector(
            self, norm, context, shared):
        """Each entry of the batch's vector is its episode's
        log-probability, as a batch of that one episode gives it; the
        results carry none of their own."""
        pol = make_policy(norm, context, shared)
        batch = [ProgramGraph(n, ((0, n - 1),) if n > 1 else (),
                              onehot_features(n, N_MAX)) for n in (3, 1, 5)]
        results = rollout(batch, pol.cg, pol, mode="sample",
                          rng=np.random.default_rng(0), train=True)
        assert results.log_probs.shape == (3,)
        assert not any(hasattr(r, "log_prob") for r in results)
        ref_rng = np.random.default_rng(0)
        for pg, res, log_p in zip(batch, results, results.log_probs.data):
            (one,) = alone = rollout([pg], pol.cg, pol, mode="sample",
                                     rng=ref_rng, train=True)
            assert one.layout.assign.tolist() == res.layout.assign.tolist()
            want = alone.log_probs.data[0]
            assert abs(log_p - want) <= 1e-12 * max(1.0, abs(want))
        assert rollout(batch, pol.cg, pol).log_probs is None

    def test_all_zero_advantages_give_a_zero_gradient(
            self, norm, context, shared):
        pol = make_policy(norm, context, shared)
        batch = [ProgramGraph(1, (), onehot_features(1, N_MAX))] * 3
        rewards, grads = _batch_gradient(
            batch, pol.cg, pol, CostModel.for_graph(pol.cg),
            np.random.default_rng(0), 0.0)
        assert rewards == [0.0, 0.0, 0.0]
        assert grads.keys() == pol.store.params.keys()
        assert all(not g.any() for g in grads.values())


def reference_masks(seats, n_phys):
    """The per-episode mask construction that ``_step_masks`` replaced,
    kept as an oracle: row t of an episode may not reuse the seats of its
    rows < t."""
    feasible = np.ones((sum(len(a) for a in seats), n_phys), dtype=bool)
    lo = 0
    for assign in seats:
        step, earlier = np.tril_indices(len(assign), -1)
        feasible[lo + step, assign[earlier]] = False
        lo += len(assign)
    return feasible


@st.composite
def seat_batches(draw):
    """N and the seats of a batch of episodes on N seats: up to five of
    any size, one 1-qubit episode and one that fills every seat, in a
    drawn order."""
    n_phys = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.integers(1, n_phys), max_size=5))
    sizes = draw(st.permutations(sizes + [1, n_phys]))
    return n_phys, [np.array(draw(st.permutations(range(n_phys)))[:n],
                             dtype=np.int64) for n in sizes]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=seat_batches())
def test_step_masks_equal_the_per_episode_construction(case):
    n_phys, seats = case
    feasible, episode = _step_masks(seats, n_phys)
    assert feasible.tolist() == reference_masks(seats, n_phys).tolist()
    assert episode.tolist() == [e for e, assign in enumerate(seats)
                                for _ in assign]


def reference_walk(logits, rngs, n_sampled):
    """The per-episode walk that the lockstep walk replaced, kept as an
    oracle: the k starts of one (n, N) table, each sampled step one
    ``Generator.choice`` call on the start's own stream."""
    n, n_phys = logits.shape
    k = len(rngs)
    starts = np.arange(k)
    feasible = np.ones((k, n_phys), dtype=bool)
    seats = np.empty((k, n), dtype=np.int64)
    log_p = np.zeros(k)
    for t in range(n):
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


@pytest.mark.parametrize("norm,context,shared", VARIANTS)
class TestLockstepWalk:
    @SETTINGS
    @given(batch=batches(), seed=st.integers(0, 50))
    def test_rollouts_match_the_per_episode_walk(
            self, norm, context, shared, batch, seed):
        pol = make_policy(norm, context, shared, seed=seed)
        for mode, train_mode in itertools.product(("sample", "greedy"),
                                                  (False, True)):
            emb = pol.encode(batch, train_mode)
            table = pol.stacked_logit_table(
                emb.program, emb.physical,
                [pg.num_logical for pg in batch]).data
            ref_rng = np.random.default_rng(seed)
            lo, want = 0, []
            for pg in batch:
                n = pg.num_logical
                seats, log_p = reference_walk(
                    table[lo:lo + n], [ref_rng],
                    [n if mode == "sample" else 0])
                want.append((seats[0].tolist(), float(log_p[0])))
                lo += n
            rng = np.random.default_rng(seed)
            got = rollout(batch, pol.cg, pol, mode=mode, rng=rng,
                          train=train_mode)
            assert [r.layout.assign.tolist() for r in got] == \
                [seats for seats, _ in want]
            if train_mode:
                for got_lp, (_, want_lp) in zip(got.log_probs.data, want):
                    assert abs(got_lp - want_lp) <= 1e-12 * abs(want_lp)
            else:
                assert got.log_probs is None
            assert rng.random() == ref_rng.random()

    @SETTINGS
    @given(batch=batches(), seed=st.integers(0, 50),
           k=st.integers(1, 4))
    def test_decode_matches_the_per_episode_walk(
            self, norm, context, shared, batch, seed, k):
        pol = make_policy(norm, context, shared)
        cm = CostModel.for_graph(pol.cg)
        for pg in batch:
            n = pg.num_logical
            emb = pol.encode(pg)
            table = pol.stacked_logit_table(emb.program, emb.physical,
                                            [n]).data
            cost_fn = fast_cost_fn(pg, cm)
            for kind in STRATEGY_KINDS:
                strategy = DecodeStrategy.make(kind, k=k, seed=seed)
                starts = range(strategy.k)
                n_sampled = ([0] + [1] * (strategy.k - 1)
                             if "greedy" in kind else [n] * strategy.k)
                ref_rngs = [_start_rng(seed, s) for s in starts]
                want, _ = reference_walk(table, ref_rngs, n_sampled)
                rngs = [_start_rng(seed, s) for s in starts]
                seats = _walk(
                    table, [0] * strategy.k, [n] * strategy.k,
                    [rng.random(c) for rng, c in zip(rngs, n_sampled)])
                assert [row.tolist() for row in seats] == want.tolist()
                assert [rng.random() for rng in rngs] == \
                    [rng.random() for rng in ref_rngs]
                costs = [cost_fn(row) for row in want]
                best = int(np.argmin(costs))
                layout, cost = decode(pg, pol.cg, pol, strategy, cm)
                assert (layout.assign.tolist(), cost) == \
                    (want[best].tolist(), costs[best])


@st.composite
def strategy_lists(draw):
    """1-7 strategies of mixed kinds, seeds and k, some of them repeated,
    in a drawn order."""
    one = st.builds(DecodeStrategy.make, st.sampled_from(STRATEGY_KINDS),
                    k=st.integers(1, 4), seed=st.integers(0, 3))
    strategies = draw(st.lists(one, min_size=1, max_size=5))
    repeats = draw(st.lists(st.sampled_from(strategies), max_size=2))
    return draw(st.permutations(strategies + repeats))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(batch=batches(), strategies=strategy_lists(),
       variant=st.sampled_from(VARIANTS))
def test_decode_of_a_strategy_list_equals_each_strategy_alone(
        batch, strategies, variant):
    pol = make_policy(*variant)
    cm = CostModel.for_graph(pol.cg)
    for pg in batch:
        got = decode(pg, pol.cg, pol, strategies, cm)
        want = [decode(pg, pol.cg, pol, one, cm) for one in strategies]
        assert [(layout.assign.tolist(), cost) for layout, cost in got] == \
            [(layout.assign.tolist(), cost) for layout, cost in want]


def test_decode_walks_each_distinct_start_once(monkeypatch):
    """Four kinds x seeds 0-2 at k = 10 name 66 starts, and 8 of them
    repeat another: ``greedy`` at every seed and start 0 of
    ``multistart_greedy`` draw nothing, and start 0 of
    ``multistart_sampling`` at a seed is ``sampling`` at that seed."""
    pol = make_policy("graph", "concat_project", False)
    pg = ProgramGraph(3, ((0, 1), (1, 2)), onehot_features(3, N_MAX))
    strategies = [DecodeStrategy.make(kind, k=10, seed=seed)
                  for kind in STRATEGY_KINDS for seed in range(3)]
    walked = []

    def counting_walk(logits, firsts, sizes, uniforms):
        walked.append(len(firsts))
        return _walk(logits, firsts, sizes, uniforms)

    monkeypatch.setattr(training, "_walk", counting_walk)
    got = decode(pg, pol.cg, pol, strategies)
    assert walked == [58]
    monkeypatch.undo()
    want = [decode(pg, pol.cg, pol, one) for one in strategies]
    assert [(layout.assign.tolist(), cost) for layout, cost in got] == \
        [(layout.assign.tolist(), cost) for layout, cost in want]


def test_decode_of_no_strategy_raises():
    pol = make_policy("graph", "concat_project", False)
    pg = ProgramGraph(2, ((0, 1),), onehot_features(2, N_MAX))
    with pytest.raises(ConfigError, match="at least one strategy"):
        decode(pg, pol.cg, pol, [])


def test_a_single_graph_training_rollout_raises():
    pol = make_policy("graph", "concat_project", False)
    pg = ProgramGraph(2, ((0, 1),), onehot_features(2, N_MAX))
    with pytest.raises(ConfigError, match="list of program graphs"):
        rollout(pg, pol.cg, pol, train=True)
    assert rollout([pg], pol.cg, pol, train=True).log_probs.shape == (1,)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("sampled", [0, 1])
def test_walk_over_non_finite_logits_raises(bad, sampled):
    # step 1 of both episodes reads the bad row
    logits = np.zeros((3, 4))
    logits[1] = bad
    with pytest.raises(NumericError, match="non-finite"), \
            np.errstate(invalid="ignore"):
        _walk(logits, [0, 0], [3, 3], [np.full(3 * sampled, 0.5)] * 2)


def reference_train(cfg, policy, cg):
    """REINFORCE with one tape and one backward per episode, sampled step
    by step. As in ``train``, the device's running statistics are updated
    once per batch, after every program graph's; returns the
    (mean_reward, baseline, grad_norm) of each epoch."""
    cost_model = CostModel(cfg.cost_mode, cg.distances)
    inst_rng = np.random.default_rng([cfg.seed, 0])
    episode_rng = np.random.default_rng([cfg.seed, 1])
    val_rng = np.random.default_rng([cfg.seed, 2])
    validation = [
        gen_random_instance(int(val_rng.integers(cfg.n_min, cfg.n_max + 1)),
                            cfg.edge_prob, val_rng,
                            n_max=policy.prog_feature_dim)
        for _ in range(cfg.val_size)
    ]
    n_phys = cg.num_physical
    params = policy.store.data()
    state = dc.adam_init(params)
    rows = []
    for _ in range(cfg.epochs):
        total = 0.0
        for pg in validation:
            total += rollout(pg, cg, policy, cost_model=cost_model).reward
        baseline = total / len(validation)
        epoch_rewards, grad_norms = [], []
        for _ in range(cfg.batches_per_epoch):
            episodes = []
            for i in range(cfg.batch_size):
                n = int(inst_rng.integers(cfg.n_min, cfg.n_max + 1))
                pg = gen_random_instance(n, cfg.edge_prob, inst_rng,
                                         n_max=policy.prog_feature_dim)
                program = program_rows(policy, pg, train=True)
                # as in train, only the batch's last device encode, after
                # every program graph's, moves the running statistics: undo
                # the others' update
                saved = {k: v.copy() for k, v in policy.store.buffers.items()}
                physical = device_rows(policy, train=True)
                if i < cfg.batch_size - 1:
                    policy.store.buffers.update(saved)
                table = policy.stacked_logit_table(program, physical, [n])
                mask = np.ones(n_phys, dtype=bool)
                assign = np.empty(n, dtype=np.int64)
                log_prob = None
                for t in range(n):
                    probs = PolicyNetwork.masked_distribution(
                        dc.gather(table, t), mask)
                    p = probs.data
                    seat = int(episode_rng.choice(n_phys, p=p / p.sum()))
                    term = dc.log(dc.gather(probs, seat))
                    log_prob = term if log_prob is None else log_prob + term
                    assign[t] = seat
                    mask[seat] = False
                reward = -fast_cost_fn(pg, cost_model)(assign)
                episodes.append((reward, log_prob))
                epoch_rewards.append(reward)
            grad_acc = {k: np.zeros_like(v) for k, v in params.items()}
            for reward, log_prob in episodes:
                adv = reward - baseline
                if adv == 0.0:
                    continue
                for name, g in grads_of(policy,
                                        log_prob * (-float(adv))).items():
                    grad_acc[name] += g / cfg.batch_size
            dc.adam_step(params, grad_acc, state, lr=cfg.lr)
            grad_norms.append(
                float(np.sqrt(sum(np.sum(g * g) for g in grad_acc.values()))))
        rows.append((float(np.mean(epoch_rewards)), float(baseline),
                     float(np.mean(grad_norms))))
    return rows


def desk_policy(norm="graph", context="concat_project", shared=False):
    enc = EncoderConfig(layers=2, heads=4, embed_dim=16, norm_kind=norm)
    dec = DecoderConfig(heads=4, context_dim=16, context_kind=context)
    return PolicyNetwork(build_grid(4, 4), enc, dec, prog_feature_dim=12,
                         shared_encoder=shared, seed=0)


def assert_same_epochs(cfg, make):
    policy, ref_policy = make(), make()
    got = [(m.mean_reward, m.baseline, m.grad_norm)
           for m in train(cfg, policy, policy.cg)]
    want = reference_train(cfg, ref_policy, ref_policy.cg)
    assert [row[:2] for row in got] == [row[:2] for row in want]
    for (_, _, g), (_, _, w) in zip(got, want):
        assert abs(g - w) <= 1e-9 * abs(w)


def test_desk_scale_epochs_match_the_per_episode_loop():
    cfg = TrainConfig(epochs=2, batches_per_epoch=8, batch_size=32, n_min=6,
                      n_max=12, edge_prob=0.3, seed=3, val_size=32, lr=3e-3)
    assert_same_epochs(cfg, desk_policy)


@pytest.mark.parametrize("norm,context,shared", VARIANTS)
def test_desk_model_epochs_match_the_per_episode_loop(norm, context, shared):
    """The desk-scale model of every variant, over fewer and smaller
    batches so that all eighteen stay quick."""
    cfg = TrainConfig(epochs=2, batches_per_epoch=2, batch_size=8, n_min=6,
                      n_max=12, edge_prob=0.3, seed=3, val_size=8, lr=3e-3)
    assert_same_epochs(cfg, lambda: desk_policy(norm, context, shared))


@pytest.mark.parametrize("shared", [False, True])
def test_batch_norm_device_stats_update_once_per_batch(shared):
    """Under batch norm the device encoder's running statistics move once
    per batch, after every program graph's (with a shared encoder both
    update the same buffers, so the order is visible)."""
    cfg = TrainConfig(epochs=1, batches_per_epoch=1, batch_size=4, n_min=2,
                      n_max=5, edge_prob=0.5, seed=7, val_size=2)
    pol = make_policy("batch", "concat_project", shared)
    start = copy.deepcopy(pol)
    train(cfg, pol, pol.cg)

    inst_rng = np.random.default_rng([cfg.seed, 0])
    batch = [gen_random_instance(int(inst_rng.integers(2, 6)), 0.5,
                                 inst_rng, n_max=N_MAX)
             for _ in range(cfg.batch_size)]

    def replay(device_updates, programs_before=cfg.batch_size):
        p = copy.deepcopy(start)
        for pg in batch[:programs_before]:
            program_rows(p, pg, train=True)
        for _ in range(device_updates):
            device_rows(p, train=True)
        for pg in batch[programs_before:]:
            program_rows(p, pg, train=True)
        return p.store.buffers

    once, per_episode = replay(1), replay(cfg.batch_size)
    assert pol.store.buffers.keys() == once.keys()
    for name, value in pol.store.buffers.items():
        assert np.array_equal(value, once[name]), name
    assert any(not np.array_equal(once[k], per_episode[k]) for k in once)
    # the device second, after the first program graph only, moves a
    # shared encoder's buffers elsewhere and separate encoders' nowhere
    device_second = replay(1, programs_before=1)
    assert shared == any(not np.array_equal(once[k], device_second[k])
                         for k in once)
