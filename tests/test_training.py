

import numpy as np
import pytest

from qlayout.circuit import ProgramGraph, onehot_features
from qlayout.errors import ConfigError
from qlayout.objective import CostModel
from qlayout.topology import CouplingGraph, build_grid
from qlayout.training import (
    DecodeStrategy,
    TrainConfig,
    _start_rng,
    decode,
    gen_random_instance,
    rollout,
    train,
)

from conftest import tiny_policy


def path3():
    return CouplingGraph(3, frozenset({(0, 1), (1, 2)}), name="path3")


class TestInstanceGeneration:
    def test_edge_prob_one(self, rng):
        pg = gen_random_instance(3, 1.0, rng)
        assert pg.num_edges == 3

    def test_small_n_rejected(self, rng):
        with pytest.raises(ConfigError):
            gen_random_instance(1, 0.5, rng)

    def test_edge_count_statistics(self, rng):
        # n=8, p=0.3: mean edges = 0.3 * 28 = 8.4, sd = sqrt(28*0.3*0.7)
        samples = 2000
        counts = [gen_random_instance(8, 0.3, rng).num_edges
                  for _ in range(samples)]
        mean = np.mean(counts)
        sigma = np.sqrt(28 * 0.3 * 0.7 / samples)
        assert abs(mean - 8.4) < 3 * sigma * 1.5

    def test_padded_features(self, rng):
        pg = gen_random_instance(3, 0.5, rng, n_max=6)
        assert pg.node_features.shape == (3, 6)

    @pytest.mark.parametrize("edge_prob", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("n_max", [None, 15])
    def test_block_draws_match_one_draw_per_call(self, edge_prob, n_max):
        got_rng = np.random.default_rng([17, int(10 * edge_prob)])
        want_rng = np.random.default_rng([17, int(10 * edge_prob)])
        for n in list(range(2, 16)) * 5:
            got = gen_random_instance(n, edge_prob, got_rng, n_max=n_max)
            want = reference_instance(n, edge_prob, want_rng, n_max)
            assert got.edges == want.edges
            assert got.node_features.tolist() == want.node_features.tolist()
            assert got_rng.random() == want_rng.random()


def reference_instance(n, edge_prob, rng, n_max=None):
    """The per-pair generator that block draws replaced, frozen as an
    oracle: one ``rng.random()`` per pair and one more per edge."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                if rng.random() < 0.5:
                    edges.append((i, j))
                else:
                    edges.append((j, i))
    return ProgramGraph(n, tuple(edges), onehot_features(n, n_max))


class TestRollout:
    def test_single_qubit_instance_reward_zero(self):
        pg = ProgramGraph(1, (), onehot_features(1, 4))
        pol = tiny_policy()
        res = rollout(pg, pol.cg, pol)
        assert res.reward == 0.0
        assert res.layout.is_total()

    def test_greedy_deterministic(self, rng):
        pol = tiny_policy()
        pg = gen_random_instance(3, 0.5, rng, n_max=4)
        a = rollout(pg, pol.cg, pol, mode="greedy")
        b = rollout(pg, pol.cg, pol, mode="greedy")
        assert a.layout.assign.tolist() == b.layout.assign.tolist()
        assert a.reward == b.reward

    def test_sampled_layouts_always_valid(self, rng):
        pol = tiny_policy(cg=build_grid(2, 3), n_max=5)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            pg = gen_random_instance(n, 0.4, rng, n_max=5)
            res = rollout(pg, pol.cg, pol, mode="sample", rng=rng)
            res.layout.validate(6)

    def test_reward_matches_objective(self, rng):
        from qlayout.objective import swap_cost

        pol = tiny_policy()
        pg = gen_random_instance(3, 0.8, rng, n_max=4)
        cm = CostModel("literal", pol.cg.distances)
        res = rollout(pg, pol.cg, pol, cost_model=cm)
        assert res.reward == -swap_cost(res.layout, pg, cm)

    def test_instance_too_large(self, rng):
        pol = tiny_policy()
        pg = gen_random_instance(5, 0.5, rng, n_max=5)
        with pytest.raises(ConfigError):
            rollout(pg, pol.cg, pol)

    @pytest.mark.parametrize("mode", ["sampling", "Greedy", "", None])
    def test_unknown_mode_raises(self, rng, mode):
        # a strategy name such as "sampling" must not decode greedily
        pol = tiny_policy()
        pg = gen_random_instance(3, 0.5, rng, n_max=4)
        with pytest.raises(ConfigError, match="rollout mode"):
            rollout(pg, pol.cg, pol, mode=mode, rng=rng)


    def test_empty_batch_raises(self):
        pol = tiny_policy()
        with pytest.raises(ConfigError, match="at least one program graph"):
            rollout([], pol.cg, pol)

    @pytest.mark.parametrize("batched", [False, True])
    def test_sampling_without_rng_raises(self, rng, batched):
        pol = tiny_policy()
        pg = gen_random_instance(3, 0.5, rng, n_max=4)
        with pytest.raises(ConfigError, match="needs an rng"):
            rollout([pg] if batched else pg, pol.cg, pol, mode="sample")


class TestDevice:
    """A policy reads only the device it was built for: another device
    would score its layouts on the wrong distances."""

    @pytest.mark.parametrize("other", [
        build_grid(2, 2),  # fewer seats than the policy's logits
        build_grid(2, 8),  # as many seats, other couplings
        build_grid(5, 5),  # more seats
        CouplingGraph(16, build_grid(4, 4).edges - {(0, 1)}),
    ])
    def test_another_device_is_rejected(self, rng, other):
        pol = tiny_policy(cg=build_grid(4, 4))
        pg = gen_random_instance(3, 0.5, rng, n_max=4)
        cfg = TrainConfig(epochs=1, batches_per_epoch=1, batch_size=2,
                          n_min=2, n_max=4, val_size=2)
        before = {k: v.copy() for k, v in pol.store.data().items()}
        for call in (
                lambda: rollout(pg, other, pol),
                lambda: rollout([pg, pg], other, pol, mode="sample", rng=rng,
                                train=True),
                lambda: decode(pg, other, pol, DecodeStrategy("greedy")),
                lambda: train(cfg, pol, other)):
            with pytest.raises(ConfigError, match="built for the 16-qubit "
                               "device 'grid4x4'"):
                call()
        assert all(np.array_equal(v, before[k])
                   for k, v in pol.store.data().items())

    def test_an_equal_device_is_accepted(self, rng):
        pol = tiny_policy(cg=build_grid(4, 4))
        pg = gen_random_instance(3, 0.5, rng, n_max=4)
        same = CouplingGraph(16, build_grid(4, 4).edges, name="copy")
        strategy = DecodeStrategy("greedy")
        layout, cost = decode(pg, same, pol, strategy)
        want_layout, want_cost = decode(pg, pol.cg, pol, strategy)
        assert (layout.assign.tolist(), cost) == \
            (want_layout.assign.tolist(), want_cost)


class TestDecode:
    def test_strategy_validation(self):
        with pytest.raises(ConfigError):
            DecodeStrategy("greedy", k=3)
        with pytest.raises(ConfigError):
            DecodeStrategy("nope")
        assert DecodeStrategy.make("multistart_greedy").k == 10

    def test_non_integral_starts_rejected(self):
        # 2.5 starts used to pass and end in a TypeError inside decode
        with pytest.raises(ConfigError, match="k must be an integer"):
            DecodeStrategy("multistart_greedy", k=2.5)
        with pytest.raises(ConfigError, match="k must be at least 1"):
            DecodeStrategy("multistart_sampling", k=0)

    @pytest.mark.parametrize("kind", [None, 3, ["greedy"]])
    def test_make_rejects_a_kind_that_is_not_a_name(self, kind):
        # make read kind.startswith before the kind was checked
        with pytest.raises(ConfigError, match="unknown decoding strategy"):
            DecodeStrategy.make(kind)

    @pytest.mark.parametrize("kind", ["greedy", "sampling",
                                      "multistart_sampling"])
    def test_negative_seed_rejected(self, kind):
        # numpy's default_rng would raise ValueError, and only once a
        # start draws
        with pytest.raises(ConfigError, match="seed must be at least 0"):
            DecodeStrategy.make(kind, seed=-1)

    def test_starts_over_the_walk_budget_are_rejected(self, rng,
                                                      monkeypatch):
        import qlayout.training as training

        pol = tiny_policy()
        pg = gen_random_instance(3, 0.6, rng, n_max=4)
        per_start = 3 * 4 + training.START_ELEMENTS
        monkeypatch.setattr(training, "WALK_ELEMENT_BUDGET", 5 * per_start)
        runs = [DecodeStrategy.make("greedy"),
                DecodeStrategy.make("multistart_sampling", k=4)]
        assert len(decode(pg, pol.cg, pol, runs)) == 2
        runs[1] = DecodeStrategy.make("multistart_sampling", k=5)
        with pytest.raises(ConfigError, match="k: 6 starts"):
            decode(pg, pol.cg, pol, runs)

    def test_multistart_k1_degenerates(self, rng):
        pol = tiny_policy()
        pg = gen_random_instance(3, 0.6, rng, n_max=4)
        single = decode(pg, pol.cg, pol, DecodeStrategy("greedy", seed=5))
        multi = decode(pg, pol.cg, pol,
                       DecodeStrategy("multistart_greedy", k=1, seed=5))
        assert single[1] == multi[1]
        assert single[0].assign.tolist() == multi[0].assign.tolist()

    @pytest.mark.parametrize("pair", [
        ("greedy", "multistart_greedy"), ("sampling", "multistart_sampling"),
    ])
    def test_best_of_k_never_worse(self, pair, rng):
        single_kind, multi_kind = pair
        pol = tiny_policy(cg=build_grid(2, 3), n_max=5)
        for seed in range(10):
            pg = gen_random_instance(4, 0.5, rng, n_max=5)
            _, c1 = decode(pg, pol.cg, pol,
                           DecodeStrategy.make(single_kind, seed=seed))
            _, ck = decode(pg, pol.cg, pol,
                           DecodeStrategy.make(multi_kind, k=10, seed=seed))
            assert ck <= c1

    def test_multistart_sampling_returns_min_of_individuals(self, rng):
        pol = tiny_policy(cg=build_grid(2, 3), n_max=5)
        pg = gen_random_instance(4, 0.6, rng, n_max=5)
        strategy = DecodeStrategy.make("multistart_sampling", k=10, seed=42)
        _, best = decode(pg, pol.cg, pol, strategy)
        cm = CostModel.for_graph(pol.cg)
        individual = []
        for start in range(10):
            res = rollout(pg, pol.cg, pol, mode="sample",
                          rng=_start_rng(42, start), cost_model=cm)
            individual.append(res.cost)
        assert best == min(individual)


class TestTrain:
    def small_cfg(self, **kw):
        base = dict(epochs=2, batches_per_epoch=2, batch_size=4, n_min=2,
                    n_max=3, edge_prob=0.6, seed=3, val_size=4)
        base.update(kw)
        return TrainConfig(**base)

    def test_metrics_shape_and_determinism(self):
        cg = build_grid(2, 2)
        cfg = self.small_cfg()
        runs = []
        for _ in range(2):
            pol = tiny_policy(cg=cg, n_max=cfg.n_max, seed=9)
            metrics = train(cfg, pol, cg)
            runs.append([(m.epoch, m.mean_reward, m.baseline, m.grad_norm)
                        for m in metrics])
        assert runs[0] == runs[1]
        assert len(runs[0]) == cfg.epochs

    @pytest.mark.parametrize("field", ["batch_size", "val_size"])
    def test_instance_counts_share_the_walk_budget(self, monkeypatch, field):
        """Both lists are held as one walk of n_max-qubit episodes, checked
        by decode's rule before any instance is drawn."""
        import qlayout.training as training

        cg = build_grid(2, 2)
        monkeypatch.setattr(training, "WALK_ELEMENT_BUDGET",
                            4 * (3 * 4 + training.START_ELEMENTS))
        train(self.small_cfg(epochs=1, **{field: 4}),
              tiny_policy(cg=cg, n_max=3), cg)

        def no_draw(*args, **kwargs):
            raise AssertionError("an instance was drawn")
        monkeypatch.setattr(training, "gen_random_instance", no_draw)
        with pytest.raises(ConfigError, match=f"{field}: 5 episodes of 3 "
                                              "qubits on 4 qubits exceed"):
            train(self.small_cfg(**{field: 5}), tiny_policy(cg=cg, n_max=3),
                  cg)

    def test_advantage_scales_gradient_linearly(self, rng):
        import qlayout.diffcore as dc

        pol = tiny_policy()
        pg = gen_random_instance(3, 0.6, rng, n_max=4)
        grads = []
        for adv in (1.0, 2.0):
            episode = rollout([pg], pol.cg, pol, mode="greedy", train=True)
            pol.store.zero_grad()
            (episode.log_probs * (-adv)).backward()
            grads.append({k: g.copy() for k, g in pol.store.grads().items()})
        for k in grads[0]:
            assert np.allclose(2 * grads[0][k], grads[1][k])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(edge_prob=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(n_min=5, n_max=3)

    @pytest.mark.parametrize("field,value,fragment", [
        ("epochs", 0, "epochs"), ("epochs", -1, "epochs"),
        ("batches_per_epoch", 0, "batches_per_epoch"),
        ("val_size", 0, "val_size"),
        ("lr", -1.0, "lr"), ("lr", 0.0, "lr"), ("lr", float("nan"), "lr"),
        ("lr", float("inf"), "lr"), ("lr", 0, "lr must be positive"),
        ("lr", True, "lr must be positive and finite, not True"),
        ("edge_prob", True, r"edge_prob must be in \(0, 1\], not True"),
        ("edge_prob", "0.5", r"edge_prob must be in \(0, 1\], not '0.5'"),
        ("edge_prob", 1.5, "edge_prob must be in"),
        ("edge_prob", float("nan"), "edge_prob must be in"),
        ("cost_mode", "x", "cost mode 'x'"),
        ("seed", -1, "seed must be at least 0"),
        ("epochs", 2.5, "epochs must be an integer, not 2.5"),
        ("batch_size", True, "batch_size must be an integer, not True"),
        ("n_min", 2.5, "n_min must be an integer"),
        ("n_min", 1, "n_min must be at least 2"),
        ("n_max", 5, "n_max must be at least 6"),
        ("n_max", 2049, "n_max must be at most 2048, not 2049"),
        ("n_max", 10**9, "n_max must be at most 2048"),
    ])
    def test_config_rejects_values_that_cannot_train(self, field, value,
                                                     fragment):
        with pytest.raises(ConfigError, match=fragment):
            TrainConfig(**{field: value})


class TestReinforceEstimator:
    def test_gradient_estimator_unbiased(self):
        # enumerable 2-step MDP: n=2 on a path of three physical qubits.
        # The empirical mean of the REINFORCE estimator over many sampled
        # trajectories must match the finite-difference gradient of the
        # exact expected reward (enumerated over all 6 trajectories).
        cg = path3()
        pol = tiny_policy(cg=cg, n_max=2, norm="graph", seed=4)
        pg = ProgramGraph(2, ((0, 1),), onehot_features(2))
        cm = CostModel("literal", cg.distances)
        num_samples = 20000

        traj = [(a0, a1) for a0 in range(3) for a1 in range(3) if a0 != a1]

        def episode(actions, record=False):
            import qlayout.diffcore as dc

            emb = pol.encode(pg, train=record)
            mask = np.ones(3, bool)
            logp_t = None
            logp = 0.0
            for t, a in enumerate(actions):
                ctx = pol.make_context(emb, t, [0, 1])
                logits = pol.pointer_logits(ctx, emb.physical)
                probs = pol.masked_distribution(logits, mask)
                if record:
                    term = dc.log(dc.gather(probs, a))
                    logp_t = term if logp_t is None else logp_t + term
                logp += float(np.log(probs.data[a]))
                mask[a] = False
            reward = -float(
                2 * cm.distance[actions[0], actions[1]])
            return logp, logp_t, reward

        def expected_reward():
            return sum(np.exp(episode(t)[0]) * episode(t)[2] for t in traj)

        # exact gradient by finite differences on a few parameters
        probs = np.array([np.exp(episode(t)[0]) for t in traj])
        rng = np.random.default_rng(0)
        counts = rng.multinomial(num_samples, probs / probs.sum())

        est = {k: np.zeros_like(v.data) for k, v in pol.store.params.items()}
        for t_actions, cnt in zip(traj, counts):
            if cnt == 0:
                continue
            _, logp_t, reward = episode(t_actions, record=True)
            pol.store.zero_grad()
            logp_t.backward()
            for k, g in pol.store.grads().items():
                est[k] += (cnt / num_samples) * reward * g

        checked = 0
        for name in ("ptr.W_G", "ctx.W"):
            t = pol.store.params[name]
            flat = t.data.ravel()
            for i in rng.choice(flat.size, size=5, replace=False):
                old = flat[i]
                flat[i] = old + 1e-5
                fp = expected_reward()
                flat[i] = old - 1e-5
                fm = expected_reward()
                flat[i] = old
                exact = (fp - fm) / 2e-5
                approx = est[name].ravel()[i]
                if abs(exact) > 1e-3:
                    assert abs(approx - exact) / abs(exact) < 0.25
                    checked += 1
        assert checked >= 3
