"""The batched decoder against step-by-step references.

Every step's logits are computed in one (n, N) table per episode and all
multistart starts advance in lockstep over it. These tests pin that path
to per-step references kept here: a plain-numpy rendering of the pointer
decoder, a decode loop that rebuilds each step's distribution on its own,
and a per-step log-probability tape. They cover every norm kind, context
kind and encoder sharing.
"""

import copy
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qlayout.diffcore as dc
from qlayout.circuit import ProgramGraph, onehot_features
from qlayout.objective import CostModel, fast_cost_fn
from qlayout.policy import CONTEXT_KINDS, NORM_KINDS
from qlayout.topology import build_grid
from qlayout.training import DecodeStrategy, _start_rng, decode, rollout

from conftest import tiny_policy

N_MAX = 5
VARIANTS = list(itertools.product(NORM_KINDS, CONTEXT_KINDS, (False, True)))
SETTINGS = settings(max_examples=8, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def make_policy(norm, context, shared, seed=0):
    return tiny_policy(cg=build_grid(2, 3), n_max=N_MAX, norm=norm,
                       context=context, seed=seed, shared=shared)


@st.composite
def instances(draw):
    n = draw(st.integers(1, N_MAX))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
    order = draw(st.permutations(range(n)))
    return ProgramGraph(n, tuple(edges), onehot_features(n, N_MAX)), order


def reference_step_logits(pol, emb, t, order):
    """The pointer decoder of one step, written out in numpy."""
    prog, phys = emb.program.data, emb.physical.data
    w = {k: v.data for k, v in pol.store.params.items()}
    kind = pol.dec_cfg.context_kind
    if kind == "stack_project":
        ctx = np.mean(prog[list(order[: t + 1])] @ w["ctx.W"].T, axis=0)
    else:
        h_c = prog[order[t]]
        h_p = w["ctx.start"] if t == 0 else prog[order[t - 1]]
        if kind == "project_concat":
            ctx = np.concatenate([w["ctx.W"] @ h_c, w["ctx.W"] @ h_p])
        else:
            ctx = w["ctx.W"] @ np.concatenate([h_c, h_p])
    d_c, m = pol.dec_cfg.context_dim, pol.dec_cfg.heads
    d = d_c // m
    n_phys = phys.shape[0]
    q = w["ptr.W_Q"] @ ctx
    keys, vals = phys @ w["ptr.W_K"].T, phys @ w["ptr.W_V"].T
    scores = (keys * q).reshape(n_phys, m, d).sum(axis=2) / np.sqrt(d)
    weights = np.exp(scores - scores.max(axis=0))
    weights /= weights.sum(axis=0)
    glimpse = (weights[:, :, None] * vals.reshape(n_phys, m, d)).sum(axis=0)
    compat = (phys @ w["ptr.W_Kf"].T) @ (w["ptr.W_G"] @ glimpse.ravel())
    return pol.dec_cfg.clip * np.tanh(compat / np.sqrt(d_c))


def reference_decode(pg, pol, strategy, cm):
    """Decode start by start and step by step, each step's distribution
    built on its own from the one-step views."""
    emb = pol.encode(pg)
    n, n_phys = pg.num_logical, pol.cg.num_physical
    order = list(range(n))
    best = None
    for start in range(strategy.k):
        rng = _start_rng(strategy.seed, start)
        if "sampling" in strategy.kind:
            sampled = n
        else:
            sampled = 1 if start > 0 else 0
        mask = np.ones(n_phys, dtype=bool)
        assign = np.full(n, -1, dtype=np.int64)
        for t in range(n):
            ctx = pol.make_context(emb, t, order)
            logits = pol.pointer_logits(ctx, emb.physical)
            p = pol.masked_distribution(logits, mask).data
            if t < sampled:
                seat = int(rng.choice(n_phys, p=p / p.sum()))
            else:
                seat = int(np.argmax(p))
            assign[t] = seat
            mask[seat] = False
        cost = fast_cost_fn(pg, cm)(assign)
        if best is None or cost < best[1]:
            best = (assign.tolist(), cost)
    return best


def step_by_step_grads(pol, pg, seats):
    """Parameter gradients of log pi built from one tape node per step."""
    emb = pol.encode(pg, train=True)
    order = list(range(pg.num_logical))
    mask = np.ones(pol.cg.num_physical, dtype=bool)
    total = None
    for t, seat in enumerate(seats):
        ctx = pol.make_context(emb, t, order)
        probs = pol.masked_distribution(
            pol.pointer_logits(ctx, emb.physical), mask)
        term = dc.log(dc.gather(probs, int(seat)))
        total = term if total is None else total + term
        mask[seat] = False
    pol.store.zero_grad()
    total.backward()
    return {k: g.copy() for k, g in pol.store.grads().items()}


@pytest.mark.parametrize("norm,context,shared", VARIANTS)
class TestTable:
    @SETTINGS
    @given(case=instances())
    def test_table_matches_step_reference(self, norm, context, shared, case):
        pg, order = case
        pol = make_policy(norm, context, shared)
        for emb in (pol.encode(pg), pol.encode(pg, train=True)):
            # the table places its rows in order: those of ``order``
            rows = dc.gather(emb.program, np.asarray(order))
            table = pol.stacked_logit_table(rows, emb.physical,
                                            [len(order)]).data
            assert table.shape == (pg.num_logical, pol.cg.num_physical)
            for t in range(pg.num_logical):
                ref = reference_step_logits(pol, emb, t, order)
                view = pol.pointer_logits(pol.make_context(emb, t, order),
                                          emb.physical).data
                assert np.abs(table[t] - ref).max() <= 1e-12
                assert np.abs(view - table[t]).max() <= 1e-12

    @SETTINGS
    @given(case=instances(), seed=st.integers(0, 50))
    def test_decode_matches_reference_loop(self, norm, context, shared, case,
                                           seed):
        pg, _ = case
        pol = make_policy(norm, context, shared)
        cm = CostModel.for_graph(pol.cg)
        for kind in ("greedy", "sampling", "multistart_greedy",
                     "multistart_sampling"):
            strategy = DecodeStrategy.make(kind, k=4, seed=seed)
            layout, cost = decode(pg, pol.cg, pol, strategy, cm)
            layout.validate(pol.cg.num_physical)
            assert (layout.assign.tolist(), cost) == \
                reference_decode(pg, pol, strategy, cm)

    @SETTINGS
    @given(case=instances(), seed=st.integers(0, 50))
    def test_log_prob_gradient_matches_per_step(self, norm, context, shared,
                                                case, seed):
        pg, _ = case
        pol = make_policy(norm, context, shared, seed=seed)
        (res,) = episode = rollout([pg], pol.cg, pol, mode="sample",
                                   train=True,
                                   rng=np.random.default_rng(seed))
        pol.store.zero_grad()
        episode.log_probs.backward()
        batched = {k: g.copy() for k, g in pol.store.grads().items()}
        reference = step_by_step_grads(pol, pg, res.layout.assign)
        assert batched.keys() == reference.keys()
        for name, g in reference.items():
            scale = max(1.0, np.abs(g).max())
            assert np.abs(batched[name] - g).max() <= 1e-10 * scale, name


class TestDeviceMemo:
    def setup_method(self):
        self.pg = ProgramGraph(3, ((0, 1), (1, 2)), onehot_features(3, N_MAX))

    def recomputed(self, pol):
        fresh = copy.deepcopy(pol)
        fresh._device_memo = None
        return fresh.encode(self.pg).physical.data

    @pytest.mark.parametrize("shared", [False, True])
    def test_reused_while_nothing_changes(self, shared):
        pol = make_policy("batch", "concat_project", shared)
        first = pol.encode(self.pg).physical
        assert pol.encode(self.pg).physical is first
        # the program side never touches the device's arrays
        pol.store["in.prog.W"].data[0, 0] += 0.5
        assert pol.encode(self.pg).physical is first

    @pytest.mark.parametrize("norm", NORM_KINDS)
    def test_in_place_parameter_edit(self, norm):
        pol = make_policy(norm, "concat_project", False)
        before = pol.encode(self.pg).physical.data.copy()
        pol.store["enc.phys.l1.W"].data[0, 1] += 0.25
        after = pol.encode(self.pg).physical.data
        assert not np.array_equal(before, after)
        assert np.array_equal(after, self.recomputed(pol))

    def test_adam_step(self):
        pol = make_policy("graph", "stack_project", True)
        before = pol.encode(self.pg).physical.data.copy()
        params = pol.store.data()
        grads = {k: np.ones_like(v) for k, v in params.items()}
        dc.adam_step(params, grads, dc.adam_init(params), lr=1e-2)
        after = pol.encode(self.pg).physical.data
        assert not np.array_equal(before, after)
        assert np.array_equal(after, self.recomputed(pol))

    @pytest.mark.parametrize("shared", [False, True])
    def test_running_stats_update(self, shared):
        pol = make_policy("batch", "project_concat", shared)
        before = pol.encode(self.pg).physical.data.copy()
        pol.encode(self.pg, train=True)
        after = pol.encode(self.pg).physical.data
        assert not np.array_equal(before, after)
        assert np.array_equal(after, self.recomputed(pol))
