"""The fused decoder against the composed ops it replaced, bit for bit.

``PolicyNetwork._contexts``, ``PolicyNetwork.pointer_logits`` and
``training._log_probs`` each run as one tape node whose backward is written
by hand. ``reference_decoder`` is a frozen copy of the composed ``diffcore``
ops they replaced. Both must give equal values and equal gradients of every
input, compared with ``np.array_equal`` and no tolerance: for every context
kind and norm kind, with separate and shared encoders, in training and in
eval, over stacked tables of 1-4 episodes of 1..N_MAX steps and over the
one-step form.
"""

import copy

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_decoder
from qlayout import diffcore as dc
from qlayout.circuit import ProgramGraph, onehot_features
from qlayout.diffcore import Tensor
from qlayout.policy import CONTEXT_KINDS, NORM_KINDS
from qlayout.topology import build_grid
from qlayout.training import _log_probs

from conftest import tiny_policy

N_MAX = 5
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def twin_policies(norm, context, shared, seed):
    """A policy drawn from ``seed`` and a deep copy whose decoder is the
    frozen composed one."""
    pol = tiny_policy(cg=build_grid(2, 3), n_max=N_MAX, norm=norm,
                      context=context, shared=shared, seed=seed)
    ref = copy.deepcopy(pol)
    ref._contexts = lambda *args: reference_decoder.contexts(ref, *args)
    ref.pointer_logits = lambda *args: reference_decoder.pointer_logits(
        ref, *args)
    return pol, ref


def program_graph(draw, n):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs \
        else []
    return ProgramGraph(n, tuple(edges), onehot_features(n, N_MAX))


def embeddings(net, graphs, train):
    """The program and device rows, as ``encode`` returns them in training;
    in eval, its constant rows as fresh leaves, so that the decoder still
    has inputs on the tape."""
    emb = net.encode(graphs, train=train)
    if not train:
        emb.program = Tensor(emb.program.data.copy(), requires_grad=True)
        emb.physical = Tensor(emb.physical.data.copy(), requires_grad=True)
    return emb


def assert_same(got, want):
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b)
            assert (np.signbit(a) == np.signbit(b)).all()


def gradients(net, emb):
    return [emb.program.grad, emb.physical.grad] + [
        t.grad for _, t in sorted(net.store.params.items())]


variants = dict(norm=st.sampled_from(NORM_KINDS),
                context=st.sampled_from(CONTEXT_KINDS), shared=st.booleans(),
                train=st.booleans(), seed=st.integers(0, 2**16))


@SETTINGS
@given(data=st.data(), **variants)
def test_batch_log_probs_are_bit_identical(data, norm, context, shared,
                                           train, seed):
    """The training path: one stacked table of 1-4 episodes, each placing
    its program's rows in order, and the batch's log-probabilities, dotted
    with a cotangent as the REINFORCE loss is."""
    sizes = data.draw(st.lists(st.integers(1, N_MAX), min_size=1,
                               max_size=4))
    graphs = [program_graph(data.draw, n) for n in sizes]
    n_phys = 6
    seats = [np.asarray(data.draw(st.permutations(range(n_phys)))[:n])
             for n in sizes]
    cot = np.random.default_rng(seed + 1).standard_normal(len(sizes))
    pol, ref = twin_policies(norm, context, shared, seed)
    results = []
    for net, log_probs in ((pol, _log_probs),
                           (ref, reference_decoder.log_probs)):
        emb = embeddings(net, graphs, train)
        table = net.stacked_logit_table(emb.program, emb.physical, sizes)
        lp = log_probs(table, seats)
        dc.matmul(lp, cot).backward()
        results.append([table.data, lp.data] + gradients(net, emb))
    assert_same(*results)


@SETTINGS
@given(data=st.data(), **variants)
def test_one_step_view_is_bit_identical(data, norm, context, shared, train,
                                        seed):
    """``make_context`` of one step in any order, and ``pointer_logits`` of
    that one context, under a drawn cotangent."""
    n = data.draw(st.integers(1, N_MAX))
    graph = program_graph(data.draw, n)
    order = data.draw(st.permutations(range(n)))
    t = data.draw(st.integers(0, n - 1))
    pol, ref = twin_policies(norm, context, shared, seed)
    cot = np.random.default_rng(seed + 1).standard_normal(pol.cg.num_physical)
    results = []
    for net in (pol, ref):
        emb = embeddings(net, graph, train)
        logits = net.pointer_logits(net.make_context(emb, t, order),
                                    emb.physical)
        dc.matmul(logits, cot).backward()
        results.append([logits.data] + gradients(net, emb))
    assert_same(*results)


@SETTINGS
@given(data=st.data(), context=st.sampled_from(CONTEXT_KINDS),
       seed=st.integers(0, 2**16))
def test_eval_tables_are_equal_and_off_the_tape(data, context, seed):
    """In eval nothing is on the tape: the table is a constant with the
    composed ops' values."""
    sizes = data.draw(st.lists(st.integers(1, N_MAX), min_size=1,
                               max_size=4))
    graphs = [program_graph(data.draw, n) for n in sizes]
    pol, ref = twin_policies("batch", context, False, seed)
    tables = []
    for net in (pol, ref):
        emb = net.encode(graphs)
        tables.append(net.stacked_logit_table(emb.program, emb.physical,
                                              sizes))
    assert not tables[0].requires_grad and tables[0]._parents == ()
    assert np.array_equal(tables[0].data, tables[1].data)
