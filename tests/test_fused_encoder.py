"""The fused GAT layer against the composed ops it replaced, bit for bit.

``PolicyNetwork._gat_layer`` runs a GAT layer and its norm as one tape node
whose backward is written by hand. ``reference_encoder`` is a frozen copy
of the composed ``diffcore`` ops it replaced. Both must give equal values,
equal gradients of every input under a random cotangent and equal
batch-norm running buffers, compared with ``np.array_equal`` and no
tolerance: for every norm kind, in training and in eval, with separate and
shared encoders, on padded stacks that mix graph sizes, 1-node graphs
included.
"""

import copy

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_encoder
from qlayout import diffcore as dc
from qlayout.circuit import ProgramGraph, onehot_features
from qlayout.diffcore import Tensor
from qlayout.policy import NORM_KINDS, _Pads
from qlayout.topology import build_grid

from conftest import tiny_policy

N_MAX = 6
D = 8
SETTINGS = settings(max_examples=80, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def twin_policies(norm, heads, shared, seed):
    """A policy with drawn parameters and running statistics, and a deep
    copy whose GAT layers are the frozen composed ones."""
    pol = tiny_policy(cg=build_grid(2, 3), n_max=N_MAX, norm=norm,
                      heads=heads, d=D, m_heads=2, shared=shared)
    rng = np.random.default_rng(seed)
    for t in pol.store.params.values():
        t.data[...] = rng.standard_normal(t.data.shape)
    for name, buf in pol.store.buffers.items():
        buf[...] = (rng.random(buf.shape) + 0.25 if name.endswith(".var")
                    else rng.standard_normal(buf.shape))
    ref = copy.deepcopy(pol)
    ref._gat_layer = lambda *args: reference_encoder.gat_layer(ref, *args)
    return pol, ref


def state(pol):
    """Every parameter's gradient and every buffer, by name."""
    return ({k: t.grad for k, t in pol.store.params.items()},
            {k: v.copy() for k, v in pol.store.buffers.items()})


def assert_identical(got, want):
    assert got.keys() == want.keys()
    for k in want:
        if want[k] is None:
            assert got[k] is None, k
        else:
            assert np.array_equal(got[k], want[k]), k


@st.composite
def stacks(draw):
    """The sizes and adjacency of a padded stack of 1-4 graphs of 1..N_MAX
    nodes; a pad row has only its self-loop."""
    sizes = draw(st.lists(st.integers(1, N_MAX), min_size=1, max_size=4))
    m_rows = max(sizes)
    adj = np.zeros((len(sizes), m_rows, m_rows), dtype=bool)
    adj[:, np.arange(m_rows), np.arange(m_rows)] = True
    for g, n in enumerate(sizes):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        if pairs:
            for i, j in draw(st.lists(st.sampled_from(pairs), max_size=8)):
                adj[g, i, j] = adj[g, j, i] = True
    return sizes, adj


@SETTINGS
@given(norm=st.sampled_from(NORM_KINDS), heads=st.sampled_from([1, 2, 4]),
       shared=st.booleans(), train=st.booleans(), on_tape=st.booleans(),
       layer=st.integers(0, 1), stack=stacks(), seed=st.integers(0, 2**16))
def test_layer_is_bit_identical(norm, heads, shared, train, on_tape, layer,
                                stack, seed):
    """The program and the device prefix's layer each take one drawn
    stack; with a shared encoder both add into one set of parameters.
    Parameters off the tape (eval) leave only the stacks' gradients."""
    sizes, adj = stack
    pol, ref = twin_policies(norm, heads, shared, seed)
    rng = np.random.default_rng(seed + 1)
    shape = (len(sizes), adj.shape[1], D)
    xs = [rng.standard_normal(shape) for _ in range(2)]
    cots = [rng.standard_normal(shape) for _ in range(2)]
    results = []
    for net in (pol, ref):
        p = net.store.lookup(on_tape)
        loss, hs, outs = None, [], []
        for which, x, cot in zip(("prog", "phys"), xs, cots):
            h = Tensor(x.copy(), requires_grad=True)
            out = net._gat_layer(h, adj, f"{net._enc_prefix(which)}.l{layer}",
                                 p, train, _Pads(sizes))
            term = dc.tsum(dc.mul(out, cot))
            loss = term if loss is None else loss + term
            hs.append(h)
            outs.append(out.data)
        loss.backward()
        results.append((outs, [h.grad for h in hs], *state(net)))
    (outs, h_grads, grads, buffers), (r_outs, r_h_grads, r_grads,
                                      r_buffers) = results
    for got, want in zip(outs + h_grads, r_outs + r_h_grads):
        assert np.array_equal(got, want)
    assert_identical(grads, r_grads)
    assert_identical(buffers, r_buffers)


def program_graph(draw, n):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs \
        else []
    return ProgramGraph(n, tuple(edges), onehot_features(n, N_MAX))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(norm=st.sampled_from(NORM_KINDS), shared=st.booleans(),
       train=st.booleans(), data=st.data(), seed=st.integers(0, 2**16))
def test_encode_is_bit_identical(norm, shared, train, data, seed):
    """A whole ``encode`` of a mixed batch, 1-node graphs included, and in
    training the device: every parameter's gradient and the running
    statistics, moved once per graph and then for the device."""
    sizes = data.draw(st.lists(st.integers(1, N_MAX), max_size=4)) + [1]
    graphs = [program_graph(data.draw, n) for n in sizes]
    pol, ref = twin_policies(norm, 2, shared, seed)
    rng = np.random.default_rng(seed + 1)
    cot_prog = rng.standard_normal((sum(sizes), D))
    cot_phys = rng.standard_normal((pol.cg.num_physical, D))
    results = []
    for net in (pol, ref):
        emb = net.encode(graphs, train=train)
        if train:
            (dc.tsum(dc.mul(emb.program, cot_prog))
             + dc.tsum(dc.mul(emb.physical, cot_phys))).backward()
        results.append((emb.program.data, emb.physical.data, *state(net)))
    (prog, phys, grads, buffers), (r_prog, r_phys, r_grads,
                                   r_buffers) = results
    assert np.array_equal(prog, r_prog) and np.array_equal(phys, r_phys)
    assert_identical(grads, r_grads)
    assert_identical(buffers, r_buffers)
