"""The fused GAT layer against the composed ops it replaced, bit for bit.

``PolicyNetwork._gat_layer`` runs a GAT layer and its norm as one tape node
whose backward is written by hand, and scores only the attended pairs of
``_Pairs``. ``reference_encoder`` is a frozen copy of the composed, masked
dense ``diffcore`` ops it replaced. Both must give equal values, equal
gradients of every input under a random cotangent and equal batch-norm
running buffers, compared with ``np.array_equal`` and ``np.signbit`` (so
0.0 and -0.0 differ) and no tolerance: for every norm kind, in training
and in eval, with separate and shared encoders, on padded stacks that mix
graph sizes, 1-node graphs included, and on inputs scaled so far that some
attended weights underflow to exactly 0.
"""

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_encoder
from qlayout import diffcore as dc
from qlayout.circuit import ProgramGraph, onehot_features
from qlayout.diffcore import Tensor
from qlayout.policy import NORM_KINDS, _adjacency, _Pads, _Pairs
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
    ref._gat_layer = lambda h, attended, *args: reference_encoder.gat_layer(
        ref, h, adjacency_of(attended), *args)
    return pol, ref


def adjacency_of(attended):
    """The (B, M, M) adjacency whose index is ``attended``, for the frozen
    layer, which masks a dense block."""
    adj = np.zeros(attended.shape, dtype=bool)
    adj.reshape(-1)[attended.flat] = True
    return adj[:, 0]


def same(got, want, nan=False):
    """Equal values with equal signs, zeros included; with ``nan``, NaN
    where the other is NaN too, of either sign."""
    if not np.array_equal(got, want, equal_nan=nan):
        return False
    real = ~np.isnan(want)
    return np.array_equal(np.signbit(got[real]), np.signbit(want[real]))


def state(pol):
    """Every parameter's gradient and every buffer, by name."""
    return ({k: t.grad for k, t in pol.store.params.items()},
            {k: v.copy() for k, v in pol.store.buffers.items()})


def assert_identical(got, want, nan=False):
    assert got.keys() == want.keys()
    for k in want:
        if want[k] is None:
            assert got[k] is None, k
        else:
            assert same(got[k], want[k], nan), k


@st.composite
def stacks(draw, max_nodes):
    """The sizes and adjacency of a padded stack of 1-4 graphs of
    1..``max_nodes`` nodes; a pad row has only its self-loop. numpy sums a
    row of 8 or more entries pairwise, not in order, so only such rows
    tell the dense row sums of the softmax from sums over the pairs."""
    sizes = draw(st.lists(st.integers(1, max_nodes), min_size=1, max_size=4))
    m_rows = max(sizes)
    adj = np.zeros((len(sizes), m_rows, m_rows), dtype=bool)
    adj[:, np.arange(m_rows), np.arange(m_rows)] = True
    for g, n in enumerate(sizes):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        if pairs:
            for i, j in draw(st.lists(st.sampled_from(pairs),
                                      max_size=2 * n)):
                adj[g, i, j] = adj[g, j, i] = True
    return sizes, adj


def compare_layer(norm, heads, shared, train, on_tape, layer, sizes, adj,
                  seed, scale=1.0, poison=None):
    """The program and the device prefix's layer each take one drawn
    stack, times ``scale``; with a shared encoder both add into one set of
    parameters. Parameters off the tape (eval) leave only the stacks'
    gradients. ``poison`` is an (index, value) pair written into the
    program's stack; then NaN must meet NaN."""
    pol, ref = twin_policies(norm, heads, shared, seed)
    rng = np.random.default_rng(seed + 1)
    shape = (len(sizes), adj.shape[1], D)
    xs = [scale * rng.standard_normal(shape) for _ in range(2)]
    if poison is not None:
        xs[0][poison[0]] = poison[1]
    cots = [rng.standard_normal(shape) for _ in range(2)]
    results = []
    for net in (pol, ref):
        p = net.store.lookup(on_tape)
        loss, hs, outs = None, [], []
        for which, x, cot in zip(("prog", "phys"), xs, cots):
            h = Tensor(x.copy(), requires_grad=True)
            # ELU's unused branch overflows on scaled inputs, and poisoned
            # ones overflow anywhere
            with np.errstate(all="ignore"):
                out = net._gat_layer(h, _Pairs(adj, heads),
                                     f"{net._enc_prefix(which)}.l{layer}", p,
                                     train, _Pads(sizes))
                term = dc.tsum(dc.mul(out, cot))
            loss = term if loss is None else loss + term
            hs.append(h)
            outs.append(out.data)
        with np.errstate(all="ignore"):
            loss.backward()
        results.append((outs, [h.grad for h in hs], *state(net)))
    (outs, h_grads, grads, buffers), (r_outs, r_h_grads, r_grads,
                                      r_buffers) = results
    nan = poison is not None
    for got, want in zip(outs + h_grads, r_outs + r_h_grads):
        assert same(got, want, nan)
    assert_identical(grads, r_grads, nan)
    assert_identical(buffers, r_buffers, nan)
    return pol, xs


@SETTINGS
@given(norm=st.sampled_from(NORM_KINDS), heads=st.sampled_from([1, 2, 4]),
       shared=st.booleans(), train=st.booleans(), on_tape=st.booleans(),
       layer=st.integers(0, 1), stack=stacks(16), seed=st.integers(0, 2**16),
       scale=st.sampled_from([1.0, 1e3]))
def test_layer_is_bit_identical(norm, heads, shared, train, on_tape, layer,
                                stack, seed, scale):
    sizes, adj = stack
    compare_layer(norm, heads, shared, train, on_tape, layer, sizes, adj,
                  seed, scale)


def attended_weights(pol, x, adj, prefix):
    """The attention weights of the attended pairs of a layer, from the
    parameters, in plain numpy."""
    k = pol.enc_cfg.heads
    zh = (x @ pol.store[f"{prefix}.W"].data.T).reshape(
        x.shape[:2] + (k, -1))
    s_src = np.einsum("bikd,kd->bki", zh, pol.store[f"{prefix}.a_src"].data)
    s_dst = np.einsum("bjkd,kd->bkj", zh, pol.store[f"{prefix}.a_dst"].data)
    scores = s_src[..., None] + s_dst[..., None, :]
    scores = np.where(adj[:, None], np.maximum(scores, 0.2 * scores),
                      -np.inf)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return (e / e.sum(axis=-1, keepdims=True))[
        np.broadcast_to(adj[:, None], scores.shape)]


# a 12-node graph whose rows of 12 entries, summed pairwise by numpy, each
# hold 7 pairs; a 6-node path; and a 1-node graph
SIZES = [12, 6, 1]
ADJ = _adjacency([np.array([[i, (i + d) % 12] for i in range(12)
                            for d in (1, 2, 5)]).T,
                  np.array([[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]]),
                  np.zeros((2, 0), dtype=int)], max(SIZES))


@pytest.mark.parametrize("norm", NORM_KINDS)
@pytest.mark.parametrize("train", [False, True])
def test_underflowing_weights_are_bit_identical(norm, train):
    """Inputs scaled by 1e3 make some attended weights exactly 0, so the
    softmax's gradient there is a signed zero."""
    pol, xs = compare_layer(norm, 2, False, train, True, 0, SIZES, ADJ,
                            seed=7, scale=1e3)
    weights = attended_weights(pol, xs[0], ADJ,
                               f"{pol._enc_prefix('prog')}.l0")
    assert (weights == 0.0).any() and (weights > 0.0).any()


@pytest.mark.parametrize("norm", NORM_KINDS)
@pytest.mark.parametrize("train", [False, True])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e308])
@pytest.mark.parametrize("at", [(0, 2, 3), (1, 0, 0), (1, 5, 1)])
def test_non_finite_inputs_are_identical(norm, train, value, at):
    """A non-finite or overflowing input, in a real or a pad row, gives
    NaN and infinities where the frozen layer does, and equal values
    elsewhere."""
    compare_layer(norm, 2, False, train, True, 0, SIZES, ADJ, seed=3,
                  poison=(at, value))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), heads=st.integers(1, 4))
def test_pairs_are_the_adjacency_nonzeros_in_row_order(data, heads):
    """``_Pairs`` of a stack's adjacency indexes the nonzeros of the
    adjacency broadcast over the heads, in row order, and every row, a pad
    row or a 1-node graph's too, holds its self-loop. Stacks of 1-node
    graphs only have M = 1."""
    sizes = data.draw(st.lists(st.integers(1, N_MAX), min_size=1,
                               max_size=4))
    m_rows = max(sizes)
    edges = []
    for n in sizes:
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        drawn = data.draw(st.lists(st.sampled_from(pairs), max_size=8)) \
            if pairs else []
        edges.append(np.array(drawn, dtype=int).reshape(-1, 2).T)
    adj = _adjacency(edges, m_rows)
    want = np.eye(m_rows, dtype=bool)[None].repeat(len(sizes), axis=0)
    for g, e in enumerate(edges):
        want[g, e[0], e[1]] = want[g, e[1], e[0]] = True
    assert np.array_equal(adj, want)
    att = _Pairs(adj, heads)
    shape = (len(sizes), heads, m_rows, m_rows)
    assert att.shape == shape
    assert np.array_equal(
        att.flat, np.flatnonzero(np.broadcast_to(adj[:, None], shape)))
    assert np.array_equal(att.row, att.flat // m_rows)
    assert np.array_equal(att.col, att.flat // m_rows**2 * m_rows
                          + att.flat % m_rows)
    rows = np.arange(len(sizes) * heads * m_rows)
    assert np.isin(rows * m_rows + rows % m_rows, att.flat).all()


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
    assert same(prog, r_prog) and same(phys, r_phys)
    assert_identical(grads, r_grads)
    assert_identical(buffers, r_buffers)
