"""The attention kernels against broadcast-multiply-sum references.

The GAT layer and the pointer decoder compute attention as per-head
batched matmuls, the GAT layer over a zero-padded stack of graphs. The references here write the same attention out in
plain numpy as elementwise products summed over an axis, with the heads
as a trailing axis: (n, n, k, dh) for GAT aggregation and (T, N, m, d)
for the pointer scores and the glimpse. The two must agree to 1e-12
relative for every norm kind, context kind and encoder sharing.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qlayout import diffcore as dc
from qlayout.diffcore import Tensor
from qlayout.policy import CONTEXT_KINDS, NORM_KINDS, _Pads, _Pairs
from qlayout.topology import build_grid

from conftest import tiny_policy

VARIANTS = list(itertools.product(NORM_KINDS, CONTEXT_KINDS, (False, True)))
SETTINGS = settings(max_examples=10, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])
TOL = 1e-12


def make_policy(norm, context, shared):
    return tiny_policy(cg=build_grid(2, 3), n_max=5, norm=norm,
                       context=context, shared=shared, heads=4, d=16,
                       m_heads=4)


def params(pol):
    return {k: v.data for k, v in pol.store.params.items()}


def softmax(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def reference_gat_layer(pol, h, adj, prefix, train):
    """One GAT layer with its norm; attention over (n, n, k)."""
    w = params(pol)
    e = pol.enc_cfg
    n, k = h.shape[0], e.heads
    dh = e.embed_dim // k
    zh = (h @ w[f"{prefix}.W"].T).reshape(n, k, dh)
    s_src = (zh * w[f"{prefix}.a_src"][None]).sum(axis=2)
    s_dst = (zh * w[f"{prefix}.a_dst"][None]).sum(axis=2)
    scores = s_src[:, None, :] + s_dst[None, :, :]
    scores = np.where(scores >= 0, scores, 0.2 * scores)
    alpha = softmax(np.where(adj[:, :, None], scores, -np.inf), axis=1)
    agg = (alpha[:, :, :, None] * zh[None]).sum(axis=1)  # (n, k, dh)
    out = np.where(agg >= 0, agg, np.expm1(agg)).reshape(n, e.embed_dim)
    if e.norm_kind == "batch" and not train:
        mean = pol.store.buffers[f"{prefix}.norm.mean"]
        var = pol.store.buffers[f"{prefix}.norm.var"]
    else:
        axis = 1 if e.norm_kind == "layer" else 0
        mean = out.mean(axis=axis, keepdims=True)
        var = ((out - mean) ** 2).mean(axis=axis, keepdims=True)
    h_hat = (out - mean) / np.sqrt(var + 1e-5)
    return h_hat * w[f"{prefix}.norm.g"] + w[f"{prefix}.norm.b"]


def reference_pointer_logits(pol, ctx, phys):
    """Clipped compatibilities of a (T, d_c) context stack; scores and
    glimpse over (T, N, m, d)."""
    w = params(pol)
    d_c, m = pol.dec_cfg.context_dim, pol.dec_cfg.heads
    d = d_c // m
    steps, n_phys = ctx.shape[0], phys.shape[0]
    q = (ctx @ w["ptr.W_Q"].T).reshape(steps, 1, m, d)
    keys = (phys @ w["ptr.W_K"].T).reshape(1, n_phys, m, d)
    vals = (phys @ w["ptr.W_V"].T).reshape(1, n_phys, m, d)
    weights = softmax((keys * q).sum(axis=3) / np.sqrt(d), axis=1)
    glimpse = (weights[:, :, :, None] * vals).sum(axis=1).reshape(steps, d_c)
    compat = (glimpse @ w["ptr.W_G"].T) @ (phys @ w["ptr.W_Kf"].T).T
    return pol.dec_cfg.clip * np.tanh(compat / np.sqrt(d_c))


def assert_close(got, ref):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= TOL * max(1.0, np.abs(ref).max())


@st.composite
def graphs(draw):
    """A symmetric adjacency with self-loops and a seed for the inputs."""
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    adj = np.eye(n, dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return adj, draw(st.integers(0, 2**16))


@pytest.mark.parametrize("norm,context,shared", VARIANTS)
class TestKernels:
    @SETTINGS
    @given(case=graphs(), layer=st.integers(0, 1),
           which=st.sampled_from(["prog", "phys"]))
    def test_gat_layer(self, norm, context, shared, case, layer, which):
        adj, seed = case
        n = adj.shape[0]
        pol = make_policy(norm, context, shared)
        prefix = f"{pol._enc_prefix(which)}.l{layer}"
        rng = np.random.default_rng(seed)
        h = 2.0 * rng.standard_normal((n, pol.enc_cfg.embed_dim))
        # the same graph alone, and padded below a larger graph of n + 2
        # nodes on a path
        big = np.eye(n + 2, dtype=bool) | np.eye(n + 2, k=1, dtype=bool)
        big |= big.T
        padded_h = np.zeros((2, n + 2, pol.enc_cfg.embed_dim))
        padded_h[0] = 2.0 * rng.standard_normal(padded_h[0].shape)
        padded_h[1, :n] = h
        padded_adj = np.zeros((2, n + 2, n + 2), dtype=bool)
        padded_adj[:, np.arange(n + 2), np.arange(n + 2)] = True
        padded_adj[0] = big
        padded_adj[1, :n, :n] = adj
        heads = pol.enc_cfg.heads
        for train in (False, True):
            p = pol.store.lookup(train)
            ref = reference_gat_layer(pol, h, adj, prefix, train)
            alone = pol._gat_layer(Tensor(h[None]), _Pairs(adj[None], heads),
                                   prefix, p, train, _Pads([n]))
            assert_close(alone.data[0], ref)
            stacked = pol._gat_layer(Tensor(padded_h),
                                     _Pairs(padded_adj, heads), prefix, p,
                                     train, _Pads([n + 2, n]))
            assert_close(stacked.data[1, :n], ref)
            assert_close(stacked.data[0], reference_gat_layer(
                pol, padded_h[0], big, prefix, train))

    @SETTINGS
    @given(steps=st.integers(1, 9), seed=st.integers(0, 2**16))
    def test_pointer_logits(self, norm, context, shared, steps, seed):
        pol = make_policy(norm, context, shared)
        rng = np.random.default_rng(seed)
        ctx = rng.standard_normal((steps, pol.dec_cfg.context_dim))
        phys = rng.standard_normal((pol.cg.num_physical,
                                    pol.enc_cfg.embed_dim))
        ref = reference_pointer_logits(pol, ctx, phys)
        assert_close(pol.pointer_logits(Tensor(ctx), Tensor(phys)).data, ref)
        one = pol.pointer_logits(Tensor(ctx[0]), Tensor(phys)).data
        assert_close(one, ref[0])


class TestEluOverflow:
    """``np.expm1`` overflows above ~709, where the ELU is its input: no
    RuntimeWarning may escape there (as under ``python -W error``)."""

    def test_gat_layer_with_aggregates_above_709(self):
        pol = make_policy("graph", "concat_project", False)
        prefix = "enc.phys.l0"
        w = pol.store[f"{prefix}.W"].data
        w[...] = np.abs(w)
        n, d_e = 3, pol.enc_cfg.embed_dim
        adj = np.ones((1, n, n), dtype=bool)
        # every projected entry, so every aggregate, is above 709
        h = np.full((1, n, d_e), 1e4)
        assert (h[0] @ w.T).min() > 709
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = pol._gat_layer(Tensor(h), _Pairs(adj, pol.enc_cfg.heads),
                                 prefix, pol.store.lookup(False), False,
                                 _Pads([n]))
        assert np.isfinite(out.data).all()

    def test_diffcore_elu_above_709(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = dc.elu(Tensor(np.array([-800.0, 0.0, 800.0, 1e300])))
        assert np.array_equal(out.data, [np.expm1(-800.0), 0.0, 800.0, 1e300])
