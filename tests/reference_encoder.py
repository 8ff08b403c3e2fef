"""A frozen copy of ``PolicyNetwork._gat_layer`` and ``PolicyNetwork._norm``
as they were before a GAT layer and its norm became one tape node (commit
b061cb3), kept as the oracle of the fused layer's bit-identity test.

Each step is its own ``diffcore`` op, so ``Tape.run`` accumulates the
gradients of the shared intermediates in the order the fused backward
replays. Do not edit it to follow the policy: its value is that it does
not change. It reads the policy's own parameters and buffers, so batch
norm moves the same running statistics.
"""

from __future__ import annotations

import numpy as np

from qlayout import diffcore as dc
from qlayout.diffcore import Tensor

_NORM_EPS = 1e-5
_BN_MOMENTUM = 0.1


def norm(pol, h, prefix, p, train, pads):
    """Normalise a (B, M, d_e) stack. Graph norm, and batch norm in
    training, take each graph's statistics over its real rows; batch
    norm then moves its running statistics once per graph, in stack
    order."""
    kind = pol.enc_cfg.norm_kind
    g = p(f"{prefix}.g")
    b = p(f"{prefix}.b")
    if kind == "batch" and not train:
        m = Tensor(pol.store.buffers[f"{prefix}.mean"].reshape(1, -1))
        var = Tensor(pol.store.buffers[f"{prefix}.var"].reshape(1, -1))
        centered = h - m
    elif kind == "layer":
        m = h.mean(axis=2, keepdims=True)
        centered = h - m
        var = dc.tmean(dc.mul(centered, centered), axis=2, keepdims=True)
    else:
        inv_n = Tensor(pads.inv_sizes)
        m = dc.mul(dc.tsum(dc.mul(h, pads.real), axis=1, keepdims=True),
                   inv_n)
        centered = dc.mul(h - m, pads.real)
        var = dc.mul(dc.tsum(dc.mul(centered, centered), axis=1,
                             keepdims=True), inv_n)
        if kind == "batch":
            rm = pol.store.buffers[f"{prefix}.mean"]
            rv = pol.store.buffers[f"{prefix}.var"]
            for mean, variance in zip(m.data[:, 0], var.data[:, 0]):
                rm += _BN_MOMENTUM * (mean - rm)
                rv += _BN_MOMENTUM * (variance - rv)
    h_hat = dc.mul(centered, dc.powi(var + _NORM_EPS, -0.5))
    return h_hat * g.reshape(1, -1) + b.reshape(1, -1)


def gat_layer(pol, h, adj, prefix, p, train, pads):
    """One multi-head GAT layer on a (B, M, d_e) stack as per-head
    batched matmuls: head h's (M, M) attention weights times its
    (M, dh) slice of the values, for every graph of the stack."""
    e = pol.enc_cfg
    n_graphs, m_rows = h.shape[:2]
    k, dh = e.heads, e.embed_dim // e.heads
    z = dc.matmul(h.reshape(n_graphs * m_rows, e.embed_dim),
                  p(f"{prefix}.W").T)
    zh = dc.transpose(z.reshape(n_graphs, m_rows, k, dh),
                      (0, 2, 1, 3))  # (B, k, M, dh)
    s_src = dc.matmul(zh, p(f"{prefix}.a_src").reshape(k, dh, 1))
    s_dst = dc.matmul(zh, p(f"{prefix}.a_dst").reshape(k, dh, 1))
    scores = dc.leaky_relu(
        s_src + s_dst.reshape(n_graphs, k, 1, m_rows), 0.2)
    scores = dc.masked_fill(scores, ~adj[:, None], -np.inf)
    alpha = dc.softmax(scores, axis=-1)  # (B, k, M, M)
    agg = dc.transpose(dc.matmul(alpha, zh), (0, 2, 1, 3))  # (B, M, k, dh)
    out = dc.elu(agg).reshape(n_graphs, m_rows, e.embed_dim)
    return norm(pol, out, f"{prefix}.norm", p, train, pads)
