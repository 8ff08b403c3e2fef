import numpy as np
import pytest

from qlayout.policy import DecoderConfig, EncoderConfig, PolicyNetwork, _stack
from qlayout.topology import build_grid


def tiny_policy(cg=None, n_max=4, norm="graph", context="concat_project",
                seed=0, layers=2, heads=2, d=8, m_heads=2, shared=False):
    cg = cg or build_grid(2, 2)
    enc = EncoderConfig(layers=layers, heads=heads, embed_dim=d,
                        norm_kind=norm)
    dec = DecoderConfig(heads=m_heads, context_dim=d, context_kind=context)
    return PolicyNetwork(cg, enc, dec, prog_feature_dim=n_max,
                         shared_encoder=shared, seed=seed)


def program_rows(pol, pg, train):
    """A program graph's (n, d_e) rows, encoded on its own as a stack of
    one, with the running statistics moved once for it as ``encode`` moves
    them for each graph."""
    return pol._encode_stack(
        _stack([pg.node_features], [pg.gate_pairs], pol.enc_cfg.heads),
        "prog", train)


def device_rows(pol, train):
    """The device rows ``encode`` reads: encoded on the tape, with the
    running statistics moved, in training; the memoised constant in
    eval."""
    return pol._encode_device(True) if train else pol._device_embedding()


def rel_err(a, b, floor=1e-7):
    return abs(a - b) / max(floor, abs(a), abs(b))


def fd_gradient(f, x, eps=1e-5):
    """Central finite differences of scalar f over flat array x (in place)."""
    g = np.zeros_like(x)
    for i in range(x.size):
        old = x.flat[i]
        x.flat[i] = old + eps
        fp = f()
        x.flat[i] = old - eps
        fm = f()
        x.flat[i] = old
        g.flat[i] = (fp - fm) / (2 * eps)
    return g


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
