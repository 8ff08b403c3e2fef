"""Encoder-decoder policy: GAT encoders, context encoder, clipped pointer
attention, and the masked action distribution.

Both graphs go through separate input projections followed by multi-head
GAT layers (optionally shared between the two encoders). The decoder
builds a fixed-size context query from the current/placed program-node
embeddings and scores every physical node with a multi-head glimpse
feeding a single clipped compatibility head.

The encoder has one code path: a zero-padded (B, M, d_e) stack of graphs,
M the largest node count. A pad row attends only to itself, graph and
batch norm take each graph's statistics over its real rows, and the real
rows are gathered at the end, so a graph's rows do not depend on the
graphs stacked with it. ``encode`` of a list of program graphs is one
such stack; one program graph or the device graph is a stack of one. In
training, batch norm moves its running statistics as it computes each
graph's statistics, once per graph in stack order, so ``encode`` moves
them for every program graph and then for the device. A GAT layer and its
norm are one tape node, a ``diffcore.fused`` op whose hand-written
backward gives bit for bit the gradients of the composed ops. So are the
decoder's context queries (``_contexts``) and its pointer pass
(``pointer_logits``), each one node for any number of steps.

The logits never depend on the seats already taken: a context reads only
program embeddings along the placement order, and the glimpse attends over
every physical node unmasked. So the whole (n, N) logit table of an
episode is computed in one batched pass, and the taken seats enter only
through the mask of ``masked_distribution``. ``stacked_logit_table`` is
that pass for episodes that share a device embedding and place their
nodes in row order; ``make_context`` of one step, in any order, and
``pointer_logits`` of one context are its one-row views. Parameters join
the autodiff tape only when the inputs are on it, so eval builds no tape.

The device is one instance for every circuit, so in eval its work is done
once (``_DeviceMemo``): the device embedding, and the pointer's key, value
and final-key projections of its rows, each reused while the arrays it was
computed from hold the same bytes.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import diffcore as dc
from .circuit import ProgramGraph, build_program_graph, check_qubit_count
from .diffcore import Tensor
from .errors import (
    CheckpointError,
    ConfigError,
    InfeasibleStateError,
    ShapeError,
    check_flag,
    check_integer,
    check_positive_float,
    read_input,
    shown,
)
from .topology import MAX_QUBITS, CouplingGraph, coupling_graph_from_dict

NORM_KINDS = ("layer", "batch", "graph")
CONTEXT_KINDS = ("project_concat", "concat_project", "stack_project")
CHECKPOINT_VERSION = 2

_NORM_EPS = 1e-5
_BN_MOMENTUM = 0.1
# bounds on model sizes, checked before any allocation, far above any in use
MAX_LAYERS = 64
MAX_WIDTH = 4096  # heads, embed_dim and context_dim


@dataclass
class EncoderConfig:
    layers: int = 4
    heads: int = 8
    embed_dim: int = 128
    norm_kind: str = "batch"

    def __post_init__(self):
        for name in ("layers", "heads", "embed_dim"):
            check_integer(f"encoder {name}", getattr(self, name), 1,
                          MAX_LAYERS if name == "layers" else MAX_WIDTH)
        if self.embed_dim % self.heads:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}"
            )
        if self.norm_kind not in NORM_KINDS:
            raise ConfigError(f"unknown norm kind '{self.norm_kind}'")


@dataclass
class DecoderConfig:
    heads: int = 16
    context_kind: str = "concat_project"
    clip: float = 10.0
    context_dim: int = 128

    def __post_init__(self):
        for name in ("heads", "context_dim"):
            check_integer(f"decoder {name}", getattr(self, name), 1,
                          MAX_WIDTH)
        check_positive_float("clip", self.clip)
        if self.context_kind not in CONTEXT_KINDS:
            raise ConfigError(f"unknown context kind '{self.context_kind}'")
        if self.context_dim % self.heads:
            raise ConfigError(
                f"context_dim {self.context_dim} not divisible by heads {self.heads}"
            )
        if self.context_kind == "project_concat" and self.context_dim % 2:
            raise ConfigError("project_concat needs an even context_dim")


@dataclass
class NodeEmbeddings:
    program: Tensor  # n x d_e, or sum of n x d_e for a list of graphs
    physical: Tensor  # N x d_e


class _Pads:
    """The padding of a (B, M, .) stack of graphs with ``sizes`` nodes."""

    def __init__(self, sizes):
        self.sizes = sizes
        self.inv_sizes = 1.0 / np.array(sizes, dtype=float).reshape(-1, 1, 1)
        rows = np.arange(max(sizes)) < np.array(sizes).reshape(-1, 1)
        self.real = rows[..., None].astype(float)  # (B, M, 1) 1 real, 0 pad


def _adjacency(pairs, m_rows):
    """The (B, M, M) adjacency of a stack of graphs whose edges are the
    (2, m) node-pair arrays ``pairs``: every row, pads too, attends to
    itself and to its undirected partners."""
    adj = np.zeros((len(pairs), m_rows, m_rows), dtype=bool)
    adj[:, np.arange(m_rows), np.arange(m_rows)] = True
    graph = np.repeat(np.arange(len(pairs)), [e.shape[1] for e in pairs])
    i, j = np.concatenate(pairs, axis=1)
    adj[graph, i, j] = adj[graph, j, i] = True
    return adj


class _Pairs:
    """The attended entries of the (B, heads, M, M) attention scores of a
    stack with adjacency ``adj``, in row order: ``flat`` indexes the
    scores, and ``row`` and ``col`` the (B, heads, M) source and
    destination scores of each entry. In a stack's adjacency every row
    holds its self-loop, so no row is empty."""

    def __init__(self, adj, heads):
        n_graphs, m_rows = adj.shape[:2]
        self.shape = (n_graphs, heads, m_rows, m_rows)
        self.flat = np.flatnonzero(np.repeat(adj, heads, axis=0))
        self.row = self.flat // m_rows
        # entry j of row r = g * M + i sits at r * M + j, and its
        # destination score at g * M + j = r * M + j - (r * (M - 1) + i)
        rows = np.arange(n_graphs * heads * m_rows)
        self.col = self.flat - (rows * (m_rows - 1) + rows % m_rows)[self.row]


class _DeviceMemo:
    """The eval-mode device embedding ``physical`` and, once a pointer pass
    has read it, the pointer's projections of its rows. Each is kept with
    the bytes of the arrays it was computed from, ``sources`` (the arrays
    the device encoding reads) and ``weights`` (``ptr.W_K``, ``ptr.W_V``
    and ``ptr.W_Kf``), and is reused only while those arrays hold exactly
    these bytes. Bytes, unlike values, tell +0.0 from -0.0. The embedding
    and the projections are read-only."""

    def __init__(self, sources, physical):
        self.sources = sources
        self.physical = physical
        self.weights = None
        self.projections = None


class ParamStore:
    """Named trainable tensors plus non-trainable buffers."""

    def __init__(self):
        self.params = {}
        self.buffers = {}

    def __getitem__(self, name):
        return self.params[name]

    def lookup(self, on_tape):
        """Name -> tensor: the trainable leaves, or constants that put
        nothing on the tape."""
        if on_tape:
            return self.params.__getitem__
        return lambda name: Tensor(self.params[name].data)

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def grads(self):
        return {
            k: t.grad for k, t in self.params.items() if t.grad is not None
        }

    def data(self):
        return {k: t.data for k, t in self.params.items()}


class _Array(NamedTuple):
    """One parameter or norm buffer. ``init`` is the fan-in of a uniform
    draw in +-1/sqrt(fan-in), or "ones" or "zeros"; ``section`` is "params"
    or "buffers", as in ``ParamStore`` and the checkpoint, and ``device``
    marks what the device embedding reads. ``sizes`` names the checkpoint
    header's keys that set the shape, ``d_e`` alone unless stated."""
    name: str
    shape: tuple
    init: object
    section: str = "params"
    device: bool = False
    sizes: tuple = ("d_e",)

    def initial(self, rng):
        if isinstance(self.init, str):  # np.ones or np.zeros
            return getattr(np, self.init)(self.shape)
        bound = 1.0 / np.sqrt(self.init)
        return rng.uniform(-bound, bound, size=self.shape)


class PolicyNetwork:
    def __init__(self, cg: CouplingGraph, enc_cfg: EncoderConfig,
                 dec_cfg: DecoderConfig, prog_feature_dim: int,
                 shared_encoder: bool = False, seed: int = 0):
        self._configure(cg, enc_cfg, dec_cfg, prog_feature_dim,
                        shared_encoder, seed)
        rng = np.random.default_rng(seed)
        self._fill(lambda a: a.initial(rng))

    # --- construction ----------------------------------------------

    def _configure(self, cg, enc_cfg, dec_cfg, prog_feature_dim,
                   shared_encoder, seed):
        """Everything but the arrays, which ``_fill`` then adds."""
        check_integer("n_max", prog_feature_dim, 1, MAX_QUBITS)
        self.cg = cg
        self.enc_cfg = enc_cfg
        self.dec_cfg = dec_cfg
        self.prog_feature_dim = prog_feature_dim
        self.shared_encoder = shared_encoder
        self.seed = seed
        self.store = ParamStore()
        self._arrays = self._declared()
        self._cg_pairs = np.array(cg.edge_list, dtype=np.int64).reshape(-1, 2).T
        self._phys_feats = np.eye(cg.num_physical)
        self._device_memo = None  # a _DeviceMemo once eval encodes

    def _fill(self, array_of):
        """Store ``array_of(a)`` for every declared array ``a``, in order."""
        for a in self._arrays:
            arr = array_of(a)
            if a.section == "params":
                arr = Tensor(arr, requires_grad=True)
            getattr(self.store, a.section)[a.name] = arr

    def _enc_prefix(self, which):
        return "enc.shared" if self.shared_encoder else f"enc.{which}"

    def _declared(self):
        """Every parameter and norm buffer, in the order the constructor
        draws them."""
        e, kind = self.enc_cfg, self.dec_cfg.context_kind
        d_e, d_c = e.embed_dim, self.dec_cfg.context_dim
        dh = d_e // e.heads
        if kind == "stack_project" and d_c != d_e:
            raise ConfigError(
                "stack_project requires context_dim == embed_dim")
        n_max, n_phys = self.prog_feature_dim, self.cg.num_physical
        arrays = [_Array("in.prog.W", (d_e, n_max), n_max,
                         sizes=("d_e", "n_max")),
                  _Array("in.phys.W", (d_e, n_phys), n_phys, device=True,
                         sizes=("d_e", "N"))]
        stats = ((("mean", "zeros"), ("var", "ones"))
                 if e.norm_kind == "batch" else ())
        for which in ("shared",) if self.shared_encoder else ("prog", "phys"):
            dev = which != "prog"
            for p in (f"enc.{which}.l{layer}" for layer in range(e.layers)):
                arrays += [_Array(f"{p}.W", (d_e, d_e), d_e, device=dev),
                           *(_Array(f"{p}.{a}", (e.heads, dh), dh, device=dev,
                                    sizes=("heads", "d_e"))
                             for a in ("a_src", "a_dst")),
                           _Array(f"{p}.norm.g", (d_e,), "ones", device=dev),
                           _Array(f"{p}.norm.b", (d_e,), "zeros", device=dev)]
                arrays += [_Array(f"{p}.norm.{stat}", (d_e,), init, "buffers",
                                  dev) for stat, init in stats]
        # the current and the previous node, projected then concatenated,
        # concatenated then projected, or (stack_project) the current alone
        ctx_in = 2 * d_e if kind == "concat_project" else d_e
        arrays.append(_Array(
            "ctx.W", (d_c // 2 if kind == "project_concat" else d_c, ctx_in),
            ctx_in, sizes=("d_c", "d_e")))
        if kind != "stack_project":
            arrays.append(_Array("ctx.start", (d_e,), d_e))
        by_c, by_e = (d_c, ("d_c",)), (d_e, ("d_c", "d_e"))
        return arrays + [
            _Array(f"ptr.W_{name}", (d_c, fan_in), fan_in, sizes=sizes)
            for name, (fan_in, sizes) in (("Q", by_c), ("K", by_e),
                                          ("V", by_e), ("G", by_c),
                                          ("Kf", by_e))]

    def program_graph(self, circ) -> ProgramGraph:
        """The program graph this policy reads for ``circ``; a circuit wider
        than the device or the feature width n_max is rejected before
        anything n x n is built."""
        check_qubit_count(circ.num_qubits, self.cg.num_physical,
                          "the device's N")
        check_qubit_count(circ.num_qubits, self.prog_feature_dim,
                          "the checkpoint's n_max")
        return build_program_graph(circ, n_max=self.prog_feature_dim)

    def check_device(self, cg: CouplingGraph):
        """Raise ConfigError unless ``cg`` has this policy's qubits and
        couplings, the two things ``topology_hash`` digests."""
        if cg is not self.cg and (cg.num_physical != self.cg.num_physical
                                  or cg.edges != self.cg.edges):
            raise ConfigError(
                f"the policy was built for the {self.cg.num_physical}-qubit "
                f"device '{self.cg.name}', not for '{cg.name}' "
                f"({cg.num_physical} qubits)")

    # --- encoder ----------------------------------------------------

    def _gat_layer(self, h, attended, prefix, p, train, pads):
        """One GAT layer (per-head batched matmuls) and its norm on a
        (B, M, d_e) stack, as one tape node over ``h`` and the layer's W,
        a_src, a_dst, norm.g and norm.b. The scores, their LeakyReLU and
        softmax, and the softmax's gradient are formed only at the
        ``attended`` pairs (``_Pairs``); the weights of every other entry
        are zero. Graph norm, and batch norm in training, take each
        graph's statistics over its real rows; batch norm then moves its
        running statistics once per graph, in order. Forward and backward
        replay the composed ``diffcore`` ops of a masked dense layer and
        the order of ``Tape.run``'s sums into shared intermediates, bit
        for bit."""
        inputs = [h] + [p(f"{prefix}.{name}") for name in
                        ("W", "a_src", "a_dst", "norm.g", "norm.b")]
        x, w, a_src, a_dst, g, b = (t.data for t in inputs)
        n_graphs, m_rows, d_e = x.shape
        k, dh = self.enc_cfg.heads, d_e // self.enc_cfg.heads
        rows = x.reshape(n_graphs * m_rows, d_e)
        zh = (rows @ w.T).reshape(n_graphs, m_rows, k, dh).transpose(
            0, 2, 1, 3)  # (B, k, M, dh)
        src, dst = a_src.reshape(k, dh, 1), a_dst.reshape(k, dh, 1)
        # score (i, j) is src score i plus dst score j; LeakyReLU(0.2) as
        # a maximum, branch-free and equal to leaky_relu
        s = ((zh @ src).reshape(-1)[attended.row]
             + (zh @ dst).reshape(-1)[attended.col])
        weight = 0.2 * s
        np.maximum(s, weight, out=weight)
        # the softmax of each row over its pairs: a maximum is exact in any
        # order, and the sums are numpy's over the dense rows, zeros and
        # all, so each weight rounds as in a masked dense softmax
        top = np.full(attended.shape[:3], -np.inf).reshape(-1)
        np.maximum.at(top, attended.row, weight)
        weight -= top[attended.row]
        np.exp(weight, out=weight)
        alpha = np.zeros(attended.shape)
        flat_alpha = alpha.reshape(-1)
        flat_alpha[attended.flat] = weight
        weight /= alpha.sum(axis=-1).reshape(-1)[attended.row]
        flat_alpha[attended.flat] = weight
        agg = (alpha @ zh).transpose(0, 2, 1, 3)  # (B, M, k, dh)
        positive = agg >= 0
        # expm1 overflows above ~709, where the ELU is the aggregate itself
        with np.errstate(over="ignore"):
            act = np.where(positive, agg, np.expm1(agg))
        out = act.reshape(n_graphs, m_rows, d_e)
        # statistics along ``axis``; ``real`` zeroes pad rows, and is 1.0
        # under layer norm, whose statistics are per row (an exact product)
        kind = self.enc_cfg.norm_kind
        stats = kind != "batch" or train
        rm, rv = (self.store.buffers.get(f"{prefix}.norm.{stat}")
                  for stat in ("mean", "var"))
        axis, inv_n, real = ((2, 1.0 / d_e, 1.0) if kind == "layer"
                             else (1, pads.inv_sizes, pads.real))
        if stats:
            mean = (out * real).sum(axis=axis, keepdims=True) * inv_n
            centered = (out - mean) * real
            var = (centered * centered).sum(axis=axis, keepdims=True) * inv_n
        else:
            mean, var = rm.reshape(1, -1), rv.reshape(1, -1)
            centered = out - mean
        if kind == "batch" and train:
            for graph_mean, graph_var in zip(mean[:, 0], var[:, 0]):
                rm += _BN_MOMENTUM * (graph_mean - rm)
                rv += _BN_MOMENTUM * (graph_var - rv)
        shifted = var + _NORM_EPS
        scale = np.power(shifted, -0.5)
        h_hat = centered * scale
        gain, bias = g.reshape(1, -1), b.reshape(1, -1)

        def backward(grad):
            d_hat = grad * gain
            d_out = d_hat * scale
            if stats:
                d_scale = dc._unbroadcast(d_hat * centered, scale.shape)
                d_sq = d_scale * -0.5 * np.power(shifted, -1.5) * inv_n
                # centered * centered adds its two vjps one after the other
                twice = d_sq * centered
                d_out = (d_out + twice + twice) * real
                d_mean = dc._unbroadcast(-d_out, mean.shape) * inv_n
                d_out = d_out + d_mean * real
            d_agg = np.transpose(d_out.reshape(act.shape) * np.where(
                positive, 1.0, act + 1.0), (0, 2, 1, 3))
            # softmax's vjp alpha * (d_s - dot) times leaky_relu's slope,
            # 1.0 or 0.2 (0.8 + 0.2 rounds to 1.0), at the pairs, in zeros
            d_s = d_agg @ np.swapaxes(zh, -1, -2)
            flat_d_s = d_s.reshape(-1)
            d_pair = flat_d_s[attended.flat]
            d_pair -= np.multiply(d_s, alpha, out=d_s).sum(
                axis=-1).reshape(-1)[attended.row]
            d_pair *= weight
            d_pair *= np.where(s >= 0, 1.0, 0.2)
            d_s.fill(0.0)
            flat_d_s[attended.flat] = d_pair
            d_src = dc._unbroadcast(d_s, (n_graphs, k, m_rows, 1))
            d_dst = dc._unbroadcast(d_s, (n_graphs, k, 1, m_rows)).reshape(
                n_graphs, k, m_rows, 1)
            d_zh = (np.swapaxes(alpha, -1, -2) @ d_agg
                    + d_src @ np.swapaxes(src, -1, -2)
                    + d_dst @ np.swapaxes(dst, -1, -2))
            zt = np.swapaxes(zh, -1, -2)
            d_z = np.transpose(d_zh, (0, 2, 1, 3)).reshape(rows.shape)
            return ((d_z @ w).reshape(x.shape), (rows.T @ d_z).T,
                    dc._unbroadcast(zt @ d_src, src.shape).reshape(k, dh),
                    dc._unbroadcast(zt @ d_dst, dst.shape).reshape(k, dh),
                    dc._unbroadcast(grad * h_hat, gain.shape).reshape(g.shape),
                    dc._unbroadcast(grad, bias.shape).reshape(b.shape))

        return dc.fused(h_hat * gain + bias, inputs, backward)

    def _encode_stack(self, feats, pairs, which, train):
        """Encode graphs as one zero-padded (B, M, .) stack, M the largest
        node count, each graph's edges a (2, m) array of node pairs as in
        ``ProgramGraph.gate_pairs``; returns the (sum of n, d_e) real rows
        in graph order.

        A pad row attends only to itself and never enters a real row or a
        graph's statistics, so each graph's rows are its own encoding.
        """
        p = self.store.lookup(train)
        w_in = p(f"in.{which}.W")
        for f in feats:
            if f.shape[1] != w_in.shape[1]:
                raise ShapeError(
                    "feature dimension does not match the input projection",
                    f.shape, w_in.shape,
                )
        pads = _Pads([len(f) for f in feats])
        n_graphs, m_rows = len(feats), max(pads.sizes)
        x = np.zeros((n_graphs, m_rows, w_in.shape[1]))
        for i, f in enumerate(feats):
            x[i, :len(f)] = f
        attended = _Pairs(_adjacency(pairs, m_rows), self.enc_cfg.heads)
        h = dc.matmul(Tensor(x.reshape(n_graphs * m_rows, -1)), w_in.T)
        h = h.reshape(n_graphs, m_rows, -1)
        prefix = self._enc_prefix(which)
        for layer in range(self.enc_cfg.layers):
            h = self._gat_layer(h, attended, f"{prefix}.l{layer}", p, train,
                                pads)
        return dc.gather(h.reshape(n_graphs * m_rows, -1),
                         np.flatnonzero(pads.real))

    def _encode_device(self, train):
        return self._encode_stack([self._phys_feats], [self._cg_pairs],
                                  "phys", train)

    def _device_embedding(self):
        """Eval-mode embedding of the device graph, memoised by bytes.

        The memo is reused only while every array it was computed from
        holds the bytes it held then, so in-place edits (Adam, finite
        differences) and running-stat updates invalidate it.
        """
        store = self.store
        sources = [(store.params[a.name].data if a.section == "params"
                    else store.buffers[a.name]).tobytes()
                   for a in self._arrays if a.device]
        memo = self._device_memo
        if memo is not None and memo.sources == sources:
            return memo.physical
        physical = self._encode_device(False)
        physical.data.flags.writeable = False
        self._device_memo = _DeviceMemo(sources, physical)
        return physical

    def encode(self, graphs, train=False) -> NodeEmbeddings:
        """Both embeddings of a program graph, or of a list of program
        graphs encoded as one padded stack; then ``program`` holds every
        graph's (n, d_e) rows, graph after graph. The device rows are on
        the tape in training and the memoised constant in eval.

        Under batch norm, training moves the running statistics once per
        program graph in list order, then once for the device (with a
        shared encoder all of them update one buffer set).
        """
        batch = graphs if isinstance(graphs, list) else [graphs]
        program = self._encode_stack([pg.node_features for pg in batch],
                                     [pg.gate_pairs for pg in batch],
                                     "prog", train)
        physical = (self._encode_device(True) if train
                    else self._device_embedding())
        return NodeEmbeddings(program, physical)

    # --- decoder ----------------------------------------------------

    def make_context(self, emb: NodeEmbeddings, t, order) -> Tensor:
        """Context query of step ``t``, shape (d_c,), of an episode placing
        the nodes ``order``: the one-step view of ``stacked_logit_table``
        over the rows ``order[:t + 1]``, never the seats already chosen."""
        rows = dc.gather(emb.program,
                         np.asarray(order[: t + 1], dtype=np.intp))
        return dc.gather(self._contexts(rows, [0]), t)

    def stacked_logit_table(self, program, physical, sizes) -> Tensor:
        """The logit tables of episodes that share one device embedding,
        stacked into one (sum of sizes, N) table. ``program`` stacks the
        episodes' rows as ``encode`` of a list returns them; episode e
        places its ``sizes[e]`` rows in order, so table row r places
        program row r. One pointer pass serves every step."""
        starts = np.cumsum([0, *sizes[:-1]])
        return self.pointer_logits(self._contexts(program, starts), physical)

    def _contexts(self, program, starts):
        """The (T, d_c) context queries of the steps that place the T rows
        of ``program`` in order; an episode begins at each row in
        ``starts``, which holds 0. One tape node over ``program``,
        ``ctx.W`` and (but for stack_project) ``ctx.start``, whose backward
        gives bit for bit the gradients of the composed ops it replaced."""
        kind = self.dec_cfg.context_kind
        p = self.store.lookup(program.requires_grad)
        inputs = [program, p("ctx.W")]
        x, w = program.data, inputs[1].data  # (T, d_e), (., ctx_in)
        first = np.zeros(len(x), dtype=bool)
        first[starts] = True
        if kind == "stack_project":
            # row t averages the projections of its episode's steps up to t
            episode = np.cumsum(first)
            prefix_mean = np.tril(episode[:, None] == episode).astype(float)
            prefix_mean /= prefix_mean.sum(axis=1, keepdims=True)
            projected = x @ w.T

            def backward(g):
                d_proj = prefix_mean.T @ g
                return d_proj @ w, (x.T @ d_proj).T

            return dc.fused(prefix_mean @ projected, inputs, backward)
        # an episode's first step reads the start token, later steps the
        # row before them
        inputs.append(p("ctx.start"))
        start = inputs[2].data
        later = np.flatnonzero(~first)
        previous = np.empty(x.shape)
        previous[first] = start
        previous[later] = x[later - 1]
        if kind == "project_concat":
            half = w.shape[0]
            out = np.concatenate([x @ w.T, previous @ w.T], axis=1)
        else:
            joined = np.concatenate([x, previous], axis=1)
            out = joined @ w.T

        def backward(g):
            if kind == "project_concat":
                d_cur, d_prev = g[:, :half] @ w, g[:, half:] @ w
                d_w = (x.T @ g[:, :half]).T + (previous.T @ g[:, half:]).T
            else:
                d_joined = g @ w
                d_cur, d_prev = np.hsplit(d_joined, 2)
                d_w = (joined.T @ g).T
            # the gather of previous rows scattered into zeros, 0.0 + g, and
            # summed the start token's rows one after another
            d_x = np.zeros(x.shape)
            d_x[later - 1] += d_prev[later]
            return (d_cur + d_x, d_w,
                    0.0 + np.cumsum(d_prev[first], axis=0)[-1])

        return dc.fused(out, inputs, backward)

    def pointer_logits(self, context: Tensor, physical: Tensor) -> Tensor:
        """Clipped compatibility of every physical node: shape (N,) for one
        context (d_c,), (T, N) for a (T, d_c) stack of contexts. The key,
        value and final-key projections of the device rows are computed
        once per call, or once per device (``_projections``). One
        tape node over the contexts, the device rows and the five
        ``ptr.W_*``, whose backward gives bit for bit the gradients of the
        composed ops it replaced."""
        d_c = self.dec_cfg.context_dim
        m = self.dec_cfg.heads
        d = d_c // m
        clip = self.dec_cfg.clip
        p = self.store.lookup(context.requires_grad or physical.requires_grad)
        inputs = [context, physical] + [p(f"ptr.W_{name}") for name in
                                        ("Q", "K", "V", "G", "Kf")]
        c, x, w_q, w_k, w_v, w_g, w_kf = (t.data for t in inputs)
        one_step = c.ndim == 1
        ctx = c.reshape(1, d_c) if one_step else c
        steps, n_phys = len(ctx), len(x)

        # per-head (m, T, d) queries, (m, d, N) keys and (m, N, d) values
        q = (ctx @ w_q.T) * (1.0 / np.sqrt(d))
        qh = q.reshape(steps, m, d).transpose(1, 0, 2)
        keys, vals, keys_final = self._projections(physical, w_k, w_v, w_kf)
        scores = qh @ keys
        weights = dc.softmax_array(scores, -1, out=scores)  # (m, T, N)
        # Each step's glimpse is its own (1, N) @ (N, d) product (steps are
        # a batch axis), so its rounding does not depend on how many steps
        # share the pass. Under graph or batch norm the values of a head can
        # average to exactly zero, and then the logits are rounding alone:
        # the one-step view must round them as the table does.
        w4 = weights.reshape(m, steps, 1, n_phys)
        v4 = vals.reshape(m, 1, n_phys, d)
        glimpse = (w4 @ v4).transpose(1, 0, 2, 3).reshape(steps, d_c)
        q_final = glimpse @ w_g.T  # (T, d_c)
        squashed = np.tanh((q_final @ keys_final.T) * (1.0 / np.sqrt(d_c)))
        logits = squashed * clip

        def backward(g):
            g = g.reshape(steps, n_phys)
            d_compat = ((g * clip) * (1.0 - squashed * squashed)
                        * (1.0 / np.sqrt(d_c)))
            d_qf = d_compat @ keys_final
            d_kf = (q_final.T @ d_compat).T
            d_glimpse = (d_qf @ w_g).reshape(steps, m, 1, d).transpose(
                1, 0, 2, 3)
            d_w = (d_glimpse @ np.swapaxes(v4, -1, -2)).reshape(
                m, steps, n_phys)
            d_vals = dc._unbroadcast(np.swapaxes(w4, -1, -2) @ d_glimpse,
                                     v4.shape)
            d_s = d_w - (d_w * weights).sum(axis=-1, keepdims=True)
            d_s *= weights
            d_q = (d_s @ np.swapaxes(keys, -1, -2)).transpose(1, 0, 2)
            d_keys = np.swapaxes(qh, -1, -2) @ d_s
            d_q = d_q.reshape(steps, d_c) * (1.0 / np.sqrt(d))
            d_k = d_keys.transpose(2, 0, 1).reshape(n_phys, d_c)
            d_v = d_vals.reshape(m, n_phys, d).transpose(1, 0, 2).reshape(
                n_phys, d_c)
            # Tape.run summed the device rows' three gradients in this order
            d_x = d_k @ w_k + d_v @ w_v + d_kf @ w_kf
            return ((d_q @ w_q).reshape(c.shape), d_x, (ctx.T @ d_q).T,
                    (x.T @ d_k).T, (x.T @ d_v).T, (glimpse.T @ d_qf).T,
                    (x.T @ d_kf).T)

        return dc.fused(logits.reshape(n_phys) if one_step else logits,
                        inputs, backward)

    def _projections(self, physical, w_k, w_v, w_kf):
        """The pointer's per-head (m, d, N) keys and (m, N, d) values and
        its (N, d_c) final keys of the device rows ``physical``. For the
        memoised eval embedding they are kept in the memo, and reused while
        the three weights hold the same bytes."""
        x = physical.data
        m = self.dec_cfg.heads
        n_phys, d = len(x), self.dec_cfg.context_dim // m
        memo = self._device_memo
        cached = memo is not None and physical is memo.physical
        if cached:
            weights = [w.tobytes() for w in (w_k, w_v, w_kf)]
            if memo.weights == weights:
                return memo.projections
        projections = ((x @ w_k.T).reshape(n_phys, m, d).transpose(1, 2, 0),
                       (x @ w_v.T).reshape(n_phys, m, d).transpose(1, 0, 2),
                       x @ w_kf.T)
        if cached:
            for arr in projections:
                arr.flags.writeable = False
            memo.weights, memo.projections = weights, projections
        return projections

    @staticmethod
    def masked_distribution(logits: Tensor, feasible) -> Tensor:
        """Softmax over the last axis with zero mass on infeasible seats:
        one step (N,), or a stack of rows (T, N) with a mask per row."""
        feasible = np.asarray(feasible, dtype=bool)
        if not feasible.any(axis=-1).all():
            raise InfeasibleStateError("no feasible action remains")
        return dc.softmax(dc.masked_fill(logits, ~feasible, -np.inf), axis=-1)

    # --- checkpointing ----------------------------------------------

    def config_header(self):
        return {
            "version": CHECKPOINT_VERSION,
            "d_e": self.enc_cfg.embed_dim,
            "d_c": self.dec_cfg.context_dim,
            "layers": self.enc_cfg.layers,
            "heads": self.enc_cfg.heads,
            "m_heads": self.dec_cfg.heads,
            "norm_kind": self.enc_cfg.norm_kind,
            "context_kind": self.dec_cfg.context_kind,
            "clip": self.dec_cfg.clip,
            "n_max": self.prog_feature_dim,
            "N": self.cg.num_physical,
            "shared_encoder": self.shared_encoder,
            "seed": self.seed,
            "topology_hash": self.cg.topology_hash(),
        }

    def save(self, path):
        """Write a version-2 checkpoint: every parameter and norm buffer as
        its shape and the base64 of its little-endian float64 bytes."""
        doc = {
            "header": self.config_header(),
            "device": self.cg.to_dict(),
            "params": {k: _encoded(t.data)
                       for k, t in self.store.params.items()},
            "buffers": {k: _encoded(v) for k, v in self.store.buffers.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

    @classmethod
    def load(cls, path):
        """Restore a saved policy; any checkpoint that does not describe
        exactly the network its header builds raises ``CheckpointError``.
        Version-1 checkpoints, whose arrays are lists of values, load too."""
        doc = read_input(path, CheckpointError,
                         f"cannot read checkpoint {path}", json.load)
        try:
            return cls._from_doc(doc)
        except KeyError as exc:
            raise CheckpointError(f"checkpoint lacks the key {exc}")
        except (AttributeError, ConfigError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint: {exc}")

    @classmethod
    def _from_doc(cls, doc):
        if not isinstance(doc, dict):
            raise CheckpointError("the checkpoint is not a JSON object")
        for section in ("header", "params", "buffers"):
            if not isinstance(doc[section], dict):
                raise CheckpointError(
                    f"checkpoint section '{section}' is not a JSON object")
        h = doc["header"]
        version = h["version"]
        if version not in (1, CHECKPOINT_VERSION):
            raise CheckpointError(
                f"unsupported checkpoint version {shown(version)}")
        # written by older versions, which had only these values in use
        for key, legacy in (("stack_pool", "mean"), ("feature_kind", "onehot")):
            if h.get(key, legacy) != legacy:
                raise CheckpointError(f"unsupported {key} {shown(h[key])}")
        cg = coupling_graph_from_dict(doc["device"])
        if h["topology_hash"] != cg.topology_hash():
            raise CheckpointError(
                "header topology_hash does not match the stored device"
            )
        if type(h["N"]) is not int or h["N"] != cg.num_physical:
            raise CheckpointError(
                f"header N {shown(h['N'])} does not match the stored "
                f"device's {cg.num_physical} qubits")
        seed = h.get("seed", 0)
        if type(seed) is not int or seed < 0:
            raise CheckpointError(
                f"header seed must be an integer of at least 0, not "
                f"{shown(seed)}")
        enc = EncoderConfig(layers=h["layers"], heads=h["heads"],
                            embed_dim=h["d_e"], norm_kind=h["norm_kind"])
        dec = DecoderConfig(heads=h["m_heads"], context_kind=h["context_kind"],
                            clip=h["clip"], context_dim=h["d_c"])
        check_flag("shared_encoder", h["shared_encoder"])
        net = cls.__new__(cls)
        net._configure(cg, enc, dec, h["n_max"], h["shared_encoder"], seed)
        for section, what in (("params", "parameter"), ("buffers", "buffer")):
            want = {a.name for a in net._arrays if a.section == section}
            missing, extra = (sorted(want - set(doc[section])),
                              sorted(set(doc[section]) - want))
            if missing or extra:
                raise CheckpointError(
                    f"checkpoint {what} names differ from those the header's "
                    f"layers, norm_kind, context_kind and shared_encoder "
                    f"give: missing {missing}, unexpected {extra}")
        net._fill(lambda a: _stored_array(a, doc[a.section][a.name], version,
                                          h))
        return net


def _encoded(arr):
    """A version-2 checkpoint entry: shape and base64 of the float64 bytes,
    little-endian."""
    raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return {"shape": list(arr.shape),
            "float64le": base64.b64encode(raw).decode("ascii")}


def _stored_array(a, entry, version, header):
    """Checkpoint entry ``entry`` of the declared array ``a`` as a finite,
    writable float64 array of its shape. A version-2 entry holds base64 of
    the values' little-endian float64 bytes, a version-1 entry a list of
    values, and a version-1 buffer is that list alone. A malformed entry
    raises ``CheckpointError`` naming the array, and for a shape that
    differs, the keys of ``header`` that set it."""
    name, want = a.name, a.shape
    try:
        if version == 1 and a.section == "buffers":
            values = np.asarray(entry, dtype=np.float64)
            stated = values.shape
        elif version == 1:
            values = np.asarray(entry["values"], dtype=np.float64)
            stated = tuple(entry["shape"])
        else:
            values = _float64le(name, entry["float64le"])
            stated = tuple(entry["shape"])
    except KeyError as exc:
        raise CheckpointError(
            f"'{name}' lacks the key {exc} of a version {version} entry") \
            from None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"'{name}' is malformed as a version {version} entry: {exc}") \
            from None
    if stated != want or values.size != math.prod(want):
        sizes = " and ".join(f"{key} {header[key]}" for key in a.sizes)
        raise CheckpointError(
            f"'{name}' has shape {stated} and {values.size} values, but the "
            f"header's {sizes} give shape {want}")
    arr = values.reshape(want)
    if not np.isfinite(arr).all():
        raise CheckpointError(f"'{name}' holds non-finite values")
    return arr


def _float64le(name, text):
    """The float64 values whose little-endian bytes ``text`` holds in
    base64, as a native, writable array: Adam and finite differences edit
    parameters in place, and ``frombuffer`` over bytes is read-only."""
    if not isinstance(text, str):
        raise CheckpointError(
            f"'{name}' float64le must be a base64 string, not "
            f"{type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise CheckpointError(f"'{name}' is not valid base64: {exc}") \
            from None
    if len(raw) % 8:
        raise CheckpointError(
            f"'{name}' holds {len(raw)} bytes, not a whole number of float64 "
            f"values")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)
