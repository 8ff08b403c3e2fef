import base64
import copy
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qlayout.diffcore as dc
import qlayout.policy
from qlayout.circuit import ProgramGraph, onehot_features
from qlayout.diffcore import Tensor
from qlayout.errors import (
    CheckpointError,
    ConfigError,
    InfeasibleStateError,
    ShapeError,
    TopologyError,
)
from qlayout.policy import (
    CONTEXT_KINDS,
    NORM_KINDS,
    DecoderConfig,
    EncoderConfig,
    PolicyNetwork,
)
from qlayout.topology import MAX_QUBITS, build_grid
from qlayout.training import DecodeStrategy, decode

from conftest import device_rows, program_rows, tiny_policy


def make_pg(n, edges, n_max=None):
    return ProgramGraph(n, tuple(edges), onehot_features(n, n_max))


class TestConfigs:
    def test_embed_dim_divisible_by_heads(self):
        with pytest.raises(ConfigError):
            EncoderConfig(heads=3, embed_dim=8)

    def test_clip_positive(self):
        with pytest.raises(ConfigError):
            DecoderConfig(clip=0.0)

    @pytest.mark.parametrize("field,value", [
        ("layers", 0), ("layers", -1), ("heads", 0), ("heads", -2),
        ("embed_dim", 0),
    ])
    def test_encoder_sizes_at_least_one(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be at least 1"):
            EncoderConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("heads", 0), ("heads", -2), ("context_dim", 0), ("context_dim", -16),
    ])
    def test_decoder_sizes_at_least_one(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be at least 1"):
            DecoderConfig(**{field: value})

    @pytest.mark.parametrize("cls,field,value,bound", [
        (EncoderConfig, "layers", 65, 64),
        (EncoderConfig, "heads", 4097, 4096),
        (EncoderConfig, "embed_dim", 10**9, 4096),
        (EncoderConfig, "embed_dim", 2**70, 4096),
        (DecoderConfig, "heads", 4097, 4096),
        (DecoderConfig, "context_dim", 8192, 4096),
    ])
    def test_sizes_bounded_before_allocation(self, cls, field, value, bound):
        with pytest.raises(ConfigError,
                           match=f"{field} must be at most {bound}, "
                                 f"not {value}"):
            cls(**{field: value})

    def test_sizes_at_their_bounds_accepted(self):
        EncoderConfig(layers=64, heads=4096, embed_dim=4096)
        DecoderConfig(heads=4096, context_dim=4096)

    @pytest.mark.parametrize("field,value", [
        ("layers", True), ("layers", 1.5), ("heads", 2.0),
        ("embed_dim", "8"),
    ])
    def test_encoder_sizes_are_integers(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            EncoderConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("heads", 2.0), ("heads", True), ("context_dim", 16.5),
    ])
    def test_decoder_sizes_are_integers(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            DecoderConfig(**{field: value})

    @pytest.mark.parametrize("clip", [-1.0, 0, float("nan"), float("inf"),
                                      float("-inf"), True, "10"])
    def test_clip_finite_and_positive(self, clip):
        with pytest.raises(ConfigError, match="clip must be positive and "
                                              f"finite, not {clip}"):
            DecoderConfig(clip=clip)

    @pytest.mark.parametrize("n_max", [0, -1, 2.0, True])
    def test_n_max_is_a_positive_integer(self, n_max):
        with pytest.raises(ConfigError, match="n_max must be"):
            tiny_policy(n_max=n_max)

    @pytest.mark.parametrize("n_max", [MAX_QUBITS + 1, 10**9, 2**70])
    def test_n_max_is_bounded_by_the_largest_device(self, n_max):
        with pytest.raises(ConfigError, match=f"n_max must be at most "
                                              f"{MAX_QUBITS}, not {n_max}"):
            tiny_policy(n_max=n_max)

    def test_stack_project_needs_matching_dims(self):
        cg = build_grid(2, 2)
        enc = EncoderConfig(layers=1, heads=2, embed_dim=8)
        dec = DecoderConfig(heads=2, context_dim=16,
                            context_kind="stack_project")
        with pytest.raises(ConfigError):
            PolicyNetwork(cg, enc, dec, prog_feature_dim=3)


class TestEncoder:
    def test_feature_dim_mismatch(self):
        pol = tiny_policy(n_max=4)
        pg = make_pg(3, [(0, 1)], n_max=6)
        with pytest.raises(ShapeError):
            pol.encode(pg)

    def test_zero_edge_graph_self_attention_only(self):
        # with no edges every node attends only to itself, so two nodes with
        # identical features get identical embeddings
        pol = tiny_policy(n_max=4, norm="layer")
        feats = np.ones((3, 4))
        pg = ProgramGraph(3, (), feats)
        emb = pol.encode(pg)
        assert np.allclose(emb.program.data[0], emb.program.data[1])
        assert np.allclose(emb.program.data[0], emb.program.data[2])

    @pytest.mark.parametrize("norm", ["layer", "batch", "graph"])
    def test_permutation_equivariance(self, norm, rng):
        pol = tiny_policy(n_max=5, norm=norm)
        feats = rng.standard_normal((5, 5))
        edges = ((0, 1), (1, 2), (3, 4), (2, 3))
        pg = ProgramGraph(5, edges, feats)
        perm = rng.permutation(5)
        pg_perm = ProgramGraph(
            5,
            tuple((int(perm[i]), int(perm[j])) for i, j in edges),
            feats[np.argsort(perm)],
        )
        emb = pol.encode(pg).program.data
        emb_perm = pol.encode(pg_perm).program.data
        assert np.abs(emb_perm[perm] - emb).max() < 1e-9

    @pytest.mark.parametrize("norm", ["layer", "batch", "graph"])
    def test_self_pair_changes_nothing(self, norm):
        # a gate on one qubit twice adds no neighbour: the adjacency and
        # every embedding stay as they are
        pol = tiny_policy(n_max=4, norm=norm)
        plain = make_pg(3, [(0, 1), (1, 2)], n_max=4)
        looped = make_pg(3, [(0, 1), (2, 2), (1, 1), (1, 2)], n_max=4)
        assert np.array_equal(looped.gate_pairs, plain.gate_pairs)
        for train in (False, True):
            a = pol.encode(plain, train).program.data
            b = pol.encode(looped, train).program.data
            assert np.array_equal(a, b)
        a = pol.encode([plain, looped]).program.data
        assert np.array_equal(a[:3], a[3:])

    def test_isomorphic_nodes_identical(self):
        # nodes 0 and 2 have identical features and neighbourhoods
        pol = tiny_policy(n_max=4)
        feats = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [1.0, 0, 0, 0]])
        pg = ProgramGraph(3, ((0, 1), (2, 1)), feats)
        emb = pol.encode(pg).program.data
        assert np.allclose(emb[0], emb[2], atol=1e-12)

    def test_shared_encoder_param_count_smaller(self):
        cg = build_grid(2, 2)
        enc = EncoderConfig(layers=2, heads=2, embed_dim=8)
        dec = DecoderConfig(heads=2, context_dim=8)
        sep = PolicyNetwork(cg, enc, dec, prog_feature_dim=4)
        shared = PolicyNetwork(cg, enc, dec, prog_feature_dim=4,
                               shared_encoder=True)

        def param_count(pol):
            return sum(t.data.size for t in pol.store.params.values())

        assert param_count(shared) < param_count(sep)
        shared.encode(make_pg(3, [(0, 1)], n_max=4))  # still runs

    def test_batch_norm_running_stats_move(self):
        pol = tiny_policy(norm="batch")
        pg = make_pg(3, [(0, 1), (1, 2)], n_max=4)
        before = pol.store.buffers["enc.prog.l0.norm.mean"].copy()
        pol.encode(pg, train=True)
        after = pol.store.buffers["enc.prog.l0.norm.mean"]
        assert not np.allclose(before, after)
        # eval mode must not touch them
        frozen = after.copy()
        pol.encode(pg, train=False)
        assert np.allclose(frozen, pol.store.buffers["enc.prog.l0.norm.mean"])


N_MAX = 5
VARIANTS = list(itertools.product(NORM_KINDS, CONTEXT_KINDS, (False, True)))
STACK_SETTINGS = settings(max_examples=6, deadline=None, derandomize=True,
                          suppress_health_check=[HealthCheck.too_slow])


def reference_encode(pol, feats, adj, which, train):
    """The one-graph (n, d_e) encoder that the padded stack replaced, kept
    as an oracle: 2-D rows, attention over (k, n, n), statistics over the
    graph's rows and the running statistics moved in place."""
    e = pol.enc_cfg
    p = pol.store.lookup(train)
    k, dh = e.heads, e.embed_dim // e.heads

    def norm(h, prefix):
        g, b = p(f"{prefix}.g"), p(f"{prefix}.b")
        if e.norm_kind == "batch" and not train:
            m = Tensor(pol.store.buffers[f"{prefix}.mean"].reshape(1, -1))
            var = Tensor(pol.store.buffers[f"{prefix}.var"].reshape(1, -1))
            centered = h - m
        else:
            axis = 1 if e.norm_kind == "layer" else 0
            m = h.mean(axis=axis, keepdims=True)
            centered = h - m
            var = dc.tmean(dc.mul(centered, centered), axis=axis,
                           keepdims=True)
            if e.norm_kind == "batch":
                rm = pol.store.buffers[f"{prefix}.mean"]
                rv = pol.store.buffers[f"{prefix}.var"]
                rm += 0.1 * (m.data.ravel() - rm)
                rv += 0.1 * (var.data.ravel() - rv)
        h_hat = dc.mul(centered, dc.powi(var + 1e-5, -0.5))
        return h_hat * g.reshape(1, -1) + b.reshape(1, -1)

    h = dc.matmul(Tensor(feats), p(f"in.{which}.W").T)
    n = h.shape[0]
    for layer in range(e.layers):
        prefix = f"{pol._enc_prefix(which)}.l{layer}"
        z = dc.matmul(h, p(f"{prefix}.W").T)
        zh = dc.transpose(z.reshape(n, k, dh), (1, 0, 2))
        s_src = dc.matmul(zh, p(f"{prefix}.a_src").reshape(k, dh, 1))
        s_dst = dc.matmul(zh, p(f"{prefix}.a_dst").reshape(k, dh, 1))
        scores = dc.leaky_relu(s_src + s_dst.reshape(k, 1, n), 0.2)
        scores = dc.masked_fill(scores, ~adj[None], -np.inf)
        alpha = dc.softmax(scores, axis=-1)
        agg = dc.transpose(dc.matmul(alpha, zh), (1, 0, 2))
        h = norm(dc.elu(agg).reshape(n, e.embed_dim), f"{prefix}.norm")
    return h


def reference_program(pol, pg, train):
    adj = np.eye(pg.num_logical, dtype=bool)
    for i, j in pg.edges:
        adj[i, j] = adj[j, i] = True
    return reference_encode(pol, pg.node_features, adj, "prog", train)


def reference_device(pol, train):
    adj = pol.cg.adjacency_matrix() | np.eye(pol.cg.num_physical, dtype=bool)
    return reference_encode(pol, pol._phys_feats, adj, "phys", train)


@st.composite
def program_graphs(draw, n):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8)) \
        if pairs else []
    return ProgramGraph(n, tuple(edges), onehot_features(n, N_MAX))


@st.composite
def mixed_batches(draw):
    """1-4 graphs of 1..N_MAX nodes plus one of 1 and one of N_MAX nodes,
    in a drawn order."""
    sizes = draw(st.lists(st.integers(1, N_MAX), max_size=4)) + [1, N_MAX]
    sizes = draw(st.permutations(sizes))
    return [draw(program_graphs(n)) for n in sizes]


def loss_grads(pol, rows, seed):
    """Parameter gradients of a fixed random linear function of ``rows``."""
    weights = np.random.default_rng(seed).standard_normal(rows.shape)
    pol.store.zero_grad()
    dc.tsum(dc.mul(rows, Tensor(weights))).backward()
    return {k: g.copy() for k, g in pol.store.grads().items()}


def assert_same_buffers(got, want, tol=0.0):
    assert got.keys() == want.keys()
    for name in got:
        scale = max(1.0, np.abs(want[name]).max())
        assert np.abs(got[name] - want[name]).max() <= tol * scale, name


@pytest.mark.parametrize("norm,context,shared", VARIANTS)
class TestPaddedEncoder:
    @STACK_SETTINGS
    @given(n=st.integers(1, N_MAX), data=st.data())
    def test_one_graph_is_bit_identical_to_the_2d_encoder(
            self, norm, context, shared, n, data):
        pg = data.draw(program_graphs(n))
        pol = tiny_policy(cg=build_grid(2, 3), n_max=N_MAX, norm=norm,
                          context=context, shared=shared)
        ref = copy.deepcopy(pol)
        for train in (False, True):
            emb = pol.encode(pg, train)
            got, got_dev = emb.program, emb.physical
            want = reference_program(ref, pg, train)
            assert np.array_equal(got.data, want.data)
            want_dev = reference_device(ref, train)
            assert np.array_equal(got_dev.data, want_dev.data)
            assert_same_buffers(pol.store.buffers, ref.store.buffers)
            if train:
                assert_same_buffers(loss_grads(pol, got, n),
                                    loss_grads(ref, want, n))

    @STACK_SETTINGS
    @given(batch=mixed_batches(), seed=st.integers(0, 50))
    def test_stack_rows_equal_each_graphs_encoding(
            self, norm, context, shared, batch, seed):
        pol = tiny_policy(cg=build_grid(2, 3), n_max=N_MAX, norm=norm,
                          context=context, shared=shared, seed=seed)
        ref = copy.deepcopy(pol)
        for train in (False, True):
            emb = pol.encode(batch, train)
            # the per-graph encodes in the order of the running-statistics
            # updates: every program graph, then the device
            own = [program_rows(ref, pg, train) for pg in batch]
            physical = device_rows(ref, train)
            want = dc.concat(own)
            assert emb.program.shape == (sum(pg.num_logical for pg in batch),
                                         pol.enc_cfg.embed_dim)
            scale = max(1.0, np.abs(want.data).max())
            assert np.abs(emb.program.data - want.data).max() \
                <= 1e-12 * scale
            assert np.array_equal(emb.physical.data, physical.data)
            assert_same_buffers(pol.store.buffers, ref.store.buffers, 1e-12)
            if train:
                got_g = loss_grads(pol, emb.program, seed)
                want_g = loss_grads(ref, want, seed)
                assert got_g.keys() == want_g.keys()
                for name, g in want_g.items():
                    scale = max(1.0, np.abs(g).max())
                    assert np.abs(got_g[name] - g).max() <= 1e-12 * scale, \
                        name

    def test_wrong_feature_width_is_named_before_stacking(
            self, norm, context, shared):
        pol = tiny_policy(cg=build_grid(2, 3), n_max=N_MAX, norm=norm,
                          context=context, shared=shared)
        good = make_pg(3, [(0, 1)], n_max=N_MAX)
        wide = make_pg(2, [(0, 1)], n_max=N_MAX + 1)
        before = copy.deepcopy(pol.store.buffers)
        with pytest.raises(ShapeError, match="feature dimension"):
            pol.encode([good, wide], train=True)
        assert_same_buffers(pol.store.buffers, before)


class TestContext:
    def setup_method(self):
        self.pg = make_pg(3, [(0, 1), (1, 2)], n_max=4)

    def test_project_concat_halves(self):
        pol = tiny_policy(context="project_concat", d=8)
        emb = pol.encode(self.pg)
        ctx = pol.make_context(emb, 1, [0, 1, 2])
        w = pol.store["ctx.W"].data
        expect = np.concatenate([w @ emb.program.data[1],
                                 w @ emb.program.data[0]])
        assert np.allclose(ctx.data, expect)
        assert ctx.shape == (8,)

    def test_concat_project_direct(self):
        pol = tiny_policy(context="concat_project", d=8)
        emb = pol.encode(self.pg)
        ctx = pol.make_context(emb, 2, [0, 1, 2])
        w = pol.store["ctx.W"].data
        expect = w @ np.concatenate([emb.program.data[2], emb.program.data[1]])
        assert np.allclose(ctx.data, expect)

    def test_concat_project_start_token_at_t0(self):
        pol = tiny_policy(context="concat_project", d=8)
        emb = pol.encode(self.pg)
        ctx = pol.make_context(emb, 0, [0, 1, 2])
        w = pol.store["ctx.W"].data
        start = pol.store["ctx.start"].data
        expect = w @ np.concatenate([emb.program.data[0], start])
        assert np.allclose(ctx.data, expect)

    def test_stack_project_t0_exact(self):
        pol = tiny_policy(context="stack_project", d=8)
        emb = pol.encode(self.pg)
        ctx = pol.make_context(emb, 0, [0, 1, 2])
        w = pol.store["ctx.W"].data
        assert np.allclose(ctx.data, w @ emb.program.data[0])

    def test_stack_project_mean_pool(self):
        pol = tiny_policy(context="stack_project", d=8)
        emb = pol.encode(self.pg)
        ctx = pol.make_context(emb, 2, [0, 1, 2])
        w = pol.store["ctx.W"].data
        expect = np.mean(emb.program.data @ w.T, axis=0)
        assert np.allclose(ctx.data, expect)


class TestPointer:
    def test_logits_bounded_by_clip(self, rng):
        pol = tiny_policy()
        for _ in range(20):
            ctx = Tensor(rng.standard_normal(8) * 100)
            phys = Tensor(rng.standard_normal((4, 8)) * 100)
            logits = pol.pointer_logits(ctx, phys)
            assert (np.abs(logits.data) <= pol.dec_cfg.clip).all()

    def test_identical_embeddings_identical_logits(self, rng):
        pol = tiny_policy()
        ctx = Tensor(rng.standard_normal(8))
        phys = Tensor(np.tile(rng.standard_normal(8), (4, 1)))
        logits = pol.pointer_logits(ctx, phys).data
        assert np.allclose(logits, logits[0])

    def test_saturation(self, rng):
        pol = tiny_policy()
        ctx = Tensor(rng.standard_normal(8) * 1e4)
        phys = Tensor(rng.standard_normal((4, 8)) * 1e4)
        logits = pol.pointer_logits(ctx, phys).data
        assert np.allclose(np.abs(logits), pol.dec_cfg.clip, atol=1e-6)


class TestMaskedDistribution:
    def test_single_feasible(self, rng):
        logits = Tensor(rng.standard_normal(5))
        mask = np.array([False, False, True, False, False])
        p = PolicyNetwork.masked_distribution(logits, mask).data
        assert p[2] == 1.0 and p.sum() == 1.0

    def test_uniform_logits(self):
        logits = Tensor(np.zeros(6))
        mask = np.array([True, True, False, True, False, False])
        p = PolicyNetwork.masked_distribution(logits, mask).data
        assert np.allclose(p[mask], 1 / 3)
        assert (p[~mask] == 0).all()

    def test_random_states_normalized(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 12))
            logits = Tensor(rng.uniform(-10, 10, n))
            mask = rng.random(n) < 0.6
            if not mask.any():
                mask[int(rng.integers(n))] = True
            p = PolicyNetwork.masked_distribution(logits, mask).data
            assert abs(p.sum() - 1.0) < 1e-12
            assert (p[~mask] == 0.0).all()

    def test_empty_feasible_set(self):
        with pytest.raises(InfeasibleStateError):
            PolicyNetwork.masked_distribution(Tensor(np.zeros(3)),
                                              np.zeros(3, bool))


class TestLogProbGradient:
    def test_matches_finite_differences(self):
        # full log pi(a|s) on a fixed n=3, N=4 instance
        pol = tiny_policy(norm="graph", seed=7)
        pg = make_pg(3, [(0, 1), (1, 2)], n_max=4)
        actions = [2, 0, 3]

        def log_pi():
            emb = pol.encode(pg, train=True)
            mask = np.ones(4, bool)
            lp = 0.0
            for t, a in enumerate(actions):
                ctx = pol.make_context(emb, t, [0, 1, 2])
                logits = pol.pointer_logits(ctx, emb.physical)
                probs = pol.masked_distribution(logits, mask)
                lp += float(np.log(probs.data[a]))
                mask[a] = False
            return lp

        emb = pol.encode(pg, train=True)
        mask = np.ones(4, bool)
        total = None
        for t, a in enumerate(actions):
            ctx = pol.make_context(emb, t, [0, 1, 2])
            logits = pol.pointer_logits(ctx, emb.physical)
            probs = pol.masked_distribution(logits, mask)
            term = dc.log(dc.gather(probs, a))
            total = term if total is None else total + term
            mask[a] = False
        pol.store.zero_grad()
        total.backward()

        rng = np.random.default_rng(0)
        for name, t in pol.store.params.items():
            grad = t.grad if t.grad is not None else np.zeros_like(t.data)
            flat = t.data.ravel()
            for i in rng.choice(flat.size, size=min(4, flat.size),
                                replace=False):
                old = flat[i]
                flat[i] = old + 1e-5
                fp = log_pi()
                flat[i] = old - 1e-5
                fm = log_pi()
                flat[i] = old
                fd = (fp - fm) / 2e-5
                a = grad.ravel()[i]
                assert abs(a - fd) <= 1e-4 * max(1.0, abs(a), abs(fd)), \
                    f"{name}[{i}]: {a} vs {fd}"


def save_version_1(pol, path):
    """A version-1 checkpoint of ``pol``, as ``PolicyNetwork.save`` wrote
    it before version 2: every parameter's values as a list, every buffer
    as a bare list."""
    doc = {
        "header": dict(pol.config_header(), version=1),
        "device": pol.cg.to_dict(),
        "params": {
            k: {"shape": list(t.data.shape), "values": t.data.ravel().tolist()}
            for k, t in pol.store.params.items()
        },
        "buffers": {k: v.tolist() for k, v in pol.store.buffers.items()},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def saved_arrays(pol):
    """Every parameter and buffer of ``pol`` by name, as its raw bytes."""
    arrays = {f"param {k}": t.data for k, t in pol.store.params.items()}
    arrays.update((f"buffer {k}", v) for k, v in pol.store.buffers.items())
    return {k: (v.dtype, v.shape, v.tobytes()) for k, v in arrays.items()}


# the field of a checkpoint entry that holds its values, per version
VALUES_FIELD = {1: "values", 2: "float64le"}


def edit_values(entry, edit):
    """Apply ``edit`` to the list of values of a checkpoint entry of either
    version in place: a version-1 entry's list (a version-1 buffer is the
    bare list) or the decoded, then re-encoded, bytes of a version-2
    entry."""
    if isinstance(entry, list):
        edit(entry)
    elif "values" in entry:
        edit(entry["values"])
    else:
        values = np.frombuffer(base64.b64decode(entry["float64le"]),
                               "<f8").tolist()
        edit(values)
        entry["float64le"] = base64.b64encode(
            np.array(values, dtype="<f8").tobytes()).decode("ascii")


def batch_norm_policy():
    """A batch-norm policy whose running statistics have moved."""
    pol = tiny_policy(seed=11, norm="batch")
    pol.encode(make_pg(3, [(0, 1), (1, 2)], n_max=4), train=True)
    return pol


# sha256 (first 16 hex digits) of every parameter's and buffer's name,
# shape and float64 bytes, in store order, of ``tiny_policy`` on a 2x3 grid
# with n_max 5 and seed 7, as the random-init constructor first drew them
# (layer and graph norm have the same arrays, batch norm adds buffers)
INITIAL_DIGESTS = {
    ("layer", "project_concat", False): "de6e58b44aa75b44",
    ("layer", "project_concat", True): "3576752ba035790c",
    ("layer", "concat_project", False): "98b55f27aa8dfecd",
    ("layer", "concat_project", True): "94e9d8f7f7134c92",
    ("layer", "stack_project", False): "14982d6352501d1d",
    ("layer", "stack_project", True): "a6b7d06d930b3f7f",
    ("batch", "project_concat", False): "0c00a888c979d6ea",
    ("batch", "project_concat", True): "264637fa7e65ed4d",
    ("batch", "concat_project", False): "7b33d287a129259e",
    ("batch", "concat_project", True): "33703818faf8a44f",
    ("batch", "stack_project", False): "75a5bcbe333d3fef",
    ("batch", "stack_project", True): "988c54d31e64bbf2",
    ("graph", "project_concat", False): "de6e58b44aa75b44",
    ("graph", "project_concat", True): "3576752ba035790c",
    ("graph", "concat_project", False): "98b55f27aa8dfecd",
    ("graph", "concat_project", True): "94e9d8f7f7134c92",
    ("graph", "stack_project", False): "14982d6352501d1d",
    ("graph", "stack_project", True): "a6b7d06d930b3f7f",
}


def array_digest(pol):
    h = hashlib.sha256()
    for section in (pol.store.data(), pol.store.buffers):
        for name, arr in section.items():
            h.update(f"{name}{arr.shape};".encode())
            h.update(arr.astype("<f8").tobytes())
    return h.hexdigest()[:16]


class TestInitialArrays:
    @pytest.mark.parametrize("key", INITIAL_DIGESTS)
    def test_constructor_draws_the_recorded_weights(self, key):
        norm, context, shared = key
        pol = tiny_policy(cg=build_grid(2, 3), n_max=5, norm=norm,
                          context=context, shared=shared, seed=7)
        assert array_digest(pol) == INITIAL_DIGESTS[key]

    @pytest.mark.parametrize("norm", NORM_KINDS)
    @pytest.mark.parametrize("shared", [False, True])
    def test_device_memo_follows_exactly_the_device_arrays(self, norm,
                                                           shared):
        """Editing an array the device encoding reads re-encodes the device
        in eval; editing any other array reuses the memo."""
        pol = tiny_policy(cg=build_grid(2, 3), n_max=5, norm=norm,
                          shared=shared)
        rng = np.random.default_rng(5)
        arrays = {**pol.store.data(), **pol.store.buffers}
        reads = {name for name, arr in arrays.items()
                 if name == "in.phys.W" or name.startswith(
                     "enc.shared." if shared else "enc.phys.")}
        for name, arr in arrays.items():
            memo = pol._device_embedding()
            arr += rng.uniform(0.5, 1.0, arr.shape)
            after = pol._device_embedding()
            if name in reads:
                assert after is not memo, name
                assert np.array_equal(after.data,
                                      pol._encode_device(False).data), name
            else:
                assert after is memo, name


@pytest.mark.parametrize("shared", [False, True])
def test_device_pairs_are_built_once_per_policy(shared, monkeypatch):
    """The device's attended pairs are built once, with the policy, and
    read by every encode, in training and in eval, with the rows of a
    stack built anew; its padded features view the one-hot features."""
    built = []

    class CountedPairs(qlayout.policy._Pairs):
        def __init__(self, adj, heads):
            built.append(adj.shape)
            super().__init__(adj, heads)

    monkeypatch.setattr(qlayout.policy, "_Pairs", CountedPairs)
    pol = tiny_policy(cg=build_grid(2, 3), n_max=5, shared=shared)
    pg = make_pg(3, [(0, 1), (1, 2)], n_max=5)
    rows = []
    for _ in range(3):
        for train in (True, False):
            pol._device_memo = None  # so that eval encodes the device too
            rows.append((train, pol.encode([pg, pg], train).physical.data))
    device = (1, 6, 6)
    assert built.count(device) == 1
    assert built == [device] + [(2, 3, 3)] * 6
    assert np.shares_memory(pol._device_stack[0], pol._phys_feats)
    monkeypatch.undo()
    for train, got in rows:
        want = pol._encode_stack(qlayout.policy._stack(
            [pol._phys_feats], [pol._cg_pairs], pol.enc_cfg.heads), "phys",
            train)
        assert np.array_equal(got, want.data)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        pol = batch_norm_policy()
        path = tmp_path / "ckpt.json"
        pol.save(path)
        back = PolicyNetwork.load(path)
        assert json.loads(path.read_text())["header"]["version"] == 2
        assert back.config_header() == pol.config_header()
        assert saved_arrays(back) == saved_arrays(pol)
        pg = make_pg(3, [(0, 1), (1, 2)], n_max=4)
        a = pol.encode(pg).program.data
        b = back.encode(pg).program.data
        assert np.array_equal(a, b)

    def test_version_1_loads_to_the_same_arrays(self, tmp_path):
        pol = batch_norm_policy()
        pol.save(tmp_path / "v2.json")
        save_version_1(pol, tmp_path / "v1.json")
        v1 = PolicyNetwork.load(tmp_path / "v1.json")
        v2 = PolicyNetwork.load(tmp_path / "v2.json")
        assert saved_arrays(v1) == saved_arrays(v2) == saved_arrays(pol)
        assert v1.config_header() == v2.config_header()

    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
            [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072e-308,
             np.finfo(float).max, -np.finfo(float).max]),
        min_size=72, max_size=72))
    def test_arrays_round_trip_bit_exactly(self, tmp_path, values):
        pol = tiny_policy(norm="batch")
        pol.store.params["ptr.W_G"].data[...] = np.reshape(values[:64],
                                                           (8, 8))
        pol.store.buffers["enc.prog.l0.norm.var"][...] = values[64:]
        path = tmp_path / "ckpt.json"
        pol.save(path)
        assert saved_arrays(PolicyNetwork.load(path)) == saved_arrays(pol)

    @pytest.mark.parametrize("version", [1, 2])
    def test_a_loaded_policy_takes_an_adam_step(self, tmp_path, version):
        pol = batch_norm_policy()
        path = tmp_path / "ckpt.json"
        (save_version_1 if version == 1 else PolicyNetwork.save)(pol, path)
        back = PolicyNetwork.load(path)
        for arr in [*back.store.data().values(), *back.store.buffers.values()]:
            assert arr.flags.writeable and arr.dtype == np.float64
            assert arr.dtype.isnative
        params = back.store.data()
        dc.adam_step(params, {k: np.ones_like(v) for k, v in params.items()},
                     dc.adam_init(params), lr=1e-3)
        back.encode(make_pg(3, [(0, 1), (1, 2)], n_max=4), train=True)
        before, after = saved_arrays(pol), saved_arrays(back)
        assert all(before[k] != after[k] for k in before)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("shared", [False, True])
    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch,
                                          version, shared):
        pol = tiny_policy(seed=4, norm="batch", shared=shared)
        path = tmp_path / "ckpt.json"
        (save_version_1 if version == 1 else PolicyNetwork.save)(pol, path)

        def no_generator(*args, **kwargs):
            raise AssertionError("load made a random generator")
        monkeypatch.setattr(qlayout.policy.np.random, "default_rng",
                            no_generator)
        back = PolicyNetwork.load(path)
        assert saved_arrays(back) == saved_arrays(pol)
        assert back.config_header() == pol.config_header()


class TestStrictCheckpoint:
    """``load`` accepts only a checkpoint that describes exactly the network
    its header builds; everything else is a CheckpointError. Every case
    runs on a checkpoint of each version."""

    @pytest.fixture(autouse=True, params=[1, 2], ids=["v1", "v2"])
    def version(self, request):
        self.version = request.param

    def saved(self, tmp_path):
        pol = tiny_policy(seed=3, norm="batch")
        path = tmp_path / "ckpt.json"
        if self.version == 1:
            save_version_1(pol, path)
        else:
            pol.save(path)
        return path, json.loads(path.read_text())

    def load_edited(self, tmp_path, edit):
        path, doc = self.saved(tmp_path)
        edit(doc)
        path.write_text(json.dumps(doc))
        return PolicyNetwork.load(path)

    def test_version(self, tmp_path):
        def edit(doc):
            doc["header"]["version"] = 99
        with pytest.raises(CheckpointError, match="version"):
            self.load_edited(tmp_path, edit)

    def test_missing_parameter(self, tmp_path):
        def edit(doc):
            del doc["params"]["ptr.W_Q"]
        with pytest.raises(CheckpointError, match="ptr.W_Q"):
            self.load_edited(tmp_path, edit)

    def test_unknown_parameter(self, tmp_path):
        def edit(doc):
            doc["params"]["ptr.W_X"] = copy.deepcopy(doc["params"]["ctx.W"])
        with pytest.raises(CheckpointError, match="ptr.W_X"):
            self.load_edited(tmp_path, edit)

    def test_missing_buffer(self, tmp_path):
        def edit(doc):
            del doc["buffers"]["enc.prog.l0.norm.var"]
        with pytest.raises(CheckpointError, match="norm.var"):
            self.load_edited(tmp_path, edit)

    def test_shape_mismatch(self, tmp_path):
        def edit(doc):
            entry = doc["params"]["ptr.W_G"]
            entry["shape"] = [entry["shape"][0] // 2, entry["shape"][1] * 2]
        with pytest.raises(CheckpointError, match="shape"):
            self.load_edited(tmp_path, edit)

    @pytest.mark.parametrize("section,name", [
        ("params", "ptr.W_G"), ("buffers", "enc.phys.l1.norm.var")])
    def test_value_count_mismatch(self, tmp_path, section, name):
        def edit(doc):
            edit_values(doc[section][name], list.pop)
        with pytest.raises(CheckpointError, match=name):
            self.load_edited(tmp_path, edit)

    @pytest.mark.parametrize("section", ["params", "buffers"])
    def test_non_finite(self, tmp_path, section):
        def poke(values):
            values[0] = float("nan") if section == "params" else float("inf")

        def edit(doc):
            if section == "params":
                edit_values(doc["params"]["ctx.W"], poke)
            else:
                edit_values(doc["buffers"]["enc.phys.l0.norm.mean"], poke)
        with pytest.raises(CheckpointError, match="non-finite"):
            self.load_edited(tmp_path, edit)

    def test_topology_hash(self, tmp_path):
        def edit(doc):
            doc["device"]["edges"].pop()
        with pytest.raises(CheckpointError, match="topology_hash"):
            self.load_edited(tmp_path, edit)

    @pytest.mark.parametrize("key", ["header", "params", "d_e", "shape",
                                     "values"])
    def test_missing_key(self, tmp_path, key):
        if key == "values":
            key = VALUES_FIELD[self.version]

        def edit(doc):
            if key in doc:
                del doc[key]
            elif key in doc["header"]:
                del doc["header"][key]
            else:
                del doc["params"]["ptr.W_K"][key]
        with pytest.raises(CheckpointError, match=key):
            self.load_edited(tmp_path, edit)

    @pytest.mark.parametrize("key,value,array", [
        ("d_e", 4, "in.prog.W"), ("n_max", 3, "in.prog.W"),
        ("heads", 4, "enc.prog.l0.a_src"), ("d_c", 4, "ctx.W")])
    def test_a_header_size_the_arrays_do_not_fit_is_named(
            self, tmp_path, key, value, array):
        """A size valid on its own names itself in the error of the first
        array whose shape it changes."""
        def edit(doc):
            doc["header"][key] = value
        with pytest.raises(CheckpointError) as exc:
            self.load_edited(tmp_path, edit)
        assert str(exc.value).startswith(f"'{array}' has shape")
        assert f"{key} {value}" in str(exc.value).split("header's")[1]

    @pytest.mark.parametrize("key,value", [
        ("layers", 1), ("norm_kind", "graph"),
        ("context_kind", "stack_project"), ("shared_encoder", True)])
    def test_a_header_key_that_renames_the_arrays_is_named(
            self, tmp_path, key, value):
        def edit(doc):
            doc["header"][key] = value
        with pytest.raises(CheckpointError, match=f"names differ.*{key}"):
            self.load_edited(tmp_path, edit)

    def test_a_parameter_that_is_not_an_entry(self, tmp_path):
        def edit(doc):
            doc["params"]["ptr.W_K"] = [0.0] * 64
        with pytest.raises(CheckpointError, match="ptr.W_K"):
            self.load_edited(tmp_path, edit)

    @pytest.mark.parametrize("key,value", [("heads", 0), ("layers", -1),
                                           ("d_c", 0), ("n_max", 0)])
    def test_header_size_below_one(self, tmp_path, key, value):
        def edit(doc):
            doc["header"][key] = value
        with pytest.raises(CheckpointError, match="must be at least 1"):
            self.load_edited(tmp_path, edit)

    @pytest.mark.parametrize("key,value", [("d_e", 10**9), ("heads", 4097),
                                           ("layers", 65), ("d_c", 8192),
                                           ("m_heads", 2**64)])
    def test_header_size_over_its_bound(self, tmp_path, key, value):
        def edit(doc):
            doc["header"][key] = value
        with pytest.raises(CheckpointError, match="must be at most"):
            self.load_edited(tmp_path, edit)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_header_clip_not_finite_positive(self, tmp_path, value):
        def edit(doc):
            doc["header"]["clip"] = value
        with pytest.raises(CheckpointError, match="clip must be positive"):
            self.load_edited(tmp_path, edit)

    @pytest.mark.parametrize("key,value", [("layers", 1.5), ("heads", 2.0),
                                           ("m_heads", True), ("n_max", 4.0),
                                           ("n_max", True)])
    def test_header_size_not_integer(self, tmp_path, key, value):
        def edit(doc):
            doc["header"][key] = value
        with pytest.raises(CheckpointError, match="must be an integer"):
            self.load_edited(tmp_path, edit)

    @pytest.mark.parametrize("value", [5, 3, "4", 4.0, True, None])
    def test_header_n_other_than_the_stored_device(self, tmp_path, value):
        def edit(doc):
            doc["header"]["N"] = value
        with pytest.raises(CheckpointError, match="header N"):
            self.load_edited(tmp_path, edit)

    @pytest.mark.parametrize("value", ["x", -1, 1.5, True, None])
    def test_header_seed_not_a_seed(self, tmp_path, value):
        def edit(doc):
            doc["header"]["seed"] = value
        with pytest.raises(CheckpointError, match="header seed"):
            self.load_edited(tmp_path, edit)

    @pytest.mark.parametrize("value", [1, 0, "true", None])
    def test_header_shared_encoder_not_a_flag(self, tmp_path, value):
        def edit(doc):
            doc["header"]["shared_encoder"] = value
        with pytest.raises(CheckpointError,
                           match="shared_encoder must be True or False"):
            self.load_edited(tmp_path, edit)

    def test_an_entry_error_names_the_version_it_was_read_as(self, tmp_path):
        other = 3 - self.version

        def edit(doc):
            doc["header"]["version"] = other
        with pytest.raises(CheckpointError,
                           match=f"(of|as) a version {other} entry"):
            self.load_edited(tmp_path, edit)

    def test_header_without_seed_loads_as_0(self, tmp_path):
        def edit(doc):
            del doc["header"]["seed"]
        assert self.load_edited(tmp_path, edit).config_header()["seed"] == 0

    def test_a_checkpoint_that_is_not_an_object(self, tmp_path):
        path, doc = self.saved(tmp_path)
        path.write_text(json.dumps([doc]))
        with pytest.raises(CheckpointError,
                           match="checkpoint is not a JSON object"):
            PolicyNetwork.load(path)

    @pytest.mark.parametrize("section", ["header", "params", "buffers"])
    def test_a_section_that_is_not_an_object(self, tmp_path, section):
        def edit(doc):
            doc[section] = None
        with pytest.raises(CheckpointError,
                           match=f"'{section}' is not a JSON object"):
            self.load_edited(tmp_path, edit)

    def test_a_device_that_is_not_an_object(self, tmp_path):
        def edit(doc):
            doc["device"] = [doc["device"]]
        with pytest.raises(TopologyError,
                           match="device document is not a JSON object"):
            self.load_edited(tmp_path, edit)

    def test_malformed_json(self, tmp_path):
        path, _ = self.saved(tmp_path)
        path.write_text(path.read_text()[:200])
        with pytest.raises(CheckpointError, match="cannot read"):
            PolicyNetwork.load(path)

    def test_a_deeply_nested_file(self, tmp_path):
        path, _ = self.saved(tmp_path)
        path.write_text("[" * 10000 + "]" * 10000)
        with pytest.raises(CheckpointError,
                           match=f"cannot read checkpoint {path}: maximum "
                                 "recursion depth"):
            PolicyNetwork.load(path)

    def test_n_max_beyond_any_device(self, tmp_path):
        def edit(doc):
            doc["header"]["n_max"] = 10**9
        with pytest.raises(CheckpointError,
                           match=f"n_max must be at most {MAX_QUBITS}"):
            self.load_edited(tmp_path, edit)

    def test_legacy_stack_pool(self, tmp_path):
        def mean(doc):
            doc["header"]["stack_pool"] = "mean"
        assert self.load_edited(tmp_path, mean).config_header()["d_e"] == 8

        def other(doc):
            doc["header"]["stack_pool"] = "sum"
        with pytest.raises(CheckpointError, match="stack_pool"):
            self.load_edited(tmp_path, other)

    def test_legacy_feature_kind(self, tmp_path):
        pg = make_pg(3, [(0, 1), (1, 2), (0, 2)], n_max=4)
        strategy = DecodeStrategy.make("multistart_sampling", k=4, seed=2)
        want = decode(pg, build_grid(2, 2), tiny_policy(seed=3, norm="batch"),
                      strategy)

        def onehot(doc):
            doc["header"]["feature_kind"] = "onehot"
        pol = self.load_edited(tmp_path, onehot)
        assert "feature_kind" not in pol.config_header()
        got = decode(pg, pol.cg, pol, strategy)
        assert got[0].assign.tolist() == want[0].assign.tolist()
        assert got[1] == want[1]

        def engineered(doc):
            doc["header"]["feature_kind"] = "engineered"
        with pytest.raises(CheckpointError, match="feature_kind"):
            self.load_edited(tmp_path, engineered)


class TestVersion2Arrays:
    """The base64 field of a version-2 entry: anything but the base64 of
    whole little-endian float64 values, all finite, is a CheckpointError
    that names the array."""

    def load_edited(self, tmp_path, section, name, text):
        path = tmp_path / "ckpt.json"
        tiny_policy(seed=3, norm="batch").save(path)
        doc = json.loads(path.read_text())
        doc[section][name]["float64le"] = text
        path.write_text(json.dumps(doc))
        return PolicyNetwork.load(path)

    @staticmethod
    def encoded(values):
        return base64.b64encode(
            np.asarray(values, dtype="<f8").tobytes()).decode("ascii")

    @pytest.mark.parametrize("text", ["not base64!", "AAAA AAAA",
                                      "AAAAAAAAAAA", "\u00e9AAA"])
    def test_invalid_base64(self, tmp_path, text):
        with pytest.raises(CheckpointError, match="'ptr.W_G' is not valid"):
            self.load_edited(tmp_path, "params", "ptr.W_G", text)

    def test_truncated_bytes(self, tmp_path):
        raw = np.ones(64, dtype="<f8").tobytes()[:-3]
        with pytest.raises(CheckpointError,
                           match="'ptr.W_G' holds 509 bytes"):
            self.load_edited(tmp_path, "params", "ptr.W_G",
                             base64.b64encode(raw).decode("ascii"))

    def test_truncated_text(self, tmp_path):
        with pytest.raises(CheckpointError, match="'ptr.W_G' is not valid"):
            self.load_edited(tmp_path, "params", "ptr.W_G",
                             self.encoded(np.ones(64))[:-2])

    @pytest.mark.parametrize("value", [[1.0] * 8, 3, None, {"a": 1}])
    def test_not_a_string(self, tmp_path, value):
        with pytest.raises(CheckpointError,
                           match="'enc.prog.l0.norm.mean' float64le must be"):
            self.load_edited(tmp_path, "buffers", "enc.prog.l0.norm.mean",
                             value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_bytes(self, tmp_path, bad):
        values = np.ones(8)
        values[3] = bad
        with pytest.raises(CheckpointError,
                           match="'enc.phys.l1.norm.var' holds non-finite"):
            self.load_edited(tmp_path, "buffers", "enc.phys.l1.norm.var",
                             self.encoded(values))
