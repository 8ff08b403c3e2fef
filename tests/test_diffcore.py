import numpy as np
import pytest

import qlayout.diffcore as dc
from qlayout.diffcore import Tensor, adam_init, adam_step
from qlayout.errors import NumericError, QLayoutError, ShapeError

from conftest import fd_gradient


def check_grad(build, shapes, seed=0, tol=1e-4, eps=1e-5):
    """Finite-difference check of a scalar-valued composite at 20 random
    points of each input."""
    rng = np.random.default_rng(seed)
    for trial in range(20):
        arrays = [rng.standard_normal(s) for s in shapes]
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = build(*tensors)
        out.backward()
        for t, a in zip(tensors, arrays):
            def f(a=a):
                vals = [Tensor(x) for x in arrays]
                return float(build(*vals).data)
            fd = fd_gradient(f, a, eps=eps)
            assert np.allclose(t.grad, fd, rtol=tol, atol=1e-6), \
                f"trial {trial}: {t.grad} vs {fd}"


def scalarize(t):
    return dc.tsum(dc.mul(t, t))


class TestForward:
    def test_softmax_uniform(self):
        out = dc.softmax(Tensor(np.zeros(5)))
        assert np.allclose(out.data, 0.2)

    def test_softmax_masked_exact_zero(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]))
        masked = dc.masked_fill(x, np.array([False, True, False]), -np.inf)
        out = dc.softmax(masked, axis=0)
        assert out.data[1] == 0.0
        assert out.data.sum() == pytest.approx(1.0, abs=1e-12)

    def test_softmax_array_is_the_value_of_the_op(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 6))
        mask = rng.random((3, 6)) < 0.4
        mask[:, 0] = False
        op = dc.softmax(dc.masked_fill(Tensor(x), mask, -np.inf), axis=1)
        plain = dc.softmax_array(np.where(mask, -np.inf, x), 1)
        assert np.array_equal(plain, op.data)
        assert not plain[mask].any()

    def test_tanh_clipping_behaviour(self):
        c = 10.0
        assert float((dc.tanh(Tensor(0.0)) * Tensor(c)).data) == 0.0
        assert float((dc.tanh(Tensor(50.0)) * Tensor(c)).data) == \
            pytest.approx(c, abs=1e-9)
        assert float((dc.tanh(Tensor(-50.0)) * Tensor(c)).data) == \
            pytest.approx(-c, abs=1e-9)

    def test_masked_fill_all_false_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out = dc.masked_fill(Tensor(x), np.zeros((2, 3), bool), -np.inf)
        assert (out.data == x).all()

    def test_shape_mismatch_named(self):
        with pytest.raises(ShapeError) as exc:
            dc.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
        assert "(3,)" in str(exc.value) and "(4,)" in str(exc.value)

    @pytest.mark.parametrize("op", [dc.add, dc.sub, dc.mul, dc.div])
    def test_elementwise_broadcast_failure(self, op):
        with pytest.raises(ShapeError, match="do not broadcast"):
            op(Tensor(np.zeros(3)), Tensor(np.ones(4)))

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dc.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    @pytest.mark.parametrize("a,b", [((2, 2, 3), (3, 3, 1)), ((2, 3), (4,)),
                                     ((3,), (4,)), ((), (3,))])
    def test_matmul_nd_shape_mismatch(self, a, b):
        with pytest.raises(ShapeError):
            dc.matmul(Tensor(np.zeros(a)), Tensor(np.zeros(b)))

    @pytest.mark.parametrize("axes", [(0, 0, 1), (0, 1), (0, 1, 3)])
    def test_transpose_bad_axes(self, axes):
        with pytest.raises(ShapeError):
            dc.transpose(Tensor(np.zeros((2, 3, 4))), axes)

    @pytest.mark.parametrize("a,b", [((2, 4, 3), (2, 3, 5)), ((4, 3), (2, 3, 5)),
                                     ((1, 4, 3), (2, 3, 5)), ((3,), (2, 3, 5)),
                                     ((2, 4, 3), (3,)), ((2, 1, 4, 3), (5, 3, 2))])
    def test_matmul_nd_value_is_np_matmul(self, a, b):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(a), rng.standard_normal(b)
        assert np.array_equal(dc.matmul(Tensor(x), Tensor(y)).data,
                              np.matmul(x, y))

    def test_transpose_axes_value(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        assert np.array_equal(dc.transpose(Tensor(x), (2, 0, 1)).data,
                              np.transpose(x, (2, 0, 1)))
        assert np.array_equal(Tensor(x).T.data, x.T)


class TestGradients:
    def test_add(self):
        check_grad(lambda a, b: scalarize(a + b), [(3, 4), (3, 4)])

    def test_add_broadcast(self):
        check_grad(lambda a, b: scalarize(a + b), [(3, 1, 2), (1, 4, 2)])

    def test_mul(self):
        check_grad(lambda a, b: scalarize(dc.mul(a, b)), [(4,), (4,)])

    def test_div(self):
        check_grad(lambda a, b: scalarize(dc.div(a, b + 5.0)), [(3,), (3,)])

    def test_matmul(self):
        check_grad(lambda a, b: scalarize(a @ b), [(3, 4), (4, 2)])

    def test_matvec(self):
        check_grad(lambda a, b: scalarize(a @ b), [(3, 4), (4,)])

    def test_dot(self):
        check_grad(lambda a, b: dc.mul(a @ b, a @ b), [(5,), (5,)])

    @pytest.mark.parametrize("shapes", [
        [(2, 3, 4), (2, 4, 5)],  # 3-D @ 3-D
        [(3, 4), (2, 4, 5)],  # 2-D @ 3-D
        [(2, 3, 4), (4, 5)],  # 3-D @ 2-D
        [(1, 3, 4), (2, 4, 5)],  # broadcast batch
        [(2, 1, 3, 4), (3, 4, 2)],  # broadcast over two batch axes
        [(4,), (2, 4, 5)],  # 1-D @ 3-D
        [(2, 3, 4), (4,)],  # 3-D @ 1-D
    ])
    def test_matmul_batched(self, shapes):
        check_grad(lambda a, b: scalarize(a @ b), shapes)

    @pytest.mark.parametrize("shape,axes", [
        ((2, 3, 4), (1, 0, 2)), ((2, 3, 4), (2, 0, 1)),
        ((2, 3, 4, 2), (0, 2, 3, 1)), ((2, 3, 4), (-1, 0, 1)),
        ((3, 4), None),
    ])
    def test_transpose_axes(self, shape, axes):
        # a fixed weight per entry, so a wrong permutation of the
        # gradient changes the result
        w = Tensor(np.random.default_rng(1).standard_normal(
            np.transpose(np.zeros(shape), axes).shape))
        check_grad(lambda a: dc.tsum(dc.mul(dc.transpose(a, axes), w)),
                   [shape])

    def test_matmul_2d_is_bitwise_the_plain_products(self):
        rng = np.random.default_rng(5)
        for m, k, n in [(1, 1, 1), (3, 4, 2), (7, 1, 5), (40, 128, 128),
                        (65, 16, 33)]:
            a = Tensor(rng.standard_normal((m, k)), requires_grad=True)
            b = Tensor(rng.standard_normal((k, n)), requires_grad=True)
            g = rng.standard_normal((m, n))
            out = a @ b
            out.backward(g)
            assert np.array_equal(out.data, a.data @ b.data)
            assert np.array_equal(a.grad, g @ b.data.T)
            assert np.array_equal(b.grad, a.data.T @ g)

    def test_softmax(self):
        check_grad(lambda a: scalarize(dc.softmax(a, axis=1)), [(3, 5)])

    def test_tanh(self):
        check_grad(lambda a: scalarize(dc.tanh(a)), [(6,)])

    def test_tanh_near_saturation(self):
        # larger inputs, looser tolerance
        rng = np.random.default_rng(3)
        a = rng.uniform(2.5, 3.5, size=5)
        t = Tensor(a.copy(), requires_grad=True)
        out = dc.tsum(dc.tanh(t))
        out.backward()
        fd = fd_gradient(lambda: float(np.tanh(a).sum()), a)
        assert np.allclose(t.grad, fd, rtol=1e-3, atol=1e-7)

    def test_exp_log(self):
        check_grad(lambda a: scalarize(dc.log(dc.exp(a) + 1.0)), [(4,)])

    def test_mean(self):
        check_grad(lambda a: scalarize(dc.tmean(a, axis=0)), [(4, 3)])

    def test_sum_keepdims(self):
        check_grad(lambda a: scalarize(dc.tsum(a, axis=1, keepdims=True)),
                   [(2, 5)])

    def test_concat(self):
        check_grad(lambda a, b: scalarize(dc.concat([a, b], axis=1)),
                   [(2, 3), (2, 2)])

    def test_reshape_transpose(self):
        check_grad(lambda a: scalarize(dc.transpose(a.reshape(2, 6))),
                   [(3, 4)])

    def test_gather(self):
        idx = np.array([2, 0, 2])
        check_grad(lambda a: scalarize(dc.gather(a, idx)), [(4, 3)])

    def test_masked_fill(self):
        mask = np.array([True, False, False, True])
        check_grad(lambda a: scalarize(dc.masked_fill(a, mask, 0.0)), [(4,)])

    def test_leaky_relu_elu(self):
        check_grad(lambda a: scalarize(dc.leaky_relu(a + 0.3, 0.2)), [(6,)])
        check_grad(lambda a: scalarize(dc.elu(a + 0.3)), [(6,)])

    def test_powi(self):
        check_grad(lambda a: scalarize(dc.powi(dc.mul(a, a) + 1.0, -0.5)),
                   [(5,)])

    def test_composite_against_fd(self):
        # a small MLP-like composite
        def net(w1, w2, x):
            h = dc.tanh(w1 @ x)
            return dc.tsum(dc.softmax(w2 @ h, axis=0) * Tensor(np.arange(3.0)))
        check_grad(net, [(4, 5), (3, 4), (5,)])

    def test_reused_node_accumulates(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        out = dc.mul(a, a) + a  # x^2 + x -> 2x + 1 = 5
        out.backward(np.array([1.0]))
        assert a.grad[0] == pytest.approx(5.0)


class TestBackwardBookkeeping:
    def test_tape_visits_each_node_once(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = a + 1.0
        c = dc.mul(b, b)
        d = dc.tsum(c + b)
        tape = dc.Tape(d)
        ids = [id(n) for n in tape.order]
        assert len(ids) == len(set(ids))

    def test_only_inputs_that_require_a_gradient_are_parents(self):
        a = Tensor(np.array([[1.5, -2.0], [0.25, 3.0]]), requires_grad=True)
        c = Tensor(np.array([[4.0, 0.5], [-1.0, 2.0]]))
        out = dc.concat([a, c, a])
        assert out._parents == (a, a) and len(out._bwd) == 2
        seed = np.arange(12.0).reshape(6, 2)
        out.backward(seed)
        assert a.grad.tolist() == (seed[:2] + seed[4:]).tolist()
        assert c.grad is None

        a.grad = None
        out = dc.matmul(c, a)
        assert out._parents == (a,) and len(out._bwd) == 1
        seed = np.array([[1.0, -1.0], [0.5, 2.0]])
        out.backward(seed)
        assert a.grad.tolist() == (c.data.T @ seed).tolist()
        assert c.grad is None

    def test_no_grad_without_requires(self):
        a = Tensor(np.ones(3))
        out = dc.tsum(dc.tanh(a))
        assert out._bwd is None and not out.requires_grad

    def test_fused_op_runs_one_backward_per_pass(self):
        """A fused op is one node; its vjps share one backward per pass,
        and a new pass (a new output gradient) runs it again."""
        a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 0.5]), requires_grad=True)
        c = Tensor(np.array([7.0, 7.0]))
        calls = []

        def backward(g):
            calls.append(g)
            return g * b.data * c.data, g * a.data * c.data, None

        out = dc.fused(a.data * b.data * c.data, [a, b, c], backward)
        assert out._parents == (a, b) and len(dc.Tape(out).order) == 3
        seed = np.array([1.0, 2.0])
        out.backward(seed)
        assert len(calls) == 1
        assert a.grad.tolist() == [21.0, 7.0]
        assert b.grad.tolist() == [7.0, -28.0]
        a.grad = b.grad = None
        out.backward(-seed)
        assert len(calls) == 2 and a.grad.tolist() == [-21.0, -7.0]

    def test_softmax_array_in_place_is_the_same_value(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 7))
        x[rng.random(x.shape) < 0.3] = -np.inf
        x[..., 0] = 0.5
        want = dc.softmax_array(x, -1)
        assert dc.softmax_array(x, -1, out=x) is x
        assert np.array_equal(x, want)

    @pytest.mark.parametrize("shape,axis", [
        ((32, 4, 12, 12), -1), ((4, 290, 16), -1), ((16, 30, 65), -1),
        ((10, 65), 1), ((1, 65), 1), ((300, 3), 0), ((2, 200, 5), 1),
        ((1, 1), -1), ((130, 1), -1)])
    def test_row_max_is_numpys_max(self, shape, axis):
        """Both ways of taking the row max, over many short rows and over
        few or long ones, give np.max exactly, -inf and NaN included."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=shape)
        x[rng.random(shape) < 0.3] = -np.inf
        x.flat[::97] = np.nan
        want = np.max(x, axis=axis, keepdims=True)
        got = dc._row_max(x, axis)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)


class TestGatherScatter:
    """gather's vjp scatters with plain indexing when its index names each
    row at most once, and with np.add.at otherwise; both must equal
    np.add.at bit for bit, the sign of zero included."""

    @pytest.mark.parametrize("index", [
        np.flatnonzero([1, 0, 1, 1, 0, 1]), np.array([2, 0, 2, 5]),
        np.array([3, 1]), np.array([-1, 0, 2]), np.array([], dtype=int),
        np.array([[0, 2], [2, 4]]), 4, [0, 1, 3]])
    def test_vjp_equals_add_at(self, index):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        out = dc.gather(a, index)
        g = rng.normal(size=out.shape)
        g[rng.random(g.shape) < 0.4] = -0.0
        want = np.zeros((6, 3))
        np.add.at(want, index, g)
        out.backward(g)
        assert np.array_equal(a.grad, want)
        assert (np.signbit(a.grad) == np.signbit(want)).all()

    def test_distinct_rows(self):
        assert dc._distinct_rows(np.flatnonzero([0, 1, 1, 0, 1]))
        assert dc._distinct_rows(np.array([], dtype=np.int64))
        for index in (np.array([1, 1]), np.array([2, 1]),
                      np.array([-1, 0]), np.array([[0, 1]]),
                      np.array([0.0, 1.0]), [0, 1], 3):
            assert not dc._distinct_rows(index)


class TestAdam:
    def test_zero_gradient_no_change(self):
        params = {"w": np.array([1.0, 2.0])}
        state = adam_init(params)
        adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        assert (params["w"] == np.array([1.0, 2.0])).all()

    def test_first_step_is_signed_lr(self):
        params = {"w": np.array([0.0, 0.0])}
        state = adam_init(params)
        adam_step(params, {"w": np.array([3.0, -0.25])}, state, lr=0.01)
        assert np.allclose(params["w"], [-0.01, 0.01], atol=1e-6)

    def test_quadratic_bowl(self):
        params = {"w": np.array([2.0, -3.0])}
        state = adam_init(params)
        first = float((params["w"] ** 2).sum())
        for _ in range(500):
            adam_step(params, {"w": 2 * params["w"]}, state, lr=3e-4)
        assert float((params["w"] ** 2).sum()) < first

    def test_non_finite_gradient_aborts(self):
        params = {"w": np.zeros(2)}
        state = adam_init(params)
        with pytest.raises(NumericError):
            adam_step(params, {"w": np.array([np.nan, 0.0])}, state)

    def test_the_error_names_the_first_bad_parameter(self):
        params = {k: np.zeros(2) for k in ("c", "a", "b", "d")}
        grads = {"a": np.ones(2), "b": np.array([1.0, np.inf]),
                 "c": np.array([np.nan, 0.0]), "d": np.ones(2)}
        before = {k: v.copy() for k, v in params.items()}
        with pytest.raises(NumericError, match="non-finite gradient for 'b'"):
            adam_step(params, grads, adam_init(params))
        assert all(np.array_equal(params[k], before[k]) for k in params)

    def test_flat_moments_equal_one_update_per_parameter(self):
        """50 steps over parameters of several shapes, every name with a
        gradient at every step, equal bit for bit the update computed
        parameter by parameter (the loop Adam was before its moments were
        flat)."""
        rng = np.random.default_rng(4)
        shapes = {"b": (3, 4), "a": (5,), "c": (2, 2, 2), "z": (7, 3)}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        ref = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        state = adam_init(params)
        lr, beta1, beta2, eps = 1e-2, 0.9, 0.999, 1e-8
        for t in range(1, 51):
            grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-8, 3)
                     for k, s in shapes.items()}
            adam_step(params, grads, state, lr=lr)
            for k in sorted(grads):
                g = grads[k]
                m[k] += (1 - beta1) * (g - m[k])
                v[k] += (1 - beta2) * (g * g - v[k])
                m_hat = m[k] / (1 - beta1**t)
                v_hat = v[k] / (1 - beta2**t)
                ref[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            for k in shapes:
                assert np.array_equal(params[k], ref[k]), (t, k)
        assert state["t"] == 50

    @pytest.mark.parametrize("given", [{"a", "d"}, {"a", "c", "d"}, set()])
    def test_a_missing_gradient_raises_and_changes_nothing(self, given):
        """A name missing from ``grads`` raises, naming the first missing
        parameter, and leaves every parameter, both moments and the step
        count as they were."""
        rng = np.random.default_rng(5)
        params = {k: rng.normal(size=3) for k in "dcba"}
        state = adam_init(params)
        adam_step(params, {k: rng.normal(size=3) for k in params}, state)
        before = {k: v.copy() for k, v in params.items()}
        m, v = state["m"].copy(), state["v"].copy()
        first = min(set(params) - given)
        with pytest.raises(QLayoutError, match=f"no gradient for '{first}'"):
            adam_step(params, {k: np.ones(3) for k in given}, state)
        assert all(np.array_equal(params[k], before[k]) for k in params)
        assert np.array_equal(state["m"], m) and np.array_equal(state["v"], v)
        assert state["t"] == 1
