"""Minimal reverse-mode autodiff on float64 numpy arrays.

Just enough machinery for the policy network. An op computes its value
and one vjp per input, the function from the output's gradient to that
input's; ``_make`` records the inputs that require a gradient with their
vjps. ``Tape`` linearizes the op graph so backward visits every node once
in reverse topological order and accumulates each vjp into its input.
A fused op, such as the policy's GAT layer with its norm, is one ``_make``
call too (through ``fused``): its forward runs in plain numpy and each
input gets a hand-written vjp, all read from one shared backward.
No ML framework is involved and everything runs in float64 so gradient
checks can be tight.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import NumericError, QLayoutError, ShapeError


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._bwd = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad = self.grad + g

    def backward(self, grad=None):
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward without a seed needs a scalar", self.shape)
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=np.float64)
        Tape(self).run()

    # operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    @property
    def T(self):
        return transpose(self)


class Tape:
    """Reverse-topological schedule of the ops reachable from a root."""

    def __init__(self, root):
        order = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.order = order  # topological; run() walks it in reverse

    def run(self):
        for node in reversed(self.order):
            if node._bwd is not None:
                g = node.grad
                for parent, vjp in zip(node._parents, node._bwd):
                    parent._accum(vjp(g))


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, *pairs):
    """The output of an op whose value is ``data``. Each pair is an input
    and its vjp, which maps the output's gradient to that input's; only the
    inputs that require a gradient are kept, in order."""
    out = Tensor(data)
    kept = [pair for pair in pairs if pair[0].requires_grad]
    if kept:
        out.requires_grad = True
        out._parents, out._bwd = zip(*kept)
    return out


def fused(data, inputs, backward):
    """The output of a fused op: one tape node whose value is ``data`` and
    whose vjps share ``backward(g)``, the tuple of every input's gradient
    in ``inputs`` order. A backward pass computes it at its first vjp call
    and the other vjps read it."""
    memo = [None, None]  # the output's gradient and backward of it

    def grads(g):
        if memo[0] is not g:
            memo[:] = g, backward(g)
        return memo[1]

    return _make(data, *((t, lambda g, i=i: grads(g)[i])
                         for i, t in enumerate(inputs)))


def _unbroadcast(g, shape):
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# --- elementwise ----------------------------------------------------

def _broadcast(name, op, a, b):
    """The tensors of a binary elementwise op and its value ``op(a, b)``."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        return a, b, op(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{name} operands do not broadcast", a.shape, b.shape)


def add(a, b):
    a, b, data = _broadcast("add", operator.add, a, b)
    return _make(data, (a, lambda g: _unbroadcast(g, a.data.shape)),
                 (b, lambda g: _unbroadcast(g, b.data.shape)))


def sub(a, b):
    a, b, data = _broadcast("sub", operator.sub, a, b)
    return _make(data, (a, lambda g: _unbroadcast(g, a.data.shape)),
                 (b, lambda g: _unbroadcast(-g, b.data.shape)))


def mul(a, b):
    a, b, data = _broadcast("mul", operator.mul, a, b)
    return _make(data, (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
                 (b, lambda g: _unbroadcast(g * a.data, b.data.shape)))


def div(a, b):
    a, b, data = _broadcast("div", operator.truediv, a, b)
    return _make(
        data, (a, lambda g: _unbroadcast(g / b.data, a.data.shape)),
        (b, lambda g: _unbroadcast(-g * a.data / (b.data * b.data),
                                   b.data.shape)))


def powi(a, exponent):
    """Elementwise power with a constant real exponent."""
    a = _as_tensor(a)
    return _make(np.power(a.data, exponent), (
        a, lambda g: g * exponent * np.power(a.data, exponent - 1)))


def exp(a):
    a = _as_tensor(a)
    data = np.exp(a.data)
    return _make(data, (a, lambda g: g * data))


def log(a):
    a = _as_tensor(a)
    return _make(np.log(a.data), (a, lambda g: g / a.data))


def tanh(a):
    a = _as_tensor(a)
    data = np.tanh(a.data)
    return _make(data, (a, lambda g: g * (1.0 - data * data)))


def leaky_relu(a, slope=0.2):
    a = _as_tensor(a)
    mask = a.data >= 0
    return _make(np.where(mask, a.data, slope * a.data),
                 (a, lambda g: g * np.where(mask, 1.0, slope)))


def elu(a, alpha=1.0):
    a = _as_tensor(a)
    mask = a.data >= 0
    # expm1 overflows above ~709, where the ELU is the input itself
    with np.errstate(over="ignore"):
        data = np.where(mask, a.data, alpha * np.expm1(a.data))
    return _make(data, (a, lambda g: g * np.where(mask, 1.0, data + alpha)))


# --- structural -----------------------------------------------------

# By (a is 1-D, b is 1-D), the index that gives matmul's output gradient
# the axes a promoted operand adds: exactly the views g[..., None] and
# g[..., None, :], whose strides choose numpy's kernel and so the rounding.
_MATMUL_LIFT = {(False, False): ..., (False, True): (..., None),
                (True, False): (..., None, slice(None)),
                (True, True): (None, None)}


def matmul(a, b):
    """Matrix product with the semantics of ``np.matmul``: leading batch
    dimensions broadcast, and a 1-D operand is promoted to a matrix whose
    added axis the result drops."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError("matmul shape mismatch", a.shape, b.shape)
    a_vec, b_vec = a.ndim == 1, b.ndim == 1
    # the promoted operands
    ad = a.data[None] if a_vec else a.data
    bd = b.data[:, None] if b_vec else b.data
    lift = _MATMUL_LIFT[a_vec, b_vec]
    return _make(
        data,
        (a, lambda g: _unbroadcast(g[lift] @ np.swapaxes(bd, -1, -2),
                                   ad.shape).reshape(a.shape)),
        (b, lambda g: _unbroadcast(np.swapaxes(ad, -1, -2) @ g[lift],
                                   bd.shape).reshape(b.shape)))


def reshape(a, shape):
    a = _as_tensor(a)
    return _make(a.data.reshape(shape),
                 (a, lambda g: g.reshape(a.data.shape)))


def transpose(a, axes=None):
    """Permute the axes as ``np.transpose`` does; by default reverse them."""
    a = _as_tensor(a)
    try:
        data = np.transpose(a.data, axes)
    except ValueError:
        raise ShapeError(f"axes {axes} do not permute the operand", a.shape)
    inverse = None if axes is None else np.argsort(
        [ax % a.ndim for ax in axes])
    return _make(data, (a, lambda g: np.transpose(g, inverse)))


def concat(parts, axis=0):
    parts = [_as_tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.data.shape[axis] for p in parts])
    pairs = []
    for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
        idx = [slice(None)] * data.ndim
        idx[axis] = slice(lo, hi)
        pairs.append((p, lambda g, idx=tuple(idx): g[idx]))
    return _make(data, *pairs)


def tsum(a, axis=None, keepdims=False):
    a = _as_tensor(a)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.data.shape)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a, vjp))


def tmean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), Tensor(1.0 / count))


def gather(a, index):
    """Select along axis 0 by integer or integer-array index."""
    a = _as_tensor(a)

    def vjp(g):
        acc = np.zeros_like(a.data)
        if _distinct_rows(index):
            acc[index] += g  # 0.0 + g, as np.add.at gives, -0.0 included
        else:
            np.add.at(acc, index, g)
        return acc

    return _make(np.take(a.data, index, axis=0), (a, vjp))


def _distinct_rows(index):
    """Whether ``index`` is a 1-D integer array, strictly increasing from 0
    or more (as ``np.flatnonzero`` gives), so it names each row at most
    once and a scatter needs no accumulation."""
    return (isinstance(index, np.ndarray) and index.ndim == 1
            and index.dtype.kind in "iu"
            and (index.size == 0 or index[0] >= 0)
            and bool((index[1:] > index[:-1]).all()))


def masked_fill(a, mask, value):
    """Where ``mask`` is true, replace entries by ``value`` (no gradient
    flows into filled positions)."""
    a = _as_tensor(a)
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), a.data.shape)
    return _make(np.where(mask, value, a.data),
                 (a, lambda g: np.where(mask, 0.0, g)))


def _row_max(x, axis):
    """``np.max(x, axis, keepdims=True)``. A maximum is exact in any order,
    and over many short rows the elementwise maximum of the slices of a
    copy with ``axis`` first is about three times faster than numpy's
    reduction row by row; over few or long rows it is slower."""
    length = x.shape[axis]
    if length < 64 and x.size >= 128 * length:
        return np.expand_dims(np.moveaxis(x, axis, 0).copy().max(axis=0),
                              axis)
    return np.max(x, axis=axis, keepdims=True)


def softmax_array(x, axis, out=None):
    """Softmax of a plain array along ``axis``; entries of -inf get zero
    mass. The forward value of ``softmax``, computed in one new array or
    in ``out``, which may be ``x``."""
    e = np.subtract(x, _row_max(x, axis), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax(a, axis=-1):
    a = _as_tensor(a)
    data = softmax_array(a.data, axis)

    def vjp(g):
        grad = g - (g * data).sum(axis=axis, keepdims=True)
        grad *= data
        return grad

    return _make(data, (a, vjp))


# --- optimizer ------------------------------------------------------

def adam_init(params):
    """Adam's step count and moments. The first and second moments are one
    flat array each, over every parameter in ``sorted(params)`` order."""
    size = sum(np.size(params[name]) for name in params)
    return {"t": 0, "m": np.zeros(size), "v": np.zeros(size)}


def adam_step(params, grads, state, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """Standard Adam update with bias correction; mutates params in place.

    Every name in ``params`` needs a gradient: the first one missing from
    ``grads`` is named in a QLayoutError raised before anything changes.
    The update is computed once over the concatenated gradient; it is
    elementwise, so every value is that of one update per parameter."""
    names = sorted(params)
    missing = [name for name in names if grads.get(name) is None]
    if missing:
        raise QLayoutError(f"no gradient for '{missing[0]}'")
    state["t"] += 1
    t = state["t"]
    g = np.concatenate([np.ravel(grads[name]) for name in names])
    if not np.isfinite(g).all():
        bad = next(name for name in names
                   if not np.all(np.isfinite(grads[name])))
        raise NumericError(f"non-finite gradient for '{bad}'")
    m, v = state["m"], state["v"]
    m += (1 - beta1) * (g - m)
    v += (1 - beta2) * (g * g - v)
    m_hat = m / (1 - beta1**t)
    v_hat = v / (1 - beta2**t)
    step = lr * m_hat / (np.sqrt(v_hat) + eps)
    offsets = np.cumsum([0] + [np.size(params[name]) for name in names])
    for name, lo, hi in zip(names, offsets[:-1], offsets[1:]):
        params[name] -= step[lo:hi].reshape(np.shape(params[name]))
    return params, state
