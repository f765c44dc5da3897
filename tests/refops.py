"""Generic tensor ops and the standalone attention functions.

No train, fold or serve path runs these: the package's forward passes use
fused ops. They stay as reference code. The op chains in ``oracles`` are
built from them, the gradient suite checks their backward rules, and the
attention functions are the textbook forms that the fused sublayers in
``ckrank.attention`` are compared with.

Broadcasting is deliberately narrow: elementwise binary ops accept equal
shapes, a scalar operand, or a trailing-dimension bias vector.
"""

import numpy as np

from ckrank.errors import ShapeError
from ckrank.tensor import _reduce_to, scale, softmax, wrap_op


def _binary_shapes_ok(a, b):
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return True
    sm, lg = (a, b) if a.ndim < b.ndim else (b, a)
    return sm.ndim == 1 and lg.ndim >= 1 and lg.shape[-1] == sm.shape[0]


def _binary(a, b, fwd, da, db, name):
    if not _binary_shapes_ok(a, b):
        raise ShapeError(f"{name}: shapes {tuple(a.shape)} and {tuple(b.shape)} "
                         "are neither equal, scalar, nor a trailing bias")
    with np.errstate(all="ignore"):
        out_data = fwd(a._data, b._data)
    a_data, b_data = a._data, b._data

    def backward(g):
        a._accumulate(_reduce_to(da(g, a_data, b_data), a_data.shape))
        b._accumulate(_reduce_to(db(g, a_data, b_data), b_data.shape))

    return wrap_op(out_data, (a, b), backward, name)


# -- elementwise -------------------------------------------------------------


def add(a, b):
    return _binary(a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g, "add")


def sub(a, b):
    return _binary(a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g, "sub")


def mul(a, b):
    return _binary(a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x, "mul")


def div(a, b):
    return _binary(a, b, lambda x, y: x / y,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y), "div")


def maximum(a, b):
    """Elementwise max; on ties the gradient routes to the first operand."""
    def d_a(g, x, y):
        return g * (x >= y)

    def d_b(g, x, y):
        return g * (x < y)

    return _binary(a, b, np.maximum, d_a, d_b, "maximum")


def add_const(a, c):
    c = float(c)
    data = a._data + c

    def backward(g):
        a._accumulate(g)

    return wrap_op(data, (a,), backward, "add_const")


def relu(a):
    data = np.maximum(a._data, 0)

    def backward(g):
        a._accumulate(g * (data > 0))

    return wrap_op(data, (a,), backward, "relu")


def exp(a):
    with np.errstate(over="ignore"):
        data = np.exp(a._data)

    def backward(g):
        a._accumulate(g * data)

    return wrap_op(data, (a,), backward, "exp")


def log(a):
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a._data)
    a_data = a._data

    def backward(g):
        a._accumulate(g / a_data)

    return wrap_op(data, (a,), backward, "log")


def sqrt(a):
    with np.errstate(invalid="ignore"):
        data = np.sqrt(a._data)

    def backward(g):
        a._accumulate(g / (2.0 * data))

    return wrap_op(data, (a,), backward, "sqrt")


def softplus(a):
    """log(1 + exp(x)), stable for large |x|."""
    x = a._data
    data = np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0)

    def backward(g):
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-x))
        a._accumulate(g * sig)

    return wrap_op(data, (a,), backward, "softplus")


# -- shape ops ---------------------------------------------------------------


def matmul(a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {tuple(a.shape)} x {tuple(b.shape)}")
    data = a._data @ b._data
    a_data, b_data = a._data, b._data

    def backward(g):
        a._accumulate(g @ b_data.T)
        b._accumulate(a_data.T @ g)

    return wrap_op(data, (a, b), backward, "matmul")


def transpose(a):
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {tuple(a.shape)}")
    data = a._data.T.copy()

    def backward(g):
        a._accumulate(g.T)

    return wrap_op(data, (a,), backward, "transpose")


def reshape(a, shape):
    data = a._data.reshape(shape).copy()
    orig = a._data.shape

    def backward(g):
        a._accumulate(g.reshape(orig))

    return wrap_op(data, (a,), backward, "reshape")


def narrow(a, axis, start, length):
    """Contiguous slice [start, start+length) along axis, as a copy."""
    if not (0 <= start and start + length <= a.shape[axis]):
        raise ShapeError(f"narrow: [{start}, {start + length}) outside axis of size "
                         f"{a.shape[axis]}")
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    data = a._data[idx].copy()
    full_shape = a._data.shape

    def backward(g):
        buf = np.zeros(full_shape, dtype=g.dtype)
        buf[idx] = g
        a._accumulate(buf)

    return wrap_op(data, (a,), backward, "narrow")


# -- reductions ---------------------------------------------------------------


def tmax(a, axis=None):
    """Max reduction; gradient flows to the first argmax position(s)."""
    if axis is None:
        data = a._data.max()
        flat_idx = int(a._data.argmax())

        def backward(g):
            buf = np.zeros_like(a._data)
            buf.reshape(-1)[flat_idx] = g
            a._accumulate(buf)
    else:
        data = a._data.max(axis=axis)
        arg = np.expand_dims(a._data.argmax(axis=axis), axis)

        def backward(g):
            buf = np.zeros_like(a._data)
            np.put_along_axis(buf, arg, np.expand_dims(g, axis), axis)
            a._accumulate(buf)

    return wrap_op(np.asarray(data), (a,), backward, "max")


# -- attention ----------------------------------------------------------------


def self_attention(q, k, v):
    """Baseline attention: softmax(q kᵀ / sqrt(d_key)) v, with the full
    n-by-n weight matrix held in memory."""
    _check_rows(q, k, v)
    d_key = q.shape[1]
    scores = matmul(scale(q, 1.0 / np.sqrt(d_key)), transpose(k))
    attn = softmax(scores, axis=-1)
    return matmul(attn, v)


def separable_self_attention(q, k, v):
    """Linear-memory attention: softmax(q, over d_key) @ (softmax(kᵀ, over n) @ v).

    The inner product collapses the sequence axis before anything touches q,
    so peak extra memory is O(n * d_key) + O(d_key * d_value).
    """
    _check_rows(q, k, v)
    phi_q = softmax(q, axis=-1)
    phi_kt = softmax(transpose(k), axis=-1)
    summary = matmul(phi_kt, v)
    return matmul(phi_q, summary)


def _check_rows(q, k, v):
    if not (q.shape[0] == k.shape[0] == v.shape[0]):
        raise ShapeError(f"attention row counts differ: q {tuple(q.shape)}, "
                         f"k {tuple(k.shape)}, v {tuple(v.shape)}")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"q and k key dims differ: {q.shape[1]} vs {k.shape[1]}")
