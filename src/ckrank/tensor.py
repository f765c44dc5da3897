"""Dense tensor core with reverse-mode automatic differentiation.

Tensors hold row-major numpy buffers (float32 by default, float64 under
``precision("float64")`` for oracle-grade tests). Every operation that
participates in training records a backward closure on the output; calling
``backward(loss)`` walks the recorded graph once in reverse topological
order, accumulates gradients into leaf tensors, and releases the graph.

Broadcasting is deliberately narrow: elementwise binary ops accept equal
shapes, a scalar operand, or a trailing-dimension bias vector. Everything
else must be shaped explicitly, which keeps the allocation accounting in
:mod:`ckrank.memory` an exact model of what the math needs. Each tensor
makes one ``tracker.register`` call when it is made, which charges its
bytes, and gives them back in ``__del__`` when it is deallocated; there is
no registry of live tensors (``tracker.audit()`` walks the collector).

``grouped_conv1d`` pads its input group-major, so every receptive field is
one contiguous run of window * cg values and all fields are a strided view.
BLAS cannot read overlapping rows, so the fields are copied into one reused
buffer a cache-sized chunk of positions at a time (``_CONV_CHUNK_BYTES``),
each chunk one batched matmul. The input gradient runs through the same
helper; the kernel gradient multiplies the view directly.
"""

import contextvars
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, ContractError, NonFiniteError, ShapeError
from .memory import tracker

# Numeric mode flags are per thread (and per asyncio task): a thread that
# indexes under no_grad must not switch off graph recording for a thread
# that trains alongside it. New threads start from the defaults.
_DEFAULT_DTYPE = contextvars.ContextVar("ckrank_default_dtype", default=np.float32)
_GRAD_ENABLED = contextvars.ContextVar("ckrank_grad_enabled", default=True)
_CHECK_FINITE = contextvars.ContextVar("ckrank_check_finite", default=True)


@contextmanager
def _setting(var, value):
    token = var.set(value)
    try:
        yield
    finally:
        var.reset(token)


def precision(mode):
    """Switch the default dtype: ``"float32"`` (default) or ``"float64"``."""
    if mode not in ("float32", "float64"):
        raise ContractError(f"unknown precision mode {mode!r}")
    return _setting(_DEFAULT_DTYPE, np.float64 if mode == "float64" else np.float32)


def default_dtype():
    return _DEFAULT_DTYPE.get()


def no_grad():
    """Disable graph recording; forward values are unchanged."""
    return _setting(_GRAD_ENABLED, False)


def grad_enabled():
    return _GRAD_ENABLED.get()


def finite_checks(enabled):
    """Toggle the NaN/Inf check that runs after every op (on by default)."""
    return _setting(_CHECK_FINITE, enabled)


class Tensor:
    """A dense array plus optional gradient buffer and backward closure.

    ``_nbytes`` is what the tensor has charged to the tracker (data, gradient
    buffer, kept intermediates); deallocation releases all of it.
    """

    __slots__ = ("_data", "grad", "requires_grad", "_parents", "_backward",
                 "_kept", "_nbytes", "_cleared")

    def __init__(self, data, requires_grad=False, dtype=None):
        self._nbytes = 0  # __del__ runs even when the conversion below raises
        arr = np.array(data, dtype=dtype or _DEFAULT_DTYPE.get(), order="C")
        self._init_from(arr, requires_grad)

    def _init_from(self, arr, requires_grad):
        self._data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._kept = 0
        self._cleared = False
        self._nbytes = arr.nbytes
        tracker.register(self)

    def __del__(self, _free=tracker.free):
        # _free is bound at class creation, so this still works while module
        # globals are being torn down at interpreter exit.
        _free(self._nbytes)

    @classmethod
    def _wrap(cls, arr, requires_grad):
        """Adopt a freshly computed array without copying.

        np.ascontiguousarray would promote 0-d arrays to shape (1,);
        asarray with order="C" copies only a non-contiguous array.
        """
        arr = np.asarray(arr, order="C")
        t = cls.__new__(cls)
        t._init_from(arr, requires_grad)
        return t

    # -- basic views ------------------------------------------------------

    @property
    def data(self):
        """Underlying numpy buffer. Treat as read-only outside optimizers."""
        return self._data

    @property
    def shape(self):
        return self._data.shape

    @property
    def ndim(self):
        return self._data.ndim

    @property
    def size(self):
        return self._data.size

    @property
    def dtype(self):
        return self._data.dtype

    def item(self):
        if self._data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape "
                                f"{tuple(self.shape)}")
        return float(self._data.reshape(-1)[0])

    def numpy(self):
        return self._data.copy()

    def tracked_nbytes(self):
        return self._nbytes

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self._data.dtype}{flag})"

    # -- gradient buffers --------------------------------------------------

    def _ensure_grad(self):
        if self.grad is None:
            g = np.zeros_like(self._data)
            self.grad = g
            self._nbytes += g.nbytes
            tracker.alloc(g.nbytes)

    def _accumulate(self, g):
        if not self.requires_grad:
            return
        self._ensure_grad()
        self.grad += g

    def drop_grad(self):
        if self.grad is not None:
            nbytes = self.grad.nbytes
            self.grad = None
            self._nbytes -= nbytes
            tracker.free(nbytes)

    def _release_graph(self):
        self._backward = None
        self._parents = ()
        self._cleared = True
        if self._kept:
            self._nbytes -= self._kept
            tracker.free(self._kept)
            self._kept = 0

    def backward(self):
        backward(self)

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add_const(self, other) if _is_number(other) else add(self, other)

    def __sub__(self, other):
        return add_const(self, -other) if _is_number(other) else sub(self, other)

    def __mul__(self, other):
        return scale(self, other) if _is_number(other) else mul(self, other)

    def __truediv__(self, other):
        return scale(self, 1.0 / other) if _is_number(other) else div(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    __radd__ = __add__
    __rmul__ = __mul__


def _is_number(x):
    return isinstance(x, (int, float, np.floating, np.integer))


def parameter(data, dtype=None):
    """Leaf tensor with gradient tracking, for trainable weights."""
    return Tensor(data, requires_grad=True, dtype=dtype)


def constant(data, dtype=None):
    return Tensor(data, requires_grad=False, dtype=dtype)


# -- op plumbing -------------------------------------------------------------


def _check(arr, name):
    if _CHECK_FINITE.get() and not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values produced by op '{name}'")


def wrap_op(out_data, parents, backward_fn, name, saved=()):
    """Build an op output tensor; ``backward_fn(g)`` must push grads to parents.

    This is the extension point fused ops elsewhere in the package use.
    The closure must capture numpy arrays, never the output tensor itself.
    ``saved`` lists the intermediates (not parent buffers) the closure
    keeps; while the graph holds the closure their bytes are charged to
    the output, so fused ops stay visible to the live-bytes tracker.
    """
    _check(out_data, name)
    needs = _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)
    out = Tensor._wrap(out_data, needs)
    if needs:
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward_fn
        if saved:
            out._kept = sum(a.nbytes for a in saved)
            out._nbytes += out._kept
            tracker.alloc(out._kept)
    return out


def _reduce_to(g, shape):
    """Undo scalar / trailing-bias broadcasting by summing g down to shape."""
    if g.shape == shape:
        return g
    if shape == ():
        return g.sum()
    if g.size == 1 and int(np.prod(shape)) == 1:
        return g.reshape(shape)
    # trailing-dimension vector: sum over leading axes
    lead = g.ndim - len(shape)
    g = g.sum(axis=tuple(range(lead))) if lead else g
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


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


def scale(a, s):
    s = float(s)
    data = a._data * s

    def backward(g):
        a._accumulate(g * s)

    return wrap_op(data, (a,), backward, "scale")


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


def dropout(a, p, training, rng):
    """Zero elements with probability p, scaling survivors by 1/(1-p).

    The sampled mask is captured in the backward closure, so gradients are
    exact for the realized mask. Identity (same tensor) when inactive.
    """
    if not training or p <= 0.0:
        return a
    if p >= 1.0:
        raise ContractError("dropout probability must be < 1")
    keep = (rng.random(a.shape) >= p).astype(a._data.dtype) / (1.0 - p)
    data = a._data * keep

    def backward(g):
        a._accumulate(g * keep)

    return wrap_op(data, (a,), backward, "dropout")


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


def concat(tensors, axis=0):
    if not tensors:
        raise ContractError("concat of zero tensors")
    data = np.concatenate([t._data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            t._accumulate(g[tuple(idx)])

    return wrap_op(data, tuple(tensors), backward, "concat")


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


def gather(a, indices):
    """Pick elements of a 1-d tensor by integer index (repeats allowed)."""
    if a.ndim != 1:
        raise ShapeError(f"gather expects a vector, got shape {tuple(a.shape)}")
    idx = np.asarray(indices, dtype=np.int64)
    data = a._data[idx]

    def backward(g):
        buf = np.zeros_like(a._data)
        np.add.at(buf, idx, g)
        a._accumulate(buf)

    return wrap_op(data, (a,), backward, "gather")


def segment_sum(a, segment_ids, num_segments):
    """out[s] = sum of a[i] with segment_ids[i] == s, for a 1-d tensor."""
    if a.ndim != 1:
        raise ShapeError(f"segment_sum expects a vector, got shape {tuple(a.shape)}")
    seg = np.asarray(segment_ids, dtype=np.int64)
    data = np.bincount(seg, weights=a._data, minlength=num_segments).astype(a._data.dtype)

    def backward(g):
        a._accumulate(g[seg])

    return wrap_op(data, (a,), backward, "segment_sum")


# -- reductions ---------------------------------------------------------------


def tsum(a, axis=None):
    data = a._data.sum(axis=axis)
    shape = a._data.shape

    def backward(g):
        if axis is None:
            a._accumulate(np.broadcast_to(g, shape).copy())
        else:
            a._accumulate(np.broadcast_to(np.expand_dims(g, axis), shape).copy())

    return wrap_op(data, (a,), backward, "sum")


def tmean(a, axis=None):
    count = a.size if axis is None else a.shape[axis]
    out = tsum(a, axis=axis)
    return scale(out, 1.0 / count)


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


def softmax(a, axis=-1):
    """Stable softmax along ``axis``; slices sum to one."""
    x = a._data
    shifted = x - x.max(axis=axis, keepdims=True)
    with np.errstate(over="ignore"):
        e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * s).sum(axis=axis, keepdims=True)
        a._accumulate(s * (g - inner))

    return wrap_op(s, (a,), backward, "softmax")


# -- neural-net primitives ----------------------------------------------------


def linear(x, weight, bias=None):
    """x @ weight + bias in one allocation."""
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {tuple(x.shape)} x "
                         f"{tuple(weight.shape)}")
    data = x._data @ weight._data
    if bias is not None:
        if bias.shape != (weight.shape[1],):
            raise ShapeError(f"linear: bias shape {tuple(bias.shape)} does not match "
                             f"output dim {weight.shape[1]}")
        data += bias._data
    x_data, w_data = x._data, weight._data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        x._accumulate(g @ w_data.T)
        weight._accumulate(x_data.T @ g)
        if bias is not None:
            bias._accumulate(g.sum(axis=0))

    return wrap_op(data, parents, backward, "linear")


def embedding(table, ids):
    """Row lookup into an embedding table; gradient scatter-adds by id."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("embedding ids must be a 1-d sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(f"embedding id out of range for table of {table.shape[0]} rows")
    data = table._data[idx].copy()

    def backward(g):
        if table.requires_grad:
            table._ensure_grad()
            np.add.at(table.grad, idx, g)

    return wrap_op(data, (table,), backward, "embedding")


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize each row over the last dimension, then affine-transform:
    centre once, take the variance as a row-wise dot, scale in place."""
    d = x.shape[-1]
    xhat = x._data - np.add.reduce(x._data, axis=-1, keepdims=True) / d
    denom = np.sqrt(np.vecdot(xhat, xhat)[..., None] / d + eps)
    xhat /= denom
    data = xhat * gamma._data
    data += beta._data

    def backward(g):
        gg = g * gamma._data
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        # The rounded mean leaves the centred rows a tiny mean of their own;
        # removing it here keeps the gradient that of the computed forward.
        xc = xhat - xhat.mean(axis=-1, keepdims=True)
        x._accumulate((gg - m1 - xc * m2) / denom)
        gamma._accumulate(_reduce_to(g * xhat, gamma._data.shape))
        beta._accumulate(_reduce_to(g, beta._data.shape))

    return wrap_op(data, (x, gamma, beta), backward, "layer_norm")


# Bytes of receptive fields copied per matmul: a run of positions whose
# fields stay in a core's L2 cache while the matmul reads them.
_CONV_CHUNK_BYTES = 1 << 20


def _receptive_fields(a, groups, window):
    """(n, groups * cg) -> read-only (groups, n, window * cg) view of every
    receptive field, tap-major to match a (groups, window * cg, cg) kernel.

    The zero-padded copy is group-major, (groups, n + window - 1, cg), so
    the field of (group, position j) is the contiguous run of window * cg
    values starting at row j of its group.
    """
    n, c = a.shape
    cg = c // groups
    pad = (window - 1) // 2
    xp = np.zeros((groups, n + 2 * pad, cg), dtype=a.dtype)
    xp[:, pad:pad + n] = a.reshape(n, groups, cg).transpose(1, 0, 2)
    return np.lib.stride_tricks.as_strided(xp, (groups, n, window * cg),
                                           xp.strides, writeable=False)


def _fields_matmul(fields, kmat):
    """(groups, n, w) fields @ (groups, w, cg) kmat -> (groups, n, cg).

    Fields overlap in memory, which BLAS cannot read in place, so they are
    copied into one reused buffer a cache-sized chunk of positions at a time.
    """
    groups, n, wcg = fields.shape
    out = np.empty((groups, n, kmat.shape[2]), dtype=fields.dtype)
    rows = min(n, max(1, _CONV_CHUNK_BYTES // (groups * wcg * fields.itemsize)))
    buf = np.empty((groups, rows, wcg), dtype=fields.dtype)
    for s in range(0, n, rows):
        m = min(rows, n - s)
        np.copyto(buf[:, :m], fields[:, s:s + m])
        np.matmul(buf[:, :m], kmat, out=out[:, s:s + m])
    return out


def grouped_conv1d(x, kernel, groups, window, bias=None):
    """Same-length 1-d convolution where each channel group is independent.

    x: (n, c) token-major activations; kernel: (groups, window, cg, cg)
    with cg = c // groups; zero padding of (window-1)//2 on both sides.
    Each group is one matmul of its receptive fields against its taps,
    run over cache-sized chunks of positions.
    """
    if x.ndim != 2:
        raise ShapeError(f"grouped_conv1d expects (n, c) input, got {tuple(x.shape)}")
    n, c = x.shape
    if n < 1:
        raise ShapeError("grouped_conv1d needs at least one position")
    if c % groups != 0:
        raise ConfigError(f"channels {c} not divisible by groups {groups}")
    if window % 2 != 1:
        raise ConfigError(f"conv window must be odd, got {window}")
    cg = c // groups
    if kernel.shape != (groups, window, cg, cg):
        raise ShapeError(f"grouped_conv1d kernel shape {tuple(kernel.shape)} != "
                         f"{(groups, window, cg, cg)}")
    if bias is not None and bias.shape != (c,):
        raise ShapeError(f"conv bias shape {tuple(bias.shape)} != ({c},)")
    fields = _receptive_fields(x._data, groups, window)
    out = _fields_matmul(fields, kernel._data.reshape(groups, window * cg, cg))
    data = out.transpose(1, 0, 2).reshape(n, c)
    if bias is not None:
        data += bias._data
    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def backward(g):
        if kernel.requires_grad:
            # fields is a view of the padded input, so keeping it costs no
            # more than x does.
            go = g.reshape(n, groups, cg).transpose(1, 0, 2)
            dk = np.matmul(fields.transpose(0, 2, 1), go)
            kernel._accumulate(dk.reshape(groups, window, cg, cg))
        if x.requires_grad:
            # The input gradient is the same convolution of g with the taps
            # reversed and each tap transposed.
            kt = kernel._data[:, ::-1].transpose(0, 1, 3, 2).reshape(
                groups, window * cg, cg)
            dx = _fields_matmul(_receptive_fields(g, groups, window), kt)
            x._accumulate(dx.transpose(1, 0, 2).reshape(n, c))
        if bias is not None:
            bias._accumulate(g.sum(axis=0))

    return wrap_op(data, parents, backward, "grouped_conv1d")


def batch_norm_train(x, var_floor=1e-5):
    """Normalize a score vector by its own batch statistics.

    Returns (normalized tensor, batch mean, batch variance); the caller
    folds the floats into running statistics. Variance below the floor is
    clamped and treated as a constant in the backward pass.
    """
    if x.ndim != 1:
        raise ShapeError(f"batch_norm_train expects a vector, got {tuple(x.shape)}")
    m = x._data.size
    mean = float(x._data.mean())
    var = float(x._data.var())
    clamped = var < var_floor
    denom = np.sqrt(max(var, var_floor))
    xhat = (x._data - mean) / denom

    def backward(g):
        if clamped:
            x._accumulate((g - g.mean()) / denom)
        else:
            x._accumulate((g - g.mean() - xhat * (g * xhat).sum() / m) / denom)

    out = wrap_op(xhat, (x,), backward, "batch_norm_train")
    return out, mean, var


def batch_norm_infer(x, mean, var, var_floor=1e-5):
    """Normalize by frozen statistics; linear, so backward is a rescale."""
    denom = float(np.sqrt(max(var, var_floor)))
    data = (x._data - mean) / denom

    def backward(g):
        x._accumulate(g / denom)

    return wrap_op(data, (x,), backward, "batch_norm_infer")


# -- backward pass -------------------------------------------------------------


def _topo_order(root):
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss):
    """Populate gradients of every tracked leaf reachable from a scalar loss.

    Intermediate gradients and the recorded graph are released as soon as
    they have been consumed, so only leaf (parameter) gradients survive.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {tuple(loss.shape)}")
    if loss._cleared:
        raise ContractError("backward already consumed this graph")
    if not loss.requires_grad:
        raise ContractError("loss does not depend on any tracked tensor")
    order = _topo_order(loss)
    loss._ensure_grad()
    loss.grad += np.ones_like(loss._data)
    for node in reversed(order):
        fn = node._backward
        if fn is not None:
            if node.grad is not None:
                fn(node.grad)
            node.drop_grad()
            node._release_graph()
