"""Dense tensor core with reverse-mode automatic differentiation.

Tensors hold row-major numpy buffers (float32 by default, float64 under
``precision("float64")`` for oracle-grade tests). Every operation that
participates in training records a backward closure on the output; calling
``backward(loss)`` walks the recorded graph once in reverse topological
order, accumulates gradients into leaf tensors, and releases the graph.

The ops here are the ones a train, fold or serve path runs (``softmax``
and ``layer_norm`` aside, see their notes); generic reference ops live in
the tests. The fused sublayers of :mod:`ckrank.attention`,
:mod:`ckrank.pooling` and :mod:`ckrank.model` build on ``wrap_op`` and on
these.

A sublayer that fills its (n, d) output in blocks of rows is one op
(``sublayer_op``). Given a ``ResidualNorm``, the block that wrote its rows
then applies the dropout mask, adds the residual and layer-normalizes them
in place, so an encoder sublayer, its dropout, residual add and layer norm
are one op that makes no (n, d) array but its output (and, under a graph,
the mask and the normalized rows its backward reads). Each tensor makes one
``tracker.register`` call when it is made, which charges its bytes, and
gives them back in ``__del__`` when it is deallocated, so the accounting in
:mod:`ckrank.memory` is an exact model of what the math needs; there is no
registry of live tensors (``tracker.audit()`` walks the collector).

``grouped_conv1d`` pads its input group-major, so the inputs of P
consecutive positions are one contiguous run of (P + window - 1) * cg
values and all such field rows are a strided view. BLAS cannot read
overlapping rows, so the fields are copied into a buffer a block of rows at
a time. When the fields of the whole input fit one ``_CONV_CHUNK_BYTES``
chunk, P is 1 and the one block is one batched matmul into the output.
Otherwise P is ``_CONV_POSITIONS``: each group's block is one product with a
block-Toeplitz weight of P * cg columns, built from the kernel on every
call, and the blocks of at most a chunk of copied fields run on the pool.
The input gradient runs through the same helper; the kernel gradient
multiplies the P = 1 view of the saved padded input directly.

Large forward ops run their row blocks (``run_blocks``) on a ``BlockPool``:
the calling thread and one helper thread per further CPU the process may
use. Block boundaries depend only on shapes and a byte budget, so results
do not depend on the worker count; an op that fits in one block gets the
one block ``WHOLE``, run on the calling thread. Backward passes stay serial.
"""

import contextvars
import os
import threading
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import cache
from itertools import accumulate

import numpy as np

from .errors import ConfigError, ContractError, NonFiniteError, ShapeError
from .memory import tracker

# Numeric mode flags are per thread (and per asyncio task): a thread that
# indexes under no_grad must not switch off graph recording for a thread
# that trains alongside it. New threads start from the defaults, so the
# block pool's workers read no flag: they run numpy on the arrays they are
# given, and the calling thread makes the op's tensor.
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


def parameter(data, dtype=None):
    """Leaf tensor with gradient tracking, for trainable weights."""
    return Tensor(data, requires_grad=True, dtype=dtype)


def constant(data, dtype=None):
    return Tensor(data, requires_grad=False, dtype=dtype)


def init_parameters(specs, rng=None, arrays=None):
    """name -> parameter for ``(name, shape, init)`` specs.

    Without ``arrays`` each parameter is made fresh, in spec order: ``init``
    is ``"zeros"``, ``"ones"`` or the half-width of a uniform draw from
    ``rng``. With ``arrays`` (name -> ndarray of the spec's shape) nothing
    is drawn: each parameter adopts its array without a copy when it is an
    owned, writeable, C-contiguous array of the default dtype, and a copy of
    it otherwise.
    """
    params = {}
    if arrays is not None:
        dtype = np.dtype(_DEFAULT_DTYPE.get())
        for name, _, _ in specs:
            arr = arrays[name]
            flags = arr.flags
            if not (arr.dtype == dtype and flags.owndata and flags.writeable
                    and flags.c_contiguous):
                arr = np.array(arr, dtype=dtype, order="C")
            params[name] = Tensor._wrap(arr, True)
        return params
    for name, shape, init in specs:
        if init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        else:
            data = rng.uniform(-init, init, size=shape)
        params[name] = parameter(data)
    return params


# -- op plumbing -------------------------------------------------------------


def _records(parents):
    """Whether an op over these parents records a graph."""
    return _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)


def wrap_op(out_data, parents, backward_fn, name, saved=()):
    """Build an op output tensor; ``backward_fn(g)`` must push grads to parents.

    This is the extension point fused ops elsewhere in the package use.
    The closure must capture numpy arrays, never the output tensor itself.
    ``saved`` lists every buffer the closure keeps besides the parents' and
    the output's and read-only shared constants, each once (the array a
    view views, not the view); while the graph holds the closure their
    bytes are charged to the output, so ops stay visible to the tracker.
    """
    if _CHECK_FINITE.get() and not np.logical_and.reduce(np.isfinite(out_data),
                                                         None):
        raise NonFiniteError(f"non-finite values produced by op '{name}'")
    needs = _records(parents)
    out = Tensor._wrap(out_data, needs)
    if needs:
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward_fn
        if saved:
            out._kept = sum(a.nbytes for a in saved)
            out._nbytes += out._kept
            tracker.alloc(out._kept)
    return out


# -- row blocks on a worker pool ------------------------------------------------

# Bytes of its largest array that one block of a large forward op covers.
# A paper-config document splits each large op into several blocks; every
# op of a tiny-config document fits in one and runs whole on the calling
# thread. Smaller blocks made the attention projection's matmuls slower.
_BLOCK_BYTES = 1 << 20


class BlockPool:
    """Shares the blocks of one op among the calling thread and
    ``workers - 1`` helper threads, each taking the next block in turn.

    numpy releases the interpreter lock inside its loops and BLAS calls, so
    the blocks run in parallel. Threads start on the first call that has
    more than one block to share.
    """

    def __init__(self, workers):
        self.workers = workers
        self._executor = None
        self._lock = threading.Lock()

    def run(self, fn, blocks):
        """Call ``fn(block)`` once per block; returns when all are done.

        A block's result must not depend on which thread runs it, so results
        are the same for any worker count. The first error raised by the
        calling thread, or else by a helper, is raised here.
        """
        helpers = min(self.workers, len(blocks)) - 1
        if helpers <= 0:
            for block in blocks:
                fn(block)
            return
        todo = iter(blocks)
        take = threading.Lock()

        def drain():
            while True:
                with take:
                    block = next(todo, None)
                if block is None:
                    return
                fn(block)

        futures = [self._pool().submit(drain) for _ in range(helpers)]
        try:
            drain()
        finally:
            # A helper that has not started by now has nothing left to do.
            running = [f for f in futures if not f.cancel()]
            errors = [f.exception() for f in running]
        for err in errors:
            if err is not None:
                raise err

    def _pool(self):
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(self.workers - 1,
                                                    thread_name_prefix="ckrank-block")
            return self._executor

    def close(self):
        """Stop the helper threads; the next shared call starts new ones."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown()


def _available_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_POOL = BlockPool(_available_cpus())
# The blocks of an op whose rows all fit in one.
WHOLE = (slice(None),)


def row_blocks(rows, row_bytes, budget=None):
    """Consecutive slices covering range(rows), each of at most
    ``budget // row_bytes`` rows (``_BLOCK_BYTES`` when budget is None);
    ``WHOLE`` when all rows fit in one block.

    Boundaries depend only on these numbers, never on the worker count.
    """
    budget = budget or _BLOCK_BYTES
    if rows * row_bytes <= budget:
        return WHOLE
    step = max(1, budget // row_bytes)
    return [slice(s, min(s + step, rows)) for s in range(0, rows, step)]


def run_blocks(fn, blocks):
    """Call ``fn(block)`` for every block, shared among the pool's workers.

    fn may use only numpy on arrays it is given (no tensor, no mode flag)
    and must write each block's result to that block's own rows.
    """
    _POOL.run(fn, blocks)


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


# -- elementwise -------------------------------------------------------------


def scale(a, s):
    s = float(s)
    data = a._data * s

    def backward(g):
        a._accumulate(g * s)

    return wrap_op(data, (a,), backward, "scale")


def dropout_mask(shape, p, training, rng, dtype=None):
    """The mask dropout multiplies by: 1/(1-p) where a uniform draw from rng
    is at least p and 0 elsewhere, in the default dtype unless one is given;
    None when dropout is inactive (not training, or p <= 0)."""
    if not training or p <= 0.0:
        return None
    if p >= 1.0:
        raise ContractError("dropout probability must be < 1")
    return (rng.random(shape) >= p).astype(dtype or _DEFAULT_DTYPE.get()) / (1.0 - p)


# -- shape ops ---------------------------------------------------------------


def concat(tensors, axis=0):
    if not tensors:
        raise ContractError("concat of zero tensors")
    data = np.concatenate([t._data for t in tensors], axis=axis)
    offsets = list(accumulate((t.shape[axis] for t in tensors), initial=0))

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            t._accumulate(g[tuple(idx)])

    return wrap_op(data, tuple(tensors), backward, "concat")


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

    return wrap_op(data, (a,), backward, "gather", saved=(idx,))


def segment_sum(a, segment_ids, num_segments):
    """out[s] = sum of a[i] with segment_ids[i] == s, for a 1-d tensor."""
    if a.ndim != 1:
        raise ShapeError(f"segment_sum expects a vector, got shape {tuple(a.shape)}")
    seg = np.asarray(segment_ids, dtype=np.int64)
    data = np.bincount(seg, weights=a._data, minlength=num_segments).astype(a._data.dtype)

    def backward(g):
        a._accumulate(g[seg])

    return wrap_op(data, (a,), backward, "segment_sum", saved=(seg,))


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


# No shipped path calls softmax; the benchmark traces tensor.softmax, so it
# stays until a benchmark change retires that target.
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


def _normalize(s, gamma, beta, eps, xhat=None, denom=None, out=None):
    """Layer norm of the rows of s -> (xhat, denom, out): centre once, take
    the variance as a row-wise dot, scale in place. Writes into the arrays
    given (fresh ones when None; out may be s); like every block kernel here
    it passes them positionally, since a keyword ``out`` costs more per call
    than a tiny op's arithmetic."""
    d = s.shape[-1]
    xhat = np.subtract(s, np.add.reduce(s, axis=-1, keepdims=True) / d, xhat)
    denom = np.sqrt(np.vecdot(xhat, xhat)[..., None] / d + eps, denom)
    xhat /= denom
    out = np.multiply(xhat, gamma, out)
    out += beta
    return xhat, denom, out


# The epilogue sublayer_op runs on each block of a sublayer's rows: times the
# dropout mask keep (None: no dropout, see dropout_mask), plus the rows of
# the residual tensor (None: no residual), then a layer norm over the last
# dimension scaled by gamma and shifted by beta.
ResidualNorm = namedtuple("ResidualNorm", "residual gamma beta keep eps",
                          defaults=(None, 1e-5))


def sublayer_op(out, parents, backward_fn, name, rows, blocks=WHOLE, saved=(),
                norm=None):
    """``wrap_op`` for a sublayer that fills its output ``out`` by rows:
    ``rows(b)`` writes rows b of out, once per slice of ``blocks`` on the
    pool (``run_blocks`` calls it, so rows may use only numpy).

    With a ``ResidualNorm`` the block that wrote its rows then finishes them
    in place: mask, residual add and layer norm. The op is then the
    sublayer, its dropout, the residual add and the layer norm, and out
    holds the normalized rows. Its backward runs the layer norm's backward,
    gives the residual its gradient, masks it, and hands it to
    ``backward_fn``, the sublayer's own backward.
    """
    if norm is None:
        run_blocks(rows, blocks)
        return wrap_op(out, parents, backward_fn, name, saved)
    residual, gamma, beta, keep, eps = norm
    if residual is not None and residual.shape != out.shape:
        raise ShapeError(f"{name}: residual shape {tuple(residual.shape)} != "
                         f"output shape {tuple(out.shape)}")
    r_data = None if residual is None else residual._data
    g_data, b_data = gamma._data, beta._data
    parents = (*parents, gamma, beta) if residual is None else \
        (*parents, residual, gamma, beta)
    graph = _records(parents)
    # The backward reads the normalized rows and each row's deviation;
    # without a graph each block normalizes its rows in place.
    xhat = np.empty_like(out) if graph else None
    denom = np.empty((*out.shape[:-1], 1), out.dtype) if graph else None

    def block(b):
        rows(b)
        s = out[b]
        if keep is not None:
            s *= keep[b]
        if r_data is not None:
            s += r_data[b]
        if xhat is None:
            _normalize(s, g_data, b_data, eps, s, None, s)
        else:
            _normalize(s, g_data, b_data, eps, xhat[b], denom[b], s)

    run_blocks(block, blocks)

    def backward(g):
        gg = g * g_data
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        # The rounded mean leaves the centred rows a tiny mean of their own;
        # removing it here keeps the gradient that of the computed forward.
        xc = xhat - xhat.mean(axis=-1, keepdims=True)
        d_s = (gg - m1 - xc * m2) / denom
        if residual is not None:
            residual._accumulate(d_s)
        gamma._accumulate(_reduce_to(g * xhat, g_data.shape))
        beta._accumulate(_reduce_to(g, b_data.shape))
        if keep is not None:
            d_s *= keep
        backward_fn(d_s)

    kept = (xhat, denom) if keep is None else (xhat, denom, keep)
    return wrap_op(out, parents, backward, name, (*saved, *kept) if graph else ())


def linear(x, weight, bias=None, norm=None):
    """x @ weight + bias in one allocation, as one block of ``sublayer_op``
    (with ``norm``'s epilogue when given)."""
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {tuple(x.shape)} x "
                         f"{tuple(weight.shape)}")
    if bias is not None and bias.shape != (weight.shape[1],):
        raise ShapeError(f"linear: bias shape {tuple(bias.shape)} does not match "
                         f"output dim {weight.shape[1]}")
    x_data, w_data = x._data, weight._data
    out = np.empty((x_data.shape[0], w_data.shape[1]), np.result_type(x_data, w_data))

    def rows(_):
        np.matmul(x_data, w_data, out)
        if bias is not None:
            np.add(out, bias._data, out)

    def backward(g):
        x._accumulate(g @ w_data.T)
        weight._accumulate(x_data.T @ g)
        if bias is not None:
            bias._accumulate(g.sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return sublayer_op(out, parents, backward, "linear", rows, norm=norm)


def embedding(table, ids, offset=None):
    """Row lookup into an embedding table, plus a constant (len(ids), dim)
    array ``offset`` when given (positional features); the gradient
    scatter-adds by id and nothing flows to the offset."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("embedding ids must be a 1-d sequence")
    if idx.size and (np.minimum.reduce(idx) < 0
                     or np.maximum.reduce(idx) >= table.shape[0]):
        raise ShapeError(f"embedding id out of range for table of {table.shape[0]} rows")
    data = table._data[idx]
    if offset is not None:
        if offset.shape != data.shape:
            raise ShapeError(f"embedding offset shape {tuple(offset.shape)} != "
                             f"{tuple(data.shape)}")
        data += offset

    def backward(g):
        if table.requires_grad:
            table._ensure_grad()
            np.add.at(table.grad, idx, g)

    return wrap_op(data, (table,), backward, "embedding", saved=(idx,))


# No shipped path calls layer_norm (the encoder's norms run inside its fused
# sublayers); the benchmark traces tensor.layer_norm, so it stays until a
# benchmark change retires that target.
def layer_norm(x, gamma, beta, eps=1e-5, residual=None):
    """Normalize each row of x (plus residual, when given) over the last
    dimension, then affine-transform: ``sublayer_op``'s epilogue after the
    identity, in blocks of rows on the pool for a matrix too large for one.
    x and residual get the same gradient."""
    x_data = x._data
    dtype = np.result_type(x_data, gamma._data, beta._data,
                           *(() if residual is None else (residual._data,)))
    out = np.empty(x_data.shape, dtype)
    blocks = row_blocks(len(x_data), x_data.shape[1] * x_data.itemsize) \
        if x_data.ndim == 2 else WHOLE

    def rows(b):
        out[b] = x_data[b]

    return sublayer_op(out, (x,), x._accumulate, "layer_norm", rows, blocks,
                       norm=ResidualNorm(residual, gamma, beta, eps=eps))


# Bytes of receptive fields one conv block copies. A document whose fields
# all fit one chunk takes one output position per field row; a longer one
# takes _CONV_POSITIONS per row, in blocks of at most a chunk of fields. At
# the paper config a block then holds 240 positions: 1 MB blocks folded
# long documents more slowly, and 8 positions a row no faster than 4 with
# a weight almost three times as slow to build.
_CONV_CHUNK_BYTES = 2 << 20
_CONV_POSITIONS = 4


@cache
def _run(nbytes):
    """The void dtype of nbytes: a group's run of channels as one element. A
    transposing copy of such runs takes half the time of one of single
    values."""
    return np.dtype((np.void, nbytes))


def _receptive_fields(a, groups, window, p):
    """(n, groups * cg) -> (zero-padded copy, read-only (groups, ceil(n / p),
    (p + window - 1) * cg) view of it whose row r holds the inputs of output
    positions r * p to r * p + p - 1 in every group, tap-major).

    The zero-padded copy is group-major, (groups, rows * p + window - 1,
    cg), so each row is one contiguous run of values, p * cg after the one
    before; a ragged last row reads zeros past the end.
    """
    n, c = a.shape
    cg = c // groups
    pad = (window - 1) // 2
    rows = -(-n // p)
    xp = np.zeros((groups, rows * p + window - 1, cg), dtype=a.dtype)
    run = _run(cg * a.itemsize)
    xp.view(run)[:, pad:pad + n, 0] = a.view(run).T
    s0, s1, s2 = xp.strides
    return xp, np.lib.stride_tricks.as_strided(
        xp, (groups, rows, (p + window - 1) * cg), (s0, p * s1, s2), writeable=False)


def _fields_matmul(fields, kernel, n, bias=None):
    """(groups, rows, (p + window - 1) * cg) fields of n positions (see
    ``_receptive_fields``) @ (groups, window, cg, cg) kernel (+ bias) ->
    (out, chunk, blocks): the (n, groups * cg) output, a function that
    fills its rows b, and the blocks of positions to call it on.

    Fields overlap in memory, which BLAS cannot read in place, so each
    block's rows are copied into a buffer of its own. With p = 1 every
    field fits one block (see ``grouped_conv1d``), multiplied by the taps
    straight into the output. With p > 1 the weight is block-Toeplitz,
    (groups, (p + window - 1) * cg, p * cg), built with one strided copy of
    the kernel, so each product has p * cg columns; its rows are moved into
    the output's. A block is then a whole number of field rows whose copy
    takes at most ``_CONV_CHUNK_BYTES``.
    """
    groups, window, cg, _ = kernel.shape
    rows, width = fields.shape[1:]
    p = width // cg - window + 1
    out = np.empty((n, groups * cg), dtype=fields.dtype)
    if p == 1:
        kmat = kernel.reshape(groups, width, cg)

        def whole(_):
            np.matmul(np.ascontiguousarray(fields), kmat,
                      out=out.reshape(n, groups, cg).transpose(1, 0, 2))
            if bias is not None:
                np.add(out, bias, out)

        return out, whole, WHOLE
    # toeplitz[g, p_in, i, q, :] = kernel[g, p_in - q, i, :] for each tap,
    # copied a run of cg output channels at a time
    run = _run(cg * out.itemsize)
    toeplitz = np.zeros((groups, p + window - 1, cg, p, cg), out.dtype)
    runs = toeplitz.view(run)[..., 0]
    s = runs.strides
    np.lib.stride_tricks.as_strided(runs, (groups, p, window, cg),
                                    (s[0], s[1] + s[3], s[1], s[2]))[...] = \
        np.ascontiguousarray(kernel, out.dtype).view(run)[:, None, ..., 0]
    tmat = toeplitz.reshape(groups, width, p * cg)

    def chunk(b):
        lo, hi, _ = b.indices(n)
        prod = np.matmul(np.ascontiguousarray(fields[:, lo // p:-(-hi // p)]), tmat)
        by_group = prod.reshape(groups, -1, cg)[:, :hi - lo].view(run)[..., 0]
        out[b].view(run)[:] = by_group.T
        if bias is not None:
            out[b] += bias

    blocks = row_blocks(rows, groups * width * fields.itemsize, _CONV_CHUNK_BYTES)
    if blocks is not WHOLE:
        blocks = [slice(b.start * p, min(b.stop * p, n)) for b in blocks]
    return out, chunk, blocks


def grouped_conv1d(x, kernel, groups, window, bias=None, norm=None):
    """Same-length 1-d convolution where each channel group is independent.

    x: (n, c) token-major activations; kernel: (groups, window, cg, cg)
    with cg = c // groups; zero padding of (window-1)//2 on both sides.
    Each group is one matmul of its receptive fields against its taps, run
    over blocks of positions, on the pool in the forward pass (each block
    then runs ``norm``'s epilogue, when given, see ``sublayer_op``) and on
    the calling thread in the backward pass. When the fields of all n
    positions fit one ``_CONV_CHUNK_BYTES`` chunk, a field row is one
    position's window and the one block is the whole input; otherwise a
    field row covers ``_CONV_POSITIONS`` consecutive positions and the taps
    form a block-Toeplitz weight (see ``_fields_matmul``).
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
    p = 1 if n * c * window * x.dtype.itemsize <= _CONV_CHUNK_BYTES else _CONV_POSITIONS
    padded, fields = _receptive_fields(x._data, groups, window, p)
    out, chunk, blocks = _fields_matmul(fields, kernel._data, n,
                                        None if bias is None else bias._data)
    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def backward(g):
        if kernel.requires_grad:
            go = g.reshape(n, groups, cg).transpose(1, 0, 2)
            one = np.lib.stride_tricks.as_strided(padded, (groups, n, window * cg),
                                                  padded.strides, writeable=False)
            dk = np.matmul(one.transpose(0, 2, 1), go)
            kernel._accumulate(dk.reshape(groups, window, cg, cg))
        if x.requires_grad:
            # The input gradient is the same convolution of g with the taps
            # reversed and each tap transposed.
            kt = kernel._data[:, ::-1].transpose(0, 1, 3, 2)
            dx, dx_chunk, dx_blocks = _fields_matmul(
                _receptive_fields(g, groups, window, p)[1], kt, n)
            for b in dx_blocks:
                dx_chunk(b)
            x._accumulate(dx)
        if bias is not None:
            bias._accumulate(g.sum(axis=0))

    return sublayer_op(out, parents, backward, "grouped_conv1d", chunk, blocks,
                       saved=(padded,), norm=norm)


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
