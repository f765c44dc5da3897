"""Cosine interaction rows, RBF kernel features, and windowed pooling.

Each query term owns one interaction row against the encoded document, so
everything here is computed per term and never couples terms. Kernel
features summarize a window of cosines as log-sums of Gaussian bumps; the
pooled feature vector for a term is the elementwise max over windows, which
keeps a strong match anywhere in the document visible to the scoring head.

Every op here is fused and batched (one graph node for all query terms).
Windowed pooling evaluates the Gaussian kernels once per (term, position)
into a kernel-major (k, t, positions) array, so overlapping windows share
the exponentials, and takes every window's sum in one matmul with a 0/1
(positions, windows) cover matrix. A short document builds no constant per
call: the kernel bank casts its means and 1/(2σ²) once per dtype, and the
cover matrix is a read-only slice of one table per (window_len, stride,
dtype), grown to the longest document seen up to 512 positions (about
512^2 / stride entries); a longer document builds its own cover per call.
Each op fills the outputs it allocates in blocks on the tensor module's
worker pool: the interaction rows by positions, the pooling by kernels.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError


# The default kernel means and widths, ModelConfig's defaults too
KERNEL_MUS = (-0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
KERNEL_SIGMAS = (0.1,) * 9 + (0.001,)


@dataclass
class KernelBank:
    """Gaussian kernel means/widths; the last default kernel (mu=1, sigma=1e-3)
    isolates exact matches."""

    mus: np.ndarray = field(default_factory=lambda: np.array(KERNEL_MUS))
    sigmas: np.ndarray = field(default_factory=lambda: np.array(KERNEL_SIGMAS))
    eps_log: float = 1e-10
    # dtype -> (mus, 1 / (2 sigma^2)) in that dtype, read-only
    _constants: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        self.mus = np.array(self.mus, dtype=np.float64)
        self.sigmas = np.array(self.sigmas, dtype=np.float64)
        if self.mus.shape != self.sigmas.shape or self.mus.ndim != 1:
            raise ConfigError("kernel mus and sigmas must be 1-d and equal length")
        if not np.all(np.diff(self.mus) > 0):
            raise ConfigError("kernel mus must be strictly increasing")
        if not np.all(self.sigmas > 0):
            raise ConfigError("kernel sigmas must be positive")
        if self.eps_log <= 0:
            raise ConfigError("eps_log must be positive")
        # the cached constants below are derived from these
        self.mus.flags.writeable = self.sigmas.flags.writeable = False

    @property
    def k(self):
        return self.mus.size

    def constants(self, dtype):
        """(mus, 1 / (2 sigma^2)) cast to dtype: read-only arrays, built on
        the first call for each dtype."""
        dtype = np.dtype(dtype)
        pair = self._constants.get(dtype)
        if pair is None:
            pair = (self.mus.astype(dtype),
                    (1.0 / (2.0 * self.sigmas ** 2)).astype(dtype))
            for a in pair:
                a.flags.writeable = False
            self._constants[dtype] = pair
        return pair


def num_windows(n, cfg):
    """Window count covering n positions under the ``ModelConfig`` cfg's
    window_len and stride; a short tail extends the last window."""
    if n <= cfg.window_len:
        return 1
    return math.ceil((n - cfg.window_len) / cfg.stride) + 1


# (window_len, stride, dtype) -> read-only cover matrix of the longest length
# asked for so far, up to _COVER_CACHE_ROWS. Entry [p, i] depends only on p, i
# and the window settings, so [:n, :num_windows(n)] of a longer table is the
# matrix built for n, and threads that race to grow a table can only build it
# twice. A table holds n * num_windows(n) entries, about n^2 / stride, so a
# longer document builds its cover per call instead of growing the table.
_COVER_TABLES = {}
_COVER_CACHE_ROWS = 512


def window_cover(n, cfg, dtype):
    """Read-only 0/1 (n, num_windows(n)) matrix of dtype: [p, i] = 1 when
    window i covers position p, so one matmul sums every window (a short
    last window covers fewer positions). Reads the ``ModelConfig`` cfg's
    window_len and stride. A view of a cached table when n is at most
    _COVER_CACHE_ROWS."""
    w = num_windows(n, cfg)
    key = (cfg.window_len, cfg.stride, np.dtype(dtype))
    table = _COVER_TABLES.get(key)
    if table is None or table.shape[0] < n:
        starts = np.arange(w) * cfg.stride
        pos = np.arange(n)[:, None]
        table = ((pos >= starts) & (pos < starts + cfg.window_len)).astype(dtype)
        table.flags.writeable = False
        if n <= _COVER_CACHE_ROWS:
            _COVER_TABLES[key] = table
    return table[:n, :w]


def empty_features(bank, dtype=None):
    """Feature vector of a window with no real positions: all log(eps_log)."""
    dtype = dtype or T.default_dtype()
    return np.full(bank.k, np.log(bank.eps_log), dtype=dtype)


# -- cosine interaction --------------------------------------------------------


def _unit_rows(a, out=None):
    """Rows of a scaled to unit length, zero rows left zero -> (unit rows,
    norms with zeros replaced by 1, nonzero mask); into out when given."""
    norm = np.sqrt(np.add.reduce(a * a, axis=1))        # np.linalg.norm's sum
    mask = norm > 0
    safe = np.where(mask, norm, 1.0)
    unit = np.divide(a, safe[:, None], out)
    unit *= mask[:, None]
    return unit, safe, mask


def interaction_rows(q_embs, doc_enc):
    """Cosine of every (query term, document position) pair -> Tensor[t, n],
    in blocks of positions on the pool (normalizing the document is half
    the work, and it is per position).

    Zero-norm vectors on either side produce cosine 0 with zero gradient.
    """
    if q_embs.ndim != 2 or doc_enc.ndim != 2 or q_embs.shape[1] != doc_enc.shape[1]:
        raise ShapeError(f"interaction_rows: incompatible shapes {tuple(q_embs.shape)} "
                         f"vs {tuple(doc_enc.shape)}")
    u, v = q_embs.data, doc_enc.data
    uh, un_safe, u_mask = _unit_rows(u)
    vh = np.empty(v.shape, v.dtype)
    vn_safe, v_mask = np.empty(len(v), v.dtype), np.empty(len(v), bool)
    cos = np.empty((len(u), len(v)), np.result_type(uh, vh))

    def positions(b):
        _, vn_safe[b], v_mask[b] = _unit_rows(v[b], vh[b])
        np.matmul(uh, vh[b].T, out=cos[:, b])

    T.run_blocks(positions, T.row_blocks(len(v), (v.shape[1] + len(u)) * v.itemsize))

    def backward(g):
        if q_embs.requires_grad:
            gu = g @ vh
            du = (gu - uh * (gu * uh).sum(axis=1, keepdims=True)) / un_safe[:, None]
            q_embs._accumulate(du * u_mask[:, None])
        if doc_enc.requires_grad:
            gv = g.T @ uh
            dv = (gv - vh * (gv * vh).sum(axis=1, keepdims=True)) / vn_safe[:, None]
            doc_enc._accumulate(dv * v_mask[:, None])

    return T.wrap_op(cos, (q_embs, doc_enc), backward, "interaction_rows",
                     saved=(uh, un_safe, u_mask, vh, vn_safe, v_mask))


# -- windowed pooling ----------------------------------------------------------


def _kernel_features(r, mus, inv2s, cover, eps_log, ex=None, e=None):
    """Kernel values of every (kernel, term, position) into ex, kernel-major
    and in place, and each window's sum into e (each new when None) ->
    (winning window, its log-sum feature)."""
    ex = np.subtract(r, mus[:, None, None], ex)      # (kb, t, n)
    ex *= ex
    ex *= -inv2s[:, None, None]
    np.exp(ex, out=ex)
    w = cover.shape[1]
    rows = ex.reshape(-1, r.shape[1])
    e = np.matmul(rows, cover, None if e is None else e.reshape(len(rows), w))
    f = np.log(eps_log + e.reshape(*ex.shape[:2], w))
    arg = f.argmax(axis=2)
    # the winners by flat row index: on a few windows this costs less than
    # take_along_axis or f.max(axis=2), and picks the same values
    best = f.reshape(-1, w)[np.arange(arg.size), arg.ravel()]
    return arg, best.reshape(arg.shape)


def windowed_pool_terms(rows, cfg, bank):
    """Fused windowed pooling over all query terms at once -> Tensor[t, k],
    in blocks of kernels on the pool (each kernel's values over all terms
    and positions are one contiguous slab, and its window sums one matmul).
    Windows follow the ``ModelConfig`` cfg's window_len and stride. In grad
    mode the whole kernel-value and window-sum arrays are kept for the
    backward pass; under no_grad each block computes into arrays of its own.

    Gradients flow only into the winning window of each (term, kernel) pair;
    overlapping winners accumulate additively.
    """
    if rows.ndim != 2:
        raise ShapeError(f"windowed_pool_terms expects (t, n), got {tuple(rows.shape)}")
    t, n = rows.shape
    if n < 1:
        raise ShapeError("windowed_pool_terms needs at least one position")
    wlen, stride = cfg.window_len, cfg.stride
    r = rows.data
    k = bank.k
    mus, inv2s = bank.constants(r.dtype)
    cover = window_cover(n, cfg, r.dtype)
    graph = T.grad_enabled()
    ex = np.empty((k, t, n), r.dtype) if graph else None
    e = np.empty((k, t, cover.shape[1]), r.dtype) if graph else None
    arg, best = np.empty((k, t), np.intp), np.empty((k, t), r.dtype)

    def kernels(b):
        arg[b], best[b] = _kernel_features(r, mus[b], inv2s[b], cover, bank.eps_log,
                                           *((ex[b], e[b]) if graph else ()))

    T.run_blocks(kernels, T.row_blocks(k, r.nbytes))
    data = best.T

    def backward(g):
        e_win = np.take_along_axis(e, arg[:, :, None], axis=2)[:, :, 0]
        z = g.T / (bank.eps_log + e_win)                 # (k, t)
        idx_k = np.arange(k)[:, None, None]
        idx_t = np.arange(t)[None, :, None]
        pos = (arg * stride)[:, :, None] + np.arange(wlen)[None, None, :]
        valid = pos < n
        pos = np.minimum(pos, n - 1)                     # (k, t, wlen)
        coef = -(r[idx_t, pos] - mus[:, None, None]) * 2.0 * inv2s[:, None, None]
        dwin = z[:, :, None] * ex[idx_k, idx_t, pos] * coef
        dr = np.zeros_like(r)
        np.add.at(dr, (np.broadcast_to(idx_t, pos.shape), pos), dwin * valid)
        rows._accumulate(dr)

    return T.wrap_op(data, (rows,), backward, "windowed_pool_terms",
                     saved=(ex, e, arg))


# -- scoring head ---------------------------------------------------------------


def latent_term_scores(features, head):
    """Batched head over Tensor[t, k] -> Tensor[t]: features @ w + b."""
    w, b = head["w"], head["b"]
    if features.ndim != 2 or features.shape[1] != w.shape[0]:
        raise ShapeError(f"latent_term_scores: features {tuple(features.shape)} "
                         f"do not match head weights {tuple(w.shape)}")
    f_data, w_data = features.data, w.data
    data = f_data @ w_data + b.data

    def backward(g):
        features._accumulate(np.outer(g, w_data))
        w._accumulate(f_data.T @ g)
        b._accumulate(g.sum())

    return T.wrap_op(data, (features, w, b), backward, "latent_term_scores")


def head_param_specs(k):
    """``(name, shape, init)`` of the scoring head over k kernel features,
    as ``tensor.init_parameters`` reads them (Glorot-uniform weights)."""
    return (("w", (k,), math.sqrt(6.0 / (k + 1))), ("b", (), "zeros"))
