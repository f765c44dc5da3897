"""Self-attention variants and the convolution-augmented encoder block.

Two attention paths share one interface. The standard path materializes the
full n-by-n attention matrix. The separable path reorders the product: keys
are softmax-normalized across positions and folded into the values first,
giving a d_key-by-d_value summary, so nothing quadratic in sequence length
is ever allocated. The separable path applies no 1/sqrt(d_key) scaling; the
two normalizations already bound the logits.

``multi_head`` runs every head in one fused op. The separable one holds q
and k key-major, as contiguous (heads, d_key, n) arrays, so the q softmax
(over d_key) and the k softmax (over n) both reduce with runs of n
contiguous values, not over a short strided axis.

The encoder block wraps grouped convolution, separable multi-head
attention, and a position-wise feed-forward network, each with residual
connection, dropout, and a trailing layer norm.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError


@dataclass
class AttentionConfig:
    model_dim: int = 256
    num_heads: int = 32
    d_key: int = 8
    d_value: int = 8
    conv_window: int = 31
    conv_groups: int = 32
    dropout_rate: float = 0.2
    num_layers: int = 2

    def __post_init__(self):
        for name in ("model_dim", "num_heads", "d_key", "d_value",
                     "conv_window", "conv_groups", "num_layers"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(f"model_dim {self.model_dim} not divisible by "
                              f"num_heads {self.num_heads}")
        if self.model_dim % self.conv_groups != 0:
            raise ConfigError(f"model_dim {self.model_dim} not divisible by "
                              f"conv_groups {self.conv_groups}")
        if self.conv_window % 2 != 1:
            raise ConfigError(f"conv_window must be odd, got {self.conv_window}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


# (dim, dtype) -> read-only table of the longest length asked for so far.
# Row i depends only on i and dim, so a prefix of a longer table is
# bit-identical to a table built for that length.
_PE_TABLES = {}


def positional_encoding(n, dim, dtype=None):
    """Sinusoidal position features: sin on even columns, cos on odd.

    Returns a read-only (n, dim) view of a cached table.
    """
    dtype = np.dtype(dtype or T.default_dtype())
    table = _PE_TABLES.get((dim, dtype))
    if table is None or table.shape[0] < n:
        pos = np.arange(n, dtype=np.float64)[:, None]
        idx = np.arange(dim, dtype=np.float64)[None, :]
        angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / dim)
        table = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle)).astype(dtype)
        table.flags.writeable = False
        _PE_TABLES[(dim, dtype)] = table
    return table[:n]


def self_attention(q, k, v):
    """Baseline attention: softmax(q kᵀ / sqrt(d_key)) v, with the full
    n-by-n weight matrix held in memory."""
    _check_rows(q, k, v)
    d_key = q.shape[1]
    scores = T.matmul(T.scale(q, 1.0 / np.sqrt(d_key)), T.transpose(k))
    attn = T.softmax(scores, axis=-1)
    return T.matmul(attn, v)


def separable_self_attention(q, k, v):
    """Linear-memory attention: softmax(q, over d_key) @ (softmax(kᵀ, over n) @ v).

    The inner product collapses the sequence axis before anything touches q,
    so peak extra memory is O(n * d_key) + O(d_key * d_value).
    """
    _check_rows(q, k, v)
    phi_q = T.softmax(q, axis=-1)
    phi_kt = T.softmax(T.transpose(k), axis=-1)
    summary = T.matmul(phi_kt, v)
    return T.matmul(phi_q, summary)


def _check_rows(q, k, v):
    if not (q.shape[0] == k.shape[0] == v.shape[0]):
        raise ShapeError(f"attention row counts differ: q {tuple(q.shape)}, "
                         f"k {tuple(k.shape)}, v {tuple(v.shape)}")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"q and k key dims differ: {q.shape[1]} vs {k.shape[1]}")


def _split_heads(a, heads):
    """(n, heads * d) -> (heads, n, d) view."""
    n = a.shape[0]
    return a.reshape(n, heads, -1).transpose(1, 0, 2)


def _merge_heads(a):
    """(heads, n, d) -> contiguous (n, heads * d)."""
    heads, n, d = a.shape
    return a.transpose(1, 0, 2).reshape(n, heads * d)


def _softmax(x, axis):
    """Softmax of a fresh array along axis."""
    e = x - x.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _softmax_backward(s, g, axis):
    """Gradient through a softmax along axis with output s; g is overwritten."""
    g -= (g * s).sum(axis=axis, keepdims=True)
    g *= s
    return g


def _key_major(a, heads):
    """(n, heads * d) -> contiguous (heads, d, n)."""
    return np.ascontiguousarray(a.T).reshape(heads, -1, a.shape[0])


def _from_key_major(a):
    """(heads, d, n) -> (n, heads * d) view."""
    heads, d, n = a.shape
    return a.reshape(heads * d, n).T


def _separable_heads(q, k, v, heads):
    """Separable attention of every head at once -> Tensor[n, heads * d_value].

    Per head: softmax(q_h over d_key) @ (softmax(k_hᵀ over n) @ v_h); the
    largest intermediates are the key-major (heads, d_key, n) q and k.
    """
    vh = _split_heads(v.data, heads)                          # (h, n, dv)
    phi_q = _softmax(_key_major(q.data, heads), axis=1)       # (h, dk, n)
    phi_k = _softmax(_key_major(k.data, heads), axis=2)       # (h, dk, n)
    summary = phi_k @ vh                                      # (h, dk, dv)
    out = _merge_heads(phi_q.transpose(0, 2, 1) @ summary)

    def backward(g):
        gh = _split_heads(g, heads)                           # (h, n, dv)
        if q.requires_grad:
            dphi_q = summary @ gh.transpose(0, 2, 1)          # (h, dk, n)
            q._accumulate(_from_key_major(_softmax_backward(phi_q, dphi_q, 1)))
        d_summary = phi_q @ gh                                # (h, dk, dv)
        if k.requires_grad:
            dphi_k = d_summary @ vh.transpose(0, 2, 1)        # (h, dk, n)
            k._accumulate(_from_key_major(_softmax_backward(phi_k, dphi_k, 2)))
        if v.requires_grad:
            v._accumulate(_merge_heads(phi_k.transpose(0, 2, 1) @ d_summary))

    return T.wrap_op(out, (q, k, v), backward, "separable_heads",
                     saved=(phi_q, phi_k, summary))


def _standard_heads(q, k, v, heads):
    """Standard attention of every head at once -> Tensor[n, heads * d_value];
    keeps the (heads, n, n) weights for the backward pass."""
    qh, kh, vh = (_split_heads(a.data, heads) for a in (q, k, v))
    scale = 1.0 / math.sqrt(qh.shape[2])       # a Python float keeps the dtype
    attn = _softmax((qh * scale) @ kh.transpose(0, 2, 1), axis=2)
    out = _merge_heads(attn @ vh)

    def backward(g):
        gh = _split_heads(g, heads)
        if q.requires_grad or k.requires_grad:
            d_scores = _softmax_backward(attn, gh @ vh.transpose(0, 2, 1), 2)
            d_scores *= scale
            if q.requires_grad:
                q._accumulate(_merge_heads(d_scores @ kh))
            if k.requires_grad:
                k._accumulate(_merge_heads(d_scores.transpose(0, 2, 1) @ qh))
        if v.requires_grad:
            v._accumulate(_merge_heads(attn.transpose(0, 2, 1) @ gh))

    return T.wrap_op(out, (q, k, v), backward, "standard_heads", saved=(attn,))


def multi_head(x, params, cfg, variant="separable"):
    """Project to per-head q/k/v, attend with all heads in one batched op,
    project the concatenated heads out."""
    if x.ndim != 2 or x.shape[1] != cfg.model_dim:
        raise ShapeError(f"multi_head expects (n, {cfg.model_dim}) input, "
                         f"got {tuple(x.shape)}")
    if variant not in ("standard", "separable"):
        raise ConfigError(f"unknown attention variant {variant!r}")
    attend = _standard_heads if variant == "standard" else _separable_heads
    q = T.linear(x, params["wq"], params["bq"])
    k = T.linear(x, params["wk"], params["bk"])
    v = T.linear(x, params["wv"], params["bv"])
    heads = attend(q, k, v, cfg.num_heads)
    return T.linear(heads, params["wo"], params["bo"])


def conformer_block(x, params, cfg, training=False, rng=None, variant="separable"):
    """Grouped conv, separable multi-head attention, and FFN sublayers, each
    followed by dropout and a layer norm of the sum with its input."""
    p = cfg.dropout_rate

    conv = T.grouped_conv1d(x, params["conv_kernel"], cfg.conv_groups,
                            cfg.conv_window, params["conv_bias"])
    conv = T.dropout(conv, p, training, rng)
    y1 = T.layer_norm(x, params["ln1_gamma"], params["ln1_beta"], residual=conv)

    attn = multi_head(y1, params, cfg, variant=variant)
    attn = T.dropout(attn, p, training, rng)
    y2 = T.layer_norm(y1, params["ln2_gamma"], params["ln2_beta"], residual=attn)

    ffn = T.linear(y2, params["ffn_w1"], params["ffn_b1"])
    ffn = T.relu(ffn)
    ffn = T.linear(ffn, params["ffn_w2"], params["ffn_b2"])
    ffn = T.dropout(ffn, p, training, rng)
    return T.layer_norm(y2, params["ln3_gamma"], params["ln3_beta"], residual=ffn)


def init_block_params(cfg, rng):
    """Fresh parameter dict for one encoder block (Glorot-uniform linears)."""
    m = cfg.model_dim
    cg = m // cfg.conv_groups
    ffn_dim = 2 * m
    proj = cfg.num_heads * cfg.d_key
    vproj = cfg.num_heads * cfg.d_value

    def glorot(fan_in, fan_out, shape):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return T.parameter(rng.uniform(-limit, limit, size=shape))

    return {
        "conv_kernel": glorot(cg * cfg.conv_window, cg,
                              (cfg.conv_groups, cfg.conv_window, cg, cg)),
        "conv_bias": T.parameter(np.zeros(m)),
        "ln1_gamma": T.parameter(np.ones(m)),
        "ln1_beta": T.parameter(np.zeros(m)),
        "wq": glorot(m, proj, (m, proj)),
        "bq": T.parameter(np.zeros(proj)),
        "wk": glorot(m, proj, (m, proj)),
        "bk": T.parameter(np.zeros(proj)),
        "wv": glorot(m, vproj, (m, vproj)),
        "bv": T.parameter(np.zeros(vproj)),
        "wo": glorot(vproj, m, (vproj, m)),
        "bo": T.parameter(np.zeros(m)),
        "ln2_gamma": T.parameter(np.ones(m)),
        "ln2_beta": T.parameter(np.zeros(m)),
        "ffn_w1": glorot(m, ffn_dim, (m, ffn_dim)),
        "ffn_b1": T.parameter(np.zeros(ffn_dim)),
        "ffn_w2": glorot(ffn_dim, m, (ffn_dim, m)),
        "ffn_b2": T.parameter(np.zeros(m)),
        "ln3_gamma": T.parameter(np.ones(m)),
        "ln3_beta": T.parameter(np.zeros(m)),
    }
