"""Self-attention variants and the convolution-augmented encoder block.

Two attention paths share one interface. The standard path materializes the
full n-by-n attention matrix. The separable path reorders the product: keys
are softmax-normalized across positions and folded into the values first,
giving a d_key-by-d_value summary, so nothing quadratic in sequence length
is ever allocated. The separable path applies no 1/sqrt(d_key) scaling; the
two normalizations already bound the logits.

The separable ``multi_head`` sublayer is one op, projections included. It
projects q, k and v key-major in one product, wᵀ @ xᵀ, so each is a
contiguous (heads, d, n) block with no transposing copy, and the q softmax
(over d_key) and the k softmax (over n) both reduce with runs of n
contiguous values. The output projection is folded into the per-head
summaries, so the last product is the size of that projection alone. The
standard variant, a baseline for memory growth, projects with ``linear``
around one op for all heads.

The encoder block is three sublayers: grouped convolution, separable
multi-head attention and a position-wise feed-forward network. Each is one
op together with its dropout, residual add and trailing layer norm
(``tensor.sublayer_op``): every block of rows it computes is masked, added
to its input's rows and normalized in place, so no whole sublayer, dropout
or residual-sum array is made.
"""

import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError


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


def _split_heads(a, heads):
    """(n, heads * d) -> (heads, n, d) view."""
    n = a.shape[0]
    return a.reshape(n, heads, -1).transpose(1, 0, 2)


def _merge_heads(a):
    """(heads, n, d) -> contiguous (n, heads * d)."""
    heads, n, d = a.shape
    return a.transpose(1, 0, 2).reshape(n, heads * d)


def _softmax(x, axis, out=None):
    """Softmax along axis, into out (a fresh array when None; x itself may
    be out)."""
    out = np.subtract(x, np.maximum.reduce(x, axis, None, None, True), out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis, None, None, True)
    return out


def _softmax_backward(s, g, axis):
    """Gradient through a softmax along axis with output s; g is overwritten."""
    g -= (g * s).sum(axis=axis, keepdims=True)
    g *= s
    return g


def _project(x, w_qkv, b_qkv, out):
    """Key-major q, k and v of the rows of x, w_qkvᵀ @ xᵀ + b_qkv, into out."""
    np.matmul(w_qkv.T, x.T, out)
    out += b_qkv


def _summarize(q, k, v, out):
    """Both softmaxes in place on key-major (heads, d, n) q and k, then each
    head's softmax(k) @ vᵀ into out."""
    _softmax(q, 1, out=q)
    _softmax(k, 2, out=k)
    np.matmul(k, v.transpose(0, 2, 1), out)


def _attend(q, mixed, bias, out):
    """softmax(q)ᵀ @ M + bo for key-major q of some positions, into out."""
    np.matmul(q.T, mixed, out)
    out += bias


def _separable_attention(x, params, heads, norm=None):
    """The separable attention sublayer as one op -> Tensor[n, model_dim].

    q, k and v come out key-major from one product, w_qkvᵀ @ xᵀ, a
    contiguous (2p_k + p_v, n) array of (heads, d, n) blocks; both softmaxes
    run in place on it. Per head, summary_h = softmax(k_h over n) @ v_hᵀ is
    (d_key, d_value); folding the output projection into it gives
    M_h = summary_h @ wo_h, so out = softmax(q over d_key)ᵀ @ M + bo is one
    product the size of the output projection. The projection and the
    output product (with ``norm``'s epilogue) run on the pool in blocks of
    positions, both softmaxes and the summaries in blocks of heads.
    """
    wq, bq, wk, bk, wv, bv, wo, bo = (params[name] for name in (
        "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"))
    pk, pv, m = wq.shape[1], wv.shape[1], wo.shape[1]
    spans = ((0, pk), (pk, 2 * pk), (2 * pk, 2 * pk + pv))
    x_data, wo_data, bo_data = x._data, wo._data, bo._data
    n = x_data.shape[0]
    w_qkv = np.concatenate((wq._data, wk._data, wv._data), axis=1)
    b_qkv = np.concatenate((bq._data, bk._data, bv._data))[:, None]
    wo_h = wo_data.reshape(heads, -1, m)                       # (h, dv, m)
    column_bytes = w_qkv.shape[1] * x_data.itemsize
    positions = T.row_blocks(n, column_bytes)
    qkv = np.empty((w_qkv.shape[1], n), np.result_type(w_qkv, x_data))
    T.run_blocks(lambda b: _project(x_data[b], w_qkv, b_qkv, qkv[:, b]), positions)
    phi_q, phi_k, vk = (qkv[lo:hi].reshape(heads, -1, n) for lo, hi in spans)
    summary = np.empty((heads, pk // heads, pv // heads), qkv.dtype)  # (h, dk, dv)
    T.run_blocks(lambda b: _summarize(phi_q[b], phi_k[b], vk[b], summary[b]),
                 T.row_blocks(heads, n * column_bytes // heads))
    mixed = (summary @ wo_h).reshape(pk, m)                    # (h * dk, m)
    out = np.empty((n, m), np.result_type(qkv, mixed))

    def rows(b):
        _attend(qkv[:pk, b], mixed, bo_data, out[b])

    def backward(g):
        bo._accumulate(g.sum(axis=0))
        d_mixed = (qkv[:pk] @ g).reshape(heads, -1, m)         # (h, dk, m)
        wo._accumulate((summary.transpose(0, 2, 1) @ d_mixed).reshape(pv, m))
        d_summary = d_mixed @ wo_h.transpose(0, 2, 1)          # (h, dk, dv)
        d_qkv = np.empty_like(qkv)
        dq, dk, dv = (d_qkv[lo:hi].reshape(heads, -1, n) for lo, hi in spans)
        np.matmul(mixed, g.T, out=d_qkv[:pk])
        _softmax_backward(phi_q, dq, 1)
        np.matmul(d_summary, vk, out=dk)
        _softmax_backward(phi_k, dk, 2)
        np.matmul(d_summary.transpose(0, 2, 1), phi_k, out=dv)
        d_w = x_data.T @ d_qkv.T                               # (m, 2pk + pv)
        d_b = d_qkv.sum(axis=1)
        for w, b, (lo, hi) in zip((wq, wk, wv), (bq, bk, bv), spans):
            w._accumulate(d_w[:, lo:hi])
            b._accumulate(d_b[lo:hi])
        if x.requires_grad:
            x._accumulate((w_qkv @ d_qkv).T)

    return T.sublayer_op(out, (x, wq, bq, wk, bk, wv, bv, wo, bo), backward,
                         "separable_attention", rows, positions,
                         saved=(w_qkv, qkv, summary, mixed), norm=norm)


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


def multi_head(x, params, cfg, variant="separable", norm=None):
    """Multi-head attention sublayer: q/k/v projections, every head, and the
    output projection, then ``norm``'s epilogue when given (a
    ``tensor.ResidualNorm``). The separable variant is one fused op; the
    standard one projects with ``linear`` around one op for all heads, the
    output projection and the epilogue one block of its last ``linear``.
    Reads the ``ModelConfig`` cfg's model_dim and num_heads."""
    if x.ndim != 2 or x.shape[1] != cfg.model_dim:
        raise ShapeError(f"multi_head expects (n, {cfg.model_dim}) input, "
                         f"got {tuple(x.shape)}")
    if variant not in ("standard", "separable"):
        raise ConfigError(f"unknown attention variant {variant!r}")
    if variant == "separable":
        return _separable_attention(x, params, cfg.num_heads, norm)
    q = T.linear(x, params["wq"], params["bq"])
    k = T.linear(x, params["wk"], params["bk"])
    v = T.linear(x, params["wv"], params["bv"])
    heads = _standard_heads(q, k, v, cfg.num_heads)
    return T.linear(heads, params["wo"], params["bo"], norm)


def _ffn_rows(x, w1, b1, w2, b2, hidden, out):
    """relu(x @ w1 + b1) -> hidden (new when None), then hidden @ w2 + b2 -> out."""
    hidden = np.matmul(x, w1, hidden)
    hidden += b1
    np.maximum(hidden, 0, out=hidden)
    np.matmul(hidden, w2, out)
    out += b2


def feed_forward(x, w1, b1, w2, b2, norm=None):
    """Position-wise FFN as one op: relu(x @ w1 + b1) @ w2 + b2, the relu in
    place, in blocks of rows on the pool, each then finished by ``norm``'s
    epilogue when given. In grad mode the whole post-relu hidden array is
    kept for the backward pass; under no_grad each block relus into rows of
    its own."""
    x_data, w1_data, w2_data = x._data, w1._data, w2._data
    b1_data, b2_data = b1._data, b2._data
    n, hidden_dim = len(x_data), w1_data.shape[1]
    hidden = np.empty((n, hidden_dim), np.result_type(x_data, w1_data)) \
        if T.grad_enabled() else None
    out = np.empty((n, w2_data.shape[1]), np.result_type(x_data, w1_data, w2_data))

    def rows(b):
        _ffn_rows(x_data[b], w1_data, b1_data, w2_data, b2_data,
                  None if hidden is None else hidden[b], out[b])

    def backward(g):
        w2._accumulate(hidden.T @ g)
        b2._accumulate(g.sum(axis=0))
        d_hidden = g @ w2_data.T
        d_hidden *= hidden > 0
        w1._accumulate(x_data.T @ d_hidden)
        b1._accumulate(d_hidden.sum(axis=0))
        if x.requires_grad:
            x._accumulate(d_hidden @ w1_data.T)

    return T.sublayer_op(out, (x, w1, b1, w2, b2), backward, "feed_forward", rows,
                         T.row_blocks(n, hidden_dim * x_data.itemsize),
                         saved=() if hidden is None else (hidden,), norm=norm)


def conformer_sublayers(params, cfg, training=False, rng=None, variant="separable"):
    """The three sublayers of one encoder block, in order: grouped conv,
    multi-head attention and FFN. Each is a function of the block's current
    activation x that returns the next one as one op: the sublayer, dropout
    (its mask drawn from rng when training), the residual add of x and a
    layer norm. Reads the ``ModelConfig`` cfg's dropout_rate, conv_groups,
    conv_window and what ``multi_head`` reads."""
    p = cfg.dropout_rate

    def norm(x, name):
        return T.ResidualNorm(x, params[f"{name}_gamma"], params[f"{name}_beta"],
                              T.dropout_mask(x.shape, p, training, rng, x.dtype))

    return (
        lambda x: T.grouped_conv1d(x, params["conv_kernel"], cfg.conv_groups,
                                   cfg.conv_window, params["conv_bias"], norm(x, "ln1")),
        lambda x: multi_head(x, params, cfg, variant, norm(x, "ln2")),
        lambda x: feed_forward(x, params["ffn_w1"], params["ffn_b1"], params["ffn_w2"],
                               params["ffn_b2"], norm(x, "ln3")),
    )


def conformer_block(x, params, cfg, training=False, rng=None, variant="separable"):
    """One encoder block: its three ``conformer_sublayers`` applied in turn.

    Without a graph each op holds only its input and its output; here the
    caller's x stays alive as well, so at most three (n, d) tensors are
    live. ``CKModel.encode_document`` runs the sublayers of all blocks in
    one flat loop instead, which keeps it to two."""
    for sublayer in conformer_sublayers(params, cfg, training, rng, variant):
        x = sublayer(x)
    return x


def block_param_specs(cfg):
    """``(name, shape, init)`` of one encoder block's parameters in drawing
    order, as ``tensor.init_parameters`` reads them (Glorot-uniform
    linears), from the ``ModelConfig`` cfg's model_dim, num_heads, d_key,
    d_value, conv_window and conv_groups."""
    m = cfg.model_dim
    cg = m // cfg.conv_groups
    ffn_dim = 2 * m
    proj = cfg.num_heads * cfg.d_key
    vproj = cfg.num_heads * cfg.d_value

    def glorot(fan_in, fan_out):
        return math.sqrt(6.0 / (fan_in + fan_out))

    return (
        ("conv_kernel", (cfg.conv_groups, cfg.conv_window, cg, cg),
         glorot(cg * cfg.conv_window, cg)),
        ("conv_bias", (m,), "zeros"),
        ("ln1_gamma", (m,), "ones"),
        ("ln1_beta", (m,), "zeros"),
        ("wq", (m, proj), glorot(m, proj)),
        ("bq", (proj,), "zeros"),
        ("wk", (m, proj), glorot(m, proj)),
        ("bk", (proj,), "zeros"),
        ("wv", (m, vproj), glorot(m, vproj)),
        ("bv", (vproj,), "zeros"),
        ("wo", (vproj, m), glorot(vproj, m)),
        ("bo", (m,), "zeros"),
        ("ln2_gamma", (m,), "ones"),
        ("ln2_beta", (m,), "zeros"),
        ("ffn_w1", (m, ffn_dim), glorot(m, ffn_dim)),
        ("ffn_b1", (ffn_dim,), "zeros"),
        ("ffn_w2", (ffn_dim, m), glorot(ffn_dim, m)),
        ("ffn_b2", (m,), "zeros"),
        ("ln3_gamma", (m,), "ones"),
        ("ln3_beta", (m,), "zeros"),
    )


def init_block_params(cfg, rng):
    """Fresh parameter dict for one encoder block of the ``ModelConfig`` cfg
    (the fields ``block_param_specs`` reads)."""
    return T.init_parameters(block_param_specs(cfg), rng)
