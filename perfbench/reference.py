"""Plain-numpy restatement of an inference-mode model, the folds' reference.

``encoding`` recomputes ``CKModel.encode_document`` in float64 (embedding
plus sinusoidal positions, then per block: grouped convolution, separable
multi-head attention and FFN, each a residual plus layer norm; dropout is
off outside training). ``term_scores`` recomputes ``per_term_scores``: the
latent score (cosine rows, RBF kernels pooled per window, max over windows,
linear head), the explicit score (saturating tf over the dlen term) and,
for ndrm3, their mix under the frozen batch-norm statistics. They read only
the model's config, ``parameters()``, ``running_stats()`` and vocabulary,
and share no code with the package, so a fast path that corrupts a layer
disagrees with them even when ``build_index`` and ``per_term_scores`` agree
with each other.
"""

import math

import numpy as np

LN_EPS = 1e-5


def _softmax(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _layer_norm(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gamma + beta


def _positions(n, dim):
    pos = np.arange(n, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / dim)
    return np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))


def _grouped_conv(x, kernel, bias):
    """Same-length convolution, zero padded; kernel (groups, window, cg, cg)."""
    groups, window, cg, _ = kernel.shape
    n = x.shape[0]
    pad = (window - 1) // 2
    xp = np.pad(x, ((pad, pad), (0, 0))).reshape(n + 2 * pad, groups, cg)
    taps = np.lib.stride_tricks.sliding_window_view(xp, window, axis=0)
    return np.einsum("ngiw,gwio->ngo", taps, kernel).reshape(n, -1) + bias


def _block(x, p, cfg):
    y1 = _layer_norm(x + _grouped_conv(x, p["conv_kernel"], p["conv_bias"]),
                     p["ln1_gamma"], p["ln1_beta"])
    q = y1 @ p["wq"] + p["bq"]
    k = y1 @ p["wk"] + p["bk"]
    v = y1 @ p["wv"] + p["bv"]
    heads = []
    for h in range(cfg.num_heads):
        qh = q[:, h * cfg.d_key:(h + 1) * cfg.d_key]
        kh = k[:, h * cfg.d_key:(h + 1) * cfg.d_key]
        vh = v[:, h * cfg.d_value:(h + 1) * cfg.d_value]
        heads.append(_softmax(qh, 1) @ (_softmax(kh.T, 1) @ vh))
    attn = np.concatenate(heads, axis=1) @ p["wo"] + p["bo"]
    y2 = _layer_norm(y1 + attn, p["ln2_gamma"], p["ln2_beta"])
    ffn = np.maximum(y2 @ p["ffn_w1"] + p["ffn_b1"], 0.0) @ p["ffn_w2"] + p["ffn_b2"]
    return _layer_norm(y2 + ffn, p["ln3_gamma"], p["ln3_beta"])


def _params(model):
    return {name: np.asarray(t.data, dtype=np.float64)
            for name, t in model.parameters().items()}


def encoding(model, doc):
    """(n, model_dim) float64 encoding of ``doc`` in inference mode."""
    cfg, params = model.config, _params(model)
    tokens = doc.tokens[:cfg.max_doc_tokens]
    ids = [model.vocab.id_of(t) for t in tokens]
    x = params["embedding"][ids] + _positions(len(ids), cfg.model_dim)
    for i in range(cfg.num_layers):
        prefix = f"block{i}."
        block = {k[len(prefix):]: v for k, v in params.items()
                 if k.startswith(prefix)}
        x = _block(x, block, cfg)
    return x


def latent_scores(model, terms, doc):
    """Latent score of each term of ``terms`` (all in the vocabulary)."""
    cfg, params = model.config, _params(model)
    enc = encoding(model, doc)
    q = params["embedding"][[model.vocab.id_of(t) for t in terms]]

    def unit(m):
        norm = np.linalg.norm(m, axis=1, keepdims=True)
        return np.divide(m, norm, out=np.zeros_like(m), where=norm > 0)

    rows = unit(q) @ unit(enc).T                         # (t, n)
    n = rows.shape[1]
    windows = 1 if n <= cfg.window_len else \
        math.ceil((n - cfg.window_len) / cfg.stride) + 1
    mus = np.asarray(cfg.kernel_mus)
    inv2s = 1.0 / (2.0 * np.asarray(cfg.kernel_sigmas) ** 2)
    feats = np.full((len(terms), mus.size), -np.inf)
    for w in range(windows):
        r = rows[:, w * cfg.stride:w * cfg.stride + cfg.window_len]
        bumps = np.exp(-(r[:, :, None] - mus) ** 2 * inv2s).sum(axis=1)
        feats = np.maximum(feats, np.log(cfg.eps_log + bumps))
    return feats @ params["head.w"] + params["head.b"]


def explicit_scores(model, terms, doc):
    cfg, params, stats = model.config, _params(model), model.running_stats()
    eps = cfg.epsilon
    idf = np.array([model.vocab.idf(t) for t in terms])
    bs_tf = np.array([doc.tf.get(t, 0) for t in terms], dtype=np.float64) \
        / (stats["bs_tf_mean"] + eps)
    bs_dlen = max(doc.length, 1) / (stats["bs_dlen_mean"] + eps)
    lin = bs_dlen * params["explicit.w_dlen"] + params["explicit.b_dlen"]
    return idf * bs_tf / (max(lin, 0.0) + bs_tf + eps)


def term_scores(model, terms, doc):
    """Per-term scores of ``terms`` (all in the vocabulary) under the variant."""
    variant = model.config.variant
    if variant == "ndrm1":
        return latent_scores(model, terms, doc)
    if variant == "ndrm2":
        return explicit_scores(model, terms, doc)
    params, stats = _params(model), model.running_stats()
    floor = model.config.var_floor

    def norm(x, which):
        return (x - stats[f"bn_{which}_mean"]) \
            / math.sqrt(max(stats[f"bn_{which}_var"], floor))

    return (norm(latent_scores(model, terms, doc), "latent") * params["duet.w1"]
            + norm(explicit_scores(model, terms, doc), "explicit") * params["duet.w2"]
            + params["duet.b"])
