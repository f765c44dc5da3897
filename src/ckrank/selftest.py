"""Built-in oracle and gradient checks runnable from the command line.

A compact subset of the test suite for installed environments, on code that
the train, fold and serve paths run: the grouped conv and both multi-head
variants against per-tap and per-head loops with dense attention oracles,
finite-difference gradient checks of the fused sublayers (multi-head
attention, feed-forward, layer norm with a residual, grouped conv, windowed
pooling) and of the RankNet loss, pooling path equivalence, loss values,
metric fixtures, the pair-expansion rule, the ranking rule of retrieve and
rerank against a plain sort, and a paper-width encoder block that must give
the same bytes with one worker as with the block pool. Prints one line per
check.
"""

import numpy as np

from . import pooling, tensor as T
from .attention import AttentionConfig, conformer_block, feed_forward, \
    init_block_params, multi_head
from .evalmetrics import ndcg_at_k
from .gradcheck import finite_difference_check
from .index import ImpactIndex, _rank, retrieve
from .train import TrainInstance, expand_pairs, ranknet_loss


def _dense_separable_oracle(q, k, v):
    def softmax(x, axis):
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        return e / e.sum(axis=axis, keepdims=True)
    return softmax(q, -1) @ (softmax(k.T, -1) @ v)


def _standard_oracle(q, k, v):
    s = (q / np.sqrt(q.shape[1])) @ k.T
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return (e / e.sum(axis=-1, keepdims=True)) @ v


def _conv_oracle(x, k, groups, window):
    """Grouped conv one output position, group and tap at a time."""
    n, c = x.shape
    cg = c // groups
    pad = (window - 1) // 2
    xp = np.pad(x, ((pad, pad), (0, 0)))
    out = np.zeros((n, c))
    for j in range(n):
        for g in range(groups):
            cols = slice(g * cg, (g + 1) * cg)
            for t in range(window):
                out[j, cols] += xp[j + t, cols] @ k[g, t]
    return out


def _multi_head_oracle(x, p, cfg, variant):
    """Projections, then each head's dense attention, concatenated."""
    attend = _standard_oracle if variant == "standard" else _dense_separable_oracle
    q, k, v = (x @ p[w].data + p[b].data
               for w, b in (("wq", "bq"), ("wk", "bk"), ("wv", "bv")))
    dk, dv = cfg.d_key, cfg.d_value
    heads = [attend(q[:, h * dk:(h + 1) * dk], k[:, h * dk:(h + 1) * dk],
                    v[:, h * dv:(h + 1) * dv]) for h in range(cfg.num_heads)]
    return np.concatenate(heads, axis=1) @ p["wo"].data + p["bo"].data


def _pool_loop(rows, wcfg, bank):
    """Kernel features of each row's windows, one window at a time, then
    the max over windows."""
    out = np.full((rows.shape[0], bank.k), -np.inf)
    for i in range(pooling.num_windows(rows.shape[1], wcfg)):
        win = rows[:, i * wcfg.stride:i * wcfg.stride + wcfg.window_len]
        ex = np.exp(-(win[:, :, None] - bank.mus) ** 2 / (2 * bank.sigmas ** 2))
        out = np.maximum(out, np.log(bank.eps_log + ex.sum(axis=1)))
    return out


def _projected_sum(out, w):
    """sum(out @ w): a scalar loss that weighs every column of out apart."""
    return T.tsum(T.linear(out, w))


def _fused_op_losses(rng):
    """(name, loss_fn, params) for every fused op of an encoder block and
    for the RankNet loss, at a micro config with d_key != d_value."""
    cfg = AttentionConfig(model_dim=8, num_heads=2, d_key=3, d_value=2,
                          conv_window=3, conv_groups=2, dropout_rate=0.0,
                          num_layers=1)
    p = init_block_params(cfg, rng)
    x = T.parameter(rng.normal(size=(5, cfg.model_dim)))
    residual = T.parameter(rng.normal(size=(5, cfg.model_dim)))
    w = T.constant(rng.normal(size=(cfg.model_dim, 1)))
    attn = {name: p[name] for name in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")}
    ffn = {name: p[name] for name in ("ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2")}
    norm = {name: p[name] for name in ("ln1_gamma", "ln1_beta")}
    conv = {name: p[name] for name in ("conv_kernel", "conv_bias")}
    pref = T.parameter(rng.normal(size=6) * 3.0)
    other = T.parameter(rng.normal(size=6) * 3.0)

    def attention(variant):
        return lambda: _projected_sum(multi_head(x, attn, cfg, variant), w)

    return [
        ("separable multi_head", attention("separable"), {"x": x, **attn}),
        ("standard multi_head", attention("standard"), {"x": x, **attn}),
        ("feed_forward", lambda: _projected_sum(feed_forward(x, *ffn.values()), w),
         {"x": x, **ffn}),
        ("layer_norm with a residual",
         lambda: _projected_sum(T.layer_norm(x, *norm.values(), residual=residual), w),
         {"x": x, "residual": residual, **norm}),
        ("grouped_conv1d",
         lambda: _projected_sum(T.grouped_conv1d(x, conv["conv_kernel"], cfg.conv_groups,
                                                 cfg.conv_window, conv["conv_bias"]), w),
         {"x": x, **conv}),
        ("ranknet_loss", lambda: T.tmean(ranknet_loss(pref, other)),
         {"pref": pref, "other": other}),
    ]


def _batched_op_errors(rng):
    """Worst abs error of grouped_conv1d and multi_head (both variants)
    against their loop oracles over a few shapes, n < window and the paper
    conv shape included."""
    worst = 0.0
    # The paper shape at a length that spans several chunks of fields.
    paper_n = 2 * (T._CONV_CHUNK_BYTES // (32 * 31 * 8 * 8)) + 3
    for n, groups, cg, window in ((1, 2, 3, 5), (3, 2, 3, 7), (9, 4, 2, 3),
                                  (paper_n, 32, 8, 31)):
        x = rng.normal(size=(n, groups * cg))
        k = rng.normal(size=(groups, window, cg, cg))
        with T.no_grad():
            got = T.grouped_conv1d(T.constant(x), T.constant(k), groups, window).data
        worst = max(worst, float(np.abs(got - _conv_oracle(x, k, groups, window)).max()))
    for heads in (1, 2, 4):
        cfg = AttentionConfig(model_dim=8, num_heads=heads, d_key=3, d_value=2,
                              conv_window=3, conv_groups=2, dropout_rate=0.0,
                              num_layers=1)
        params = init_block_params(cfg, rng)
        for n in (1, 6):
            x = rng.normal(size=(n, 8))
            for variant in ("separable", "standard"):
                with T.no_grad():
                    got = multi_head(T.constant(x), params, cfg, variant).data
                want = _multi_head_oracle(x, params, cfg, variant)
                worst = max(worst, float(np.abs(got - want).max()))
    return worst


def _same_bytes_on_any_worker_count(rng):
    """A paper-width conformer block long enough that every op spans
    several blocks, run with one worker and with the process's pool."""
    cfg = AttentionConfig(dropout_rate=0.0)
    params = init_block_params(cfg, rng)
    x = T.constant(rng.normal(size=(1100, cfg.model_dim)))
    full = T._POOL
    outs = []
    for pool in (T.BlockPool(1), full):
        T._POOL = pool
        try:
            with T.no_grad():
                outs.append(conformer_block(x, params, cfg).data)
        finally:
            T._POOL = full
    return outs[0].tobytes() == outs[1].tobytes(), full.workers


def _ranking_matches_sort(rng):
    """retrieve and the rerank ordering over heavily tied random scores, with
    doc ids out of sorted order, against sorted() by (-score, doc id)."""
    n = 40
    doc_ids = [f"D{i}" for i in rng.permutation(n)]
    postings = {}
    for term in ("a", "b", "c"):
        docs = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        scores = rng.choice([-1.0, 0.0, 0.5, 1.0], size=docs.size)
        postings[term] = (docs, scores.astype(np.float32))
    index = ImpactIndex(doc_ids, postings, "", {})
    tokens = ["a", "b", "b", "c", "absent"]
    acc = {}
    for term in tokens:
        for i, score in zip(*postings.get(term, ((), ()))):
            acc[doc_ids[i]] = acc.get(doc_ids[i], 0.0) + float(score)
    scored = list(acc.items())
    want = sorted(scored, key=lambda pair: (-pair[1], pair[0]))
    return all(retrieve(tokens, index, k=k).ranking == want[:k] == _rank(scored, k)
               for k in (None, 0, 1, 7, len(want), len(want) + 1))


def run_selftest(seed=0, verbose=True):
    """Returns True when every check passes."""
    rng = np.random.default_rng(seed)
    checks = []

    def check(name, ok, detail=""):
        checks.append(ok)
        if verbose:
            mark = "ok" if ok else "FAIL"
            print(f"[{mark}] {name}" + (f" ({detail})" if detail else ""))

    with T.precision("float64"):
        err = _batched_op_errors(rng)
        check("batched grouped conv and multi-head vs loops", err < 1e-10,
              f"max abs err {err:.2e}")

        for name, loss_fn, params in _fused_op_losses(rng):
            res = finite_difference_check(loss_fn, params)
            check(f"gradients: {name}", res.max_rel_err < 1e-3,
                  f"rel err {res.max_rel_err:.2e}")

        bank = pooling.KernelBank(np.linspace(-0.8, 0.8, 5), np.full(5, 0.3))
        rows = T.parameter(np.clip(rng.normal(size=(3, 11)) * 0.4, -1, 1))
        weights = T.constant(rng.normal(size=(5, 1)))
        # The fused op sums windows in one matmul, the loop one window at a
        # time, so the two may round differently.
        for wcfg in (pooling.WindowConfig(5, 2), pooling.WindowConfig(6, 4)):
            label = f"window {wcfg.window_len}, stride {wcfg.stride}"

            def pool_fn():
                return _projected_sum(pooling.windowed_pool_terms(rows, wcfg, bank),
                                      weights)
            res = finite_difference_check(pool_fn, {"rows": rows})
            check(f"gradients: windowed pooling, {label}", res.max_rel_err < 1e-3,
                  f"rel err {res.max_rel_err:.2e}")

            with T.no_grad():
                fused = pooling.windowed_pool_terms(rows, wcfg, bank).data
            err = float(np.abs(fused - _pool_loop(rows.data, wcfg, bank)).max())
            check(f"pooling: fused equals a window loop, {label}", err <= 1e-12,
                  f"max abs err {err:.2e}")

        with T.no_grad():
            flat = ranknet_loss(T.constant(np.array([1.0, 1.0, 21.0])),
                                T.constant(np.array([1.0, 0.0, 1.0]))).data
        ok = (abs(flat[0] - np.log(2)) < 1e-12 and
              abs(flat[1] - 0.3132616875182228) < 1e-12 and flat[2] < 1e-8)
        check("ranknet loss fixed values", bool(ok))

    same, workers = _same_bytes_on_any_worker_count(rng)
    check("conformer block: same bytes with 1 worker and the pool", same,
          f"{workers} workers")

    ndcg = ndcg_at_k(["d2", "d1"], {"d1": 3, "d2": 1}, 10)
    expected = (1.0 + 7.0 / np.log2(3)) / (7.0 + 1.0 / np.log2(3))
    check("ndcg hand fixture", abs(ndcg - expected) < 1e-12)

    inst = TrainInstance("q", "p", "c", ("n1", "n2"))
    pairs = expand_pairs(inst)
    ok = (len(pairs) == 5 and
          [p.preferred for p in pairs] == ["p", "p", "p", "c", "c"] and
          [p.other for p in pairs] == ["c", "n1", "n2", "n1", "n2"])
    check("pair expansion rule", ok)

    check("ranking: ties by doc id, same as a full sort", _ranking_matches_sort(rng))

    passed = all(checks)
    if verbose:
        print(f"{sum(checks)}/{len(checks)} checks passed")
    return passed
