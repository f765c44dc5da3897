"""Built-in gradient and contract checks runnable from the command line.

A compact subset of the test suite for installed environments, on code that
the train, fold and serve paths run: finite-difference gradient checks of
the fused sublayers (multi-head attention in both variants, feed-forward,
layer norm with a residual, grouped conv, windowed pooling) and of the
RankNet loss, loss values, metric fixtures, the pair-expansion rule, the
ranking rule of retrieve and rerank against a plain sort, a paper-width
encoder block that must give the same bytes with one worker as with the
block pool, and the additive contract of every variant on a micro
collection: retrieval from the folded index equals the summed per-term
scores and equals rerank. No reference copy of an op lives here; those are
in the test suite. Prints one line per check.
"""

import numpy as np

from . import pooling, tensor as T
from .attention import conformer_block, feed_forward, init_block_params, \
    multi_head
from .evalmetrics import ndcg_at_k
from .gradcheck import finite_difference_check
from .index import ImpactIndex, _rank, build_index, rerank, retrieve
from .model import VARIANTS, CKModel, ModelConfig
from .synth import make_synthetic
from .train import TrainInstance, expand_pairs, ranknet_loss


def _projected_sum(out, w):
    """sum(out @ w): a scalar loss that weighs every column of out apart."""
    return T.tsum(T.linear(out, w))


def _fused_op_losses(rng):
    """(name, loss_fn, params) for every fused op of an encoder block and
    for the RankNet loss, at a micro config with d_key != d_value."""
    cfg = ModelConfig(model_dim=8, num_heads=2, d_key=3, d_value=2,
                      conv_window=3, conv_groups=2, dropout_rate=0.0, num_layers=1)
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


def _same_bytes_on_any_worker_count(rng):
    """A paper-width conformer block long enough that every op spans
    several blocks, run with one worker and with the process's pool."""
    cfg = ModelConfig(dropout_rate=0.0)
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
    docs = [np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            for _ in range(3)]
    scores = rng.choice([-1.0, 0.0, 0.5, 1.0], size=sum(d.size for d in docs))
    index = ImpactIndex(doc_ids, ["a", "b", "c"], [d.size for d in docs],
                        np.concatenate(docs), scores.astype(np.float32), "", {})
    tokens = ["a", "b", "b", "c", "absent"]
    acc = {}
    for term in tokens:
        for i, score in zip(*index.postings.get(term, ((), ()))):
            acc[doc_ids[i]] = acc.get(doc_ids[i], 0.0) + float(score)
    scored = list(acc.items())
    want = sorted(scored, key=lambda pair: (-pair[1], pair[0]))
    return all(retrieve(tokens, index, k=k).ranking == want[:k] == _rank(scored, k)
               for k in (None, 0, 1, 7, len(want), len(want) + 1))


def _additive_contract_gap(variant, data, rng):
    """Fold an untrained micro model of variant over data's corpus, then
    query the index with up to three vocabulary terms of one document, the
    first repeated. Returns the worst gap, the documents holding every query
    term and the documents retrieved. The gap is taken between each
    retrieved score and the per-token sum of ``per_term_scores`` over the
    query terms its document contains, and for a document holding every term
    between it and ``rerank`` too, relative to the sum of the per-term
    magnitudes.

    Only vocabulary terms are queried. A term below ``min_df`` is not
    folded, so ``retrieve`` drops it while ``rerank`` scores it (the
    rare-term gap in ROADMAP.md); for ndrm1 an out-of-vocabulary term's
    latent score is the head's constant no-match score, which ``rerank``
    gives every document.
    """
    cfg = ModelConfig(variant=variant, model_dim=8, num_heads=2, d_key=4,
                      d_value=4, conv_window=3, conv_groups=2, dropout_rate=0.0,
                      num_layers=1, window_len=8, stride=4)
    model = CKModel(cfg, data.vocab)
    docs = data.corpus.docs
    held = max(([t for t in sorted(doc.tf) if t in data.vocab]
                for doc in docs.values()), key=len)
    terms = rng.choice(held, size=min(3, len(held)), replace=False).tolist()
    tokens = terms + terms[:1]
    ranking = retrieve(tokens, build_index(data.corpus, model), k=None).ranking
    full = [d for d, _ in ranking if docs[d].tf.keys() >= set(terms)]
    reranked = dict(rerank(tokens, full, model, data.corpus).ranking)
    worst = 0.0
    for doc_id, score in ranking:
        per_term = model.per_term_scores([t for t in tokens if t in docs[doc_id].tf],
                                         docs[doc_id])
        scale = max(np.abs(per_term).sum(), np.finfo(np.float64).tiny)
        # rerank is compared only on documents holding every query term
        for want in (per_term.sum(), reranked.get(doc_id, score)):
            worst = max(worst, abs(score - want) / scale)
    return worst, len(full), len(ranking)


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
        for name, loss_fn, params in _fused_op_losses(rng):
            res = finite_difference_check(loss_fn, params)
            check(f"gradients: {name}", res.max_rel_err < 1e-3,
                  f"rel err {res.max_rel_err:.2e}")

        bank = pooling.KernelBank(np.linspace(-0.8, 0.8, 5), np.full(5, 0.3))
        rows = T.parameter(np.clip(rng.normal(size=(3, 11)) * 0.4, -1, 1))
        weights = T.constant(rng.normal(size=(5, 1)))
        for window_len, stride in ((5, 2), (6, 4)):
            cfg = ModelConfig(window_len=window_len, stride=stride)

            def pool_fn():
                return _projected_sum(pooling.windowed_pool_terms(rows, cfg, bank),
                                      weights)
            res = finite_difference_check(pool_fn, {"rows": rows})
            check(f"gradients: windowed pooling, window {window_len}, stride "
                  f"{stride}", res.max_rel_err < 1e-3,
                  f"rel err {res.max_rel_err:.2e}")

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

    data = make_synthetic(seed=seed, num_docs=24, num_train_queries=1,
                          num_eval_queries=1, doc_len=(6, 18))
    for variant in VARIANTS:
        gap, full, hits = _additive_contract_gap(variant, data, rng)
        check(f"additive contract, {variant}: retrieve = sum of per-term scores "
              f"= rerank", gap < 1e-5 and full > 0,
              f"{hits} docs, {full} with every term, worst rel gap {gap:.1e}")

    passed = all(checks)
    if verbose:
        print(f"{sum(checks)}/{len(checks)} checks passed")
    return passed
