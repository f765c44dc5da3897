"""End-to-end acceptance checks. Each test prints one [acceptance] line.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines appear; the
session-scoped fixtures (synthetic collection, trained models, indexes) are
shared with the rest of the suite, so the full run builds them only once.
"""

import math
import time

import numpy as np
import pytest
import refops as R
from helpers import init_head_params, micro_config, micro_corpus
from oracles import (TermDocStats, batch_norm_infer, kernel_features,
                     ndrm2_term_score, windowed_pool_term)

import ckrank.tensor as T
from ckrank.attention import conformer_block, init_block_params, multi_head
from ckrank.bench import analyze, bench_memory
from ckrank.evalmetrics import evaluate
from ckrank.gradcheck import finite_difference_check
from ckrank.index import retrieve
from ckrank.model import (BSState, CKModel, DuetParams, ExplicitParams,
                          ModelConfig, duet_scores, ndrm2_term_scores)
from ckrank.pooling import (KernelBank, interaction_rows, latent_term_scores,
                            windowed_pool_terms)
from ckrank.train import (Adam, TrainConfig, TrainInstance, batch_loss,
                          clip_gradients, expand_pairs, ranknet_loss, train)


def report(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name} failed{suffix}"


# -- 1: separable attention against a dense oracle ------------------------------------


def dense_oracle(q, k, v):
    def sm(x):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    return sm(q) @ (sm(k.T) @ v)


def test_01_separable_attention_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    worst64 = worst32 = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 65))
        dk = int(rng.integers(1, 17))
        dv = int(rng.integers(1, 17))
        q = rng.normal(size=(n, dk))
        k = rng.normal(size=(n, dk))
        v = rng.normal(size=(n, dv))
        want = dense_oracle(q, k, v)
        with T.precision("float64"):
            got64 = R.separable_self_attention(
                T.constant(q), T.constant(k), T.constant(v)).numpy()
        with T.precision("float32"):
            got32 = R.separable_self_attention(
                T.constant(q), T.constant(k), T.constant(v)).numpy()
        worst64 = max(worst64, float(np.max(np.abs(got64 - want))))
        worst32 = max(worst32, float(np.max(np.abs(got32 - want))))
    elapsed = time.monotonic() - start
    report("separable attention equals dense oracle",
           worst64 <= 1e-10 and worst32 <= 1e-5 and elapsed < 10.0,
           f"200 triples, max err f64 {worst64:.1e} / f32 {worst32:.1e}, "
           f"{elapsed:.1f}s")


# -- 2: peak memory growth shapes ---------------------------------------------------


def test_02_memory_growth_shapes():
    start = time.monotonic()
    records = bench_memory()
    stats = analyze(records)
    elapsed = time.monotonic() - start
    ok = (stats["separable_linear_r2"] >= 0.99
          and stats["standard_residual_ratio"] >= 10.0
          and stats["max_common_n"] == 4000
          and stats["peak_ratio_at_max_n"] >= 5.0
          and elapsed < 300.0)
    report("peak memory linear for separable, quadratic for standard", ok,
           f"linear R2 {stats['separable_linear_r2']:.4f}, "
           f"residual ratio {stats['standard_residual_ratio']:.0f}, "
           f"peak ratio at n=4000 {stats['peak_ratio_at_max_n']:.1f}, "
           f"{elapsed:.0f}s")


# -- 3: gradient suite ------------------------------------------------------------


def _micro_attention_cfg():
    return ModelConfig(model_dim=8, num_heads=2, d_key=4, d_value=4,
                       conv_window=3, conv_groups=2, dropout_rate=0.0,
                       num_layers=1)


def _op_checks():
    """(name, build_loss, arrays, max_elements) for every differentiable op."""
    rng = np.random.default_rng(77)

    def rand(*shape, lo=-1.0, hi=1.0):
        return rng.uniform(lo, hi, size=shape)

    def mixed(out, seed=0):
        mix = T.constant(np.random.default_rng(seed).normal(size=out.shape))
        return T.tsum(R.mul(out, mix))

    cfg = _micro_attention_cfg()
    with T.precision("float64"):
        block = {name: t.numpy() for name, t in
                 init_block_params(cfg, np.random.default_rng(0)).items()}
        head = init_head_params(np.random.default_rng(0), 7)
        head_arrays = {"w": head["w"].numpy(), "b": head["b"].numpy()}
    bank = KernelBank(mus=tuple(np.linspace(-0.8, 1.0, 7)), sigmas=(0.3,) * 7)
    wcfg = ModelConfig(window_len=5, stride=2)
    bs = BSState(mean_tf=1.5, mean_dlen=50.0)
    pos = rand(4, 3, lo=0.3, hi=2.0)
    off_zero = rand(4, 3, lo=0.3, hi=2.0) * np.where(rand(4, 3) > 0, 1, -1)
    tmax_base = np.arange(12.0).reshape(4, 3) * 0.37

    def block_loss(variant):
        def loss(p):
            params = {name: p[name] for name in p if name != "x"}
            return mixed(conformer_block(p["x"], params, cfg, training=False,
                                         rng=None, variant=variant))
        return loss

    checks = [
        ("add", lambda p: mixed(R.add(p["a"], p["b"])),
         {"a": rand(4, 3), "b": rand(4, 3)}, None),
        ("sub", lambda p: mixed(R.sub(p["a"], p["b"])),
         {"a": rand(4, 3), "b": rand(4, 3)}, None),
        ("mul", lambda p: mixed(R.mul(p["a"], p["b"])),
         {"a": rand(4, 3), "b": rand(4, 3)}, None),
        ("div", lambda p: mixed(R.div(p["a"], p["b"])),
         {"a": rand(4, 3), "b": rand(4, 3, lo=0.5, hi=2.0)}, None),
        ("bias broadcast", lambda p: mixed(R.add(p["a"], p["b"])),
         {"a": rand(4, 3), "b": rand(3)}, None),
        ("scale/add_const",
         lambda p: mixed(R.add_const(T.scale(p["a"], -2.5), 4.0)),
         {"a": rand(3, 3)}, None),
        ("maximum", lambda p: mixed(R.maximum(p["a"], p["b"])),
         {"a": off_zero, "b": off_zero + 0.4}, None),
        ("exp", lambda p: mixed(R.exp(p["a"])), {"a": rand(4, 3)}, None),
        ("log", lambda p: mixed(R.log(p["a"])), {"a": pos}, None),
        ("sqrt", lambda p: mixed(R.sqrt(p["a"])), {"a": pos}, None),
        ("softplus", lambda p: mixed(R.softplus(p["a"])),
         {"a": rand(4, 3, lo=-2.0, hi=2.0)}, None),
        ("relu", lambda p: mixed(R.relu(p["a"])), {"a": off_zero}, None),
        ("softmax", lambda p: mixed(T.softmax(p["a"], axis=-1)),
         {"a": rand(4, 5)}, None),
        ("dropout",
         lambda p: mixed(R.dropout(p["a"], 0.4, training=True,
                                   rng=np.random.default_rng(3))),
         {"a": rand(5, 4)}, None),
        ("matmul", lambda p: mixed(R.matmul(p["a"], p["b"])),
         {"a": rand(4, 3), "b": rand(3, 5)}, None),
        ("transpose", lambda p: mixed(R.transpose(p["a"])),
         {"a": rand(4, 3)}, None),
        ("reshape", lambda p: mixed(R.reshape(p["a"], (2, 6))),
         {"a": rand(4, 3)}, None),
        ("concat+narrow",
         lambda p: mixed(R.narrow(T.concat([p["a"], p["b"]], axis=0), 0, 1, 3)),
         {"a": rand(2, 3), "b": rand(4, 3)}, None),
        ("gather", lambda p: mixed(T.gather(p["a"], np.array([0, 2, 2, 4]))),
         {"a": rand(5)}, None),
        ("segment_sum",
         lambda p: mixed(T.segment_sum(p["a"], np.array([0, 1, 1, 3]), 4)),
         {"a": rand(4)}, None),
        ("tsum", lambda p: mixed(T.tsum(p["a"], axis=0)),
         {"a": rand(4, 3)}, None),
        ("tmean", lambda p: mixed(T.tmean(p["a"], axis=1)),
         {"a": rand(4, 3)}, None),
        ("tmax", lambda p: mixed(R.tmax(p["a"], axis=1)),
         {"a": tmax_base}, None),
        ("linear", lambda p: mixed(T.linear(p["x"], p["w"], p["b"])),
         {"x": rand(4, 3), "w": rand(3, 2), "b": rand(2)}, None),
        ("embedding",
         lambda p: mixed(T.embedding(p["t"], np.array([1, 3, 1, 0]))),
         {"t": rand(5, 4)}, None),
        ("layer_norm",
         lambda p: mixed(T.layer_norm(p["x"], p["g"], p["b"])),
         {"x": rand(5, 8), "g": rand(8, lo=0.5, hi=1.5), "b": rand(8)}, None),
        ("grouped_conv1d",
         lambda p: mixed(T.grouped_conv1d(p["x"], p["k"], 2, 3, p["b"])),
         {"x": rand(7, 6), "k": rand(2, 3, 3, 3), "b": rand(6)}, None),
        ("batch_norm_train",
         lambda p: mixed(T.batch_norm_train(p["x"])[0]), {"x": rand(8)}, None),
        ("batch_norm_infer",
         lambda p: mixed(batch_norm_infer(p["x"], mean=0.3, var=2.0)),
         {"x": rand(8)}, None),
        ("standard attention",
         lambda p: mixed(R.self_attention(p["q"], p["k"], p["v"])),
         {"q": rand(6, 4), "k": rand(6, 4), "v": rand(6, 3)}, None),
        ("separable attention",
         lambda p: mixed(R.separable_self_attention(p["q"], p["k"], p["v"])),
         {"q": rand(6, 4), "k": rand(6, 4), "v": rand(6, 3)}, None),
        ("multi_head",
         lambda p: mixed(multi_head(p["x"],
                                    {n: p[n] for n in p if n != "x"}, cfg)),
         {**block, "x": rand(5, 8)}, 4),
        ("encoder block separable", block_loss("separable"),
         {**block, "x": rand(5, 8)}, 4),
        ("encoder block standard", block_loss("standard"),
         {**block, "x": rand(5, 8)}, 4),
        ("interaction_rows",
         lambda p: mixed(interaction_rows(p["q"], p["d"])),
         {"q": rand(3, 6), "d": rand(10, 6)}, None),
        ("kernel_features", lambda p: mixed(kernel_features(p["r"], bank)),
         {"r": rand(12, lo=-0.9, hi=0.9)}, None),
        ("windowed_pool_term",
         lambda p: mixed(windowed_pool_term(p["r"], wcfg, bank)),
         {"r": rand(12, lo=-0.9, hi=0.9)}, None),
        ("windowed_pool_terms",
         lambda p: mixed(windowed_pool_terms(p["r"], wcfg, bank)),
         {"r": rand(3, 12, lo=-0.9, hi=0.9)}, None),
        ("latent head",
         lambda p: mixed(latent_term_scores(p["f"],
                                            {"w": p["w"], "b": p["b"]})),
         {**head_arrays, "f": rand(4, 7)}, None),
        ("explicit scores",
         lambda p: mixed(ndrm2_term_scores(
             np.array([1.2, 0.7, 2.0]), np.array([3.0, 1.0, 0.0]),
             np.array([40.0, 60.0, 55.0]),
             ExplicitParams(w_dlen=p["w"], b_dlen=p["b"]), bs)),
         {"w": np.array(1.0), "b": np.array(0.0)}, None),
        ("duet combination",
         lambda p: mixed(duet_scores(
             p["lat"], p["exp"],
             DuetParams(w1=p["w1"], w2=p["w2"], b=p["b"]), mode="train")),
         {"w1": np.array(1.0), "w2": np.array(1.0), "b": np.array(0.0),
          "lat": rand(8), "exp": rand(8, lo=0.1, hi=2.0)}, None),
        ("pairwise loss",
         lambda p: T.tmean(ranknet_loss(p["pref"], p["other"])),
         {"pref": rand(6), "other": rand(6)}, None),
    ]
    return checks


def _full_loss_check(variant):
    corpus, vocab = micro_corpus(seed=1, num_docs=12, vocab_terms=16,
                                 doc_len=(5, 9))
    docs = sorted(corpus.docs)
    terms = [t for t in sorted(set(corpus.get(docs[0]).tokens)) if t in vocab]
    terms = terms[:2] or sorted(vocab.term_to_id)[:2]
    instances = [TrainInstance("Q0", docs[0], docs[1], (docs[2], docs[3]))]
    query_tokens = {"Q0": terms}
    with T.precision("float64"):
        model = CKModel(micro_config(variant), vocab)
        model.train()
        saved = None
        if model.duet is not None:
            saved = (model.duet.bn_latent_mean, model.duet.bn_latent_var,
                     model.duet.bn_explicit_mean, model.duet.bn_explicit_var)

        def loss():
            if saved is not None:
                (model.duet.bn_latent_mean, model.duet.bn_latent_var,
                 model.duet.bn_explicit_mean,
                 model.duet.bn_explicit_var) = saved
            return batch_loss(model, instances, corpus, query_tokens)[0]

        return finite_difference_check(loss, model.parameters(),
                                       max_elements=3,
                                       rng=np.random.default_rng(1))


def test_03_gradient_suite():
    start = time.monotonic()
    failures = []
    worst = 0.0
    for name, build_loss, arrays, max_elements in _op_checks():
        with T.precision("float64"):
            params = {k: T.parameter(v) for k, v in arrays.items()}
            result = finite_difference_check(
                lambda: build_loss(params), params, max_elements=max_elements,
                rng=np.random.default_rng(0))
        worst = max(worst, result.max_rel_err)
        if not result.max_rel_err < 1e-3:
            failures.append(f"{name}: {result}")
    for variant in ("ndrm1", "ndrm3"):
        result = _full_loss_check(variant)
        worst = max(worst, result.max_rel_err)
        if not result.max_rel_err < 1e-3:
            failures.append(f"full {variant} loss: {result}")
    elapsed = time.monotonic() - start
    report("finite differences confirm every gradient", not failures
           and elapsed < 120.0,
           "; ".join(failures) or f"worst rel err {worst:.1e}, {elapsed:.0f}s")


# -- 4: impact index consistency -----------------------------------------------------


def test_04_impact_index_consistency(synth, trained_ndrm2, index_ndrm2,
                                     trained_ndrm3, index_ndrm3):
    model2, _ = trained_ndrm2
    worst = 0.0
    checked = 0
    for q in synth.train_queries:
        for doc_id, score in retrieve(q.tokens, index_ndrm2, k=None).ranking:
            doc = synth.corpus.get(doc_id)
            contained = [t for t in q.tokens
                         if t in doc.tf and t in model2.vocab]
            uniq = sorted(set(contained))
            per_term = dict(zip(uniq, model2.per_term_scores(uniq, doc)))
            direct = float(sum(per_term[t] for t in contained))
            worst = max(worst, abs(score - direct))
            checked += 1

    model3, _ = trained_ndrm3
    rng = np.random.default_rng(2)
    spot_terms = rng.choice(sorted(index_ndrm3.postings), size=100,
                            replace=False)
    mismatched = 0
    for term in spot_terms:
        doc_idx, scores = index_ndrm3.postings[term]
        j = int(rng.integers(doc_idx.size))
        doc = synth.corpus.get(index_ndrm3.doc_ids[int(doc_idx[j])])
        fresh = model3.per_term_scores([term], doc)[0]
        if not np.isclose(scores[j], fresh, rtol=1e-5, atol=1e-6):
            mismatched += 1

    report("accumulated retrieval equals direct scoring",
           checked >= 10000 and worst <= 1e-4 and mismatched == 0,
           f"{checked} query-doc pairs, max diff {worst:.1e}; "
           f"{len(spot_terms)} posting spot checks, {mismatched} mismatches")


# -- 5: explicit term score formula ---------------------------------------------------


def test_05_explicit_term_score_formula():
    with T.precision("float64"):
        params = ExplicitParams()
        bs = BSState(mean_tf=2.0, mean_dlen=100.0)
        got = ndrm2_term_score(TermDocStats(idf=2.0, tf=3.0, dlen=50.0),
                               params, bs).item()
        zero = ndrm2_term_score(TermDocStats(idf=2.0, tf=0.0, dlen=50.0),
                                params, bs).item()
        grid = np.linspace(0.0, 50.0, 1000)
        scores = ndrm2_term_scores(np.full(1000, 2.0), grid,
                                   np.full(1000, 50.0), params, bs).numpy()
    hand_err = abs(got - 1.49999925)
    monotone = bool(np.all(np.diff(scores) >= 0.0))
    saturates = bool(scores[-1] < 2.0)
    report("explicit term score: fixtures, monotone and saturating in tf",
           hand_err <= 1e-6 and zero == 0.0 and monotone
           and scores[-1] > scores[0] and saturates,
           f"hand-value err {hand_err:.1e}, tf=0 -> {zero}, "
           f"1000-point grid monotone={monotone}")


# -- 6: trained explicit model against tuned bm25 -----------------------------------


def _fullrank_ndcg(index, synth):
    run = {q.query_id: retrieve(q, index, k=100).ranking
           for q in synth.eval_queries}
    _, mean, _ = evaluate(run, synth.eval_qrels, "ndcg", 10)
    return mean


def test_06_explicit_model_matches_tuned_bm25(synth, index_ndrm2, bm25_tuned):
    model_ndcg = _fullrank_ndcg(index_ndrm2, synth)
    run = {q.query_id: bm25_tuned.search(q.tokens, k=100)
           for q in synth.eval_queries}
    _, bm25_ndcg, _ = evaluate(run, synth.eval_qrels, "ndcg", 10)
    diff = abs(model_ndcg - bm25_ndcg)
    report("trained explicit model within 0.05 NDCG@10 of tuned bm25",
           diff <= 0.05,
           f"model {model_ndcg:.4f} vs bm25 {bm25_ndcg:.4f}, diff {diff:.4f}")


# -- 7: training loss behavior ------------------------------------------------------


def _single_pair_overfit():
    corpus, vocab = micro_corpus(num_docs=24)
    docs = sorted(corpus.docs)
    terms = ["w00", "w03", "w05"]
    model = CKModel(micro_config("ndrm1"), vocab)
    s0 = model.per_term_scores(terms, corpus.get(docs[0])).sum()
    s1 = model.per_term_scores(terms, corpus.get(docs[1])).sum()
    pref, other = (docs[1], docs[0]) if s1 < s0 else (docs[0], docs[1])
    doc_a, doc_b = corpus.get(pref), corpus.get(other)

    def pair_loss():
        chunks = [model.latent_term_scores(terms, model.encode_document(d))
                  for d in (doc_a, doc_b)]
        seg = [0] * len(terms) + [1] * len(terms)
        totals = T.segment_sum(T.concat(chunks, axis=0), seg, 2)
        return T.tmean(ranknet_loss(T.gather(totals, [0]),
                                    T.gather(totals, [1])))

    model.train()
    opt = Adam(model.parameters(), lr=1e-2)
    trace = []
    for _ in range(200):
        opt.zero_grad()
        loss = pair_loss()
        trace.append(loss.item())
        T.backward(loss)
        clip_gradients(opt.params, 1.0)
        opt.step()
    return trace


def _seed_identical_traces():
    corpus, vocab = micro_corpus(seed=2, num_docs=20)
    docs = sorted(corpus.docs)
    rng = np.random.default_rng(4)
    query_tokens = {}
    instances = []
    for i in range(6):
        qid = f"Q{i}"
        query_tokens[qid] = [f"w{rng.integers(40):02d}" for _ in range(3)]
        a, b, c, d = rng.choice(len(docs), size=4, replace=False)
        instances.append(TrainInstance(qid, docs[a], docs[b],
                                       (docs[c], docs[d])))
    traces = []
    for _ in range(2):
        model = CKModel(micro_config("ndrm3"), vocab)
        result = train(model, corpus, query_tokens, instances,
                       TrainConfig(batch_size=2, steps=10, lr=1e-3, seed=11))
        traces.append(result.loss_trace)
    return traces


def test_07_training_loss_behavior(trained_ndrm1):
    _, result = trained_ndrm1
    trace = result.loss_trace
    base = float(np.mean(trace[:10]))
    final = float(np.mean(trace[-10:]))
    drop = 1.0 - final / base

    pair_trace = _single_pair_overfit()
    overfit = min(pair_trace) < 1e-3 and pair_trace[-1] < 1e-3

    t1, t2 = _seed_identical_traces()

    report("loss halves, a single pair overfits, seeds reproduce",
           len(trace) == 500 and drop >= 0.5 and overfit and t1 == t2,
           f"drop {drop * 100:.0f}% over 500 steps "
           f"({base:.4f} -> {final:.4f}), pair loss {pair_trace[-1]:.1e} "
           f"after 200 steps, traces identical={t1 == t2}")


# -- 8: duet against latent-only ranking quality -------------------------------------


def test_08_duet_beats_latent_only(synth, index_ndrm1, index_ndrm3):
    ndcg1 = _fullrank_ndcg(index_ndrm1, synth)
    ndcg3 = _fullrank_ndcg(index_ndrm3, synth)
    report("duet model at least matches latent-only NDCG@10",
           ndcg3 >= ndcg1, f"duet {ndcg3:.4f} vs latent-only {ndcg1:.4f}")


# -- 9: metric fixtures ------------------------------------------------------------


def test_09_metric_fixtures():
    log2_3 = math.log2(3.0)
    fixtures = [
        # swapped pair: gains 7 and 3 land in each other's slots
        ("ndcg", 10, {"D1": 3, "D2": 2}, [("D2", 2.0), ("D1", 1.0)],
         (3 + 7 / log2_3) / (7 + 3 / log2_3)),
        # rank-insensitive cumulated gain inside the cutoff
        ("ncg", 3, {"A": 3, "B": 2, "C": 1},
         [("C", 3.0), ("A", 2.0), ("X", 1.0)], 8.0 / 11.0),
        # graded labels binarize at 2 for precision-style metrics
        ("ap", 10, {"D1": 3, "D2": 2, "D3": 1},
         [("D1", 3.0), ("D3", 2.0), ("D2", 1.0)], (1.0 + 2.0 / 3.0) / 2.0),
        ("rr", 10, {"D9": 2}, [("X", 3.0), ("Y", 2.0), ("D9", 1.0)],
         1.0 / 3.0),
        # the first hit below the relevance threshold does not count
        ("rr", 10, {"D1": 1, "D2": 2}, [("D1", 2.0), ("D2", 1.0)], 0.5),
    ]
    worst = 0.0
    for metric, cutoff, qrels, ranking, want in fixtures:
        per_query, _, _ = evaluate({"Q": ranking}, {"Q": qrels},
                                   metric, cutoff)
        worst = max(worst, abs(per_query["Q"] - want))

    exact = []
    for metric in ("ndcg", "ncg", "ap", "rr"):
        per_query, _, _ = evaluate(
            {"Q": [("A", 2.0), ("B", 1.0)]}, {"Q": {"A": 3, "B": 2}},
            metric, 10)
        exact.append(per_query["Q"] == 1.0)
        per_query, _, _ = evaluate({"Q": []}, {"Q": {"A": 3}}, metric, 10)
        exact.append(per_query["Q"] == 0.0)

    report("metrics reproduce hand-computed fixtures",
           worst <= 1e-6 and all(exact),
           f"5 fixtures, max err {worst:.1e}; perfect=1.0 and empty=0.0 exact")


# -- 10: pair expansion rule --------------------------------------------------------


def test_10_pair_expansion_rule():
    rng = np.random.default_rng(0)
    bad = 0
    for _ in range(10_000):
        ids = [f"D{i}" for i in rng.choice(100_000, size=4, replace=False)]
        pairs = expand_pairs(TrainInstance("Q", ids[0], ids[1],
                                           (ids[2], ids[3])))
        want = [(ids[0], ids[1]), (ids[0], ids[2]), (ids[0], ids[3]),
                (ids[1], ids[2]), (ids[1], ids[3])]
        if len(pairs) != 5 or [(p.preferred, p.other) for p in pairs] != want:
            bad += 1
    report("every instance expands to exactly the five ordered pairs",
           bad == 0, f"10000 random instances, {bad} violations")
