"""Impact index: offline scoring, binary format, retrieval, and synthetic data."""

import itertools
import json
import os
import struct
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import (index_from_postings, micro_config, micro_corpus,
                     tiny_config)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (build_index_per_document, posting_table_by_stable_sort,
                     rerank_per_document, retrieve_term_at_a_time,
                     save_index_per_posting, write_varint)

import ckrank.index as index_module
import ckrank.tensor as T
from ckrank import container, pooling
from ckrank.bm25 import BM25Searcher
from ckrank.corpus import (Corpus, DocumentRecord, QueryRecord, Vocabulary,
                           ingest_corpus, load_qrels, load_queries)
from ckrank.errors import ConfigError, ContractError, IndexFormatError
from ckrank.index import (MAGIC, VERSION, ImpactIndex, RetrievalResult, _rank,
                          _read_varints, _write_varints, build_index,
                          load_index, posting_table, rerank, retrieve,
                          save_index)
from ckrank.model import CKModel, ModelConfig, duet_scores
from ckrank.synth import (make_synthetic, write_candidates, write_qrels,
                          write_queries_tsv, write_triples, write_tsv_corpus)
from ckrank.train import load_candidates, load_triples


@pytest.fixture(scope="module")
def indexed():
    corpus, vocab = micro_corpus(num_docs=24)
    model = CKModel(micro_config("ndrm3"), vocab)
    index = build_index(corpus, model)
    return corpus, vocab, model, index


# -- result and ranking invariants ----------------------------------------------------


def test_retrieval_result_requires_sorted_scores():
    RetrievalResult("Q", [("A", 2.0), ("B", 2.0), ("C", 1.0)])
    with pytest.raises(ContractError):
        RetrievalResult("Q", [("A", 1.0), ("B", 2.0)])


def test_rank_tie_breaks_by_doc_id():
    scored = [("Z", 1.0), ("A", 1.0), ("M", 2.0)]
    assert _rank(scored, None) == [("M", 2.0), ("A", 1.0), ("Z", 1.0)]
    assert _rank(scored, 2) == [("M", 2.0), ("A", 1.0)]


TIED_SCORES = st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 1.5])
# Scores whose sums depend on the order they are added in.
ROUNDING_SCORES = st.sampled_from([0.1, 0.2, 0.3, 1e16, -1e16])


def sorted_oracle(scored, k):
    """The ranking rule as a plain full sort: score descending, doc id
    ascending, cut at k."""
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))[:k]


def bits(ranking):
    """A ranking with each score as its float64 bit pattern, so that ``==``
    compares scores bit for bit."""
    return [(doc_id, struct.pack("<d", score)) for doc_id, score in ranking]


def accumulate_oracle(index, tokens):
    """Term-at-a-time sums in float64, one Python float per touched doc."""
    acc = {}
    for term in tokens:
        doc_idx, scores = index.postings.get(term, ((), ()))
        for i, score in zip(doc_idx, scores):
            doc_id = index.doc_ids[i]
            acc[doc_id] = acc.get(doc_id, 0.0) + float(score)
    return list(acc.items())


@st.composite
def tied_indexes(draw):
    """Small indexes, possibly without documents, with few distinct scores
    (negative and zero included, some rounding when summed), doc ids out of
    sorted order (D10 sorts before D2) and a float32 or float64 score
    column; queries repeat tokens and may hit nothing."""
    n = draw(st.integers(0, 30))
    doc_ids = [f"D{i}" for i in draw(st.permutations(range(n)))]
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    postings = {}
    for t in range(draw(st.integers(1, 4))):
        docs = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))) if n else []
        scores = draw(st.lists(TIED_SCORES | ROUNDING_SCORES, min_size=len(docs),
                               max_size=len(docs)))
        postings[f"t{t}"] = (np.array(docs, dtype=np.int32),
                             np.array(scores, dtype=dtype))
    tokens = draw(st.lists(st.sampled_from(sorted(postings) + ["absent"]),
                           max_size=6))
    tokens += tokens[:draw(st.integers(0, len(tokens)))]
    return index_from_postings(doc_ids, postings), tokens


def k_values(live, data):
    return (None, 0, 1, live, live + 1, data.draw(st.integers(0, 40)))


class _Draws:
    """Stands in for ``st.data()`` in an ``@example``: every draw is k."""

    def __init__(self, k):
        self.k = k

    def draw(self, strategy):
        return self.k


def _pinned(dtype, k, doc_ids, postings, tokens=("t0", "t1")):
    """An ``@example`` of the test below: an index with a ``dtype`` score
    column, a query, and k among the ks that ``k_values`` tries (None, 0, 1
    and the touched count included)."""
    return example((index_from_postings(doc_ids, {
        t: (np.array(docs, np.int32), np.array(scores, dtype))
        for t, (docs, scores) in postings.items()}), list(tokens)), _Draws(k))


# Three documents above zero, Z at exactly 0.0 (1e16 - 1e16), E below zero,
# and A and AA untouched: at k = 3 exactly k score above zero; at k = 4 Z
# takes the 4th place, ahead of the untouched ids that sort before it.
SIGNS = (["C", "B", "Z", "E", "Y", "A", "AA"],
         {"t0": ([0, 1, 2, 3, 4], [0.5, 1.0, 1e16, -0.5, 0.25]),
          "t1": ([2], [-1e16])})
# A tie at the positive 2nd score, spanning the cut at k = 2.
TIE = (["D3", "D1", "D0", "D2"], {"t0": ([0, 1, 2, 3], [1.0, 0.5, 0.5, 0.5])})


@settings(max_examples=200, deadline=None)
@given(tied_indexes(), st.data())
@_pinned(np.float32, 3, *SIGNS)
@_pinned(np.float64, 3, *SIGNS)
@_pinned(np.float32, 4, *SIGNS)
@_pinned(np.float64, 4, *SIGNS)
@_pinned(np.float32, 2, *TIE)
@_pinned(np.float64, 2, *TIE)
def test_retrieve_matches_full_sort_oracle(case, data):
    index, tokens = case
    scored = accumulate_oracle(index, tokens)
    for k in k_values(len(scored), data):
        got = retrieve(tokens, index, k=k).ranking
        assert bits(got) == bits(sorted_oracle(scored, k))
        assert bits(got) == bits(retrieve_term_at_a_time(tokens, index, k))
        assert all(type(score) is float for _, score in got)


@pytest.mark.parametrize("name", ["ndrm2", "bm25"])
def test_retrieve_matches_oracles_on_session_indexes(name, synth, index_ndrm2,
                                                     bm25_tuned):
    """Rankings and every score bit for bit, on the float32 ndrm2 index and
    the float64 BM25 one."""
    index = index_ndrm2 if name == "ndrm2" else bm25_tuned.index
    assert index.scores.dtype == (np.float32 if name == "ndrm2" else np.float64)
    for query in synth.eval_queries:
        scored = accumulate_oracle(index, query.tokens)
        for k in (100, None):
            got = bits(retrieve(query, index, k=k).ranking)
            assert got == bits(retrieve_term_at_a_time(query.tokens, index, k))
            assert got == bits(sorted_oracle(scored, k))


@pytest.mark.parametrize("k", [-1, -7, 1.5, "3", float("nan"), True, False])
def test_bad_k_is_refused(indexed, k):
    corpus, _, model, index = indexed
    tokens = sorted(index.postings)[:3]
    with pytest.raises(ContractError, match="non-negative integer"):
        retrieve(tokens, index, k=k)
    with pytest.raises(ContractError, match="non-negative integer"):
        rerank(tokens, index.doc_ids[:4], model, corpus, k=k)


def test_string_query_is_refused(indexed):
    corpus, _, model, index = indexed
    term = next(t for t in index.postings if len(t) > 1)
    for query in (term, QueryRecord("Q1", term)):
        with pytest.raises(ContractError, match="token sequence"):
            retrieve(query, index)
        with pytest.raises(ContractError, match="token sequence"):
            rerank(query, index.doc_ids[:4], model, corpus)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40).map(lambda i: f"D{i}"), TIED_SCORES),
                max_size=40), st.data())
def test_rank_matches_full_sort_oracle(scored, data):
    for k in k_values(len(scored), data):
        assert _rank(scored, k) == sorted_oracle(scored, k)


def test_tie_order_survives_save_and_load(tmp_path):
    doc_ids = ["D2", "D10", "D1", "D3", "D20"]
    postings = {"t": (np.arange(5), np.array([1, 1, 1, 1, 2], dtype=np.float32)),
                "u": (np.array([0, 3]), np.array([0, 0], dtype=np.float32))}
    index = index_from_postings(doc_ids, postings)
    want = [("D20", 2.0), ("D1", 1.0), ("D10", 1.0), ("D2", 1.0), ("D3", 1.0)]
    path = tmp_path / "ties.ckix"
    save_index(index, path)
    for idx in (index, load_index(path)):
        assert retrieve(["u", "t"], idx, k=None).ranking == want
        assert retrieve(["t", "u"], idx, k=3).ranking == want[:3]


# -- building -------------------------------------------------------------------


def _assert_tables_equal(got, want):
    assert got[0] == want[0] and got[2] == want[2]
    for a, b in zip(got[1:2] + got[3:], want[1:2] + want[3:]):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert [a.dtype for a in got[3:]] == [np.dtype(np.int64)] * 3
    assert got[1].dtype == np.float64


def test_posting_table_matches_stable_sort_oracle(synth):
    _assert_tables_equal(posting_table(synth.corpus),
                         posting_table_by_stable_sort(synth.corpus))


_TERMS = ["a", "b", "zz", "\u00e9t\u00e9", "\u65e5\u672c", "stra\u00dfe", "a1"]


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.lists(st.lists(st.sampled_from(_TERMS), max_size=12), max_size=8),
    st.lists(st.lists(st.sampled_from(_TERMS), max_size=12), max_size=1),
    # one term in every document, repeated
    st.lists(st.integers(1, 5), min_size=1, max_size=6).map(
        lambda ns: [["\u00e9t\u00e9"] * n for n in ns])))
def test_posting_table_matches_oracle_on_small_corpora(docs):
    corpus = Corpus()
    for i, tokens in enumerate(docs):
        corpus.add(DocumentRecord(f"D{(i * 7) % 11:02d}-{i}", tokens))
    _assert_tables_equal(posting_table(corpus),
                         posting_table_by_stable_sort(corpus))


def test_build_refuses_training_mode(indexed):
    corpus, vocab, _, _ = indexed
    model = CKModel(micro_config("ndrm2"), vocab)
    model.train()
    with pytest.raises(ContractError):
        build_index(corpus, model)


class _GradModeSpy(CKModel):
    """Records the grad mode and graph state of every document encoding."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seen = []
        self.fail = False

    def encode_document(self, doc):
        if self.fail:
            raise ContractError("spy failure")
        enc = super().encode_document(doc)
        self.seen.append((T.grad_enabled(), enc.requires_grad))
        return enc


def test_build_records_no_graph_and_restores_grad_mode(indexed):
    corpus, vocab, model, index = indexed
    spy = _GradModeSpy(micro_config("ndrm3"), vocab)
    built = build_index(corpus, spy)
    assert spy.seen and set(spy.seen) == {(False, False)}
    assert T.grad_enabled()
    for term, (idx, scores) in index.postings.items():
        np.testing.assert_array_equal(built.postings[term][0], idx)
        np.testing.assert_array_equal(built.postings[term][1], scores)
    spy.fail = True
    with pytest.raises(ContractError, match="spy failure"):
        build_index(corpus, spy)
    assert T.grad_enabled()


def test_postings_only_for_contained_vocabulary_terms(indexed):
    corpus, vocab, _, index = indexed
    expected = {}
    for doc_idx, doc_id in enumerate(sorted(corpus.docs)):
        for term in corpus.get(doc_id).tf:
            if term in vocab:
                expected.setdefault(term, set()).add(doc_idx)
    assert set(index.postings) == set(expected)
    assert index.num_postings == sum(map(len, expected.values()))
    for term, (doc_idx, scores) in index.postings.items():
        assert set(doc_idx.tolist()) == expected[term]
        assert doc_idx.dtype == np.uint8 and scores.dtype == np.float32
        # widened first: on an unsigned column a decrease would wrap positive
        assert np.all(np.diff(doc_idx.astype(np.int64)) > 0)


def test_posting_scores_match_fresh_model(indexed):
    corpus, _, model, index = indexed
    rng = np.random.default_rng(3)
    terms = rng.choice(sorted(index.postings), size=6, replace=False)
    for term in terms:
        doc_idx, scores = index.postings[term]
        pick = int(doc_idx[rng.integers(doc_idx.size)])
        doc = corpus.get(index.doc_ids[pick])
        fresh = model.per_term_scores([term], doc)[0]
        stored = scores[np.searchsorted(doc_idx, pick)]
        # postings are float32; allow the cast rounding
        assert stored == pytest.approx(fresh, rel=1e-5)


# Vocabulary terms a-f, terms below min_df (r1, r2) and a term with no df (zz).
FOLD_VOCAB = Vocabulary({t: i for i, t in enumerate("abcdef")},
                        {"a": 6, "b": 2, "c": 3, "d": 5, "e": 2, "f": 4,
                         "r1": 1, "r2": 1}, num_docs=9, mean_dlen=5.0,
                        mean_tf=1.4)
FOLD_TOKENS = list("abcdef") + ["r1", "r2", "zz"]
FOLD_FIXED_DOCS = [("B!", ["r1", "zz", "r1"]),       # no vocabulary term
                   ("A!", ["c"]),                    # one term
                   ("C!", ["a", "r2", "a", "e", "a"]),  # repeats, below min_df
                   ("B!!", [])]


@pytest.fixture(scope="module")
def fold_models():
    models = {}
    for variant in ("ndrm1", "ndrm2", "ndrm3"):
        model = CKModel(micro_config(variant, seed=3), FOLD_VOCAB)
        if model.needs_explicit:
            model.explicit.w_dlen.data[...] = 0.8
            model.explicit.b_dlen.data[...] = 0.15
        if model.duet is not None:
            model.load_running_stats({
                "bs_tf_mean": 1.3, "bs_dlen_mean": 4.5,
                "bn_latent_mean": 0.05, "bn_latent_var": 0.3,
                "bn_explicit_mean": 0.9, "bn_explicit_var": 0.6})
        models[variant] = model
    return models


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.text("ABC", min_size=1, max_size=3),
                          st.lists(st.sampled_from(FOLD_TOKENS), max_size=10)),
                max_size=6, unique_by=lambda d: d[0]),
       st.data())
def test_build_index_matches_per_document_oracle(fold_models, drawn, data):
    corpus = Corpus()
    for doc_id, tokens in data.draw(st.permutations(drawn + FOLD_FIXED_DOCS)):
        corpus.add(DocumentRecord(doc_id, tokens))
    for variant, model in fold_models.items():
        got = build_index(corpus, model)
        want = build_index_per_document(corpus, model)
        assert got.doc_ids == want.doc_ids
        assert got.postings.keys() == want.postings.keys(), variant
        for term, (doc_idx, scores) in want.postings.items():
            assert got.postings[term][0].dtype == np.uint8
            assert got.postings[term][0].tolist() == doc_idx.tolist()
            assert got.postings[term][1].dtype == np.float32
            assert got.postings[term][1].tobytes() == scores.tobytes(), \
                (variant, term)
        assert (got.config_hash, got.stats, got.max_query_tokens) == \
            (want.config_hash, want.stats, want.max_query_tokens)


def _bytes_per_posting(index):
    return sum(idx.nbytes + scores.nbytes for idx, scores in
               index.postings.values()) / index.num_postings


# Doc tables at and just past the uint8 and uint16 limits, and the doc
# column's dtype for each.
NARROW_COLUMNS = [(1, np.uint8), (256, np.uint8), (257, np.uint16),
                  (65_536, np.uint16), (65_537, np.uint32)]


@pytest.mark.parametrize("num_docs,dtype", NARROW_COLUMNS,
                         ids=[str(n) for n, _ in NARROW_COLUMNS])
def test_postings_take_the_narrow_doc_column_plus_the_score(tmp_path, num_docs,
                                                             dtype):
    # itemsize + 4 bytes a posting with float32 scores and itemsize + 8 with
    # float64 (BM25) ones; the file stores float32 scores, so a loaded index
    # takes itemsize + 4
    doc_ids = [f"D{i}" for i in range(num_docs)]
    docs = sorted({0, num_docs // 2, num_docs - 1})
    for score_dtype in (np.float32, np.float64):
        index = index_from_postings(
            doc_ids, {"t": (docs, np.ones(len(docs), score_dtype))})
        save_index(index, tmp_path / "narrow.ckix")
        loaded = load_index(tmp_path / "narrow.ckix")
        for got, score_bytes in ((index, np.dtype(score_dtype).itemsize),
                                 (loaded, 4)):
            assert got.doc_idx.dtype == dtype
            assert _bytes_per_posting(got) == np.dtype(dtype).itemsize + score_bytes
            assert got.postings["t"][0].tolist() == docs


# Doc indices on either side of the uint8 and uint16 limits.
EDGE_DOCS = (0, 1, 254, 255, 256, 257, 65_534, 65_535, 65_536)


@st.composite
def edge_indexes(draw, num_docs):
    """(index, its postings as drawn, query tokens): postings at the doc
    indices around the uint8 and uint16 limits that the doc table reaches,
    float32 or float64 scores with ties and rounding sums."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    edges = [i for i in EDGE_DOCS if i < num_docs]
    postings = {}
    for t in range(draw(st.integers(1, 3))):
        docs = draw(st.sets(st.sampled_from(edges), min_size=1))
        # the first list always holds the table's last document
        docs = sorted(docs | {num_docs - 1} if t == 0 else docs)
        scores = draw(st.lists(TIED_SCORES | ROUNDING_SCORES, min_size=len(docs),
                               max_size=len(docs)))
        postings[f"t{t}"] = (docs, np.array(scores, dtype=dtype))
    tokens = draw(st.lists(st.sampled_from(sorted(postings)), min_size=1,
                           max_size=6))
    doc_ids = [f"D{i}" for i in range(num_docs)]
    return index_from_postings(doc_ids, postings), postings, tokens


@pytest.mark.parametrize("num_docs", [256, 257, 65_536, 65_537])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_retrieve_matches_oracles_at_the_doc_column_limits(num_docs, data):
    index, postings, tokens = data.draw(edge_indexes(num_docs))
    assert {t: idx.tolist() for t, (idx, _) in index.postings.items()} == \
        {t: docs for t, (docs, _) in postings.items()}
    # summed from the drawn lists, not the index's column
    acc = {}
    for term in tokens:
        docs, scores = postings[term]
        for i, score in zip(docs, scores.tolist()):
            acc[index.doc_ids[i]] = acc.get(index.doc_ids[i], 0.0) + score
    for k in k_values(len(acc), data):
        got = bits(retrieve(tokens, index, k=k).ranking)
        assert got == bits(retrieve_term_at_a_time(tokens, index, k))
        assert got == bits(sorted_oracle(list(acc.items()), k))


def test_index_refuses_more_documents_than_an_int32_column_holds(monkeypatch):
    monkeypatch.setattr(index_module, "MAX_DOCS", 3)
    index_from_postings(["A", "B", "C"], {})
    with pytest.raises(ContractError, match="at most 3"):
        index_from_postings(["A", "B", "C", "D"], {})


def _postings_bytes(index):
    return {t: (d.tobytes(), s.tobytes()) for t, (d, s) in index.postings.items()}


def test_short_fold_unchanged_by_a_paper_config_fold(monkeypatch):
    # Pooling caches its cover matrix per (window_len, stride, dtype); a fold
    # with the paper's windows (several windows over 450 positions) must not
    # change a later fold with the tiny config's.
    monkeypatch.setattr(pooling, "_COVER_TABLES", {})
    corpus, vocab = micro_corpus(seed=6, num_docs=12, doc_len=(20, 70))
    tiny = CKModel(tiny_config("ndrm3"), vocab)
    before = _postings_bytes(build_index(corpus, tiny))
    long_doc = Corpus()
    long_doc.add(DocumentRecord("L", [f"w{i % 40:02d}" for i in range(450)]))
    paper = build_index(long_doc, CKModel(ModelConfig(variant="ndrm1"), vocab))
    assert paper.num_postings == 40
    assert len(pooling._COVER_TABLES) == 2
    assert _postings_bytes(build_index(corpus, tiny)) == before


def test_index_matches_model_config(indexed):
    _, vocab, model, index = indexed
    assert index.matches(model)
    other = CKModel(micro_config("ndrm3", seed=5), vocab)
    assert not index.matches(other)


# -- retrieval -------------------------------------------------------------------


def direct_contained_score(model, tokens, doc):
    """Sum per-occurrence scores over query terms the document contains."""
    contained = [t for t in tokens if t in doc.tf and t in model.vocab]
    if not contained:
        return 0.0
    uniq = sorted(set(contained))
    per_term = dict(zip(uniq, model.per_term_scores(uniq, doc)))
    return float(sum(per_term[t] for t in contained))


def test_retrieve_matches_direct_scoring(indexed):
    corpus, _, model, index = indexed
    rng = np.random.default_rng(9)
    for _ in range(5):
        tokens = [f"w{rng.integers(40):02d}" for _ in range(4)]
        result = retrieve(tokens, index, k=None)
        assert len(result.ranking) > 0
        for doc_id, score in result.ranking:
            want = direct_contained_score(model, tokens, corpus.get(doc_id))
            assert score == pytest.approx(want, abs=1e-5)


def test_retrieve_repeated_terms_accumulate(indexed):
    _, _, _, index = indexed
    term = sorted(index.postings)[0]
    single = dict(retrieve([term], index, k=None).ranking)
    double = dict(retrieve([term, term], index, k=None).ranking)
    assert set(single) == set(double)
    for doc_id, score in single.items():
        assert double[doc_id] == pytest.approx(2.0 * score, rel=1e-9)


def test_retrieve_term_order_invariant(indexed):
    _, _, _, index = indexed
    terms = sorted(index.postings)[:4]
    fwd = retrieve(terms, index, k=None).ranking
    rev = retrieve(list(reversed(terms)), index, k=None).ranking
    assert fwd == rev


def test_retrieve_only_touched_docs_and_k(indexed):
    corpus, _, _, index = indexed
    term = sorted(index.postings)[0]
    full = retrieve([term], index, k=None).ranking
    assert len(full) == index.postings[term][0].size
    capped = retrieve([term], index, k=3).ranking
    assert capped == full[:3]


def test_retrieve_unknown_and_empty_queries(indexed):
    _, _, _, index = indexed
    assert retrieve(["zzzz"], index).ranking == []
    assert retrieve([], index).ranking == []


def test_retrieve_accepts_query_record(indexed):
    _, _, _, index = indexed
    term = sorted(index.postings)[0]
    result = retrieve(QueryRecord("Q7", [term]), index)
    assert result.query_id == "Q7"
    assert result.ranking == retrieve([term], index).ranking


@pytest.fixture(scope="module")
def capped():
    """Untrained micro models of every variant that read 3 query tokens, and
    their indexes over a micro collection."""
    corpus, vocab = micro_corpus(seed=3, num_docs=30)
    models = {v: CKModel(micro_config(v, max_query_tokens=3), vocab)
              for v in ("ndrm1", "ndrm2", "ndrm3")}
    return corpus, {v: (m, build_index(corpus, m)) for v, m in models.items()}


@pytest.mark.parametrize("variant", ["ndrm1", "ndrm2", "ndrm3"])
def test_retrieve_applies_the_query_cap_as_rerank_does(capped, variant):
    corpus, built = capped
    model, index = built[variant]
    assert index.max_query_tokens == 3
    # three terms of one document first, then nine more vocabulary terms
    head = sorted(corpus.get("M000").tf)[:3]
    tokens = head + [t for t in sorted(index.postings) if t not in head][:9]
    assert len(tokens) == 12
    got = retrieve(tokens, index, k=None).ranking
    assert got == retrieve(tokens[:3], index, k=None).ranking
    holding = [d for d in sorted(corpus.docs)
               if set(head) <= set(corpus.get(d).tf)]
    assert "M000" in holding
    scores = dict(got)
    for doc_id, score in rerank(tokens, holding, model, corpus).ranking:
        assert scores[doc_id] == pytest.approx(score, rel=1e-5, abs=1e-6)
    # with no cap the nine later tokens count too
    index.max_query_tokens = None
    try:
        uncapped = dict(retrieve(tokens, index, k=None).ranking)
    finally:
        index.max_query_tokens = 3
    assert any(uncapped[d] != scores[d] for d in holding)


# -- reranking -------------------------------------------------------------------


def test_rerank_scores_and_skips(indexed):
    corpus, _, model, _ = indexed
    docs = sorted(corpus.docs)[:4]
    tokens = ["w00", "w07"]
    result = rerank(QueryRecord("Q", tokens), docs + ["GHOST"], model, corpus)
    assert result.skipped == 1
    assert len(result.ranking) == 4
    for doc_id, score in result.ranking:
        want = model.per_term_scores(tokens, corpus.get(doc_id)).sum()
        assert score == pytest.approx(want, abs=0)
    top2 = rerank(tokens, docs, model, corpus, k=2)
    assert top2.ranking == result.ranking[:2]


@pytest.fixture(scope="module")
def rerank_models():
    """Micro models of every variant over a corpus that also holds a
    document with no tokens, as ``ingest_corpus`` keeps a line with empty
    fields."""
    corpus, vocab = micro_corpus(num_docs=12)
    corpus.add(DocumentRecord("EMPTY", []))
    models = {v: CKModel(micro_config(v, max_query_tokens=4), vocab)
              for v in ("ndrm1", "ndrm2", "ndrm3")}
    return corpus, models


@settings(max_examples=30, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("variant", ["ndrm1", "ndrm2", "ndrm3"])
def test_rerank_equals_the_per_document_loop(rerank_models, variant, data):
    """One column over every candidate gives the per-document loop's
    rankings, scores and skip count, bit for bit: unknown and repeated ids,
    the empty document, empty queries and queries over the cap of 4."""
    corpus, models = rerank_models
    model = models[variant]
    ids = sorted(corpus.docs) + ["GHOST", "NOPE"]
    candidates = data.draw(st.lists(st.sampled_from(ids), max_size=10))
    tokens = data.draw(st.lists(st.sampled_from(
        ["w00", "w01", "w05", "w17", "w33", "zzz"]), max_size=7))
    k = data.draw(st.sampled_from([None, 0, 1, len(candidates)]))
    result = rerank(QueryRecord("Q", tokens), candidates, model, corpus, k=k)
    ranking, skipped = rerank_per_document(tokens, candidates, model, corpus, k)
    assert result.query_id == "Q"
    assert result.ranking == ranking
    assert result.skipped == skipped


def test_rerank_refuses_a_train_mode_model(rerank_models):
    corpus, models = rerank_models
    model = models["ndrm3"]
    before = model.running_stats()
    model.train()
    try:
        with pytest.raises(ContractError, match="train mode"):
            rerank(["w00", "w01"], sorted(corpus.docs), model, corpus)
    finally:
        model.eval()
    assert model.running_stats() == before


@pytest.mark.parametrize("variant", ["ndrm1", "ndrm3"])
def test_rerank_scores_an_empty_document_as_no_match(rerank_models, variant):
    """A document with no tokens gets every term's no-match latent score
    (and, for ndrm3, its zero-tf explicit score), and the other candidates
    are still scored."""
    corpus, models = rerank_models
    model = models[variant]
    terms = ["w00", "zzz"]
    other = corpus.get("M000")
    got = dict(rerank(terms, ["EMPTY", other.doc_id], model, corpus).ranking)
    no_match = pooling.latent_term_scores(
        T.constant(pooling.empty_features(model.bank)[None, :].repeat(2, 0)),
        model.head)
    if variant == "ndrm3":
        empty = corpus.get("EMPTY")
        no_match = duet_scores(no_match, model.explicit_term_scores(terms, empty),
                               model.duet, "infer")
    assert got["EMPTY"] == pytest.approx(float(no_match.numpy().sum()), rel=1e-6)
    assert got[other.doc_id] == model.per_term_scores(terms, other).sum()
    with pytest.raises(ContractError, match="empty document"):
        model.encode_document(corpus.get("EMPTY"))


# -- binary format -------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**63 - 1))
def test_varint_round_trip(value):
    buf = _write_varints([value])
    assert _read_varints(buf.tobytes()).tolist() == [value]


def test_varint_streams_concatenate():
    values = [0, 1, 127, 128, 300, 2**40]
    parts = [_write_varints([v]).tobytes() for v in values]
    assert _write_varints(values).tobytes() == b"".join(parts)
    for end in range(len(values) + 1):
        assert _read_varints(b"".join(parts[:end])).tolist() == values[:end]


VARINT_GAPS = st.one_of(
    st.sampled_from([1, 2, 127, 128, 129, 16383, 16384, 16385, 2**21 - 1,
                     2**21, 2**56, 2**62, 2**63]),
    st.integers(1, 2**63))


@settings(max_examples=200, deadline=None)
@given(st.lists(VARINT_GAPS, max_size=8))
def test_write_varints_matches_per_value_writer(gaps):
    want = bytearray()
    for gap in gaps:
        write_varint(want, gap)
    assert _write_varints(gaps).tobytes() == bytes(want)


# Gaps of one, two and three varint bytes; a doc index must name a document,
# so the doc table grows with the largest index drawn.
DOC_GAPS = st.one_of(st.sampled_from([1, 2, 127, 128, 129, 16383, 16384, 16385]),
                     st.integers(1, 300))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=4), st.lists(DOC_GAPS, max_size=6),
                       max_size=5),
       st.integers(0, 2**32 - 1))
def test_save_index_matches_per_posting_writer(gap_lists, seed):
    rng = np.random.default_rng(seed)
    postings = {}
    for term, gaps in gap_lists.items():
        # a gap is measured from the previous doc index, the first from -1
        idx = [end - 1 for end in itertools.accumulate(gaps)]
        postings[term] = (np.array(idx, dtype=np.int64),
                          rng.standard_normal(len(idx)).astype(np.float32))
    num_docs = max((sum(gaps) for gaps in gap_lists.values()), default=0) + 3
    index = index_from_postings([f"D{i}" for i in range(num_docs)], postings,
                                stats={"bs_tf_mean": 1.5})
    with tempfile.TemporaryDirectory() as tmp:
        save_index(index, os.path.join(tmp, "array.ckix"))
        save_index_per_posting(index, os.path.join(tmp, "oracle.ckix"))
        with open(os.path.join(tmp, "array.ckix"), "rb") as fh:
            got = fh.read()
        with open(os.path.join(tmp, "oracle.ckix"), "rb") as fh:
            assert got == fh.read()


def test_save_load_bit_exact(indexed, tmp_path):
    _, _, _, index = indexed
    path = tmp_path / "micro.ckix"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.doc_ids == index.doc_ids
    assert loaded.config_hash == index.config_hash
    assert loaded.stats == index.stats
    assert set(loaded.postings) == set(index.postings)
    for term in index.postings:
        np.testing.assert_array_equal(loaded.postings[term][0],
                                      index.postings[term][0])
        assert loaded.postings[term][1].tobytes() == \
            index.postings[term][1].tobytes()


@pytest.mark.parametrize("doc_idx", [[1, 0], [0, 2, 2], [-2, 0]],
                         ids=["decreasing", "repeated", "negative"])
def test_save_refuses_postings_not_strictly_increasing(doc_idx, tmp_path):
    # The index refuses such columns when it is made, so there is never one
    # to save: a negative gap has no unsigned varint.
    idx = np.array(doc_idx, dtype=np.int64)
    path = tmp_path / "bad.ckix"
    with pytest.raises(ContractError, match="'t'"):
        save_index(index_from_postings(
            ["A", "B", "C"], {"t": (idx, np.ones(idx.size, np.float32))}), path)
    assert not path.exists()


@pytest.mark.parametrize("reason,postings", [
    (r"\(3,\) int64 doc indices but \(2,\) scores",
     {"a": ([0, 1], [1.0]), "b": ([1], [7.0])}),
    (r"\(1,\) int64 doc indices but \(2,\) scores", {"a": ([0], [1.0, 2.0])}),
    ("'b'", {"a": ([0], [1.0]), "b": ([1, 2], [1.0, 2.0])}),
], ids=["fewer-scores", "more-scores", "past-doc-table"])
def test_save_refuses_malformed_postings(reason, postings, tmp_path):
    # Refused when the index is made, so nothing reaches the file.
    path = tmp_path / "bad.ckix"
    with pytest.raises(ContractError, match=reason):
        save_index(index_from_postings(
            ["A", "B"], {t: (np.array(i, dtype=np.int64),
                             np.array(s, dtype=np.float32))
                         for t, (i, s) in postings.items()}), path)
    assert not path.exists()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckix"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(IndexFormatError):
        load_index(path)


def test_load_rejects_bad_version(tmp_path):
    path = tmp_path / "vers.ckix"
    path.write_bytes(b"CKIX" + struct.pack("<I", 99) + struct.pack("<Q", 0))
    with pytest.raises(IndexFormatError):
        load_index(path)


def _rewrite_meta(path, version=None, **fields):
    """Rewrite a CKIX file's version or metadata fields (None deletes one)."""
    blob = path.read_bytes()
    magic, old_version, mlen = struct.unpack_from("<4sIQ", blob)
    meta = json.loads(blob[16:16 + mlen])
    for key, value in fields.items():
        if value is None:
            del meta[key]
        else:
            meta[key] = value
    raw = json.dumps(meta).encode("utf-8")
    path.write_bytes(struct.pack("<4sIQ", magic, version or old_version,
                                 len(raw)) + raw + blob[16 + mlen:])


def test_query_cap_round_trips(capped, tmp_path):
    corpus, built = capped
    path = tmp_path / "capped.ckix"
    save_index(built["ndrm2"][1], path)
    assert load_index(path).max_query_tokens == 3
    save_index(BM25Searcher(corpus, Vocabulary.build(corpus)).index, path)
    assert load_index(path).max_query_tokens is None


def test_load_refuses_version_1_with_the_reason(capped, tmp_path):
    for version, reason in [
            (1, "version 1 records no query cap"),
            (2, "version 2 stores its postings in blocks at offsets, which "
                "may overlap")]:
        path = tmp_path / f"v{version}.ckix"
        save_index(capped[1]["ndrm2"][1], path)
        _rewrite_meta(path, version=version)
        with pytest.raises(IndexFormatError, match=reason):
            load_index(path)


@pytest.mark.parametrize("cap", ["3", -1, True, 2.5, [3], None],
                         ids=["string", "negative", "bool", "float", "list",
                              "missing"])
def test_load_rejects_a_malformed_query_cap(capped, tmp_path, cap):
    path = tmp_path / "cap.ckix"
    save_index(capped[1]["ndrm2"][1], path)
    _rewrite_meta(path, max_query_tokens=cap)
    with pytest.raises(IndexFormatError):
        load_index(path)


def _small_index_bytes():
    postings = {"alpha": (np.array([0, 2, 3]), np.array([0.5, -1.25, 2.0], dtype=np.float32)),
                "beta": (np.array([1]), np.array([3.5], dtype=np.float32)),
                "gamma": (np.array([0, 300]), np.array([1.0, 0.25], dtype=np.float32))}
    index = index_from_postings([f"D{i}" for i in range(301)], postings,
                                stats={"bs_tf_mean": 1.5})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "small.ckix")
        save_index(index, path)
        with open(path, "rb") as fh:
            return index, fh.read()


SMALL_INDEX, SMALL_BLOB = _small_index_bytes()
PAYLOAD_BYTES = 3 * 4 + 1 * 4 + 2 * 4 + 3 + 1 + 3      # scores plus varints


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(0, len(SMALL_BLOB)),
                 st.integers(len(SMALL_BLOB) - PAYLOAD_BYTES - 16, len(SMALL_BLOB))))
def test_every_prefix_fails_cleanly_or_round_trips(cut):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cut.ckix")
        with open(path, "wb") as fh:
            fh.write(SMALL_BLOB[:cut])
        try:
            loaded = load_index(path)
        except IndexFormatError:
            assert cut < len(SMALL_BLOB)
            return
    assert loaded.doc_ids == SMALL_INDEX.doc_ids
    assert loaded.stats == SMALL_INDEX.stats
    assert loaded.postings.keys() == SMALL_INDEX.postings.keys()
    for term, (idx, scores) in SMALL_INDEX.postings.items():
        np.testing.assert_array_equal(loaded.postings[term][0], idx)
        assert loaded.postings[term][1].tobytes() == scores.tobytes()


def test_load_rejects_postings_past_the_doc_table(tmp_path):
    # ImpactIndex refuses such a posting, so write the file posting by
    # posting from plain fields.
    index = SimpleNamespace(
        doc_ids=["D0"], postings={"t": (np.array([3]), np.ones(1, np.float32))},
        config_hash="hash", stats={}, max_query_tokens=None)
    path = tmp_path / "range.ckix"
    save_index_per_posting(index, path)
    with pytest.raises(IndexFormatError):
        load_index(path)


def _one_posting_file(path, varints):
    """A one-term CKIX file whose posting block holds the given varint bytes
    and one score per varint."""
    count = sum(1 for b in varints if b < 0x80)
    index = index_from_postings(["D0", "D1"], {"t": (np.arange(count),
                                                     np.ones(count, np.float32))})
    save_index(index, path)
    blob = path.read_bytes()
    head = len(blob) - count - 4 * count          # saved deltas are all 1 byte
    path.write_bytes(blob[:head] + bytes(varints) + blob[head + count:])


@pytest.mark.parametrize("varint", [
    [0x80] * 9 + [0x01],             # 2**63: past int64
    [0xFF] * 9 + [0x01],             # 2**64 - 1
    [0x80] * 9 + [0x02],             # 2**64: more than 64 bits
    [0x80] * 10 + [0x01],            # eleven bytes
])
def test_load_rejects_overlong_varints(tmp_path, varint):
    path = tmp_path / "overlong.ckix"
    _one_posting_file(path, varint)
    with pytest.raises(IndexFormatError):
        load_index(path)


def test_varint_decode_limits():
    assert _read_varints(bytes([0xFF] * 9 + [0x01])).tolist() == [2**64 - 1]
    for bad in ([0x80] * 9 + [0x02], [0x80] * 10 + [0x01], [0x80] * 12, [0x80],
                [0x01, 0x81]):
        with pytest.raises(IndexFormatError):
            _read_varints(bytes(bad))


def test_load_rejects_repeated_documents(tmp_path):
    path = tmp_path / "repeat.ckix"
    _one_posting_file(path, [0x01, 0x01])
    assert load_index(path).postings["t"][0].tolist() == [0, 1]
    _one_posting_file(path, [0x01, 0x00])
    with pytest.raises(IndexFormatError, match="repeats"):
        load_index(path)


def test_empty_index_round_trip(tmp_path):
    index = index_from_postings(["D1"], {}, stats={"a": 1.0})
    path = tmp_path / "empty.ckix"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.doc_ids == ["D1"] and loaded.postings == {}
    assert loaded.stats == {"a": 1.0}


def _v3_file(path, terms, counts, gaps, scores, payloads=None,
             doc_ids=("D0", "D1", "D2", "D3")):
    """A CKIX container over the doc table (four documents by default)
    holding the given terms, counts, gap bytes and scores as they are, with
    no check; payloads adds or replaces payloads."""
    container.write(path, MAGIC, VERSION, {
        "doc_ids": list(doc_ids), "config_hash": "h", "stats": {},
        "max_query_tokens": None, "terms": terms, "counts": counts,
    }, {"gaps": np.array(gaps, dtype=np.uint8),
        "scores": np.array(scores, dtype=np.float32), **(payloads or {})})


def test_v3_manifest_holds_no_offsets(tmp_path):
    path = tmp_path / "v3.ckix"
    save_index(index_from_postings(["D0", "D1", "D2"], {
        "b": (np.array([1, 2]), np.array([3.0, 4.0], np.float32)),
        "a": (np.array([0, 1]), np.array([1.0, 2.0], np.float32))}, "h"),
        path)
    manifest, arrays = container.read(path, MAGIC, VERSION, "index", {})
    assert list(manifest) == ["format_version", "doc_ids", "config_hash",
                              "stats", "max_query_tokens", "terms", "counts",
                              "params"]
    assert (manifest["terms"], manifest["counts"]) == (["a", "b"], [2, 2])
    # each term's first gap is taken from -1
    assert arrays["gaps"].tolist() == [1, 1, 2, 1]
    assert arrays["scores"].tolist() == [1.0, 2.0, 3.0, 4.0]
    _v3_file(path, ["a", "b"], [2, 2], [1, 1, 2, 1], [1, 2, 3, 4])
    loaded = load_index(path)
    assert {t: i.tolist() for t, (i, _) in loaded.postings.items()} == \
        {"a": [0, 1], "b": [1, 2]}


@pytest.mark.parametrize("terms,counts,gaps,reason", [
    (["a", "b"], [2, 2], [1, 1, 2], "add up to 4 postings but there are 3"),
    (["a", "b"], [2, 1], [1, 1, 2, 1], "4 gaps for 3 postings"),
    (["a", "b"], [2, 1], [1, 1], "2 gaps for 3 postings"),
    (["a", "b"], [2, 1], [1, 1, 0x82], "ends inside a varint"),
    (["a", "a"], [2, 1], [1, 1, 2], "distinct strings"),
    (["a", 3], [2, 1], [1, 1, 2], "distinct strings"),
    (["a", None], [2, 1], [1, 1, 2], "distinct strings"),
    (["a", "b"], [2.0, 1], [1, 1, 2], "non-negative integer"),
    (["a", "b"], [2, True], [1, 1, 2], "non-negative integer"),
    (["a", "b"], ["2", 1], [1, 1, 2], "non-negative integer"),
    (["a", "b"], [4, -1], [1, 1, 2], "non-negative integer"),
    (["a"], [2, 1], [1, 1, 2], "non-negative integer per term"),
], ids=["counts-sum", "extra-gap", "missing-gap", "inside-varint",
        "repeated-term", "int-term", "null-term", "float-count", "bool-count",
        "string-count", "negative-count", "counts-per-term"])
def test_load_refuses_inconsistent_postings(tmp_path, terms, counts, gaps,
                                            reason):
    path = tmp_path / "bad.ckix"
    _v3_file(path, terms, counts, gaps, [1.0, 2.0, 3.0])
    with pytest.raises(IndexFormatError, match=reason):
        load_index(path)


@pytest.mark.parametrize("payloads", [
    {"extra": np.zeros(2, np.float32)},
    {"gaps": np.ones(3, np.float32)},
    {"scores": np.ones(3, np.float64)},
    {"scores": np.ones((3, 1), np.float32)},
], ids=["extra", "float-gaps", "float64-scores", "2-d-scores"])
def test_load_refuses_other_payloads(tmp_path, payloads):
    path = tmp_path / "payloads.ckix"
    _v3_file(path, ["a", "b"], [2, 1], [1, 1, 2], [1.0, 2.0, 3.0], payloads)
    with pytest.raises(IndexFormatError, match="payloads are not"):
        load_index(path)


def test_load_refuses_a_score_that_is_not_finite(tmp_path):
    path = tmp_path / "nan.ckix"
    _v3_file(path, ["a", "b"], [2, 1], [1, 1, 2], [1.0, 2.0, 3.0])
    load_index(path)
    _v3_file(path, ["a", "b"], [2, 1], [1, 1, 2], [1.0, 2.0, np.nan])
    with pytest.raises(IndexFormatError,
                       match="nan.ckix: posting list of 'b' holds a score"):
        load_index(path)


@pytest.mark.parametrize("doc_ids", [[1, "a"], ["a", None], ["a", "b", "a"]],
                         ids=["int", "null", "repeated"])
def test_a_doc_table_must_be_distinct_strings(tmp_path, doc_ids):
    with pytest.raises(ContractError, match="doc ids are not distinct strings"):
        index_from_postings(doc_ids, {"t": ([0], [1.0])})
    path = tmp_path / "docs.ckix"
    _v3_file(path, ["t"], [1], [1], [1.0], doc_ids=doc_ids)
    with pytest.raises(IndexFormatError, match="doc ids are not distinct"):
        load_index(path)


def _columns(**changes):
    """Constructor arguments of a valid two-term index over three documents,
    with some replaced."""
    args = dict(doc_ids=["A", "B", "C"], terms=["a", "b"], counts=[2, 1],
                doc_idx=np.array([0, 2, 1]), scores=np.ones(3, np.float32),
                config_hash="h", stats={})
    args.update(changes)
    return args


@pytest.mark.parametrize("changes,reason", [
    (dict(terms=["b", "a"]), "sorted order"),
    (dict(terms=["a", "a"]), "distinct strings"),
    (dict(terms=["a", 2]), "distinct strings"),
    (dict(counts=[2, 2]), "add up to 4 postings but there are 3"),
    (dict(counts=[3]), "non-negative integer per term"),
    (dict(counts=[2.0, 1]), "non-negative integer"),
    (dict(counts=np.array([2.0, 1.0])), "non-negative integer"),
    (dict(counts=[4, -1]), "non-negative integer"),
    (dict(counts=np.array([4, -1])), "non-negative integer"),
    (dict(doc_idx=np.array([0.0, 2.0, 1.0])), "float64 doc indices"),
    (dict(doc_idx=np.array([[0, 2, 1]])), r"\(1, 3\) int64 doc indices"),
    (dict(scores=np.ones(2)), r"\(3,\) int64 doc indices but \(2,\) scores"),
    (dict(doc_idx=np.array([2, 0, 1])), "'a'"),
    (dict(doc_idx=np.array([0, 2, 3])), "'b'"),
    (dict(doc_idx=np.array([0, 2, 2**32 + 1])), "'b'"),
    (dict(scores=np.array([1.0, 1.0, np.nan], np.float32)),
     "'b' holds a score that is not finite"),
    (dict(scores=np.array([1.0, np.inf, 1.0])), "'a' holds a score that is not"),
    (dict(scores=np.array([-np.inf, 1.0, 1.0])), "'a' holds a score that is not"),
    (dict(max_query_tokens=-1), "query cap -1"),
    (dict(max_query_tokens=True), "query cap True"),
    (dict(max_query_tokens=2.0), "query cap 2.0"),
], ids=["unsorted-terms", "repeated-term", "int-term", "counts-sum",
        "counts-per-term", "float-count", "float-count-array", "negative-count",
        "negative-count-array", "float-doc-idx", "2-d-doc-idx", "fewer-scores",
        "decreasing", "past-doc-table", "wraps-in-int32", "nan-score",
        "inf-score", "minus-inf-score", "negative-cap",
        "bool-cap", "float-cap"])
def test_the_index_checks_its_columns_when_made(changes, reason):
    ImpactIndex(**_columns())
    with pytest.raises(ContractError, match=reason):
        ImpactIndex(**_columns(**changes))


def test_the_index_holds_its_columns_and_builds_lookups_on_first_use(indexed,
                                                                     tmp_path):
    index = ImpactIndex(**_columns(doc_idx=np.array([0, 2, 1], np.uint64),
                                   counts=np.array([2, 1], np.int32)))
    assert (index.doc_idx.dtype, index.counts.dtype) == (np.uint8, np.int64)
    lookups = {"postings", "doc_id_array", "doc_rank"}
    assert lookups.isdisjoint(vars(index))
    # an empty index may be made from plain lists
    assert ImpactIndex(["A"], [], [], [], [], "h", {}).postings == {}
    # building and saving, as `ckrank index` does, builds none of them
    corpus, _, model, _ = indexed
    built = build_index(corpus, model)
    save_index(built, tmp_path / "built.ckix")
    assert lookups.isdisjoint(vars(built))
    assert {t: i.tolist() for t, (i, _) in index.postings.items()} == \
        {"a": [0, 2], "b": [1]}
    for doc_idx, scores in index.postings.values():
        # views of the two columns, not copies
        assert doc_idx.base is index.doc_idx and scores.base is index.scores
    _, _, _, built = indexed
    assert built.terms == sorted(built.postings)
    assert built.counts.tolist() == [built.postings[t][0].size for t in built.terms]


# -- synthetic collection ----------------------------------------------------------


SYNTH_KWARGS = dict(seed=3, num_docs=100, num_topics=6, terms_per_topic=10,
                    num_train_queries=5, num_eval_queries=3,
                    doc_len=(20, 30), topk_candidates=20)


@pytest.fixture(scope="module")
def synth_small():
    return make_synthetic(**SYNTH_KWARGS)


def test_synthetic_deterministic(synth_small):
    again = make_synthetic(**SYNTH_KWARGS)
    assert sorted(again.corpus.docs) == sorted(synth_small.corpus.docs)
    for doc_id in again.corpus.docs:
        assert again.corpus.get(doc_id).tokens == \
            synth_small.corpus.get(doc_id).tokens
    assert [q.tokens for q in again.train_queries] == \
        [q.tokens for q in synth_small.train_queries]
    assert again.train_qrels == synth_small.train_qrels
    assert again.candidates == synth_small.candidates


def test_synthetic_shapes(synth_small):
    s = synth_small
    assert len(s.corpus) == 100
    assert len(s.train_queries) == 5 and len(s.eval_queries) == 3
    assert all(q.query_id.startswith("QT") for q in s.train_queries)
    assert all(q.query_id.startswith("QE") for q in s.eval_queries)
    assert set(s.candidates) == {q.query_id for q in s.train_queries}
    assert all(len(c) <= 20 for c in s.candidates.values())


@pytest.mark.parametrize("num_docs,queries", [(300, (100, 60)), (23, (1, 2))])
def test_synthetic_refuses_too_few_docs_to_plant(num_docs, queries):
    # Each query plants graded relevance in 8 distinct documents.
    with pytest.raises(ConfigError, match="num_docs"):
        make_synthetic(seed=3, num_docs=num_docs, num_train_queries=queries[0],
                       num_eval_queries=queries[1], doc_len=(5, 8))


def test_synthetic_builds_at_the_planting_limit():
    s = make_synthetic(seed=3, num_docs=24, num_train_queries=1,
                       num_eval_queries=2, doc_len=(20, 30))
    assert len(s.corpus) == 24
    assert len(s.train_qrels) == 1 and len(s.eval_qrels) == 2


def test_synthetic_grades_follow_overlap(synth_small):
    s = synth_small
    qrels = {**s.train_qrels, **s.eval_qrels}
    tokens_by_qid = s.query_tokens()
    seen_grades = set()
    for qid, per_query in qrels.items():
        q_terms = set(tokens_by_qid[qid])
        for doc_id, rel in per_query.items():
            got = len(q_terms & set(s.corpus.get(doc_id).tokens)) / len(q_terms)
            want = 3 if got >= 0.99 else (2 if got >= 0.6 else 1)
            assert rel == want
            seen_grades.add(rel)
    assert 3 in seen_grades


def test_synthetic_triples_are_highly_relevant(synth_small):
    s = synth_small
    assert s.triples
    for qid, doc_id in s.triples:
        assert s.train_qrels[qid][doc_id] >= 2


def test_writers_round_trip(synth_small, tmp_path):
    s = synth_small
    write_tsv_corpus(s.corpus, tmp_path / "docs.tsv")
    reread = ingest_corpus(tmp_path / "docs.tsv")
    assert sorted(reread.docs) == sorted(s.corpus.docs)
    for doc_id in reread.docs:
        assert reread.get(doc_id).tokens == s.corpus.get(doc_id).tokens

    write_queries_tsv(s.train_queries, tmp_path / "queries.tsv")
    queries = load_queries(tmp_path / "queries.tsv")
    assert [(q.query_id, q.tokens) for q in queries] == \
        [(q.query_id, q.tokens) for q in s.train_queries]

    write_qrels(s.train_qrels, tmp_path / "qrels.txt")
    assert load_qrels(tmp_path / "qrels.txt") == s.train_qrels

    write_candidates(s.candidates, tmp_path / "cand.txt")
    assert load_candidates(tmp_path / "cand.txt") == s.candidates

    write_triples(s.triples, tmp_path / "triples.tsv")
    assert load_triples(tmp_path / "triples.tsv") == s.triples
