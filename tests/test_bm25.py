"""BM25 scoring values, saturation behavior, search ordering, and tuning.

BM25 is served from an impact index by ``retrieve``; the scalar formula and
a dict-accumulator searcher are restated here as oracles.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckrank.bm25 import BM25Searcher, tune_bm25
from ckrank.corpus import Corpus, DocumentRecord, QueryRecord, Vocabulary
from ckrank.errors import ContractError
from ckrank.evalmetrics import evaluate
from ckrank.synth import make_synthetic


def bm25_score(query_tokens, doc, vocab, k1=0.9, b=0.4):
    """Sum of per-occurrence BM25 contributions of the query tokens."""
    if doc.length == 0:
        return 0.0
    norm = k1 * (1.0 - b + b * doc.length / max(vocab.mean_dlen, 1e-9))
    score = 0.0
    for term in query_tokens:
        tf = doc.tf.get(term, 0)
        if tf == 0:
            continue
        score += vocab.idf(term) * tf * (k1 + 1.0) / (tf + norm)
    return score


class DictAccumulatorSearcher:
    """Term-at-a-time BM25 with a postings dict, a dict accumulator and a
    full sort: the searcher before BM25 was folded into an impact index."""

    def __init__(self, corpus, vocab, k1=0.9, b=0.4):
        self.vocab = vocab
        self.k1 = k1
        self.b = b
        self.doc_len = {d.doc_id: d.length for d in corpus}
        self.postings = {}
        for doc_id in sorted(corpus.docs):
            for term, tf in corpus.get(doc_id).tf.items():
                self.postings.setdefault(term, []).append((doc_id, tf))

    def search(self, query_tokens, k=100):
        scores = {}
        avgdl = max(self.vocab.mean_dlen, 1e-9)
        for term in query_tokens:
            idf = self.vocab.idf(term)
            for doc_id, tf in self.postings.get(term, ()):
                norm = self.k1 * (1.0 - self.b + self.b * self.doc_len[doc_id] / avgdl)
                scores[doc_id] = scores.get(doc_id, 0.0) + \
                    idf * tf * (self.k1 + 1.0) / (tf + norm)
        ranked = sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))
        return ranked[:k]


def three_doc_corpus():
    corpus = Corpus()
    corpus.add(DocumentRecord("D1", ["cat", "cat", "dog"]))
    corpus.add(DocumentRecord("D2", ["cat", "bird"]))
    corpus.add(DocumentRecord("D3", ["dog", "bird", "bird"]))
    return corpus, Vocabulary.build(corpus, min_df=1)


def searched(searcher, query):
    return dict(searcher.search(query, k=None))


def test_bm25_hand_value():
    corpus, vocab = three_doc_corpus()
    # N=3 docs; df(cat)=2 -> idf = ln(4/3); |D1|=3, mean_dlen=8/3
    doc = corpus.get("D1")
    k1, b = 0.9, 0.4
    norm = k1 * (1.0 - b + b * 3.0 / (8.0 / 3.0))
    want = math.log(4.0 / 3.0) * 2.0 * (k1 + 1.0) / (2.0 + norm)
    assert bm25_score(["cat"], doc, vocab) == pytest.approx(want, abs=1e-12)
    assert searched(BM25Searcher(corpus, vocab), ["cat"])["D1"] == \
        pytest.approx(want, abs=1e-12)


def test_bm25_zero_tf_contributes_nothing():
    corpus, vocab = three_doc_corpus()
    assert bm25_score(["zebra"], corpus.get("D1"), vocab) == 0.0
    with_match = bm25_score(["cat"], corpus.get("D1"), vocab)
    assert bm25_score(["cat", "zebra"], corpus.get("D1"), vocab) == \
        pytest.approx(with_match)
    searcher = BM25Searcher(corpus, vocab)
    assert searcher.search(["zebra"], k=10) == []
    assert searcher.search(["cat", "zebra"], k=10) == searcher.search(["cat"], k=10)


def test_bm25_repeated_query_terms_add():
    corpus, vocab = three_doc_corpus()
    doc = corpus.get("D1")
    single = bm25_score(["cat"], doc, vocab)
    double = bm25_score(["cat", "cat"], doc, vocab)
    assert double == pytest.approx(2.0 * single)
    searcher = BM25Searcher(corpus, vocab)
    once, twice = searched(searcher, ["cat"]), searched(searcher, ["cat", "cat"])
    assert twice.keys() == once.keys()
    assert all(twice[d] == 2.0 * once[d] for d in once)


def test_bm25_saturates_in_tf():
    # constant-length docs so only tf varies; extra docs keep idf positive
    length = 80
    corpus = Corpus()
    for i, tf in enumerate([1, 2, 3, 4, 5]):
        corpus.add(DocumentRecord(f"D{i}", ["cat"] * tf + ["x"] * (length - tf)))
    for i in range(5):
        corpus.add(DocumentRecord(f"F{i}", ["x"] * length))
    vocab = Vocabulary.build(corpus, min_df=1)
    found = searched(BM25Searcher(corpus, vocab), ["cat"])
    scores = [found[f"D{i}"] for i in range(5)]
    assert scores == pytest.approx(
        [bm25_score(["cat"], corpus.get(f"D{i}"), vocab) for i in range(5)])
    gaps = [b - a for a, b in zip(scores, scores[1:])]
    assert all(s2 > s1 for s1, s2 in zip(scores, scores[1:]))  # monotone
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))      # concave
    # k1 caps the per-term contribution
    assert scores[-1] < vocab.idf("cat") * (0.9 + 1.0)


def test_searcher_matches_direct_scoring():
    corpus, vocab = three_doc_corpus()
    searcher = BM25Searcher(corpus, vocab)
    ranked = searcher.search(["cat", "bird"], k=10)
    direct = {d.doc_id: bm25_score(["cat", "bird"], d, vocab) for d in corpus
              if bm25_score(["cat", "bird"], d, vocab) > 0}
    assert {d: s for d, s in ranked} == pytest.approx(direct)
    scores = [s for _, s in ranked]
    assert scores == sorted(scores, reverse=True)


def test_searcher_tie_break_by_doc_id():
    corpus = Corpus()
    corpus.add(DocumentRecord("DB", ["cat"]))
    corpus.add(DocumentRecord("DA", ["cat"]))
    vocab = Vocabulary.build(corpus, min_df=1)
    ranked = BM25Searcher(corpus, vocab).search(["cat"], k=10)
    assert [d for d, _ in ranked] == ["DA", "DB"]


def test_searcher_respects_k():
    corpus, vocab = three_doc_corpus()
    assert len(BM25Searcher(corpus, vocab).search(["cat", "dog", "bird"], k=2)) == 2


TERMS = ("a", "b", "c", "d")
GRID = ((0.9, 0.4), (1.2, 0.75), (0.6, 0.2), (1.5, 0.0), (2.0, 1.0))


@st.composite
def small_corpora(draw):
    """Up to 12 documents D1..D12 added in a drawn order (so D10 can come
    before D2), each a copy of one of a few token lists so scores tie."""
    numbers = draw(st.permutations(range(1, 13)))[:draw(st.integers(1, 12))]
    pool = draw(st.lists(st.lists(st.sampled_from(TERMS), max_size=6),
                         min_size=1, max_size=4))
    corpus = Corpus()
    for i in numbers:
        corpus.add(DocumentRecord(f"D{i}", draw(st.sampled_from(pool))))
    return corpus


@settings(max_examples=300, deadline=None)
@given(small_corpora(), st.lists(st.sampled_from(TERMS + ("zz",)), max_size=6),
       st.sampled_from(GRID), st.data())
def test_searcher_matches_dict_accumulator_oracle(corpus, query, params, data):
    # min_df=2 leaves some terms out of the vocabulary; they still get an idf
    vocab = Vocabulary.build(corpus, min_df=2)
    k1, b = params
    oracle = DictAccumulatorSearcher(corpus, vocab, k1=k1, b=b)
    live = len(oracle.search(query, k=None))
    k = data.draw(st.one_of(st.sampled_from((None, 0, 1, live + 1)),
                            st.integers(-2, 14)), label="k")
    searcher = BM25Searcher(corpus, vocab, k1=k1, b=b)
    if k is not None and k < 0:     # refused, not sliced off the end
        with pytest.raises(ContractError):
            searcher.search(query, k=k)
    else:
        assert searcher.search(query, k=k) == oracle.search(query, k=k)


def test_tune_bm25_returns_grid_best():
    corpus, vocab = three_doc_corpus()
    queries = [QueryRecord("Q1", ["cat"]), QueryRecord("Q2", ["bird"])]
    qrels = {"Q1": {"D1": 3, "D2": 1}, "Q2": {"D3": 2}}
    k1, b, ndcg = tune_bm25(corpus, vocab, queries, qrels)
    assert k1 in (0.6, 0.9, 1.2, 1.5)
    assert b in (0.2, 0.4, 0.6, 0.75)
    assert 0.0 <= ndcg <= 1.0
    # the reported score is reproducible with the returned settings
    searcher = BM25Searcher(corpus, vocab, k1=k1, b=b)
    run = {q.query_id: searcher.search(q.tokens, k=100) for q in queries}
    _, mean, _ = evaluate(run, qrels, "ndcg", 10)
    assert mean == pytest.approx(ndcg)


def test_tune_bm25_matches_oracle_grid():
    data = make_synthetic(seed=5, num_docs=120, num_topics=8, terms_per_topic=12,
                          num_train_queries=6, num_eval_queries=4,
                          doc_len=(20, 35), topk_candidates=30)
    queries = data.train_queries + data.eval_queries
    qrels = {**data.train_qrels, **data.eval_qrels}
    best = None
    for k1 in (0.6, 0.9, 1.2, 1.5):
        for b in (0.2, 0.4, 0.6, 0.75):
            oracle = DictAccumulatorSearcher(data.corpus, data.vocab, k1=k1, b=b)
            run = {q.query_id: oracle.search(q.tokens, k=100) for q in queries}
            _, mean, _ = evaluate(run, qrels, "ndcg", 10)
            if best is None or mean > best[2]:
                best = (k1, b, mean)
    assert tune_bm25(data.corpus, data.vocab, queries, qrels) == best
