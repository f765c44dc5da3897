"""Impact index: offline scoring, binary format, retrieval, and synthetic data."""

import itertools
import os
import struct
import tempfile

import numpy as np
import pytest
from helpers import micro_config, micro_corpus
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import build_index_per_document, save_index_per_posting, write_varint

import ckrank.tensor as T
from ckrank.corpus import (Corpus, DocumentRecord, QueryRecord, Vocabulary,
                           ingest_corpus, load_qrels, load_queries)
from ckrank.errors import ConfigError, ContractError, IndexFormatError
from ckrank.index import (ImpactIndex, RetrievalResult, _rank, _read_varints,
                          _write_varints, build_index, load_index, rerank,
                          retrieve, save_index)
from ckrank.model import CKModel
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


def sorted_oracle(scored, k):
    """The ranking rule as a plain full sort: score descending, doc id
    ascending, cut at k."""
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))[:k]


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
    """Small indexes with few distinct scores (negative and zero included)
    and doc ids out of sorted order (D10 sorts before D2)."""
    n = draw(st.integers(1, 30))
    doc_ids = [f"D{i}" for i in draw(st.permutations(range(n)))]
    postings = {}
    for t in range(draw(st.integers(1, 4))):
        docs = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        scores = draw(st.lists(TIED_SCORES, min_size=len(docs), max_size=len(docs)))
        postings[f"t{t}"] = (np.array(docs, dtype=np.int64),
                             np.array(scores, dtype=np.float32))
    tokens = draw(st.lists(st.sampled_from(sorted(postings) + ["absent"]),
                           max_size=6))
    return ImpactIndex(doc_ids, postings, "hash", {}), tokens


def k_values(live, data):
    return (None, 0, 1, live, live + 1, data.draw(st.integers(0, 40)))


@settings(max_examples=200, deadline=None)
@given(tied_indexes(), st.data())
def test_retrieve_matches_full_sort_oracle(case, data):
    index, tokens = case
    scored = accumulate_oracle(index, tokens)
    for k in k_values(len(scored), data):
        got = retrieve(tokens, index, k=k).ranking
        assert got == sorted_oracle(scored, k)
        assert all(type(score) is float for _, score in got)


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
    index = ImpactIndex(doc_ids, postings, "hash", {})
    want = [("D20", 2.0), ("D1", 1.0), ("D10", 1.0), ("D2", 1.0), ("D3", 1.0)]
    path = tmp_path / "ties.ckix"
    save_index(index, path)
    for idx in (index, load_index(path)):
        assert retrieve(["u", "t"], idx, k=None).ranking == want
        assert retrieve(["t", "u"], idx, k=3).ranking == want[:3]


# -- building -------------------------------------------------------------------


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

    def encode_document(self, doc, encoder_variant="separable"):
        if self.fail:
            raise ContractError("spy failure")
        enc = super().encode_document(doc, encoder_variant)
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
    for term, (doc_idx, scores) in index.postings.items():
        assert set(doc_idx.tolist()) == expected[term]
        assert doc_idx.dtype == np.int64 and scores.dtype == np.float32
        assert np.all(np.diff(doc_idx) > 0)
        assert index.num_postings == sum(
            len(v) for v in expected.values()) or True


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
            assert got.postings[term][0].dtype == np.int64
            assert got.postings[term][0].tolist() == doc_idx.tolist()
            assert got.postings[term][1].dtype == np.float32
            assert got.postings[term][1].tobytes() == scores.tobytes(), \
                (variant, term)
        assert (got.config_hash, got.stats) == (want.config_hash, want.stats)


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


# -- reranking -------------------------------------------------------------------


def test_rerank_scores_and_skips(indexed):
    corpus, _, model, _ = indexed
    docs = sorted(corpus.docs)[:4]
    tokens = ["w00", "w07"]
    result = rerank(QueryRecord("Q", tokens), docs + ["GHOST"], model, corpus)
    assert result.skipped == 1
    assert len(result.ranking) == 4
    for doc_id, score in result.ranking:
        want = model.score_query_document(tokens, corpus.get(doc_id))
        assert score == pytest.approx(want, abs=0)
    top2 = rerank(tokens, docs, model, corpus, k=2)
    assert top2.ranking == result.ranking[:2]


# -- binary format -------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**63 - 1))
def test_varint_round_trip(value):
    buf, offsets = _write_varints([value])
    assert offsets.tolist() == [0, len(buf)]
    out, stops = _read_varints(buf.tobytes(), [0], [1])
    assert out.tolist() == [value] and stops.tolist() == [len(buf)]


def test_varint_streams_concatenate():
    values = [0, 1, 127, 128, 300, 2**40]
    buf, _ = _write_varints(values)
    buf = buf.tobytes()
    pos = 0
    out = []
    while pos < len(buf):
        v, stops = _read_varints(buf, [pos], [1])
        out.extend(v.tolist())
        pos = int(stops[0])
    assert out == values
    together, stops = _read_varints(buf, [0, 0, 3], [len(values), 0, 2])
    assert together.tolist() == values + values[3:5]
    assert stops.tolist() == [len(buf), 0, 7]


VARINT_GAPS = st.one_of(
    st.sampled_from([1, 2, 127, 128, 129, 16383, 16384, 16385, 2**21 - 1,
                     2**21, 2**56, 2**62, 2**63]),
    st.integers(1, 2**63))


@settings(max_examples=200, deadline=None)
@given(st.lists(VARINT_GAPS, max_size=8))
def test_write_varints_matches_per_value_writer(gaps):
    buf, offsets = _write_varints(gaps)
    want = bytearray()
    ends = []
    for gap in gaps:
        write_varint(want, gap)
        ends.append(len(want))
    assert buf.tobytes() == bytes(want)
    assert offsets.tolist() == [0] + ends


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
    index = ImpactIndex([f"D{i}" for i in range(num_docs)], postings, "hash",
                        {"bs_tf_mean": 1.5})
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
    # The check runs before any varint is written: a negative delta has no
    # unsigned varint.
    idx = np.array(doc_idx, dtype=np.int64)
    index = ImpactIndex(["A", "B", "C"],
                        {"t": (idx, np.ones(idx.size, np.float32))}, "h", {})
    with pytest.raises(ContractError, match="'t'"):
        save_index(index, tmp_path / "bad.ckix")


@pytest.mark.parametrize("bad,postings", [
    ("a", {"a": ([0, 1], [1.0]), "b": ([1], [7.0])}),
    ("a", {"a": ([0], [1.0, 2.0])}),
    ("b", {"a": ([0], [1.0]), "b": ([1, 2], [1.0, 2.0])}),
], ids=["fewer-scores", "more-scores", "past-doc-table"])
def test_save_refuses_malformed_postings(bad, postings, tmp_path):
    index = ImpactIndex(["A", "B"], {t: (np.array(i, dtype=np.int64),
                                         np.array(s, dtype=np.float32))
                                     for t, (i, s) in postings.items()}, "h", {})
    path = tmp_path / "bad.ckix"
    with pytest.raises(ContractError, match=repr(bad)):
        save_index(index, path)
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


def _small_index_bytes():
    postings = {"alpha": (np.array([0, 2, 3]), np.array([0.5, -1.25, 2.0], dtype=np.float32)),
                "beta": (np.array([1]), np.array([3.5], dtype=np.float32)),
                "gamma": (np.array([0, 300]), np.array([1.0, 0.25], dtype=np.float32))}
    index = ImpactIndex([f"D{i}" for i in range(301)], postings, "hash",
                        {"bs_tf_mean": 1.5})
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
    index = ImpactIndex(["D0"], {"t": (np.array([3]), np.ones(1, np.float32))},
                        "hash", {})
    path = tmp_path / "range.ckix"
    # save_index refuses such a posting, so write the file posting by posting.
    save_index_per_posting(index, path)
    with pytest.raises(IndexFormatError):
        load_index(path)


def _one_posting_file(path, varints):
    """A one-term CKIX file whose posting block holds the given varint bytes
    and one score per varint."""
    count = sum(1 for b in varints if b < 0x80)
    index = ImpactIndex(["D0", "D1"], {"t": (np.arange(count),
                                             np.ones(count, np.float32))},
                        "hash", {})
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
    out, _ = _read_varints(bytes([0xFF] * 9 + [0x01]), [0], [1])
    assert out.tolist() == [2**64 - 1]
    for bad in ([0x80] * 9 + [0x02], [0x80] * 10 + [0x01], [0x80] * 12, [0x80]):
        with pytest.raises(IndexFormatError):
            _read_varints(bytes(bad), [0], [1])


def test_load_rejects_repeated_documents(tmp_path):
    path = tmp_path / "repeat.ckix"
    _one_posting_file(path, [0x01, 0x01])
    assert load_index(path).postings["t"][0].tolist() == [0, 1]
    _one_posting_file(path, [0x01, 0x00])
    with pytest.raises(IndexFormatError, match="repeats"):
        load_index(path)


def test_empty_index_round_trip(tmp_path):
    index = ImpactIndex(["D1"], {}, "hash", {"a": 1.0})
    path = tmp_path / "empty.ckix"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.doc_ids == ["D1"] and loaded.postings == {}
    assert loaded.stats == {"a": 1.0}


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
