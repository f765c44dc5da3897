"""Tokenization, ingestion, vocabulary, and TREC-format file round trips."""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ckrank.corpus import (MAX_DOC_TOKENS, Corpus, DocumentRecord, Vocabulary,
                           ingest_corpus, load_queries, load_qrels, load_run,
                           tokenize, write_run)
from ckrank.cli import main
from ckrank.errors import CkrankError, IndexFormatError
from ckrank.train import load_candidates, load_triples


# -- tokenize -------------------------------------------------------------------


def test_tokenize_fixtures():
    assert tokenize("Who is Aziz Hashim?") == ["who", "is", "aziz", "hashim"]
    assert tokenize("Aziz-Hashim") == ["aziz", "hashim"]
    assert tokenize("foo_bar") == ["foo", "bar"]  # underscore splits too
    assert tokenize("a  b\t\nc") == ["a", "b", "c"]
    assert tokenize("C3PO!!") == ["c3po"]
    assert tokenize("...") == []
    assert tokenize("") == []


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=60))
def test_tokenize_output_is_clean(text):
    for token in tokenize(text):
        assert token
        assert token == token.lower()
        assert not any(ch for ch in token if not (ch.isalnum()))


# -- document/corpus records -------------------------------------------------------


def test_document_record_tf_and_length():
    doc = DocumentRecord("d1", ["a", "b", "a"])
    assert doc.length == 3
    assert doc.tf == {"a": 2, "b": 1}


def test_corpus_container_protocol():
    corpus = Corpus()
    corpus.add(DocumentRecord("d1", ["x"]))
    assert len(corpus) == 1
    assert "d1" in corpus
    assert "d2" not in corpus
    assert corpus.get("d1").tokens == ["x"]
    assert [d.doc_id for d in corpus] == ["d1"]


# -- ingestion -----------------------------------------------------------------------


def test_ingest_concatenates_fields_in_order(tmp_path):
    docs = tmp_path / "docs.tsv"
    docs.write_text("D1\thttp://example.com/alpha\tBravo Title\tCharlie body text.\n")
    corpus = ingest_corpus(docs)
    assert corpus.get("D1").tokens == [
        "http", "example", "com", "alpha",      # url
        "bravo", "title",                        # title
        "charlie", "body", "text",               # body
    ]


def test_ingest_appends_click_queries_in_file_order(tmp_path):
    docs = tmp_path / "docs.tsv"
    docs.write_text("D1\tu\tt\tb\nD2\tu2\tt2\tb2\n")
    orcas = tmp_path / "orcas.tsv"
    orcas.write_text("D1\tfirst query\nD2\tother\nD1\tsecond query\n")
    corpus = ingest_corpus(docs, orcas)
    assert corpus.get("D1").tokens == ["u", "t", "b", "first", "query",
                                       "second", "query"]
    assert corpus.get("D2").tokens == ["u2", "t2", "b2", "other"]


def test_ingest_refuses_malformed_lines(tmp_path):
    """A line with another field count or an empty id is refused, naming it;
    a line holding only whitespace is skipped."""
    docs = tmp_path / "docs.tsv"
    docs.write_text("D1\tu\tt\tb\n\n \t\nD3\tu\tt\tb\n")
    assert sorted(ingest_corpus(docs).docs) == ["D1", "D3"]
    for bad, why in [("garbage line without tabs", "1 tab-separated fields, not 4"),
                     ("\tu\tt\tb", "empty id"),
                     ("D2\tu\tt", "3 tab-separated fields, not 4")]:
        docs.write_text(f"D1\tu\tt\tb\n{bad}\nD3\tu\tt\tb\n")
        with pytest.raises(IndexFormatError, match=re.escape(f"{docs}:2: {why}")):
            ingest_corpus(docs)


def test_ingest_refuses_a_repeated_doc_id(tmp_path):
    docs = tmp_path / "docs.tsv"
    docs.write_text("D1\tu\tt\tfirst\n"
                    "D2\tu\tt\tb\n"
                    "\n"
                    "D1\tu\tt\tsecond\n")
    with pytest.raises(IndexFormatError,
                       match=re.escape(f"{docs}:4: repeated doc id 'D1'")):
        ingest_corpus(docs)


# Each text format with two valid lines: (file name, loader of the one file,
# the lines). ORCAS is read through ingest_corpus beside a one-line docs file.
def _ingest_with_orcas(path):
    docs = path.parent / "orcas_docs.tsv"
    docs.write_text("D1\tu\tt\tb\n")
    return ingest_corpus(docs, path).docs


TEXT_FORMATS = {
    "docs": (lambda path: ingest_corpus(path).docs, "D1\tu\tt\tb", "D2\tu\tt\tcafé"),
    "orcas": (_ingest_with_orcas, "D1\tclick", "D1\tcafé"),
    "queries": (load_queries, "Q1\tfirst", "Q2\tcafé"),
    "qrels": (load_qrels, "q1 0 d1 1", "q1 0 café 2"),
    "run": (load_run, "q1 Q0 d1 1 0.5 t", "q1 Q0 café 2 0.25 t"),
    "triples": (load_triples, "Q1\tD1", "Q2\tcafé"),
    "candidates": (load_candidates, "Q1 D3 2", "Q1 café 1"),
}


@pytest.mark.parametrize("name", sorted(TEXT_FORMATS))
def test_a_line_that_is_not_utf8_is_refused_naming_it(tmp_path, name):
    load, first, second = TEXT_FORMATS[name]
    path = tmp_path / f"{name}.txt"
    path.write_bytes(f"{first}\n".encode() + second.encode().replace(b"\xc3\xa9", b"\xff")
                     + b"\n")
    with pytest.raises(IndexFormatError, match=re.escape(f"{path}:2: not UTF-8 text")):
        load(path)


@pytest.mark.parametrize("name", sorted(TEXT_FORMATS))
def test_crlf_and_lf_files_read_the_same(tmp_path, name):
    load, first, second = TEXT_FORMATS[name]
    lf, crlf = tmp_path / f"{name}.lf", tmp_path / f"{name}.crlf"
    lf.write_bytes(f"{first}\n{second}\n".encode())
    crlf.write_bytes(f"{first}\r\n{second}\r\n".encode())
    assert load(crlf) == load(lf)


def _malformed(line, damage):
    """line with one field too few, one too many, or its first field empty."""
    sep = "\t" if "\t" in line else " "
    fields = line.split(sep)
    return {"too_few": sep.join(fields[:-1]),
            "too_many": line + sep + "x",
            "empty_id": sep.join([""] + fields[1:])}[damage]


DAMAGES = ["too_few", "too_many", "empty_id"]


@pytest.mark.parametrize("damage", DAMAGES)
@pytest.mark.parametrize("name", sorted(TEXT_FORMATS))
def test_a_line_that_does_not_fit_its_format_is_refused_naming_it(tmp_path, name,
                                                                  damage):
    load, first, second = TEXT_FORMATS[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(f"{first}\n{_malformed(second, damage)}\n{first}\n")
    with pytest.raises(IndexFormatError, match=re.escape(f"{path}:2: ")):
        load(path)


@pytest.mark.parametrize("name", sorted(TEXT_FORMATS))
def test_a_line_holding_only_whitespace_is_skipped(tmp_path, name):
    load, first, second = TEXT_FORMATS[name]
    plain, spaced = tmp_path / f"{name}.plain", tmp_path / f"{name}.spaced"
    plain.write_text(f"{first}\n{second}\n")
    spaced.write_text(f"\n{first}\n \t \n\n{second}\n  ")
    assert load(spaced) == load(plain)


@pytest.mark.parametrize("name", sorted(TEXT_FORMATS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(at=st.integers(0, 10**6), byte=st.one_of(st.none(), st.integers(0, 255)))
def test_a_cut_or_changed_file_loads_or_raises_a_ckrank_error(tmp_path, name, at,
                                                               byte):
    """A valid file cut at any byte (byte None), or with one byte changed."""
    load, first, second = TEXT_FORMATS[name]
    data = bytearray(f"{first}\n{second}\n".encode())
    at %= len(data) + (byte is None)
    if byte is None:
        del data[at:]
    else:
        data[at] = byte
    path = tmp_path / f"{name}.txt"
    path.write_bytes(bytes(data))
    try:
        load(path)
    except CkrankError:
        pass


# The command that reads each format; the files of the other formats are
# valid, and a bare word stands for the file of that name.
TRAIN_ARGS = ["train", "--docs", "docs", "--vocab", "vocab", "--queries", "queries",
              "--triples", "triples", "--candidates", "candidates", "--out", "out"]
CLI_READERS = {
    "docs": ["build-vocab", "--docs", "docs", "--out", "out"],
    "orcas": ["build-vocab", "--docs", "docs", "--orcas", "orcas", "--out", "out"],
    "queries": TRAIN_ARGS,
    "triples": TRAIN_ARGS,
    "candidates": TRAIN_ARGS,
    "qrels": ["eval", "--run", "run", "--qrels", "qrels"],
    "run": ["eval", "--run", "run", "--qrels", "qrels"],
}


@pytest.mark.parametrize("damage", DAMAGES)
@pytest.mark.parametrize("name", sorted(TEXT_FORMATS))
def test_the_cli_refuses_a_malformed_line_in_one_error_line(tmp_path, capsys, name,
                                                            damage):
    for other, (_, first, second) in TEXT_FORMATS.items():
        (tmp_path / other).write_text(f"{first}\n{second}\n")
    Vocabulary.build(ingest_corpus(tmp_path / "docs")).save(tmp_path / "vocab")
    _, first, second = TEXT_FORMATS[name]
    (tmp_path / name).write_text(f"{first}\n{_malformed(second, damage)}\n")
    command, *args = CLI_READERS[name]
    argv = [a if a.startswith("--") else str(tmp_path / a) for a in args]
    assert main([command, *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / name}:2: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_load_queries_refuses_a_repeated_query_id(tmp_path):
    path = tmp_path / "queries.tsv"
    path.write_text("Q1\tfirst\nQ2\tother\n\nQ1\tsecond\n")
    with pytest.raises(IndexFormatError,
                       match=re.escape(f"{path}:4: repeated query id 'Q1'")):
        load_queries(path)


def test_ingest_truncates_documents(tmp_path):
    body = " ".join(f"tok{i}" for i in range(MAX_DOC_TOKENS + 100))
    docs = tmp_path / "docs.tsv"
    docs.write_text(f"D1\tu\tt\t{body}\n")
    corpus = ingest_corpus(docs)
    assert MAX_DOC_TOKENS == 4000
    assert corpus.get("D1").tokens == ["u", "t"] + \
        [f"tok{i}" for i in range(MAX_DOC_TOKENS - 2)]


def test_load_queries_keeps_every_token(tmp_path):
    """Queries are read whole: each model reads its own max_query_tokens."""
    text = " ".join(f"q{i}" for i in range(30))
    path = tmp_path / "queries.tsv"
    path.write_text(f"Q1\t{text}\n\n")
    queries = load_queries(path)
    assert len(queries) == 1
    assert queries[0].tokens == [f"q{i}" for i in range(30)]


# -- vocabulary -----------------------------------------------------------------------


def make_corpus(token_lists):
    corpus = Corpus()
    for i, tokens in enumerate(token_lists):
        corpus.add(DocumentRecord(f"D{i}", tokens))
    return corpus


def test_vocabulary_min_df_filter():
    corpus = make_corpus([["apple", "pie"], ["apple", "cake"], ["unique"]])
    vocab = Vocabulary.build(corpus)
    assert "apple" in vocab
    assert "pie" not in vocab       # df 1
    assert "unique" not in vocab
    assert vocab.size == 1
    assert vocab.oov_id == 1
    assert vocab.id_of("apple") == 0
    assert vocab.id_of("pie") == vocab.oov_id
    # df is retained for every observed term regardless of the id filter
    assert vocab.df["pie"] == 1


def test_vocabulary_ids_sorted_alphabetically():
    corpus = make_corpus([["zebra", "ant"], ["zebra", "ant"]])
    vocab = Vocabulary.build(corpus)
    assert vocab.id_of("ant") == 0
    assert vocab.id_of("zebra") == 1


def test_vocabulary_statistics():
    corpus = make_corpus([["a", "a", "b"], ["a"]])
    vocab = Vocabulary.build(corpus)
    assert vocab.num_docs == 2
    assert vocab.mean_dlen == pytest.approx(2.0)       # (3 + 1) / 2
    assert vocab.mean_tf == pytest.approx(4.0 / 3.0)   # 4 tokens, 3 postings


def test_idf_monotone_in_df():
    corpus = make_corpus([["common", "rare"], ["common"], ["common"]])
    vocab = Vocabulary.build(corpus)
    assert vocab.idf("rare") > vocab.idf("common")
    assert vocab.idf("never_seen") == pytest.approx(np.log(4.0 / 1.0))
    assert vocab.idf("common") == pytest.approx(np.log(4.0 / 4.0))


def test_vocabulary_round_trip(tmp_path):
    corpus = make_corpus([["a", "b"], ["a", "b"], ["a", "c"]])
    vocab = Vocabulary.build(corpus)
    path = tmp_path / "vocab.json"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.term_to_id == vocab.term_to_id
    assert loaded.df == vocab.df
    assert loaded.num_docs == vocab.num_docs
    assert loaded.mean_dlen == pytest.approx(vocab.mean_dlen)
    assert loaded.mean_tf == pytest.approx(vocab.mean_tf)


@pytest.mark.parametrize("damage", ["truncated", "no_df", "not_utf8", "not_object",
                                    "df_not_mapping"])
def test_vocabulary_load_malformed_is_format_error(tmp_path, damage):
    path = tmp_path / "vocab.json"
    Vocabulary.build(make_corpus([["a", "b"], ["a", "c"]])).save(path)
    text = path.read_bytes()
    blob = json.loads(text)
    damaged = {
        "truncated": text[:len(text) // 2],
        "no_df": json.dumps({k: v for k, v in blob.items() if k != "df"}).encode(),
        "not_utf8": b"\xff" + text,
        "not_object": json.dumps([blob]).encode(),
        "df_not_mapping": json.dumps({**blob, "df": "a"}).encode(),
    }[damage]
    path.write_bytes(damaged)
    with pytest.raises(IndexFormatError, match="malformed vocabulary"):
        Vocabulary.load(path)


# -- TREC files -----------------------------------------------------------------------


def test_qrels_round_trip_and_duplicate_rejection(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("Q1 0 D1 2\nQ1 0 D2 0\nQ2 0 D1 1\n\n")
    qrels = load_qrels(path)
    assert qrels == {"Q1": {"D1": 2, "D2": 0}, "Q2": {"D1": 1}}
    path.write_text("Q1 0 D1 2\nQ1 0 D1 1\n")
    with pytest.raises(IndexFormatError, match=re.escape(
            f"{path}:2: repeated judgment of 'D1' for query 'Q1'")):
        load_qrels(path)


def test_run_write_then_load_round_trip(tmp_path):
    run = {"Q2": [("D9", 1.25), ("D1", 0.5)],
           "Q1": [("Da", 3.0), ("Db", 2.0), ("Dc", 2.0)]}
    path = tmp_path / "run.txt"
    write_run(run, path, tag="testtag")
    lines = path.read_text().splitlines()
    assert lines[0] == "Q1 Q0 Da 1 3.000000 testtag"
    assert len(lines) == 5
    loaded = load_run(path)
    assert [d for d, _ in loaded["Q2"]] == ["D9", "D1"]
    # ties broken by ascending doc id
    assert [d for d, _ in loaded["Q1"]] == ["Da", "Db", "Dc"]


def test_load_run_refuses_a_repeated_document(tmp_path):
    """A document listed twice for one query would be counted twice by every
    metric; a document may appear once for each query."""
    path = tmp_path / "run.txt"
    path.write_text("q1 Q0 d1 1 2.0 t\nq2 Q0 d1 1 2.0 t\nq1 Q0 d1 2 1.0 t\n")
    with pytest.raises(IndexFormatError, match=re.escape(
            f"{path}:3: repeated document 'd1' for query 'q1'")):
        load_run(path)


def test_load_run_sorts_by_score(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text("Q1 Q0 D1 1 1.0 t\nQ1 Q0 D2 2 9.0 t\n")
    loaded = load_run(path)
    assert [d for d, _ in loaded["Q1"]] == ["D2", "D1"]
