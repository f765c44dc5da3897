"""Corpus and query ingestion, tokenization, vocabulary, and TREC-style IO.

Documents arrive as tab-separated (id, url, title, body) with an optional
second file mapping doc id to click-query strings; all fields are
concatenated in fixed order into one token stream per document, truncated
at ``MAX_DOC_TOKENS``: that bounds memory before any model exists, and the
vocabulary's df and mean length are counted over the capped documents.
Queries are kept whole; a model reads its own ``max_query_tokens`` of
them. The vocabulary keeps ids only for terms appearing in at least
``min_df`` documents, but document frequencies are retained for every
observed term so rare/unknown terms still get a principled IDF.
"""

import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import ContractError, IndexFormatError
from .index import _rank

MAX_DOC_TOKENS = 4000

_SPLIT = re.compile(r"[\W_]+", re.UNICODE)


def tokenize(text):
    """Lowercase and split on runs of non-alphanumeric codepoints."""
    return [t for t in _SPLIT.split(text.lower()) if t]


@dataclass
class DocumentRecord:
    doc_id: str
    tokens: list

    @cached_property
    def tf(self):
        return Counter(self.tokens)

    @property
    def length(self):
        return len(self.tokens)


@dataclass
class QueryRecord:
    query_id: str
    tokens: list


@dataclass
class Corpus:
    docs: dict = field(default_factory=dict)
    skipped_lines: int = 0

    def add(self, doc):
        self.docs[doc.doc_id] = doc

    def __len__(self):
        return len(self.docs)

    def __iter__(self):
        return iter(self.docs.values())

    def __contains__(self, doc_id):
        return doc_id in self.docs

    def get(self, doc_id):
        return self.docs.get(doc_id)


def text_lines(path):
    """(line number, text) of each line of a UTF-8 text file, its line break
    removed; lines break as in text mode (``\\n``, ``\\r\\n`` or ``\\r``).

    The file is decoded with bytes that are not UTF-8 kept as lone
    surrogates, and each line is checked by itself, so a line holding one
    raises IndexFormatError naming ``<path>:<line>``.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise IndexFormatError(f"{path}:{line_no}: not UTF-8 text") from None
            yield line_no, line.rstrip("\n")


def ingest_corpus(docs_file, orcas_file=None):
    """Read documents, concatenating url + title + body + click queries, each
    cut at ``MAX_DOC_TOKENS`` tokens.

    Malformed lines are skipped and counted on the returned corpus; a doc id
    seen on an earlier line raises IndexFormatError naming the line.
    """
    orcas = {}
    if orcas_file is not None:
        for _, line in text_lines(orcas_file):
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0]:
                continue
            orcas.setdefault(parts[0], []).append(parts[1])
    corpus = Corpus()
    for line_no, line in text_lines(docs_file):
        parts = line.split("\t")
        if len(parts) != 4 or not parts[0]:
            corpus.skipped_lines += 1
            continue
        doc_id, url, title, body = parts
        if doc_id in corpus:
            raise IndexFormatError(f"{docs_file}:{line_no}: repeated doc id "
                                   f"{doc_id!r}")
        text = " ".join([url, title, body] + orcas.get(doc_id, []))
        corpus.add(DocumentRecord(doc_id, tokenize(text)[:MAX_DOC_TOKENS]))
    return corpus


def load_queries(path):
    """Tab-separated (query id, text) -> list of QueryRecord, every token
    kept; a query id seen on an earlier line raises IndexFormatError naming
    the line."""
    queries = {}
    for line_no, line in text_lines(path):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0]:
            continue
        if parts[0] in queries:
            raise IndexFormatError(f"{path}:{line_no}: repeated query id {parts[0]!r}")
        queries[parts[0]] = QueryRecord(parts[0], tokenize(parts[1]))
    return list(queries.values())


class Vocabulary:
    """Dense term ids for frequent terms plus full df/IDF over all terms.

    Terms below min_df share a single out-of-vocabulary id equal to
    ``size`` (so an embedding table needs size + 1 rows). ``mean_tf`` is
    the average term frequency over distinct (term, document) pairs and
    ``mean_dlen`` the average document length; both seed the scale
    statistics of the explicit matcher.
    """

    def __init__(self, term_to_id, df, num_docs, mean_dlen, mean_tf):
        self.term_to_id = term_to_id
        self.df = df
        self.num_docs = num_docs
        self.mean_dlen = mean_dlen
        self.mean_tf = mean_tf

    @classmethod
    def build(cls, corpus, min_df=2):
        df = Counter()
        total_tokens = 0
        total_postings = 0
        for doc in corpus:
            df.update(doc.tf.keys())
            total_tokens += doc.length
            total_postings += len(doc.tf)
        kept = sorted(t for t, c in df.items() if c >= min_df)
        term_to_id = {t: i for i, t in enumerate(kept)}
        n = len(corpus)
        return cls(term_to_id, dict(df), n,
                   total_tokens / n if n else 0.0,
                   total_tokens / total_postings if total_postings else 0.0)

    @property
    def size(self):
        return len(self.term_to_id)

    @property
    def oov_id(self):
        return len(self.term_to_id)

    def __contains__(self, term):
        return term in self.term_to_id

    def id_of(self, term):
        return self.term_to_id.get(term, self.oov_id)

    def idf(self, term):
        return math.log((self.num_docs + 1) / (self.df.get(term, 0) + 1))

    @cached_property
    def _idf_table(self):
        """term -> idf for every term with a df, and the idf of an unseen
        term; df and num_docs never change after construction."""
        return {t: self.idf(t) for t in self.df}, math.log(self.num_docs + 1)

    def idfs(self, terms):
        """float64 array of ``idf`` over a term sequence, from logs taken
        once per vocabulary."""
        table, unseen = self._idf_table
        return np.fromiter(map(table.get, terms, repeat(unseen)), np.float64,
                           len(terms))

    def fingerprint(self):
        """sha256 over what a trained model depends on: the terms in id
        order, every term's df and the document count.

        Packed rather than written as JSON, which costs several times more
        and runs on every checkpoint save and load: the document count, the
        number of vocabulary terms and of all terms, then every term's length
        and df as int64 and the utf-8 text of all terms; the vocabulary terms
        come in id order, then the other terms with a df in sorted order.
        Hashed once per vocabulary, like the idf table.
        """
        return self._fingerprint

    @cached_property
    def _fingerprint(self):
        tid, df = self.term_to_id, self.df
        words = sorted(tid, key=tid.get) + sorted(df.keys() - tid.keys())
        digest = hashlib.sha256(np.array([self.num_docs, len(tid), len(words)],
                                         np.int64))
        digest.update(np.fromiter(map(len, words), np.int64, len(words)))
        digest.update(np.fromiter(map(df.get, words, repeat(0)), np.int64,
                                  len(words)))
        digest.update("".join(words).encode("utf-8"))
        return digest.hexdigest()

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "terms": sorted(self.term_to_id, key=self.term_to_id.get),
                "df": self.df,
                "num_docs": self.num_docs,
                "mean_dlen": self.mean_dlen,
                "mean_tf": self.mean_tf,
            }, fh)

    @classmethod
    def load(cls, path):
        """Read a ``save`` file; a malformed one raises IndexFormatError."""
        with open(path, encoding="utf-8") as fh:
            try:
                blob = json.load(fh)
                term_to_id = {t: i for i, t in enumerate(blob["terms"])}
                return cls(term_to_id, dict(blob["df"]), int(blob["num_docs"]),
                           float(blob["mean_dlen"]), float(blob["mean_tf"]))
            except (UnicodeDecodeError, ValueError, KeyError, TypeError) as err:
                raise IndexFormatError(f"{path}: malformed vocabulary ({err})") \
                    from None


# -- TREC-format files ----------------------------------------------------------


def number_field(convert, text, path, line_no):
    """convert(text) of a field on line line_no of path; IndexFormatError if
    it does not parse or parses to a float that is not finite (nan, inf)."""
    try:
        value = convert(text)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError
    except ValueError:
        raise IndexFormatError(f"{path}:{line_no}: malformed number {text!r}") from None
    return value


def load_qrels(path):
    """TREC qrels (qid 0 docid rel) -> {qid: {docid: rel}}."""
    qrels = {}
    for line_no, line in text_lines(path):
        parts = line.split()
        if len(parts) != 4:
            continue
        qid, _, docid, rel = parts
        per_query = qrels.setdefault(qid, {})
        if docid in per_query:
            raise ContractError(f"duplicate qrels entry for ({qid}, {docid})")
        per_query[docid] = number_field(int, rel, path, line_no)
    return qrels


def load_run(path):
    """TREC run (qid Q0 docid rank score tag) -> {qid: [(docid, score), ...]}.

    Lists come back sorted by descending score, doc id ascending on ties.
    """
    run = {}
    for line_no, line in text_lines(path):
        parts = line.split()
        if len(parts) != 6:
            continue
        qid, _, docid, _, score, _ = parts
        run.setdefault(qid, []).append((docid, number_field(float, score, path, line_no)))
    return {qid: _rank(pairs, None) for qid, pairs in run.items()}


def write_run(run, path, tag="ckrank"):
    """Write {qid: [(docid, score), ...]} in TREC run format."""
    with open(path, "w", encoding="utf-8") as fh:
        for qid in sorted(run):
            for rank, (docid, score) in enumerate(run[qid], start=1):
                fh.write(f"{qid} Q0 {docid} {rank} {score:.6f} {tag}\n")
