"""Impact index: precomputed per-term document scores behind an inverted index.

Because every ranker here scores a query as a sum of independent per-term
scores, the whole model can be folded offline into posting lists of
(document, score) pairs, one list per vocabulary term occurring in the
document. Folding runs by columns over ``posting_table``: the explicit
branch and ndrm3's duet score every pair in one elementwise call each, and
only the latent branch encodes one document at a time. Retrieval is then
one weighted ``bincount`` over the query's posting lists, with no model in
sight, followed by an array top-k: a partition keeps every touched document
scoring at least the k-th best score, and only those few are sorted (score
descending, then doc id ascending) and turned into Python tuples. Soft
matches against documents that do not contain the literal term are
deliberately dropped; scoring every (term, document) pair would be
quadratic in the collection.

In memory an index is what its file stores: the sorted terms, their
posting counts and two term-major columns, doc indices and scores. The doc
column is the narrowest unsigned type that holds every index of the doc
table: uint8 up to 256 documents, uint16 up to 65,536 and uint32 above
(at most 2**31 - 1 documents). Scores are float32 for a model and float64
for BM25. The constructor checks the columns once; the per-term views
``retrieve`` reads are built on first use, and it widens a query's doc
indices to ``intp`` once, for ``bincount`` and the touched-set scatter.

File layout (version 3): a ``CKIX`` container (``container.py``) whose
manifest holds the doc table, the config hash, the frozen statistics, the
model's query cap or null, the terms in sorted order and each term's
posting count, and whose two payloads are every doc index as a varint gap
(each term's first from -1), term after term, and every score as
little-endian float32, term-major. Saving encodes and loading decodes the
one gap stream with array ops. Round-trips are bit-exact. Version 1 files
record no query cap and version 2 files store posting blocks at offsets
that may overlap; both are refused.
"""

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice

import numpy as np

from . import container
from . import tensor as T
from .errors import ContractError, IndexFormatError

MAGIC = b"CKIX"
VERSION = 3
_OLDER = {
    1: "records no query cap, so retrieve would read whole queries; rebuild "
       f"it as version {VERSION}",
    2: "stores its postings in blocks at offsets, which may overlap; rebuild "
       f"it as version {VERSION}",
}
# The int32 limit, though a uint32 doc column holds more: CKIX readers have
# always refused a larger doc table, so no file written here is one they
# would refuse.
MAX_DOCS = np.iinfo(np.int32).max


@dataclass
class RetrievalResult:
    query_id: str
    ranking: list = field(default_factory=list)
    skipped: int = 0

    def __post_init__(self):
        for (_, s1), (_, s2) in zip(self.ranking, self.ranking[1:]):
            if s2 > s1:
                raise ContractError("ranking must be non-increasing by score")


def _id_ranks(ids):
    """Each id of an object array's place in ascending id order (equal ids by
    position): the tie-break key of the ranking rule, as an int array."""
    ranks = np.empty(ids.size, dtype=np.int64)
    ranks[np.argsort(ids, kind="stable")] = np.arange(ids.size)
    return ranks


def _query_parts(query):
    """(query id, tokens) of a query record or token list; a string is refused."""
    tokens = getattr(query, "tokens", query)
    if isinstance(tokens, str):
        raise ContractError(f"query must be a token sequence, not {tokens!r}")
    return getattr(query, "query_id", ""), tokens


def _best_first(scores, ranks, k, ids=None):
    """Positions of scores ordered by score descending, then rank ascending,
    cut at k; None keeps all, and a negative or non-integer k is refused.
    The rank of position i is ranks[i], or ranks[ids[i]] when ids is given,
    so only the candidates' ranks are gathered.

    For 0 < k < len(scores) a partition first finds the k-th best score and
    only the candidates scoring at least that much are sorted; every score
    tied with the k-th is kept, so ties at the cut are broken by rank, never
    by the partition's order.
    """
    if k is not None and not (isinstance(k, (int, np.integer)) and k >= 0):
        raise ContractError(f"k must be None or a non-negative integer, not {k!r}")
    if k is not None and 0 < k < scores.size:
        kth = np.partition(scores, scores.size - k)[scores.size - k]
        pos = np.flatnonzero(scores >= kth)
    else:
        pos = np.arange(scores.size)
    return pos[np.lexsort((ranks[pos if ids is None else ids[pos]],
                           -scores[pos]))][:k]


def _rank(scored, k):
    """Order (doc_id, score) pairs best-first, doc id ascending on ties, cut
    at k."""
    scores = np.array([score for _, score in scored], dtype=np.float64)
    ranks = _id_ranks(np.fromiter((d for d, _ in scored), object, len(scored)))
    return [scored[i] for i in _best_first(scores, ranks, k).tolist()]


class ImpactIndex:
    """Posting lists over a doc table, held as a CKIX file stores them.
    ``max_query_tokens`` is the cap of the model folded in: ``retrieve``
    reads only that many query tokens, as ``rerank`` does; None (BM25) reads
    them all. Construction refuses what ``_checked`` refuses."""

    def __init__(self, doc_ids, terms, counts, doc_idx, scores, config_hash,
                 stats, max_query_tokens=None):
        self.doc_ids, self.terms = list(doc_ids), list(terms)
        self.counts, self.doc_idx, self.scores = _checked(
            self.doc_ids, self.terms, counts, doc_idx, scores, max_query_tokens)
        self.config_hash, self.stats = config_hash, dict(stats)
        self.max_query_tokens = max_query_tokens

    @cached_property
    def postings(self):
        """term -> (doc indices, scores), views of the two columns; the doc
        indices are uint8, uint16 or uint32, as ``_checked`` narrows them."""
        stops = np.cumsum(self.counts)
        return {t: (self.doc_idx[a:b], self.scores[a:b]) for t, a, b in
                zip(self.terms, (stops - self.counts).tolist(), stops.tolist())}

    @cached_property
    def doc_id_array(self):
        return np.fromiter(self.doc_ids, object, len(self.doc_ids))

    @cached_property
    def doc_rank(self):                  # the tie-break key of each doc index
        return _id_ranks(self.doc_id_array)

    @property
    def num_docs(self):
        return len(self.doc_ids)

    @property
    def num_postings(self):
        return self.scores.size

    def matches(self, model):
        return self.config_hash == model.config_hash


def _check_counts(terms, counts, size):
    """Each term's posting count as int64; a ContractError unless there is
    one non-negative int (not a bool) per term, adding up to size."""
    ints = counts.dtype.kind in "iu" if isinstance(counts, np.ndarray) else \
        all(type(c) is int and 0 <= c <= size for c in counts)
    counts = np.asarray(counts, dtype=np.int64) if ints else None
    if counts is None or counts.shape != (len(terms),) or \
            ((counts < 0) | (counts > size)).any():
        raise ContractError("counts are not one non-negative integer per term")
    if counts.sum() != size:
        raise ContractError(f"counts add up to {counts.sum()} postings but there "
                            f"are {size}")
    return counts


def _previous(doc_idx, counts):
    """Each doc index's predecessor in its term's list, -1 for the first."""
    prev = np.empty_like(doc_idx)
    prev[1:] = doc_idx[:-1]
    prev[(np.cumsum(counts) - counts)[counts > 0]] = -1
    return prev


def _checked(doc_ids, terms, counts, doc_idx, scores, cap):
    """(int64 counts, doc indices, scores) if the doc ids are at most
    MAX_DOCS distinct strings, the terms distinct sorted strings, the counts
    one int >= 0 per term adding up to both columns' length, the doc indices
    strictly rising within a term and inside the doc table, and the cap an
    int >= 0 or None; else a ContractError naming the first bad term.

    The doc indices come back in the narrowest unsigned type holding
    ``len(doc_ids) - 1``: uint8 up to 256 documents, uint16 up to 65,536,
    uint32 above. A doc table past 65,536 documents keeps 4-byte doc
    indices until an index is split into document-range segments with their
    own doc tables."""
    if len(doc_ids) > MAX_DOCS:
        raise ContractError(f"{len(doc_ids)} documents: an index holds at most "
                            f"{MAX_DOCS}")
    if not all(isinstance(d, str) for d in doc_ids) or \
            len(set(doc_ids)) != len(doc_ids):
        raise ContractError("doc ids are not distinct strings")
    if not all(isinstance(t, str) for t in terms) or \
            any(map(operator.ge, terms, terms[1:])):
        raise ContractError("terms are not distinct strings in sorted order")
    if cap is not None and (type(cap) is not int or cap < 0):
        raise ContractError(f"query cap {cap!r} is not an int >= 0 or None")
    doc_idx, scores = np.asarray(doc_idx), np.asarray(scores)
    if doc_idx.ndim != 1 or (doc_idx.size and doc_idx.dtype.kind not in "iu") or \
            scores.shape != doc_idx.shape:
        raise ContractError(f"{doc_idx.shape} {doc_idx.dtype} doc indices but "
                            f"{scores.shape} scores")
    counts = _check_counts(terms, counts, scores.size)
    wide = doc_idx.astype(np.int64)
    bad = np.flatnonzero((wide <= _previous(wide, counts)) | (wide >= len(doc_ids)))
    if bad.size:
        term = terms[int(np.searchsorted(np.cumsum(counts), bad[0], "right"))]
        raise ContractError(f"posting list of {term!r} repeats a document, goes "
                            "back or names no document")
    narrow = np.uint8 if len(doc_ids) <= 1 << 8 else \
        np.uint16 if len(doc_ids) <= 1 << 16 else np.uint32
    return counts, doc_idx.astype(narrow, copy=False), scores


def posting_table(corpus):
    """The corpus as one column of postings: sorted doc ids, their lengths
    (float64), the terms in sorted order, each term's posting count, and the
    postings' int64 doc indices and int64 tf, term by term, doc indices
    ascending within a term."""
    doc_ids = sorted(corpus.docs)
    docs = [corpus.docs[d] for d in doc_ids]
    lengths = np.array([doc.length for doc in docs], dtype=np.float64)
    tfs = [doc.tf for doc in docs]
    tokens = list(chain.from_iterable(tfs))
    terms = sorted(set(tokens))
    term_id = dict(zip(terms, range(len(terms))))
    owner = np.fromiter(map(term_id.__getitem__, tokens), np.int64, len(tokens))
    tf = np.fromiter(chain.from_iterable(map(dict.values, tfs)), np.int64,
                     len(tokens))
    doc_idx = np.arange(len(docs), dtype=np.int64).repeat(list(map(len, tfs)))
    # (term, document) pairs are distinct, so this key is unique and any
    # sort of it gives the stable order by term
    key = owner * len(docs)
    key += doc_idx
    by_term = key.argsort()
    return doc_ids, lengths, terms, np.bincount(owner, minlength=len(terms)), \
        doc_idx[by_term], tf[by_term]


def build_index(corpus, model):
    """Score every (vocabulary term, containing document) pair offline.

    The pairs come from ``posting_table`` with their idf, tf and document
    length, and are scored as one ``CKModel.column_scores`` column with
    those statistics as its explicit input. The explicit branch and ndrm3's
    duet score the column elementwise; only the latent branch works one
    document at a time, encoding the document once and scoring its terms in
    sorted order, so for ndrm1 and ndrm3 the column runs document by
    document and is put back in term order at the end. Scores are stored as
    float32.

    The model must be in eval mode so batch-dependent statistics are frozen;
    building from a training-mode model is refused. Nothing is recorded for
    backward, so each document's encoder activations die with it.
    """
    if model.training:
        raise ContractError("refusing to build an index from a model in train "
                            "mode: statistics are not frozen")
    doc_ids, lengths, terms, counts, doc_idx, tf = posting_table(corpus)
    keep = np.fromiter(map(model.vocab.term_to_id.__contains__, terms), bool,
                       len(terms))
    posted = np.repeat(keep, counts)
    terms = [t for t, k in zip(terms, keep.tolist()) if k]
    counts, doc_idx, tf = counts[keep], doc_idx[posted], tf[posted]
    scores = np.empty(doc_idx.size, dtype=np.float32)
    if terms:
        owner = np.repeat(np.arange(len(terms)), counts)
        order = np.lexsort((owner, doc_idx)) if model.needs_latent \
            else np.arange(doc_idx.size)
        col_term, col_doc = owner[order], doc_idx[order]
        docs = run_terms = ()
        if model.needs_latent:       # ndrm2 needs no per-document lists
            starts, stops = _runs(col_doc)
            docs = [corpus.get(doc_ids[i]) for i in col_doc[starts].tolist()]
            run_terms = [[terms[i] for i in col_term[a:b].tolist()]
                         for a, b in zip(starts, stops)]
        explicit = (model.vocab.idfs(terms)[col_term], tf[order],
                    np.maximum(lengths[col_doc], 1.0)) \
            if model.needs_explicit else None
        with T.no_grad():
            scores[order] = model.column_scores(docs, run_terms, explicit).data
    return ImpactIndex(doc_ids, terms, counts, doc_idx, scores, model.config_hash,
                       model.running_stats(), model.config.max_query_tokens)


def _runs(col):
    """(starts, stops) lists of the runs of equal values in a non-empty
    array."""
    bounds = (np.flatnonzero(col[1:] != col[:-1]) + 1).tolist()
    return [0] + bounds, bounds + [col.size]


def retrieve(query, index, k=100):
    """Sum the query's posting lists, one per token occurrence, per document.

    Only the first ``index.max_query_tokens`` tokens count, the cap
    ``rerank`` applies too. One weighted ``bincount`` over the lists
    concatenated in token order adds in input order in float64, so each sum
    is the term-at-a-time sum. Only documents sharing at least one indexed
    term appear, whatever their score. Ranked as ``_rank`` ranks: score
    descending, doc id ascending.
    """
    qid, tokens = _query_parts(query)
    hits = [hit for hit in map(index.postings.get,
                               islice(tokens, index.max_query_tokens))
            if hit is not None]
    if hits:
        idx_cols, score_cols = zip(*hits)
        doc_idx = np.concatenate(idx_cols, dtype=np.intp)
        weights = np.concatenate(score_cols)
    else:
        doc_idx, weights = np.zeros(0, dtype=np.intp), np.zeros(0)
    acc = np.bincount(doc_idx, weights=weights, minlength=index.num_docs)
    touched = np.zeros(index.num_docs, dtype=bool)
    touched[doc_idx] = True
    live = np.flatnonzero(touched)
    scores = acc[live]
    top = _best_first(scores, index.doc_rank, k, live)
    ranking = list(zip(index.doc_id_array[live[top]].tolist(),
                       scores[top].tolist()))
    return RetrievalResult(qid, ranking)


def rerank(query, candidates, model, corpus, k=None):
    """Fresh forward scoring of candidate documents, ranked as ``_rank``
    ranks. Unknown ids are skipped and counted on the result; repeated ids
    are scored each time. Every known candidate is scored against the capped
    query (``CKModel.query_terms``) in one ``column_scores`` column, each
    document's slice summed in float64. A train-mode model is refused, as
    ``build_index`` refuses it: ndrm3 would batch-normalize over the
    candidates and fold them into its running statistics."""
    if model.training:
        raise ContractError("refusing to rerank with a model in train mode: "
                            "statistics are not frozen")
    qid, tokens = _query_parts(query)
    terms = model.query_terms(tokens)
    pairs = [(doc_id, corpus.get(doc_id)) for doc_id in candidates]
    known = [(doc_id, doc) for doc_id, doc in pairs if doc is not None]
    column = np.zeros(0)             # an empty query scores every doc 0.0
    if terms and known:
        with T.no_grad():
            column = model.column_scores([doc for _, doc in known],
                                         [terms] * len(known)).data
    scored = [(doc_id, float(row.sum(dtype=np.float64))) for (doc_id, _), row
              in zip(known, column.reshape(len(known), len(terms)))]
    return RetrievalResult(qid, _rank(scored, k),
                           skipped=len(pairs) - len(known))


# -- binary format ---------------------------------------------------------------


def _write_varints(values):
    """Encode unsigned values as consecutive varints, 7 bits a byte, low
    bits first, the continuation bit set on every byte but each value's last
    -> uint8 bytes. The inverse of ``_read_varints``."""
    values = np.asarray(values, dtype=np.uint64)
    lengths = np.ones(values.size, dtype=np.int64)
    for byte in range(1, 10):
        lengths += values >= np.uint64(1) << np.uint64(7 * byte)
    starts = np.cumsum(lengths) - lengths
    out = np.empty(lengths.sum(), dtype=np.uint8)
    for byte in range(int(lengths.max(initial=0))):
        more = lengths > byte
        low = (values[more] >> np.uint64(7 * byte)) & np.uint64(0x7F)
        cont = (lengths[more] > byte + 1).astype(np.uint8) << 7
        out[starts[more] + byte] = low.astype(np.uint8) | cont
    return out


def _read_varints(data):
    """Decode a stream of unsigned varints -> uint64 values. A varint ends at
    its first byte without the continuation bit; a stream ending inside a
    varint, or a varint holding more than 64 bits, is a format error."""
    data = np.frombuffer(data, dtype=np.uint8)
    if data.size and data[-1] >= 0x80:
        raise IndexFormatError("gap stream ends inside a varint")
    stop = np.flatnonzero(data < 0x80) + 1          # one past each varint
    begin = np.concatenate(([0], stop[:-1]))
    lengths = stop - begin
    if ((lengths > 10) | ((lengths == 10) & (data[stop - 1] > 1))).any():
        raise IndexFormatError("malformed varint: longer than 64 bits")
    values = np.zeros(lengths.size, dtype=np.uint64)
    for byte in range(int(lengths.max(initial=0))):
        more = lengths > byte
        values[more] |= (data[begin[more] + byte] & 0x7F).astype(np.uint64) \
            << np.uint64(7 * byte)
    return values


def save_index(index, path):
    """Write ``index`` as a CKIX container, its columns as they are: every doc
    index as a varint gap (each term's first from -1), every score as
    float32."""
    doc_idx = index.doc_idx.astype(np.int64)
    container.write(path, MAGIC, VERSION, {
        "doc_ids": index.doc_ids, "config_hash": index.config_hash,
        "stats": index.stats, "max_query_tokens": index.max_query_tokens,
        "terms": index.terms, "counts": index.counts.tolist(),
    }, {"gaps": _write_varints(doc_idx - _previous(doc_idx, index.counts)),
        "scores": index.scores.astype(np.float32, copy=False)})


def load_index(path):
    """Read a CKIX file, checking what decoding needs (payload dtypes, the
    counts, the gap stream); ``ImpactIndex`` checks the rest. Anything
    truncated or inconsistent raises IndexFormatError."""
    fields, arrays = container.read(path, MAGIC, VERSION, "index", _OLDER)
    try:
        doc_ids, terms = list(fields["doc_ids"]), list(fields["terms"])
        counts = list(fields["counts"])
        config_hash, stats = fields["config_hash"], dict(fields["stats"])
        cap = fields["max_query_tokens"]
    except (ValueError, KeyError, TypeError) as err:
        raise IndexFormatError(f"{path}: malformed metadata ({err})") from None
    if {name: (a.dtype, a.ndim) for name, a in arrays.items()} != \
            {"gaps": (np.dtype(np.uint8), 1), "scores": (np.dtype(np.float32), 1)}:
        raise IndexFormatError(f"{path}: payloads are not a uint8 gap stream "
                               "and a float32 score column")
    scores = arrays["scores"]
    try:
        counts = _check_counts(terms, counts, scores.size)
        deltas = _read_varints(arrays["gaps"])
        if deltas.size != scores.size:
            raise IndexFormatError(f"{path}: {deltas.size} gaps for {scores.size} "
                                   "postings")
        # bounding the gaps keeps their running sums inside int64
        if (deltas > len(doc_ids)).any():
            raise IndexFormatError(f"{path}: a gap passes the doc table")
        sums = np.cumsum(deltas.astype(np.int64))
        before = np.concatenate(([0], sums))[np.cumsum(counts) - counts]
        return ImpactIndex(doc_ids, terms, counts,
                           sums - np.repeat(before, counts) - 1, scores,
                           config_hash, stats, cap)
    except ContractError as err:
        raise IndexFormatError(f"{path}: {err}") from None
