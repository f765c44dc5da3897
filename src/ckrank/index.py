"""Impact index: precomputed per-term document scores behind an inverted index.

Because every ranker here scores a query as a sum of independent per-term
scores, the whole model can be folded offline into posting lists of
(document, score) pairs, one list per vocabulary term occurring in the
document. Folding runs by columns over ``posting_table``: the explicit
branch and ndrm3's duet score every pair in one elementwise call each, and
only the latent branch encodes one document at a time. Retrieval is then
term-at-a-time float accumulation with no model in sight, followed by an
array top-k: a partition keeps every touched document scoring at least the
k-th best score, and only those few are sorted (score descending, then doc
id ascending) and turned into Python tuples. Soft matches against
documents that do not contain the literal term are deliberately dropped;
scoring every (term, document) pair would be quadratic in the collection.

File layout: magic ``CKIX`` | u32 version | u64 meta length | meta JSON
(doc table, term dictionary with offsets, config hash, frozen statistics) |
posting blocks. Each block stores delta-encoded doc indices as unsigned
varints followed by raw little-endian float32 scores; saving encodes and
loading decodes the varints of all blocks at once with array ops.
Round-trips are bit-exact.
"""

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, IndexFormatError

MAGIC = b"CKIX"
VERSION = 1


@dataclass
class RetrievalResult:
    query_id: str
    ranking: list = field(default_factory=list)
    skipped: int = 0

    def __post_init__(self):
        for (_, s1), (_, s2) in zip(self.ranking, self.ranking[1:]):
            if s2 > s1:
                raise ContractError("ranking must be non-increasing by score")


def _id_ranks(doc_ids):
    """Each doc id's place in ascending id order (equal ids by position): the
    tie-break key of the ranking rule, as an int array."""
    ids = np.fromiter(doc_ids, dtype=object, count=len(doc_ids))
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[np.argsort(ids, kind="stable")] = np.arange(len(ids))
    return ranks


def _best_first(scores, ranks, k):
    """Positions of scores ordered by score descending, then rank ascending,
    cut at k (sliced like a list, so None keeps all).

    For 0 < k < len(scores) a partition first finds the k-th best score and
    only the candidates scoring at least that much are sorted; every score
    tied with the k-th is kept, so ties at the cut are broken by rank, never
    by the partition's order.
    """
    if k is not None and 0 < k < scores.size:
        kth = np.partition(scores, scores.size - k)[scores.size - k]
        pos = np.flatnonzero(scores >= kth)
    else:
        pos = np.arange(scores.size)
    return pos[np.lexsort((ranks[pos], -scores[pos]))][:k]


def _rank(scored, k):
    """Order (doc_id, score) pairs best-first, doc id ascending on ties, cut
    at k."""
    scores = np.array([score for _, score in scored], dtype=np.float64)
    ranks = _id_ranks([doc_id for doc_id, _ in scored])
    return [scored[i] for i in _best_first(scores, ranks, k).tolist()]


class ImpactIndex:
    def __init__(self, doc_ids, postings, config_hash, stats):
        self.doc_ids = list(doc_ids)
        self.doc_rank = _id_ranks(self.doc_ids)   # tie-break key per doc index
        self.postings = postings    # term -> (int64 doc indices, f32 scores; f64 for BM25)
        self.config_hash = config_hash
        self.stats = dict(stats)

    @property
    def num_docs(self):
        return len(self.doc_ids)

    @property
    def num_postings(self):
        return sum(idx.size for idx, _ in self.postings.values())

    def matches(self, model):
        return self.config_hash == model.config_hash


def posting_table(corpus):
    """The corpus as one column of postings: sorted doc ids, their lengths
    (float64), the terms in sorted order, each term's posting count, and the
    postings' int64 doc indices and int64 tf, term by term, doc indices
    ascending within a term."""
    doc_ids = sorted(corpus.docs)
    docs = [corpus.get(d) for d in doc_ids]
    lengths = np.array([doc.length for doc in docs], dtype=np.float64)
    tokens, tfs, sizes = [], [], []
    for doc in docs:
        tokens.extend(doc.tf)
        tfs.extend(doc.tf.values())
        sizes.append(len(doc.tf))
    terms = sorted(set(tokens))
    term_id = {t: i for i, t in enumerate(terms)}
    owner = np.fromiter(map(term_id.__getitem__, tokens), dtype=np.int64,
                        count=len(tokens))
    by_term = np.argsort(owner, kind="stable")
    doc_idx = np.repeat(np.arange(len(docs), dtype=np.int64), sizes)[by_term]
    tf = np.array(tfs, dtype=np.int64)[by_term]
    return doc_ids, lengths, terms, np.bincount(owner, minlength=len(terms)), \
        doc_idx, tf


def split_postings(terms, counts, doc_idx, scores):
    """term -> (doc indices, scores) slices of a term-by-term column."""
    stops = np.cumsum(counts)
    return {t: (doc_idx[a:b], scores[a:b]) for t, a, b in
            zip(terms, (stops - counts).tolist(), stops.tolist())}


def build_index(corpus, model):
    """Score every (vocabulary term, containing document) pair offline.

    The pairs come from ``posting_table`` with their idf, tf and document
    length. The explicit branch scores them all in one call and ndrm3's
    duet mixes the two branches' columns in one call, both elementwise; only
    the latent branch works one document at a time, encoding the document
    once and scoring its terms in sorted order, so for ndrm1 and ndrm3 the
    columns run document by document and are put back in term order at the
    end. Scores are stored as float32.

    The model must be in eval mode so batch-dependent statistics are frozen;
    building from a training-mode model is refused. Nothing is recorded for
    backward, so each document's encoder activations die with it.
    """
    if model.training:
        raise ContractError("refusing to build an index from a model in train "
                            "mode: statistics are not frozen")
    doc_ids, lengths, terms, counts, doc_idx, tf = posting_table(corpus)
    keep = np.array([t in model.vocab for t in terms], dtype=bool)
    posted = np.repeat(keep, counts)
    terms = [t for t, k in zip(terms, keep.tolist()) if k]
    counts, doc_idx, tf = counts[keep], doc_idx[posted], tf[posted]
    if not terms:
        return ImpactIndex(doc_ids, {}, model.config_hash, model.running_stats())
    owner = np.repeat(np.arange(len(terms)), counts)
    order = np.lexsort((owner, doc_idx)) if model.needs_latent \
        else np.arange(doc_idx.size)
    col_doc = doc_idx[order]
    lat = exp = None
    with T.no_grad():
        if model.needs_latent:
            lat = _latent_column(corpus, model, doc_ids, terms, owner[order],
                                 col_doc)
        if model.needs_explicit:
            idf = np.array([model.vocab.idf(t) for t in terms])[owner[order]]
            exp = model.explicit_scores(idf, tf[order],
                                        np.maximum(lengths[col_doc], 1.0))
        column = model.mix_scores(lat, exp).data
    scores = np.empty(doc_idx.size, dtype=np.float32)
    scores[order] = column
    return ImpactIndex(doc_ids, split_postings(terms, counts, doc_idx, scores),
                       model.config_hash, model.running_stats())


def _latent_column(corpus, model, doc_ids, terms, col_term, col_doc):
    """Latent scores of a doc-major column of (term, document) pairs: one
    encoding and one ``latent_term_scores`` call per document."""
    starts = np.flatnonzero(np.diff(col_doc, prepend=-1))
    stops = np.append(starts[1:], col_doc.size)
    chunks = []
    for a, b in zip(starts.tolist(), stops.tolist()):
        doc = corpus.get(doc_ids[col_doc[a]])
        chunks.append(model.latent_term_scores(
            [terms[i] for i in col_term[a:b].tolist()], model.encode_document(doc)))
    return chunks[0] if len(chunks) == 1 else T.concat(chunks)


def retrieve(query, index, k=100):
    """Term-at-a-time accumulation over the query's token occurrences.

    Repeated terms accumulate repeatedly. Only documents sharing at least
    one indexed term appear, whatever their score; scores accumulate in
    float64. Ranked as ``_rank`` ranks: score descending, doc id ascending.
    """
    tokens = getattr(query, "tokens", query)
    qid = getattr(query, "query_id", "")
    acc = np.zeros(index.num_docs, dtype=np.float64)
    touched = np.zeros(index.num_docs, dtype=bool)
    for term in tokens:
        hit = index.postings.get(term)
        if hit is None:
            continue
        doc_idx, scores = hit
        acc[doc_idx] += scores
        touched[doc_idx] = True
    live = np.flatnonzero(touched)
    scores = acc[live]
    top = _best_first(scores, index.doc_rank[live], k)
    ranking = [(index.doc_ids[i], score)
               for i, score in zip(live[top].tolist(), scores[top].tolist())]
    return RetrievalResult(qid, ranking)


def rerank(query, candidates, model, corpus, k=None):
    """Fresh forward scoring of candidate documents; unknown ids are skipped
    and counted on the result."""
    tokens = getattr(query, "tokens", query)
    qid = getattr(query, "query_id", "")
    scored = []
    skipped = 0
    for doc_id in candidates:
        doc = corpus.get(doc_id)
        if doc is None:
            skipped += 1
            continue
        scored.append((doc_id, model.score_query_document(tokens, doc)))
    return RetrievalResult(qid, _rank(scored, k), skipped=skipped)


# -- binary format ---------------------------------------------------------------


def _write_varints(values):
    """Encode unsigned values as consecutive varints, 7 bits a byte, low
    bits first, the continuation bit set on every byte but each value's last
    -> (uint8 bytes, int64 offsets: where each varint starts, then the total
    length). The inverse of ``_read_varints``."""
    values = np.asarray(values, dtype=np.uint64)
    lengths = np.ones(values.size, dtype=np.int64)
    for byte in range(1, 10):
        lengths += values >= np.uint64(1) << np.uint64(7 * byte)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    out = np.empty(offsets[-1], dtype=np.uint8)
    for byte in range(int(lengths.max(initial=0))):
        more = lengths > byte
        low = (values[more] >> np.uint64(7 * byte)) & np.uint64(0x7F)
        cont = (lengths[more] > byte + 1).astype(np.uint8) << 7
        out[offsets[:-1][more] + byte] = low.astype(np.uint8) | cont
    return out, offsets


def _read_varints(blob, starts, counts):
    """Decode runs of consecutive unsigned varints, counts[i] of them from byte
    starts[i] of blob -> (uint64 values of every run, concatenated; the
    position one past each run's last byte).

    A varint ends at its first byte without the continuation bit, so run i
    is the first counts[i] such bytes at or after starts[i] together with the
    continuation bytes before each. A varint cut off by the end of the
    buffer, or holding more than 64 bits, is a format error.
    """
    data = np.frombuffer(blob, dtype=np.uint8)
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.flatnonzero(data < 0x80)
    first = np.searchsorted(ends, starts)
    if (first + counts > ends.size).any():
        tail = data.size - (ends[-1] + 1 if ends.size else 0)
        raise IndexFormatError("malformed varint: longer than 64 bits" if tail >= 10
                               else "posting block truncated inside a varint")
    offsets = np.cumsum(counts) - counts            # each run's first value
    last = np.arange(counts.sum()) + np.repeat(first - offsets, counts)
    stop = ends[last] + 1                           # one past each varint
    begin = ends[last - 1] + 1
    has = counts > 0
    begin[offsets[has]] = starts[has]
    lengths = stop - begin
    if ((lengths > 10) | ((lengths == 10) & (data[stop - 1] > 1))).any():
        raise IndexFormatError("malformed varint: longer than 64 bits")
    values = np.zeros(lengths.size, dtype=np.uint64)
    for byte in range(int(lengths.max(initial=0))):
        more = lengths > byte
        values[more] |= (data[begin[more] + byte] & 0x7F).astype(np.uint64) \
            << np.uint64(7 * byte)
    run_stop = starts.copy()
    run_stop[has] = stop[offsets[has] + counts[has] - 1]
    return values, run_stop


def save_index(index, path):
    """Write ``index`` as a CKIX file: each term's doc indices as varint gaps
    (the first from -1), then its scores as little-endian float32, terms in
    sorted order. Before anything is written, refuses a posting list that
    ``load_index`` would refuse or misread: scores and doc indices of unequal
    length, or doc indices not strictly increasing inside the doc table."""
    terms = sorted(index.postings)
    counts = np.array([index.postings[t][0].size for t in terms], dtype=np.int64)
    for term, count in zip(terms, counts.tolist()):
        if index.postings[term][1].size != count:
            raise ContractError(f"posting list of term {term!r} has {count} doc "
                                f"indices but {index.postings[term][1].size} scores")
    doc_idx = np.concatenate([np.asarray(index.postings[t][0], dtype=np.int64)
                              for t in terms] + [np.zeros(0, dtype=np.int64)])
    stops = np.cumsum(counts)
    firsts = (stops - counts)[counts > 0]
    prev = np.roll(doc_idx, 1)
    prev[firsts] = -1
    # Gaps are unsigned varints: a negative one cannot be written.
    bad = np.flatnonzero((doc_idx <= prev) | (doc_idx >= index.num_docs))
    if bad.size:
        term = terms[int(np.searchsorted(stops, bad[0], side="right"))]
        raise ContractError(f"posting list of term {term!r} has doc indices that "
                            "are negative, not strictly increasing or past the "
                            "doc table")
    varints, offsets = _write_varints(doc_idx - prev)
    block_ends = offsets[stops].tolist()
    dictionary = []
    blocks = []
    offset = begin = 0
    for term, count, end in zip(terms, counts.tolist(), block_ends):
        scores = index.postings[term][1].astype("<f4", copy=False).tobytes()
        blocks += [varints[begin:end].tobytes(), scores]
        dictionary.append({"term": term, "offset": offset, "count": count})
        offset += end - begin + len(scores)
        begin = end
    meta = json.dumps({
        "num_docs": index.num_docs,
        "doc_ids": index.doc_ids,
        "config_hash": index.config_hash,
        "stats": index.stats,
        "dictionary": dictionary,
    }).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(meta)))
        fh.write(meta)
        fh.writelines(blocks)


_HEADER = struct.Struct("<4sIQ")          # magic, version, meta length


def _load_meta(blob, path):
    if len(blob) < _HEADER.size:
        raise IndexFormatError(f"{path}: truncated header")
    magic, version, mlen = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise IndexFormatError(f"{path}: not an impact index (bad magic)")
    if version != VERSION:
        raise IndexFormatError(f"{path}: unsupported index version {version}")
    if mlen > len(blob) - _HEADER.size:
        raise IndexFormatError(f"{path}: truncated metadata")
    try:
        meta = json.loads(blob[_HEADER.size:_HEADER.size + mlen].decode("utf-8"))
        doc_ids = list(meta["doc_ids"])
        dictionary = [(e["term"], int(e["offset"]), int(e["count"]))
                      for e in meta["dictionary"]]
        config_hash, stats = meta["config_hash"], dict(meta["stats"])
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as err:
        raise IndexFormatError(f"{path}: malformed metadata ({err})") from None
    if meta.get("num_docs") != len(doc_ids):
        raise IndexFormatError(f"{path}: doc table length does not match num_docs")
    return doc_ids, dictionary, config_hash, stats, _HEADER.size + mlen


def load_index(path):
    """Read a CKIX file; any truncated or inconsistent part raises
    IndexFormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    doc_ids, dictionary, config_hash, stats, start = _load_meta(blob, path)
    payload = memoryview(blob)[start:]
    for term, pos, count in dictionary:
        if not (0 <= pos <= len(payload) and 0 <= count <= len(payload)):
            raise IndexFormatError(f"{path}: posting block of {term!r} out of range")
    terms = [term for term, _, _ in dictionary]
    starts = np.array([pos for _, pos, _ in dictionary], dtype=np.int64)
    counts = np.array([count for _, _, count in dictionary], dtype=np.int64)
    offsets = np.cumsum(counts) - counts            # each term's first posting
    owner = np.repeat(np.arange(len(terms)), counts)

    def fail(term_idx, what):
        if term_idx.size:
            raise IndexFormatError(f"{path}: {what.format(terms[term_idx[0]])}")

    deltas, stops = _read_varints(payload, starts, counts)
    # a delta past the doc table names no document, and bounding the deltas
    # keeps their running sums inside int64
    fail(owner[deltas > len(doc_ids)], "posting of {!r} names no document")
    sums = np.cumsum(deltas.astype(np.int64))
    doc_idx = sums - np.concatenate(([0], sums))[offsets][owner] - 1
    fail(owner[(doc_idx < 0) | (doc_idx >= len(doc_ids))],
         "posting of {!r} names no document")
    fail(owner[deltas == 0], "posting of {!r} repeats a document")
    fail(np.flatnonzero(stops + 4 * counts > len(payload)),
         "posting block of {!r} truncated")
    postings = {}
    for term, off, count, pos in zip(terms, offsets.tolist(), counts.tolist(),
                                     stops.tolist()):
        scores = np.frombuffer(payload, dtype="<f4", count=count,
                               offset=pos).astype(np.float32)
        postings[term] = (doc_idx[off:off + count], scores)
    return ImpactIndex(doc_ids, postings, config_hash, stats)
