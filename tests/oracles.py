"""Reference forms the suite checks the package against.

Scalar and per-document restatements of vectorized code in ``ckrank``: they
are slow and written for plain reading, and nothing in the package uses them.
"""

import json
import struct
from dataclasses import dataclass

import numpy as np

import ckrank.tensor as T
from ckrank.errors import ContractError
from ckrank.index import ImpactIndex
from ckrank.model import duet_scores, ndrm2_term_scores
from ckrank.train import DOCS_PER_INSTANCE, _PAIR_SLOTS, ranknet_loss


@dataclass
class TermDocStats:
    idf: float
    tf: float
    dlen: float

    def __post_init__(self):
        if self.tf < 0 or self.dlen < 1 or self.idf < 0:
            raise ContractError(f"invalid term/document statistics: idf={self.idf}, "
                                f"tf={self.tf}, dlen={self.dlen}")


def ndrm2_term_score(stats, params, bs_state):
    """Saturating lexical score: idf * bs(tf) / (bs(tf) + relu-dlen-term + eps).

    bs(x) = x / (running_mean + eps). The relu term is the only place the
    two learnable scalars enter, so gradients exist w.r.t. them alone.
    """
    scores = ndrm2_term_scores(np.array([stats.idf]), np.array([stats.tf]),
                               np.array([stats.dlen]), params, bs_state)
    return T.reshape(scores, ())


def ndrm3_term_score(s_latent, s_explicit, params, mode="infer"):
    """Scalar convenience wrapper over duet_scores."""
    lat = T.reshape(s_latent, (1,)) if s_latent.ndim == 0 else s_latent
    exp = T.reshape(s_explicit, (1,)) if s_explicit.ndim == 0 else s_explicit
    return T.reshape(duet_scores(lat, exp, params, mode), ())


def layer_norm_rows(x, gamma, beta, eps=1e-5):
    """Textbook layer norm of an (n, d) tensor, one row at a time from
    primitive ops, so its gradients come from their backward rules: the
    row mean mu, the variance var of the centred row, then
    (x - mu) / sqrt(var + eps) * gamma + beta."""
    n, d = x.shape
    count = T.constant(float(d))
    rows = []
    for i in range(n):
        row = T.reshape(T.narrow(x, 0, i, 1), (d,))
        centred = T.sub(row, T.div(T.tsum(row), count))
        var = T.div(T.tsum(T.mul(centred, centred)), count)
        xhat = T.div(centred, T.sqrt(T.add_const(var, eps)))
        rows.append(T.reshape(T.add(T.mul(xhat, gamma), beta), (1, d)))
    return T.concat(rows, axis=0)


def build_index_per_document(corpus, model):
    """``build_index`` one document at a time: each document's sorted
    vocabulary terms through ``per_term_scores``, appended to the terms'
    lists in doc-id order."""
    doc_ids = sorted(corpus.docs)
    postings = {}
    for doc_idx, doc_id in enumerate(doc_ids):
        doc = corpus.get(doc_id)
        terms = sorted(t for t in doc.tf if t in model.vocab)
        if not terms:
            continue
        enc = model.encode_document(doc) if model.needs_latent else None
        scores = model.per_term_scores(terms, doc, doc_enc=enc)
        for term, score in zip(terms, scores):
            postings.setdefault(term, ([], []))
            postings[term][0].append(doc_idx)
            postings[term][1].append(np.float32(score))
    packed = {t: (np.asarray(idx, dtype=np.int64), np.asarray(sc, dtype=np.float32))
              for t, (idx, sc) in postings.items()}
    return ImpactIndex(doc_ids, packed, model.config.config_hash(),
                       model.running_stats())


def write_varint(buf, value):
    """Append one unsigned varint to ``buf``: 7 bits a byte, low bits first."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def save_index_per_posting(index, path):
    """``save_index`` one posting at a time: the CKIX header, the metadata
    JSON, then each term's doc-index gaps (the first from -1) as varints and
    its scores as little-endian float32, terms sorted."""
    dictionary = []
    blocks = []
    offset = 0
    for term in sorted(index.postings):
        doc_idx, scores = index.postings[term]
        buf = bytearray()
        prev = -1
        for i in doc_idx.tolist():
            write_varint(buf, i - prev)
            prev = i
        buf.extend(scores.astype("<f4", copy=False).tobytes())
        dictionary.append({"term": term, "offset": offset,
                           "count": int(doc_idx.size)})
        blocks.append(bytes(buf))
        offset += len(buf)
    meta = json.dumps({
        "num_docs": index.num_docs,
        "doc_ids": index.doc_ids,
        "config_hash": index.config_hash,
        "stats": index.stats,
        "dictionary": dictionary,
    }).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"CKIX")
        fh.write(struct.pack("<I", 1))
        fh.write(struct.pack("<Q", len(meta)))
        fh.write(meta)
        for block in blocks:
            fh.write(block)


def batch_loss_per_document(model, instances, corpus, query_tokens):
    """``batch_loss`` with both branches scored one document at a time, the
    explicit one through ``explicit_term_scores``, and the branch vectors
    joined by ``concat``."""
    lat_chunks = []
    exp_chunks = []
    seg_ids = []
    tf_seen = []
    dlen_seen = []
    for doc_count, (inst, doc_id) in enumerate(
            (inst, d) for inst in instances for d in inst.doc_ids):
        terms = query_tokens[inst.query_id]
        doc = corpus.get(doc_id)
        if model.needs_latent:
            enc = model.encode_document(doc)
            lat_chunks.append(model.latent_term_scores(terms, enc))
        if model.needs_explicit:
            exp_chunks.append(model.explicit_term_scores(terms, doc))
            _, tf, _ = model.explicit_stats(terms, doc)
            tf_seen.extend(tf[tf > 0].tolist())
            dlen_seen.append(doc.length)
        seg_ids.extend([doc_count] * len(terms))
    if model.variant == "ndrm1":
        scores = T.concat(lat_chunks, axis=0)
    elif model.variant == "ndrm2":
        scores = T.concat(exp_chunks, axis=0)
    else:
        scores = duet_scores(T.concat(lat_chunks, axis=0),
                             T.concat(exp_chunks, axis=0), model.duet, model.mode)
    totals = T.segment_sum(scores, seg_ids, len(instances) * DOCS_PER_INSTANCE)
    pairs = [(i * DOCS_PER_INSTANCE + a, i * DOCS_PER_INSTANCE + b)
             for i in range(len(instances)) for a, b in _PAIR_SLOTS]
    losses = ranknet_loss(T.gather(totals, [a for a, _ in pairs]),
                          T.gather(totals, [b for _, b in pairs]))
    return T.tmean(losses), (tf_seen, dlen_seen)
