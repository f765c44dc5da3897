"""Reference forms the suite checks the package against.

Scalar and per-document restatements of vectorized code in ``ckrank``, and
the chains of small ops that its fused ops replace: they are slow and
written for plain reading, and nothing in the package uses them.
"""

import json
import math
import struct
from dataclasses import dataclass

import numpy as np
import refops as R
from helpers import index_from_postings

import ckrank.tensor as T
from ckrank.errors import ConfigError, ContractError, ShapeError
from ckrank.attention import _softmax, _softmax_backward, feed_forward, \
    multi_head
from ckrank.index import _best_first
from ckrank.model import duet_scores, ndrm2_term_scores
from ckrank.pooling import (empty_features, interaction_rows,
                            latent_term_scores, num_windows,
                            windowed_pool_terms)
from ckrank.checkpoint import MAGIC, VERSION
from ckrank.train import (DOCS_PER_INSTANCE, _PAIR_SLOTS, TrainInstance,
                          ranknet_loss)


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
    return R.reshape(scores, ())


def ndrm3_term_score(s_latent, s_explicit, params, mode="infer"):
    """Scalar convenience wrapper over duet_scores."""
    lat = R.reshape(s_latent, (1,)) if s_latent.ndim == 0 else s_latent
    exp = R.reshape(s_explicit, (1,)) if s_explicit.ndim == 0 else s_explicit
    return R.reshape(duet_scores(lat, exp, params, mode), ())


def layer_norm_rows(x, gamma, beta, eps=1e-5):
    """Textbook layer norm of an (n, d) tensor, one row at a time from
    primitive ops, so its gradients come from their backward rules: the
    row mean mu, the variance var of the centred row, then
    (x - mu) / sqrt(var + eps) * gamma + beta."""
    n, d = x.shape
    count = T.constant(float(d))
    rows = []
    for i in range(n):
        row = R.reshape(R.narrow(x, 0, i, 1), (d,))
        centred = R.sub(row, R.div(T.tsum(row), count))
        var = R.div(T.tsum(R.mul(centred, centred)), count)
        xhat = R.div(centred, R.sqrt(R.add_const(var, eps)))
        rows.append(R.reshape(R.add(R.mul(xhat, gamma), beta), (1, d)))
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
        scores = model.per_term_scores(terms, doc)
        for term, score in zip(terms, scores):
            postings.setdefault(term, ([], []))
            postings[term][0].append(doc_idx)
            postings[term][1].append(np.float32(score))
    packed = {t: (np.asarray(idx, dtype=np.int64), np.asarray(sc, dtype=np.float32))
              for t, (idx, sc) in postings.items()}
    return index_from_postings(doc_ids, packed, model.config.config_hash(),
                               model.running_stats(),
                               model.config.max_query_tokens)


def posting_table_by_stable_sort(corpus):
    """``posting_table`` from Python lists: each document's tf keys and
    values appended in turn, terms numbered through a dict comprehension,
    and the postings put in term order by a stable argsort of the term
    numbers alone."""
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
    owner = np.array([term_id[t] for t in tokens], dtype=np.int64)
    by_term = np.argsort(owner, kind="stable")
    doc_idx = np.repeat(np.arange(len(docs), dtype=np.int64), sizes)[by_term]
    tf = np.array(tfs, dtype=np.int64)[by_term]
    return doc_ids, lengths, terms, np.bincount(owner, minlength=len(terms)), \
        doc_idx, tf


def make_instances_pool_per_triple(triples, candidates, corpus, rng):
    """``make_instances`` with each triple's candidate pool rebuilt from the
    query's candidates, membership asked of the corpus."""
    all_ids = sorted(corpus.docs)
    if len(all_ids) < DOCS_PER_INSTANCE:
        raise ContractError(f"an instance needs {DOCS_PER_INSTANCE} distinct "
                            f"documents, the corpus has {len(all_ids)}")
    positives_by_query = {}
    for qid, pos in triples:
        positives_by_query.setdefault(qid, set()).add(pos)
    instances = []
    for qid, pos in triples:
        if pos not in corpus:
            continue
        pool = [d for d in candidates.get(qid, ())
                if d in corpus and d not in positives_by_query[qid]]
        if not pool:
            continue
        cand = pool[rng.integers(len(pool))]
        taken = {pos, cand}
        coll = []
        while len(coll) < 2:
            doc = all_ids[rng.integers(len(all_ids))]
            if doc not in taken:
                coll.append(doc)
                taken.add(doc)
        instances.append(TrainInstance(qid, pos, cand, tuple(coll)))
    return instances


def save_checkpoint_tobytes(path, config_dict, config_hash, params, stats):
    """A checkpoint container written as ``container.write`` writes one, with
    every payload copied out by ``tobytes()`` and the copies written in
    turn."""
    entries = []
    payloads = []
    offset = 0
    for name in sorted(params):
        arr = np.asarray(getattr(params[name], "data", params[name]))
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        wire = {"float32": "<f4", "float64": "<f8"}[arr.dtype.name]
        buf = arr.astype(np.dtype(wire), copy=False).tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "dtype": wire,
                        "offset": offset, "nbytes": len(buf)})
        payloads.append(buf)
        offset += len(buf)
    manifest = json.dumps({
        "format_version": VERSION,
        "config": config_dict,
        "config_hash": config_hash,
        "params": entries,
        "stats": dict(stats),
    }).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(manifest)))
        fh.write(manifest)
        for buf in payloads:
            fh.write(buf)


def retrieve_term_at_a_time(tokens, index, k=100):
    """``retrieve``'s ranking by term-at-a-time accumulation: each token
    occurrence up to the index's query cap has its posting list added into a
    float64 accumulator in turn (``acc[doc_idx] += scores``), the documents
    it touches marked, then the touched documents ranked best-first and cut
    at k."""
    acc = np.zeros(index.num_docs, dtype=np.float64)
    touched = np.zeros(index.num_docs, dtype=bool)
    for term in list(tokens)[:index.max_query_tokens]:
        hit = index.postings.get(term)
        if hit is None:
            continue
        doc_idx, scores = hit
        acc[doc_idx] += scores
        touched[doc_idx] = True
    live = np.flatnonzero(touched)
    scores = acc[live]
    top = _best_first(scores, index.doc_rank[live], k)
    return [(index.doc_ids[i], score)
            for i, score in zip(live[top].tolist(), scores[top].tolist())]


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
    """``save_index`` one posting at a time: the CKIX version 3 header, the
    manifest JSON, then every doc-index gap (each term's first from -1) as
    a varint and every score as little-endian float32, terms sorted."""
    terms = sorted(index.postings)
    gaps = bytearray()
    scores = bytearray()
    for term in terms:
        doc_idx, term_scores = index.postings[term]
        prev = -1
        for i, score in zip(doc_idx.tolist(), term_scores.astype("<f4")):
            write_varint(gaps, i - prev)
            scores.extend(score.tobytes())
            prev = i
    meta = json.dumps({
        "format_version": 3,
        "doc_ids": index.doc_ids,
        "config_hash": index.config_hash,
        "stats": index.stats,
        "max_query_tokens": index.max_query_tokens,
        "terms": terms,
        "counts": [int(index.postings[t][0].size) for t in terms],
        "params": [
            {"name": "gaps", "shape": [len(gaps)], "dtype": "|u1",
             "offset": 0, "nbytes": len(gaps)},
            {"name": "scores", "shape": [len(scores) // 4], "dtype": "<f4",
             "offset": len(gaps), "nbytes": len(scores)},
        ],
    }).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"CKIX")
        fh.write(struct.pack("<I", 3))
        fh.write(struct.pack("<Q", len(meta)))
        fh.write(meta)
        fh.write(gaps)
        fh.write(scores)


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
        terms = model.query_terms(query_tokens[inst.query_id])
        doc = corpus.get(doc_id)
        if model.needs_latent:
            enc = model.encode_document(doc)
            lat_chunks.append(model.latent_term_scores(terms, enc))
        if model.needs_explicit:
            exp_chunks.append(model.explicit_term_scores(terms, doc))
            _, tf, _ = model.explicit_stats([doc], [terms])
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


# -- pooling and the scoring head, one term at a time ---------------------------


def interaction_row(q_emb, doc_enc):
    """Cosine row for a single query-term embedding -> Tensor[n]."""
    if q_emb.ndim != 1:
        raise ShapeError(f"interaction_row expects a vector, got {tuple(q_emb.shape)}")
    rows = interaction_rows(R.reshape(q_emb, (1, q_emb.shape[0])), doc_enc)
    return R.reshape(rows, (doc_enc.shape[0],))


def kernel_features(row, bank):
    """log(eps + sum_j exp(-(row_j - mu)^2 / (2 sigma^2))) per kernel.

    An empty row (zero real positions) yields log(eps) everywhere, the
    padding/no-match convention used throughout scoring.
    """
    if row.ndim != 1:
        raise ShapeError(f"kernel_features expects a vector, got {tuple(row.shape)}")
    r = row.data
    mus = bank.mus.astype(r.dtype)
    inv2s = (1.0 / (2.0 * bank.sigmas ** 2)).astype(r.dtype)
    ex = np.exp(-(r[:, None] - mus) ** 2 * inv2s)        # (w, k)
    denom = bank.eps_log + ex.sum(axis=0)
    data = np.log(denom).astype(r.dtype)

    def backward(g):
        z = g / denom
        drow = (ex * (-(r[:, None] - mus) * 2.0 * inv2s) * z).sum(axis=1)
        row._accumulate(drow)

    return T.wrap_op(data, (row,), backward, "kernel_features")


def windowed_pool_term(row, wcfg, bank):
    """Kernel features per window, elementwise max across windows -> Tensor[k],
    composed from narrow/kernel_features/max."""
    if row.ndim != 1:
        raise ShapeError(f"windowed_pool_term expects a vector, got {tuple(row.shape)}")
    n = row.shape[0]
    if n < 1:
        raise ShapeError("windowed_pool_term needs at least one position")
    w = num_windows(n, wcfg)
    if w == 1:
        return kernel_features(row, bank)
    feats = []
    for i in range(w):
        start = i * wcfg.stride
        length = min(wcfg.window_len, n - start)
        feats.append(R.reshape(kernel_features(R.narrow(row, 0, start, length), bank),
                               (1, bank.k)))
    return R.reshape(R.tmax(T.concat(feats, axis=0), axis=0), (bank.k,))


def latent_term_score(features, head):
    """w . features + b for one term's pooled feature vector."""
    return R.add(T.tsum(R.mul(features, head["w"])), head["b"])


# -- the op chains that fused ops replace ------------------------------------------


def layer_norm_after_add(x, residual, gamma, beta, eps=1e-5):
    """``layer_norm`` of ``add(x, residual)``: two ops."""
    return T.layer_norm(R.add(x, residual), gamma, beta, eps)


def conformer_sublayers_composed(params, cfg, training, rng, variant="separable"):
    """``attention.conformer_sublayers`` as chains of three ops each: the
    sublayer's own op, ``dropout`` with its mask drawn from rng, then
    ``layer_norm`` of the input plus the dropped output."""
    p = cfg.dropout_rate

    def then_norm(x, out, name):
        return T.layer_norm(x, params[f"{name}_gamma"], params[f"{name}_beta"],
                            residual=R.dropout(out, p, training, rng))

    return (
        lambda x: then_norm(x, T.grouped_conv1d(
            x, params["conv_kernel"], cfg.conv_groups, cfg.conv_window,
            params["conv_bias"]), "ln1"),
        lambda x: then_norm(x, multi_head(x, params, cfg, variant), "ln2"),
        lambda x: then_norm(x, feed_forward(
            x, params["ffn_w1"], params["ffn_b1"], params["ffn_w2"],
            params["ffn_b2"]), "ln3"),
    )


def ndrm2_term_scores_composed(idf, tf, dlen, params, bs_state):
    """``ndrm2_term_scores`` as mul/add/relu/add/div over constant columns."""
    dt = T.default_dtype()
    eps = params.epsilon
    bs_tf = np.asarray(tf, dtype=dt) / (bs_state.mean_tf + eps)
    bs_dl = np.asarray(dlen, dtype=dt) / (bs_state.mean_dlen + eps)
    lin = R.add(R.mul(T.constant(bs_dl), params.w_dlen), params.b_dlen)
    denom = R.add(R.relu(lin), T.constant(bs_tf + eps))
    return R.div(T.constant(np.asarray(idf, dtype=dt) * bs_tf), denom)


def duet_mix_composed(bn_lat, bn_exp, params):
    """w1 * bn_lat + w2 * bn_exp + b as mul/mul/add/add."""
    mixed = R.add(R.mul(bn_lat, params.w1), R.mul(bn_exp, params.w2))
    return R.add(mixed, params.b)


def batch_norm_infer(x, mean, var, var_floor=1e-5):
    """Normalize by frozen statistics; linear, so backward is a rescale."""
    denom = float(np.sqrt(max(var, var_floor)))
    data = (x.data - mean) / denom

    def backward(g):
        x._accumulate(g / denom)

    return T.wrap_op(data, (x,), backward, "batch_norm_infer")


def duet_infer_composed(s_latent, s_explicit, params):
    """Infer-mode ``duet_scores`` as two ``batch_norm_infer`` ops and the
    mix."""
    bn_lat = batch_norm_infer(s_latent, params.bn_latent_mean,
                              params.bn_latent_var, params.var_floor)
    bn_exp = batch_norm_infer(s_explicit, params.bn_explicit_mean,
                              params.bn_explicit_var, params.var_floor)
    return duet_mix_composed(bn_lat, bn_exp, params)


def embedding_then_add(table, ids, offset):
    """``embedding`` with an offset as ``embedding`` then ``add`` of a
    constant."""
    return R.add(T.embedding(table, ids), T.constant(offset))


def feed_forward_composed(x, w1, b1, w2, b2):
    """``feed_forward`` as linear/relu/linear."""
    return T.linear(R.relu(T.linear(x, w1, b1)), w2, b2)


def _key_major(a, heads):
    """(n, heads * d) -> contiguous (heads, d, n), by a transposing copy."""
    return np.ascontiguousarray(a.T).reshape(heads, -1, a.shape[0])


def _from_key_major(a):
    """(heads, d, n) -> (n, heads * d) view."""
    heads, d, n = a.shape
    return a.reshape(heads * d, n).T


def _separable_heads(q, k, v, heads):
    """Separable attention of every head at once on projected q, k, v ->
    Tensor[n, heads * d_value], with q and k copied key-major."""
    n = v.shape[0]
    vh = v.data.reshape(n, heads, -1).transpose(1, 0, 2)        # (h, n, dv)
    phi_q = _softmax(_key_major(q.data, heads), 1)              # (h, dk, n)
    phi_k = _softmax(_key_major(k.data, heads), 2)              # (h, dk, n)
    summary = phi_k @ vh                                        # (h, dk, dv)
    out = (phi_q.transpose(0, 2, 1) @ summary).transpose(1, 0, 2).reshape(n, -1)

    def backward(g):
        gh = g.reshape(n, heads, -1).transpose(1, 0, 2)         # (h, n, dv)
        dphi_q = summary @ gh.transpose(0, 2, 1)                # (h, dk, n)
        q._accumulate(_from_key_major(_softmax_backward(phi_q, dphi_q, 1)))
        d_summary = phi_q @ gh                                  # (h, dk, dv)
        dphi_k = d_summary @ vh.transpose(0, 2, 1)              # (h, dk, n)
        k._accumulate(_from_key_major(_softmax_backward(phi_k, dphi_k, 2)))
        dv = phi_k.transpose(0, 2, 1) @ d_summary               # (h, n, dv)
        v._accumulate(dv.transpose(1, 0, 2).reshape(n, -1))

    return T.wrap_op(out, (q, k, v), backward, "separable_heads")


def separable_multi_head_composed(x, params, heads):
    """The separable ``multi_head`` as four ``linear``s around one op for
    every head."""
    q, k, v = (T.linear(x, params[w], params[b])
               for w, b in (("wq", "bq"), ("wk", "bk"), ("wv", "bv")))
    return T.linear(_separable_heads(q, k, v, heads), params["wo"], params["bo"])


def latent_term_scores_composed(features, head):
    """features @ w + b as reshape/matmul/reshape/add."""
    k = features.shape[1]
    out = R.matmul(features, R.reshape(head["w"], (k, 1)))
    return R.add(R.reshape(out, (features.shape[0],)), head["b"])


def windowed_pool_terms_blocks(rows, wcfg, bank):
    """``windowed_pool_terms`` with window sums built from blocks: positions
    summed in blocks of b = gcd(window_len, stride) in a zero-padded buffer,
    and each window summing window_len / b consecutive blocks."""
    t, n = rows.shape
    w = num_windows(n, wcfg)
    wlen, stride = wcfg.window_len, wcfg.stride
    padded_len = (w - 1) * stride + wlen
    r = rows.data
    k = bank.k
    mus = bank.mus.astype(r.dtype)
    inv2s = (1.0 / (2.0 * bank.sigmas ** 2)).astype(r.dtype)
    ex = np.zeros((k, t, padded_len), dtype=r.dtype)
    d = ex[:, :, :n]
    np.subtract(r, mus[:, None, None], out=d)
    d *= d
    d *= -inv2s[:, None, None]
    np.exp(d, out=d)
    b = math.gcd(wlen, stride)
    blocks = ex.reshape(k, t, padded_len // b, b).sum(axis=3)
    bw = np.lib.stride_tricks.sliding_window_view(blocks, wlen // b, axis=2)
    e = bw[:, :, ::stride // b].sum(axis=3)              # (k, t, w)
    f = np.log(bank.eps_log + e)
    arg = f.argmax(axis=2)                               # (k, t)
    data = np.take_along_axis(f, arg[:, :, None], axis=2)[:, :, 0].T

    def backward(g):
        e_win = np.take_along_axis(e, arg[:, :, None], axis=2)[:, :, 0]
        z = g.T / (bank.eps_log + e_win)                 # (k, t)
        idx_k = np.arange(k)[:, None, None]
        idx_t = np.arange(t)[None, :, None]
        pos = (arg * stride)[:, :, None] + np.arange(wlen)[None, None, :]
        valid = pos < n
        pos = np.minimum(pos, n - 1)                     # (k, t, wlen)
        coef = -(r[idx_t, pos] - mus[:, None, None]) * 2.0 * inv2s[:, None, None]
        dwin = z[:, :, None] * ex[idx_k, idx_t, pos] * coef
        dr = np.zeros_like(r)
        np.add.at(dr, (np.broadcast_to(idx_t, pos.shape), pos), dwin * valid)
        rows._accumulate(dr)

    return T.wrap_op(data, (rows,), backward, "windowed_pool_terms_blocks")


# -- the fold's helpers before their lean forms -------------------------------


def unit_rows_linalg(a):
    """``pooling._unit_rows`` with the norms from ``np.linalg.norm``."""
    norm = np.linalg.norm(a, axis=1)
    mask = norm > 0
    safe = np.where(mask, norm, 1.0)
    return a / safe[:, None] * mask[:, None], safe, mask


def best_window_take_along(f):
    """Each (kernel, term)'s best window feature of (k, t, w) log-sums,
    taken at the argmax with ``take_along_axis`` -> (argmax, feature)."""
    arg = f.argmax(axis=2)
    return arg, np.take_along_axis(f, arg[:, :, None], axis=2)[:, :, 0]


def window_cover_fresh(n, wcfg, dtype):
    """The 0/1 (positions, windows) cover matrix built for n alone."""
    starts = np.arange(num_windows(n, wcfg)) * wcfg.stride
    pos = np.arange(n)[:, None]
    return ((pos >= starts) & (pos < starts + wcfg.window_len)).astype(dtype)


def windowed_pool_terms_fresh(r, wcfg, bank):
    """Forward value of ``windowed_pool_terms`` on a (t, n) array, with the
    kernel constants and the cover matrix built on the call and the best
    window taken with ``take_along_axis``."""
    mus = bank.mus.astype(r.dtype)
    inv2s = (1.0 / (2.0 * bank.sigmas ** 2)).astype(r.dtype)
    ex = np.subtract(r, mus[:, None, None])
    ex *= ex
    ex *= -inv2s[:, None, None]
    np.exp(ex, out=ex)
    cover = window_cover_fresh(r.shape[1], wcfg, r.dtype)
    e = (ex.reshape(-1, r.shape[1]) @ cover).reshape(len(ex), len(r), -1)
    return best_window_take_along(np.log(bank.eps_log + e))[1].T


def idfs_generator(vocab, terms):
    """``Vocabulary.idfs`` with a generator over the terms."""
    table, unseen = vocab._idf_table
    return np.fromiter((table.get(t, unseen) for t in terms), np.float64,
                       len(terms))


def runs_diff_append(col):
    """``index._runs`` by ``np.diff(prepend=)`` and ``np.append``."""
    starts = np.flatnonzero(np.diff(col, prepend=-1))
    stops = np.append(starts[1:], col.size)
    return starts.tolist(), stops.tolist()


def latent_term_scores_slots(model, terms, doc_enc):
    """``CKModel.latent_term_scores`` with slot and permutation bookkeeping
    on every call, out-of-vocabulary terms or not."""
    lookup = model.vocab.term_to_id.get
    iv = [(i, tid) for i, t in enumerate(terms) if (tid := lookup(t)) is not None]
    pieces = []
    slot = {}
    if iv:
        q_embs = T.embedding(model.embedding, [tid for _, tid in iv])
        rows = interaction_rows(q_embs, doc_enc)
        feats = windowed_pool_terms(rows, model.config, model.bank)
        pieces.append(latent_term_scores(feats, model.head))
        for j, (i, _) in enumerate(iv):
            slot[i] = j
    if len(iv) < len(terms):
        pieces.append(latent_term_scores(
            T.constant(empty_features(model.bank)[None, :]), model.head))
        oov_slot = pieces[0].shape[0] if len(pieces) == 2 else 0
        for i in range(len(terms)):
            slot.setdefault(i, oov_slot)
    combined = pieces[0] if len(pieces) == 1 else T.concat(pieces, axis=0)
    perm = [slot[i] for i in range(len(terms))]
    if perm == list(range(combined.shape[0])):
        return combined
    return T.gather(combined, perm)


def ndrm2_term_scores_asarray(idf, tf, dlen, params, bs_state):
    """``ndrm2_term_scores`` casting each column with ``np.asarray`` before
    its arithmetic."""
    dt = T.default_dtype()
    eps = params.epsilon
    w, b = params.w_dlen, params.b_dlen
    bs_tf = np.asarray(tf, dtype=dt) / (bs_state.mean_tf + eps)
    bs_dl = np.asarray(dlen, dtype=dt) / (bs_state.mean_dlen + eps)
    lin = bs_dl * w.data + b.data
    denom = np.maximum(lin, 0) + (bs_tf + eps)
    num = np.asarray(idf, dtype=dt) * bs_tf
    data = num / denom

    def backward(g):
        glin = -g * num / (denom * denom) * (lin > 0)
        w._accumulate((glin * bs_dl).sum())
        b._accumulate(glin.sum())

    return T.wrap_op(data, (w, b), backward, "ndrm2_term_scores")


def duet_scores_np_sqrt(s_latent, s_explicit, params, mode):
    """``duet_scores`` with each frozen deviation from ``np.sqrt`` and the
    (mean, deviation) pairs passed as tuples."""
    if mode not in ("train", "infer"):
        raise ConfigError(f"unknown duet mode {mode!r}")
    if mode == "train":
        bn_lat, m_l, v_l = T.batch_norm_train(s_latent, params.var_floor)
        bn_exp, m_e, v_e = T.batch_norm_train(s_explicit, params.var_floor)
        mom = params.momentum
        params.bn_latent_mean = mom * params.bn_latent_mean + (1 - mom) * m_l
        params.bn_latent_var = mom * params.bn_latent_var + (1 - mom) * v_l
        params.bn_explicit_mean = mom * params.bn_explicit_mean + (1 - mom) * m_e
        params.bn_explicit_var = mom * params.bn_explicit_var + (1 - mom) * v_e
        return _duet_mix_tuples(bn_lat, bn_exp, params, (0.0, 1.0), (0.0, 1.0))
    floor = params.var_floor
    return _duet_mix_tuples(s_latent, s_explicit, params,
                            (params.bn_latent_mean,
                             float(np.sqrt(max(params.bn_latent_var, floor)))),
                            (params.bn_explicit_mean,
                             float(np.sqrt(max(params.bn_explicit_var, floor)))))


def _duet_mix_tuples(lat, exp, params, lat_norm, exp_norm):
    w1, w2, b = params.w1, params.w2, params.b
    (m_l, d_l), (m_e, d_e) = lat_norm, exp_norm
    bn_lat = (lat.data - m_l) / d_l
    bn_exp = (exp.data - m_e) / d_e
    data = bn_lat * w1.data + bn_exp * w2.data + b.data

    def backward(g):
        lat._accumulate(g * w1.data / d_l)
        exp._accumulate(g * w2.data / d_e)
        w1._accumulate((g * bn_lat).sum())
        w2._accumulate((g * bn_exp).sum())
        b._accumulate(g.sum())

    return T.wrap_op(data, (lat, exp, w1, w2, b), backward, "duet_mix")
