"""BM25 folded into an impact index and searched by ``retrieve``, as the neural
rankers are, plus a small tuning grid. Scores stay float64, so rankings equal
those of a term-at-a-time sum of Python floats."""

import numpy as np

from .evalmetrics import evaluate
from .index import ImpactIndex, retrieve


def _term_postings(corpus):
    """Doc ids, their lengths and term -> (doc indices, tf) rows: the parts
    of a BM25 index that do not depend on k1 and b."""
    doc_ids = list(corpus.docs)
    lengths = np.array([corpus.get(d).length for d in doc_ids], dtype=np.float64)
    lists = {}
    for doc_idx, doc_id in enumerate(doc_ids):
        for term, tf in corpus.get(doc_id).tf.items():
            idx, tfs = lists.setdefault(term, ([], []))
            idx.append(doc_idx)
            tfs.append(tf)
    postings = {t: np.array(p, dtype=np.int64) for t, p in lists.items()}
    return doc_ids, lengths, postings


def _bm25_index(term_postings, vocab, k1, b):
    """Score every posting of ``_term_postings(corpus)`` at (k1, b)."""
    doc_ids, lengths, postings = term_postings
    norm = k1 * (1.0 - b + b * lengths / max(vocab.mean_dlen, 1e-9))
    impacts = {term: (idx, vocab.idf(term) * tf * (k1 + 1.0) / (tf + norm[idx]))
               for term, (idx, tf) in postings.items()}
    return ImpactIndex(doc_ids, impacts, "bm25", {"k1": k1, "b": b})


class BM25Searcher:
    """BM25 over a whole corpus, searched term-at-a-time by ``retrieve``."""

    def __init__(self, corpus, vocab, k1=0.9, b=0.4):
        self.index = _bm25_index(_term_postings(corpus), vocab, k1, b)

    def search(self, query_tokens, k=100):
        """Top-k (doc id, score), score descending, doc id ascending on ties."""
        return retrieve(query_tokens, self.index, k).ranking


def tune_bm25(corpus, vocab, queries, qrels, k1_grid=(0.6, 0.9, 1.2, 1.5),
              b_grid=(0.2, 0.4, 0.6, 0.75), cutoff=10, k=100):
    """Grid-search (k1, b) by mean NDCG at the cutoff; returns the best
    (k1, b, ndcg)."""
    term_postings = _term_postings(corpus)
    best = None
    for k1 in k1_grid:
        for b in b_grid:
            index = _bm25_index(term_postings, vocab, k1, b)
            run = {q.query_id: retrieve(q.tokens, index, k).ranking for q in queries}
            _, mean, _ = evaluate(run, qrels, "ndcg", cutoff)
            if best is None or mean > best[2]:
                best = (k1, b, mean)
    return best
