"""BM25 folded into an impact index and searched by ``retrieve``, as the neural
rankers are, plus a small tuning grid. Scores stay float64, so rankings equal
those of a term-at-a-time sum of Python floats."""

import numpy as np

from .evalmetrics import evaluate
from .index import ImpactIndex, posting_table, retrieve, split_postings


def _bm25_index(table, vocab, k1, b):
    """Score every posting of ``posting_table(corpus)`` at (k1, b)."""
    doc_ids, lengths, terms, counts, doc_idx, tf = table
    norm = k1 * (1.0 - b + b * lengths / max(vocab.mean_dlen, 1e-9))
    idf = np.repeat([vocab.idf(term) for term in terms], counts)
    impacts = idf * tf * (k1 + 1.0) / (tf + norm[doc_idx])
    return ImpactIndex(doc_ids, split_postings(terms, counts, doc_idx, impacts),
                       "bm25", {"k1": k1, "b": b})


class BM25Searcher:
    """BM25 over a whole corpus, searched term-at-a-time by ``retrieve``."""

    def __init__(self, corpus, vocab, k1=0.9, b=0.4):
        self.index = _bm25_index(posting_table(corpus), vocab, k1, b)

    def search(self, query_tokens, k=100):
        """Top-k (doc id, score), score descending, doc id ascending on ties."""
        return retrieve(query_tokens, self.index, k).ranking


def tune_bm25(corpus, vocab, queries, qrels, k1_grid=(0.6, 0.9, 1.2, 1.5),
              b_grid=(0.2, 0.4, 0.6, 0.75), cutoff=10, k=100):
    """Grid-search (k1, b) by mean NDCG at the cutoff; returns the best
    (k1, b, ndcg)."""
    table = posting_table(corpus)
    best = None
    for k1 in k1_grid:
        for b in b_grid:
            index = _bm25_index(table, vocab, k1, b)
            run = {q.query_id: retrieve(q.tokens, index, k).ranking for q in queries}
            _, mean, _ = evaluate(run, qrels, "ndcg", cutoff)
            if best is None or mean > best[2]:
                best = (k1, b, mean)
    return best
