"""Ranking metrics over TREC-style runs: NDCG, NCG, AP, and RR at a cutoff.

Gains are exponential (2^rel - 1) for both NDCG and NCG; AP and RR
binarize at a configurable relevance threshold (default 2, the usual
convention for 0-3 graded labels). AP divides by the total number of
relevant documents, not the cutoff.
"""

import math

from .errors import ConfigError

BINARY_REL_THRESHOLD = 2

METRICS = ("ndcg", "ncg", "ap", "rr")


def _gain(rel):
    return (1 << rel) - 1 if rel > 0 else 0


def ndcg_at_k(ranked_ids, qrel, k):
    dcg = 0.0
    for i, doc_id in enumerate(ranked_ids[:k], start=1):
        g = _gain(qrel.get(doc_id, 0))
        if g:
            dcg += g / math.log2(i + 1)
    ideal = sorted((r for r in qrel.values() if r > 0), reverse=True)
    idcg = sum(_gain(r) / math.log2(i + 1) for i, r in enumerate(ideal[:k], start=1))
    return dcg / idcg if idcg > 0 else 0.0


def ncg_at_k(ranked_ids, qrel, k):
    got = sum(_gain(qrel.get(doc_id, 0)) for doc_id in ranked_ids[:k])
    ideal = sorted((r for r in qrel.values() if r > 0), reverse=True)
    best = sum(_gain(r) for r in ideal[:k])
    return got / best if best > 0 else 0.0


def ap_at_k(ranked_ids, qrel, k, threshold=BINARY_REL_THRESHOLD):
    relevant = {d for d, r in qrel.items() if r >= threshold}
    if not relevant:
        return 0.0
    hits = 0
    total = 0.0
    for i, doc_id in enumerate(ranked_ids[:k], start=1):
        if doc_id in relevant:
            hits += 1
            total += hits / i
    return total / len(relevant)


def rr_at_k(ranked_ids, qrel, k, threshold=BINARY_REL_THRESHOLD):
    for i, doc_id in enumerate(ranked_ids[:k], start=1):
        if qrel.get(doc_id, 0) >= threshold:
            return 1.0 / i
    return 0.0


_METRIC_FNS = {"ndcg": ndcg_at_k, "ncg": ncg_at_k, "ap": ap_at_k, "rr": rr_at_k}


def evaluate(run, qrels, metric, cutoff):
    """Score every run query that has judgments.

    run: {qid: [(doc_id, score), ...]} already sorted best-first.
    Returns (per_query dict, mean, skipped) where skipped counts run
    queries absent from the qrels.
    """
    if metric not in _METRIC_FNS:
        raise ConfigError(f"unknown metric {metric!r}; choose from {METRICS}")
    if type(cutoff) is not int or cutoff < 1:
        raise ConfigError(f"cutoff must be an integer >= 1, not {cutoff!r}")
    fn = _METRIC_FNS[metric]
    per_query = {}
    skipped = 0
    for qid, ranking in run.items():
        if qid not in qrels:
            skipped += 1
            continue
        per_query[qid] = fn([doc_id for doc_id, _ in ranking], qrels[qid], cutoff)
    mean = sum(per_query.values()) / len(per_query) if per_query else 0.0
    return per_query, mean, skipped


def write_per_query_csv(per_query, mean, metric, cutoff, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("query_id,metric,cutoff,value\n")
        for qid in sorted(per_query):
            fh.write(f"{qid},{metric},{cutoff},{per_query[qid]:.6f}\n")
        fh.write(f"all,{metric},{cutoff},{mean:.6f}\n")
