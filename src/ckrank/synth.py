"""Deterministic synthetic retrieval collection for tests and experiments.

Documents are drawn from topic-specific term distributions plus shared
filler terms. Each query names one topic; a handful of docs per query get
query terms injected at controlled coverage, and graded relevance follows
measured term overlap (full coverage 3, two-thirds 2, one-third 1). That
makes lexical overlap the ground-truth signal, which is what the explicit
matcher and BM25 are built to exploit and what the latent matcher must
learn.
"""

from dataclasses import dataclass, field

import numpy as np

from .bm25 import BM25Searcher
from .corpus import Corpus, DocumentRecord, QueryRecord, Vocabulary
from .errors import ConfigError

# Query-term coverage of the documents each query plants: 2 docs with all
# terms, 3 with ~2/3, 3 with ~1/3. Planted documents are drawn without
# replacement, so each query uses up one document per entry.
_COVERAGE_PLAN = (1.0, 1.0, 0.67, 0.67, 0.67, 0.34, 0.34, 0.34)


@dataclass
class SyntheticData:
    corpus: Corpus
    vocab: Vocabulary
    train_queries: list
    eval_queries: list
    train_qrels: dict
    eval_qrels: dict
    candidates: dict = field(default_factory=dict)
    triples: list = field(default_factory=list)

    def query_tokens(self):
        return {q.query_id: q.tokens for q in self.train_queries + self.eval_queries}


def _topic_terms(num_topics, terms_per_topic):
    return [[f"t{p:02d}w{j:02d}" for j in range(terms_per_topic)]
            for p in range(num_topics)]


def _sample_doc(rng, topics, fillers, primary, length):
    secondary = (primary + 1 + rng.integers(len(topics) - 1)) % len(topics)
    # zipf-ish weights inside a topic so some terms are common, some rare
    weights = 1.0 / np.arange(1, len(topics[primary]) + 1)
    weights /= weights.sum()
    tokens = []
    for _ in range(length):
        u = rng.random()
        if u < 0.60:
            tokens.append(topics[primary][rng.choice(len(weights), p=weights)])
        elif u < 0.75:
            tokens.append(topics[secondary][rng.choice(len(weights), p=weights)])
        else:
            tokens.append(fillers[rng.integers(len(fillers))])
    return tokens


def make_synthetic(seed=0, num_docs=5000, num_topics=40, terms_per_topic=30,
                   num_train_queries=100, num_eval_queries=60,
                   doc_len=(40, 80), topk_candidates=100):
    total_queries = num_train_queries + num_eval_queries
    if len(_COVERAGE_PLAN) * total_queries > num_docs:
        raise ConfigError(f"{total_queries} queries plant {len(_COVERAGE_PLAN)} "
                          f"documents each, more than num_docs={num_docs}")
    rng = np.random.default_rng(seed)
    topics = _topic_terms(num_topics, terms_per_topic)
    fillers = [f"fill{j:03d}" for j in range(120)]

    corpus = Corpus()
    doc_topics = []
    for i in range(num_docs):
        primary = int(rng.integers(num_topics))
        length = int(rng.integers(doc_len[0], doc_len[1] + 1))
        corpus.add(DocumentRecord(f"D{i:05d}",
                                  _sample_doc(rng, topics, fillers, primary, length)))
        doc_topics.append(primary)
    doc_topics = np.array(doc_topics)

    # queries + planted relevant docs with graded coverage
    plant_pool = rng.permutation(num_docs).tolist()
    pool_cursor = 0
    queries = []
    qrels = {}
    for qi in range(total_queries):
        topic = int(rng.integers(num_topics))
        nq = int(rng.integers(3, 7))
        q_terms = [topics[topic][j] for j in
                   rng.choice(terms_per_topic, size=nq, replace=False)]
        split = "T" if qi < num_train_queries else "E"
        qid = f"Q{split}{qi:03d}"
        queries.append(QueryRecord(qid, q_terms))
        per_query = {}
        for coverage in _COVERAGE_PLAN:
            doc_i = plant_pool[pool_cursor]
            pool_cursor += 1
            doc = corpus.get(f"D{doc_i:05d}")
            take = max(1, round(coverage * nq))
            chosen = [q_terms[j] for j in rng.choice(nq, size=take, replace=False)]
            inject = []
            for term in chosen:
                inject.extend([term] * int(rng.integers(1, 4)))
            positions = rng.choice(len(doc.tokens), size=min(len(inject),
                                   len(doc.tokens)), replace=False)
            for pos, term in zip(positions, inject):
                doc.tokens[pos] = term
            if "tf" in doc.__dict__:
                del doc.__dict__["tf"]
            got = len(set(q_terms) & set(doc.tokens)) / nq
            rel = 3 if got >= 0.99 else (2 if got >= 0.6 else (1 if got >= 0.25 else 0))
            if rel:
                per_query[doc.doc_id] = rel
        qrels[qid] = per_query

    vocab = Vocabulary.build(corpus, min_df=2)
    train_queries = queries[:num_train_queries]
    eval_queries = queries[num_train_queries:]
    train_qrels = {q.query_id: qrels[q.query_id] for q in train_queries}
    eval_qrels = {q.query_id: qrels[q.query_id] for q in eval_queries}

    searcher = BM25Searcher(corpus, vocab)
    candidates = {q.query_id: [d for d, _ in searcher.search(q.tokens,
                                                             k=topk_candidates)]
                  for q in train_queries}
    triples = [(q.query_id, doc_id)
               for q in train_queries
               for doc_id, rel in sorted(train_qrels[q.query_id].items())
               if rel >= 2]

    return SyntheticData(corpus, vocab, train_queries, eval_queries,
                         train_qrels, eval_qrels, candidates, triples)


def write_tsv_corpus(corpus, docs_path):
    """Materialize a corpus as the tab-separated ingest format (title gets
    the first five tokens, body the rest; url left empty)."""
    with open(docs_path, "w", encoding="utf-8") as fh:
        for doc_id in sorted(corpus.docs):
            doc = corpus.get(doc_id)
            title = " ".join(doc.tokens[:5])
            body = " ".join(doc.tokens[5:])
            fh.write(f"{doc_id}\t\t{title}\t{body}\n")


def write_queries_tsv(queries, path):
    with open(path, "w", encoding="utf-8") as fh:
        for q in queries:
            fh.write(f"{q.query_id}\t{' '.join(q.tokens)}\n")


def write_qrels(qrels, path):
    with open(path, "w", encoding="utf-8") as fh:
        for qid in sorted(qrels):
            for doc_id, rel in sorted(qrels[qid].items()):
                fh.write(f"{qid} 0 {doc_id} {rel}\n")


def write_candidates(candidates, path):
    with open(path, "w", encoding="utf-8") as fh:
        for qid in sorted(candidates):
            for rank, doc_id in enumerate(candidates[qid], start=1):
                fh.write(f"{qid} {doc_id} {rank}\n")


def write_triples(triples, path):
    with open(path, "w", encoding="utf-8") as fh:
        for qid, doc_id in triples:
            fh.write(f"{qid}\t{doc_id}\n")
