"""Pairwise training: mixed negative sampling, RankNet loss, Adam updates.

Each training instance holds one judged-positive document, one negative
drawn from the query's provided top-100 candidates, and two negatives drawn
uniformly from the collection. An instance expands into exactly five
ordered pairs: the positive beats all three negatives, and the candidate
negative beats both collection negatives (weak supervision: retrieved but
unjudged documents are likelier relevant than random ones).

Batches average pair losses. Gradients are clipped at a global norm before
each Adam step; any non-finite value aborts with diagnostics rather than
silently corrupting parameters.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, NonFiniteError, ShapeError, \
    TrainingDiverged
from .model import _finite_real, check_numbers

DOCS_PER_INSTANCE = 4  # positive, candidate negative, two collection negatives
PAIRS_PER_INSTANCE = 5


@dataclass
class TrainInstance:
    query_id: str
    positive: str
    candidate_negative: str
    collection_negatives: tuple

    def __post_init__(self):
        self.collection_negatives = tuple(self.collection_negatives)
        if len(self.collection_negatives) != 2:
            raise ContractError("an instance needs exactly two collection negatives")
        docs = (self.positive, self.candidate_negative) + self.collection_negatives
        if len(set(docs)) != DOCS_PER_INSTANCE:
            raise ContractError(f"instance documents must be distinct, got {docs}")

    @property
    def doc_ids(self):
        return (self.positive, self.candidate_negative) + self.collection_negatives


@dataclass
class TrainPair:
    query_id: str
    preferred: str
    other: str


# The pair rule, which expand_pairs and batch_loss both read: one
# (preferred, other) row of doc slots per pair, positive-first, where the
# slots of an instance are 0=pos, 1=cand, 2=coll1, 3=coll2
_PAIR_SLOTS = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def expand_pairs(inst):
    """The five ordered pairs of one instance, positive-first."""
    docs = inst.doc_ids
    return [TrainPair(inst.query_id, docs[a], docs[b]) for a, b in _PAIR_SLOTS]


def ranknet_loss(s_pref, s_other):
    """log(1 + exp(-(s_pref - s_other))), elementwise, overflow-safe, as one
    op: the softplus of d = s_other - s_pref, whose gradient sigmoid(d) goes
    to s_other and its negation to s_pref."""
    if s_pref.shape != s_other.shape:
        raise ShapeError(f"ranknet_loss: shapes {tuple(s_pref.shape)} and "
                         f"{tuple(s_other.shape)} differ")
    d = s_other._data - s_pref._data
    data = np.log1p(np.exp(-np.abs(d))) + np.maximum(d, 0)

    def backward(g):
        with np.errstate(over="ignore"):
            g_d = g * (1.0 / (1.0 + np.exp(-d)))
        s_other._accumulate(g_d)
        s_pref._accumulate(-g_d)

    return T.wrap_op(data, (s_other, s_pref), backward, "ranknet_loss",
                     saved=(d,))


# -- data plumbing ---------------------------------------------------------------


def load_triples(path):
    """Tab-separated (query id, positive doc id) lines."""
    triples = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if len(parts) >= 2 and parts[0]:
                triples.append((parts[0], parts[1]))
    return triples


def load_candidates(path):
    """Whitespace-separated (query id, doc id, rank) lines -> {qid: [doc ids]}."""
    ranked = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) >= 3:
                ranked.setdefault(parts[0], []).append((int(parts[2]), parts[1]))
    return {qid: [doc for _, doc in sorted(pairs)] for qid, pairs in ranked.items()}


def make_instances(triples, candidates, corpus, rng):
    """Sample one candidate negative and two collection negatives per triple.

    Triples whose query has no usable candidates, or whose documents are
    missing from the corpus, are skipped. A corpus of fewer than
    DOCS_PER_INSTANCE documents cannot hold an instance and is refused.
    """
    all_ids = sorted(corpus.docs)
    if len(all_ids) < DOCS_PER_INSTANCE:
        raise ContractError(f"an instance needs {DOCS_PER_INSTANCE} distinct "
                            f"documents, the corpus has {len(all_ids)}")
    positives_by_query = {}
    for qid, pos in triples:
        positives_by_query.setdefault(qid, set()).add(pos)
    docs = corpus.docs
    pools = {}
    instances = []
    for qid, pos in triples:
        if pos not in docs:
            continue
        pool = pools.get(qid)
        if pool is None:
            positives = positives_by_query[qid]
            pool = pools[qid] = [d for d in candidates.get(qid, ())
                                 if d in docs and d not in positives]
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


# -- optimizer --------------------------------------------------------------------


class Adam:
    """Adaptive-moment optimizer over the model's named parameters."""

    def __init__(self, params, lr=1e-4, betas=(0.9, 0.999), eps=1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.drop_grad()

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / bias1
            v_hat = self.v[name] / bias2
            p.data[...] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_gradients(params, max_norm):
    """Scale all gradients so their joint L2 norm is at most max_norm (0:
    leave them as they are); returns the norm before scaling."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


# -- the loop ---------------------------------------------------------------------


# TrainConfig's rules, as ModelConfig states its own: the least value of
# each integer field, and the range of each real field
_TRAIN_INTEGER_MINIMA = {"batch_size": 1, "steps": 1, "seed": 0}
_TRAIN_REAL_RULES = {"lr": (lambda v: v >= 0, ">= 0"),
                     "clip_norm": (lambda v: v >= 0, ">= 0 (0 turns clipping off)")}


@dataclass
class TrainConfig:
    """Optimizer settings. Construction refuses a field out of type or range
    with a ConfigError: ``_TRAIN_INTEGER_MINIMA``, ``_TRAIN_REAL_RULES``,
    and betas a pair of finite reals in [0, 1). An lr of 0 leaves the
    parameters as they are (the running statistics still move), and a
    clip_norm of 0 leaves the gradients unclipped."""
    batch_size: int = 32
    steps: int = 500
    lr: float = 1e-4
    betas: tuple = (0.9, 0.999)
    clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_numbers(self, _TRAIN_INTEGER_MINIMA, _TRAIN_REAL_RULES)
        betas = self.betas
        if not (isinstance(betas, (tuple, list)) and len(betas) == 2
                and all(_finite_real(b) and 0 <= b < 1 for b in betas)):
            raise ConfigError(f"betas must be a pair of finite real numbers in "
                              f"[0, 1), not {betas!r}")


@dataclass
class TrainResult:
    loss_trace: list = field(default_factory=list)
    steps: int = 0


def batch_loss(model, instances, corpus, query_tokens):
    """Score every instance document, expand pairs, return (loss, stats).

    Each document is scored against the query terms the model reads
    (``CKModel.query_terms``, the cap ``rerank`` and ``retrieve`` apply),
    the whole batch as one ``column_scores`` column. stats carries the
    observed (tf, dlen) values feeding the running scale means, gathered
    during graph construction so updates happen post-step.
    """
    if not instances:
        raise ContractError("batch_loss needs at least one instance")
    docs, terms = [], []
    for inst in instances:
        query = model.query_terms(query_tokens[inst.query_id])
        if not query:
            raise ContractError(f"query {inst.query_id} has no tokens within "
                                "the model's query cap")
        docs.extend(map(corpus.get, inst.doc_ids))
        terms.extend([query] * DOCS_PER_INSTANCE)
    explicit = model.explicit_stats(docs, terms) if model.needs_explicit else None
    scores = model.column_scores(docs, terms, explicit)
    seg_ids = np.arange(len(docs)).repeat(list(map(len, terms)))
    totals = T.segment_sum(scores, seg_ids, len(docs))
    slots = (np.arange(len(instances)) * DOCS_PER_INSTANCE)[:, None, None] + \
        _PAIR_SLOTS                                   # (instances, pairs, 2)
    losses = ranknet_loss(T.gather(totals, slots[..., 0].ravel()),
                          T.gather(totals, slots[..., 1].ravel()))
    if explicit is None:
        return T.tmean(losses), ([], [])
    tf = explicit[1]
    return T.tmean(losses), (tf[tf > 0].tolist(), [doc.length for doc in docs])


def train(model, corpus, query_tokens, instances, cfg, trace_path=None):
    """Run cfg.steps optimizer steps over shuffled instances; returns the
    per-step mean-loss trace. Raises TrainingDiverged on non-finite values."""
    model.train()
    opt = Adam(model.parameters(), lr=cfg.lr, betas=cfg.betas)
    rng = np.random.default_rng(cfg.seed)
    order = np.arange(len(instances))
    result = TrainResult()
    cursor = 0
    for step in range(cfg.steps):
        if cursor == 0:
            rng.shuffle(order)
        batch = [instances[i] for i in
                 order[cursor:cursor + cfg.batch_size]]
        cursor += cfg.batch_size
        if cursor >= len(order):
            cursor = 0
        if not batch:
            raise ContractError("no training instances available")
        opt.zero_grad()
        try:
            loss, (tf_seen, dlen_seen) = batch_loss(model, batch, corpus,
                                                    query_tokens)
            value = loss.item()
            T.backward(loss)
        except NonFiniteError as err:
            raise TrainingDiverged(
                f"non-finite value at step {step}: {err}", batch_index=step,
                param_norms=_param_norms(model)) from err
        if not math.isfinite(value):
            raise TrainingDiverged(f"non-finite loss at step {step}",
                                   batch_index=step,
                                   param_norms=_param_norms(model))
        clip_gradients(opt.params, cfg.clip_norm)
        opt.step()
        model.update_bs_stats(tf_seen, dlen_seen)
        result.loss_trace.append(value)
        result.steps += 1
    model.eval()
    if trace_path:
        write_loss_trace(result.loss_trace, trace_path)
    return result


def _param_norms(model):
    return {name: float(np.linalg.norm(p.data))
            for name, p in model.parameters().items()}


def write_loss_trace(trace, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,mean_loss\n")
        for step, value in enumerate(trace):
            fh.write(f"{step},{value:.6f}\n")
