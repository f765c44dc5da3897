"""Shared builders for the test suite: small model profiles and mini corpora."""

import numpy as np
import refops as R

import ckrank.tensor as T
from ckrank.corpus import Corpus, DocumentRecord, Vocabulary
from ckrank.index import ImpactIndex
from ckrank.model import ModelConfig
from ckrank.pooling import head_param_specs

# Scaled-down profile used for trained models in the slower tests.  Same
# structure as the default (two conformer layers, grouped conv, multi-head
# separable attention) but small enough to train on one CPU in seconds.
TINY_KWARGS = dict(
    model_dim=32,
    num_heads=2,
    d_key=16,
    d_value=16,
    conv_window=7,
    conv_groups=4,
    dropout_rate=0.1,
    num_layers=2,
    window_len=30,
    stride=10,
)

# Even smaller profile for finite-difference checks (single layer, no dropout).
MICRO_KWARGS = dict(
    model_dim=8,
    num_heads=2,
    d_key=4,
    d_value=4,
    conv_window=3,
    conv_groups=2,
    dropout_rate=0.0,
    num_layers=1,
    window_len=8,
    stride=4,
)


def tiny_config(variant, **overrides):
    kwargs = dict(TINY_KWARGS)
    kwargs.update(overrides)
    kwargs.setdefault("seed", 0)
    return ModelConfig(variant=variant, **kwargs)


def micro_config(variant, **overrides):
    kwargs = dict(MICRO_KWARGS)
    kwargs.update(overrides)
    kwargs.setdefault("seed", 0)
    return ModelConfig(variant=variant, **kwargs)


def init_head_params(rng, k):
    """A freshly drawn scoring head over k kernel features."""
    return T.init_parameters(head_param_specs(k), rng)


def micro_corpus(seed=0, num_docs=24, vocab_terms=40, doc_len=(6, 18)):
    """Random small corpus; every term appears in several docs so min_df keeps it."""
    rng = np.random.default_rng(seed)
    terms = [f"w{i:02d}" for i in range(vocab_terms)]
    corpus = Corpus()
    for i in range(num_docs):
        length = int(rng.integers(doc_len[0], doc_len[1] + 1))
        tokens = [terms[int(j)] for j in rng.integers(0, vocab_terms, size=length)]
        corpus.add(DocumentRecord(doc_id=f"M{i:03d}", tokens=tokens))
    vocab = Vocabulary.build(corpus)
    return corpus, vocab


def value_and_grads(build, arrays, mix_seed=0):
    """build(params) -> Tensor; its value and the gradient of
    sum(value * mix) for every array, as leaf tensors built fresh."""
    params = {name: T.parameter(a) for name, a in arrays.items()}
    out = build(params)
    mix = np.random.default_rng(mix_seed).normal(size=out.shape)
    T.backward(T.tsum(R.mul(out, T.constant(mix))))
    grads = {name: (np.zeros_like(p.data) if p.grad is None else p.grad)
             for name, p in params.items()}
    return out.numpy(), grads


def index_from_postings(doc_ids, postings, config_hash="hash", stats=(),
                        max_query_tokens=None):
    """An ImpactIndex over term -> (doc indices, scores) lists: the terms
    sorted and their lists joined into the two columns as given, so the
    index's own check sees them unchanged (int64 doc indices unless some
    list holds another integer type; float32 scores unless some list holds
    float64)."""
    terms = sorted(postings)
    doc_idx = [np.asarray(postings[t][0]) for t in terms]
    scores = [np.asarray(postings[t][1]) for t in terms]
    return ImpactIndex(doc_ids, terms, [d.size for d in doc_idx],
                       np.concatenate(doc_idx + [np.zeros(0, np.int64)]),
                       np.concatenate(scores + [np.zeros(0, np.float32)]),
                       config_hash, stats, max_query_tokens)
