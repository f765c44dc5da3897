"""Tensor ops per document fold and per training step, pinned.

Every op output passes through ``ckrank.tensor.wrap_op``, and per-op
bookkeeping is a large share of what a short document costs to fold, so an
op added to either path fails here, not only in the benchmark.
"""

import pytest
from helpers import micro_config, micro_corpus, tiny_config

import ckrank.tensor as T
from ckrank.corpus import Corpus
from ckrank.index import build_index
from ckrank.model import CKModel
from ckrank.train import TrainInstance, batch_loss


@pytest.fixture
def op_count(monkeypatch):
    calls = []
    wrap_op = T.wrap_op

    def counted(*args, **kwargs):
        calls.append(args[3] if len(args) > 3 else kwargs["name"])
        return wrap_op(*args, **kwargs)

    monkeypatch.setattr(T, "wrap_op", counted)
    return calls


def test_tiny_ndrm3_fold_of_one_document_takes_13_ops(op_count):
    corpus, vocab = micro_corpus()
    one = Corpus()
    one.add(next(iter(corpus)))
    model = CKModel(tiny_config("ndrm3"), vocab)
    index = build_index(one, model)
    assert index.postings
    # embedding (positional add inside), 2 blocks x [conv, attention, FFN],
    # each with its residual layer norm inside, then the query embedding,
    # interaction rows, pooling, head, explicit scores, duet
    assert len(op_count) == 13, op_count


def test_ndrm2_training_step_takes_7_ops(op_count):
    corpus, vocab = micro_corpus()
    doc_ids = sorted(corpus.docs)
    model = CKModel(micro_config("ndrm2"), vocab)
    model.train()
    inst = TrainInstance("Q1", doc_ids[0], doc_ids[1], tuple(doc_ids[2:4]))
    loss, _ = batch_loss(model, [inst], corpus, {"Q1": ["w00", "w01", "w02"]})
    T.backward(loss)
    # explicit scores, segment sum, 2 gathers, RankNet loss, sum, scale
    assert len(op_count) == 7, op_count


def test_tiny_ndrm3_training_step_takes_55_ops(op_count):
    corpus, vocab = micro_corpus()
    doc_ids = sorted(corpus.docs)
    model = CKModel(tiny_config("ndrm3"), vocab)
    model.train()
    inst = TrainInstance("Q1", doc_ids[0], doc_ids[1], tuple(doc_ids[2:4]))
    loss, _ = batch_loss(model, [inst], corpus, {"Q1": ["w00", "w01", "w02"]})
    T.backward(loss)
    # 4 documents x [embedding, 2 blocks x (conv, attention, FFN, each with
    # its dropout and residual layer norm inside), query embedding,
    # interaction rows, pooling, head] = 44, then concat, explicit scores,
    # 2 batch norms, duet, segment sum, 2 gathers, RankNet loss, sum,
    # scale = 11
    assert len(op_count) == 55, op_count
