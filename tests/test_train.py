"""Pair expansion, RankNet loss, optimizer mechanics, and the training loop."""

import math

import numpy as np
import pytest
from helpers import micro_config, micro_corpus
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import batch_loss_per_document, make_instances_pool_per_triple

import ckrank.tensor as T
from ckrank.corpus import Corpus, DocumentRecord
from ckrank.errors import ConfigError, ContractError, TrainingDiverged
from ckrank.model import CKModel
from ckrank.train import (DOCS_PER_INSTANCE, PAIRS_PER_INSTANCE, Adam,
                          TrainConfig, TrainInstance, batch_loss,
                          clip_gradients, expand_pairs, load_candidates,
                          load_triples, make_instances, ranknet_loss, train,
                          write_loss_trace)


def instance(qid="Q1", pos="P", cand="C", coll=("N1", "N2")):
    return TrainInstance(qid, pos, cand, coll)


@pytest.fixture(scope="module")
def training_setup():
    """Micro corpus with synthetic queries/instances for loop tests."""
    corpus, vocab = micro_corpus(num_docs=30)
    doc_ids = sorted(corpus.docs)
    rng = np.random.default_rng(4)
    query_tokens = {}
    instances = []
    for i in range(8):
        qid = f"Q{i}"
        query_tokens[qid] = [f"w{rng.integers(40):02d}" for _ in range(3)]
        pos, cand, n1, n2 = rng.choice(len(doc_ids), size=4, replace=False)
        instances.append(TrainInstance(qid, doc_ids[pos], doc_ids[cand],
                                       (doc_ids[n1], doc_ids[n2])))
    return corpus, vocab, query_tokens, instances


# -- instance and pair structure -----------------------------------------------------


def test_instance_validation():
    inst = instance()
    assert inst.doc_ids == ("P", "C", "N1", "N2")
    with pytest.raises(ContractError):
        instance(coll=("N1",))
    with pytest.raises(ContractError):
        instance(coll=("N1", "N1"))
    with pytest.raises(ContractError):
        instance(pos="X", cand="X")


def test_expand_pairs_structure():
    pairs = expand_pairs(instance())
    assert len(pairs) == PAIRS_PER_INSTANCE == 5
    assert DOCS_PER_INSTANCE == 4
    as_tuples = [(p.preferred, p.other) for p in pairs]
    assert as_tuples == [("P", "C"), ("P", "N1"), ("P", "N2"),
                         ("C", "N1"), ("C", "N2")]
    assert all(p.query_id == "Q1" for p in pairs)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_expand_pairs_properties(seed):
    rng = np.random.default_rng(seed)
    names = [f"D{i}" for i in rng.choice(1000, size=4, replace=False)]
    inst = TrainInstance("Q", names[0], names[1], tuple(names[2:]))
    pairs = expand_pairs(inst)
    assert len(pairs) == 5
    preferred = [p.preferred for p in pairs]
    assert preferred.count(inst.positive) == 3
    assert preferred.count(inst.candidate_negative) == 2
    for p in pairs:
        assert p.preferred != p.other
        # no pair ever prefers a collection negative or compares the two
        assert p.preferred not in inst.collection_negatives
    others = [p.other for p in pairs]
    assert others.count(inst.positive) == 0


# -- ranknet loss -----------------------------------------------------------------


def test_ranknet_fixed_values():
    pref = T.constant(np.array([0.0, 1.0, 20.0], dtype=np.float64),
                      dtype=np.float64)
    other = T.constant(np.zeros(3, dtype=np.float64), dtype=np.float64)
    losses = ranknet_loss(pref, other).numpy()
    assert losses[0] == pytest.approx(math.log(2.0), abs=1e-12)
    assert losses[1] == pytest.approx(0.3132616875182228, abs=1e-12)
    assert losses[2] == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-8)
    assert losses[2] < 1e-8


def test_ranknet_decreasing_in_gap():
    gaps = np.linspace(-5, 5, 21)
    losses = ranknet_loss(T.constant(gaps), T.constant(np.zeros(21))).numpy()
    assert np.all(np.diff(losses) < 0)
    assert np.all(losses > 0)


# -- file plumbing -----------------------------------------------------------------


def test_load_triples(tmp_path):
    path = tmp_path / "triples.tsv"
    path.write_text("Q1\tD1\nQ2\tD5\n\nbad\n")
    assert load_triples(path) == [("Q1", "D1"), ("Q2", "D5")]


def test_load_candidates_sorted_by_rank(tmp_path):
    path = tmp_path / "cand.txt"
    path.write_text("Q1 D3 2\nQ1 D9 1\nQ2 D1 1\nshort\n")
    cands = load_candidates(path)
    assert cands == {"Q1": ["D9", "D3"], "Q2": ["D1"]}


def test_make_instances_sampling(training_setup):
    corpus, _, _, _ = training_setup
    doc_ids = sorted(corpus.docs)
    triples = [("Q1", doc_ids[0]), ("Q1", doc_ids[1]), ("Q2", "MISSING"),
               ("Q3", doc_ids[2])]
    candidates = {"Q1": [doc_ids[0], doc_ids[1], doc_ids[5], doc_ids[6]],
                  "Q3": ["ALSO_MISSING"]}
    rng = np.random.default_rng(0)
    instances = make_instances(triples, candidates, corpus, rng)
    # Q2's positive is missing; Q3 has no in-corpus candidates
    assert [i.query_id for i in instances] == ["Q1", "Q1"]
    for inst in instances:
        # candidate negatives never come from the query's own positives
        assert inst.candidate_negative in {doc_ids[5], doc_ids[6]}
        assert len(set(inst.doc_ids)) == 4


def test_make_instances_deterministic(training_setup):
    corpus, _, _, _ = training_setup
    doc_ids = sorted(corpus.docs)
    triples = [("Q1", doc_ids[0])]
    candidates = {"Q1": doc_ids[:10]}
    a = make_instances(triples, candidates, corpus, np.random.default_rng(5))
    b = make_instances(triples, candidates, corpus, np.random.default_rng(5))
    assert a == b


def test_make_instances_refuses_corpus_too_small_for_an_instance():
    corpus = Corpus()
    for doc_id in ("D0", "D1", "D2"):
        corpus.add(DocumentRecord(doc_id=doc_id, tokens=["a", "b"]))
    with pytest.raises(ContractError, match="distinct documents"):
        make_instances([("Q1", "D0")], {"Q1": ["D1"]}, corpus,
                       np.random.default_rng(0))


# -- optimizer -----------------------------------------------------------------


def test_adam_first_step_is_signed_lr():
    p = T.parameter(np.array([1.0, -2.0]))
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.array([0.5, -3.0], dtype=p.dtype)
    opt.step()
    # bias-corrected first step moves by ~lr against the gradient sign
    np.testing.assert_allclose(p.numpy(), [1.0 - 0.1, -2.0 + 0.1], rtol=1e-5)


def test_adam_skips_gradless_params():
    p = T.parameter(np.ones(3))
    q = T.parameter(np.ones(3))
    opt = Adam({"p": p, "q": q}, lr=0.1)
    p.grad = np.ones(3, dtype=p.dtype)
    opt.step()
    np.testing.assert_array_equal(q.numpy(), np.ones(3))
    assert not np.allclose(p.numpy(), np.ones(3))


def test_adam_zero_grad():
    p = T.parameter(np.ones(3))
    opt = Adam({"p": p})
    p.grad = np.ones(3, dtype=p.dtype)
    opt.zero_grad()
    assert p.grad is None


def test_clip_gradients_global_norm():
    p = T.parameter(np.zeros(3))
    q = T.parameter(np.zeros(4))
    p.grad = np.full(3, 2.0, dtype=p.dtype)
    q.grad = np.full(4, 2.0, dtype=q.dtype)
    norm = clip_gradients({"p": p, "q": q}, max_norm=1.0)
    assert norm == pytest.approx(math.sqrt(28.0))
    joint = math.sqrt(float((p.grad ** 2).sum() + (q.grad ** 2).sum()))
    assert joint == pytest.approx(1.0, rel=1e-6)


def test_clip_gradients_no_op_below_norm():
    p = T.parameter(np.zeros(2))
    p.grad = np.array([0.3, 0.4], dtype=p.dtype)
    norm = clip_gradients({"p": p}, max_norm=1.0)
    assert norm == pytest.approx(0.5)
    np.testing.assert_allclose(p.grad, [0.3, 0.4])


# -- batch loss and the loop ---------------------------------------------------------


def test_batch_loss_positive_scalar(training_setup):
    corpus, vocab, query_tokens, instances = training_setup
    model = CKModel(micro_config("ndrm2"), vocab)
    model.train()
    loss, (tf_seen, dlen_seen) = batch_loss(model, instances[:2], corpus,
                                            query_tokens)
    assert loss.size == 1
    assert loss.item() > 0.0
    assert len(dlen_seen) == 2 * DOCS_PER_INSTANCE
    assert all(tf > 0 for tf in tf_seen)


@pytest.mark.parametrize("variant", ["ndrm2", "ndrm3"])
def test_batch_loss_matches_per_document_oracle(training_setup, variant):
    corpus, vocab, query_tokens, instances = training_setup
    with T.precision("float64"):
        model = CKModel(micro_config(variant, dropout_rate=0.0), vocab)
        model.train()
        model.explicit.w_dlen.data[...] = 0.6
        model.explicit.b_dlen.data[...] = 0.25
        stats = model.running_stats()
        runs = []
        for loss_fn in (batch_loss, batch_loss_per_document):
            model.load_running_stats(stats)
            for p in model.parameters().values():
                p.drop_grad()
            loss, seen = loss_fn(model, instances, corpus, query_tokens)
            T.backward(loss)
            runs.append((loss.item(), {k: p.grad for k, p in
                                       model.parameters().items()},
                         seen, model.running_stats()))
    (loss, grads, seen, after), (want_loss, want_grads, want_seen, want_after) = runs
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12)
    for name, grad in want_grads.items():
        assert grad is not None and grads[name] is not None, name
        np.testing.assert_allclose(grads[name], grad, rtol=1e-12, atol=1e-12,
                                   err_msg=name)
    for got_values, want_values in zip(seen, want_seen):
        assert len(got_values) == len(want_values)
        np.testing.assert_allclose(got_values, want_values, rtol=1e-12, atol=1e-12)
    assert after == pytest.approx(want_after, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("variant", ["ndrm1", "ndrm2", "ndrm3"])
def test_batch_loss_reads_the_model_query_cap(training_setup, variant):
    """Training scores the query tokens rerank and retrieve read: a query
    longer than max_query_tokens gives exactly the loss, gradients and
    statistics of its first max_query_tokens tokens."""
    corpus, vocab, _, instances = training_setup
    tokens = ["w00", "w05", "w11", "w17", "w23"]
    runs = []
    for query in (tokens, tokens[:2]):
        model = CKModel(micro_config(variant, max_query_tokens=2), vocab)
        model.train()
        query_tokens = {inst.query_id: query for inst in instances}
        loss, seen = batch_loss(model, instances[:3], corpus, query_tokens)
        T.backward(loss)
        runs.append((loss.numpy(), {k: p.grad for k, p in
                                    model.parameters().items()},
                     seen, model.running_stats()))
    (loss, grads, seen, stats), (want_loss, want_grads, want_seen, want_stats) = runs
    np.testing.assert_array_equal(loss, want_loss)
    assert grads.keys() == want_grads.keys()
    for name, grad in want_grads.items():
        np.testing.assert_array_equal(grads[name], grad, err_msg=name)
    assert seen == want_seen
    assert stats == want_stats


def test_train_config_defaults():
    cfg = TrainConfig()
    assert (cfg.batch_size, cfg.steps, cfg.lr) == (32, 500, 1e-4)
    assert cfg.betas == (0.9, 0.999)
    assert cfg.clip_norm == 1.0


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("batch_size", 2.0), ("batch_size", True),
    ("steps", -3), ("steps", 0), ("steps", True),
    ("lr", -1e-4), ("lr", float("nan")), ("lr", float("inf")), ("lr", "0.1"),
    ("betas", (0.9, 1.0)), ("betas", (-0.1, 0.999)), ("betas", (0.9,)),
    ("betas", (0.9, float("nan"))), ("betas", 0.9),
    ("clip_norm", -1.0), ("clip_norm", float("inf")),
    ("seed", -1), ("seed", 1.0)])
def test_train_config_refuses_each_field_out_of_range(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        TrainConfig(**{field: value})


def test_train_config_takes_the_edges_of_its_ranges():
    cfg = TrainConfig(batch_size=1, steps=1, lr=0.0, betas=(0.0, 0.5),
                      clip_norm=0, seed=0)
    assert (cfg.batch_size, cfg.steps, cfg.clip_norm) == (1, 1, 0)


def test_zero_lr_keeps_params_bitwise(training_setup):
    corpus, vocab, query_tokens, instances = training_setup
    model = CKModel(micro_config("ndrm3"), vocab)
    before = {k: p.numpy() for k, p in model.parameters().items()}
    train(model, corpus, query_tokens, instances,
          TrainConfig(batch_size=2, steps=3, lr=0.0, seed=0))
    for name, p in model.parameters().items():
        np.testing.assert_array_equal(p.numpy(), before[name])


def test_single_pair_overfits(training_setup):
    corpus, vocab, query_tokens, instances = training_setup
    model = CKModel(micro_config("ndrm1"), vocab)
    result = train(model, corpus, query_tokens, instances[:1],
                   TrainConfig(batch_size=1, steps=60, lr=1e-2, seed=0))
    assert result.loss_trace[-1] < result.loss_trace[0]


def test_seed_identical_runs_identical_traces(training_setup):
    corpus, vocab, query_tokens, instances = training_setup
    traces = []
    for _ in range(2):
        model = CKModel(micro_config("ndrm3"), vocab)
        result = train(model, corpus, query_tokens, instances,
                       TrainConfig(batch_size=2, steps=8, lr=1e-3, seed=11))
        traces.append(result.loss_trace)
    assert traces[0] == traces[1]


def test_train_returns_model_in_eval_mode(training_setup):
    corpus, vocab, query_tokens, instances = training_setup
    model = CKModel(micro_config("ndrm2"), vocab)
    result = train(model, corpus, query_tokens, instances,
                   TrainConfig(batch_size=4, steps=5, lr=1e-4, seed=0))
    assert model.mode == "infer"
    assert result.steps == 5
    assert len(result.loss_trace) == 5


def test_training_diverged_diagnostics(training_setup):
    corpus, vocab, query_tokens, instances = training_setup
    model = CKModel(micro_config("ndrm2"), vocab)
    model.explicit.w_dlen.data[...] = np.nan
    with pytest.raises(TrainingDiverged) as err:
        train(model, corpus, query_tokens, instances,
              TrainConfig(batch_size=2, steps=3, lr=1e-4, seed=0))
    assert err.value.batch_index == 0
    assert "explicit.w_dlen" in err.value.param_norms


def test_empty_instances_rejected(training_setup):
    corpus, vocab, query_tokens, _ = training_setup
    model = CKModel(micro_config("ndrm2"), vocab)
    with pytest.raises(ContractError):
        train(model, corpus, query_tokens, [],
              TrainConfig(batch_size=2, steps=1, lr=1e-4, seed=0))


def test_query_without_tokens_rejected(training_setup):
    corpus, vocab, _, instances = training_setup
    model = CKModel(micro_config("ndrm2"), vocab)
    empty_tokens = {inst.query_id: [] for inst in instances}
    with pytest.raises(ContractError):
        batch_loss(model, instances[:1], corpus, empty_tokens)


def test_write_loss_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    write_loss_trace([0.75, 0.5], path)
    assert path.read_text().splitlines() == [
        "step,mean_loss", "0,0.750000", "1,0.500000"]


def test_bs_stats_move_during_training(training_setup):
    corpus, vocab, query_tokens, instances = training_setup
    model = CKModel(micro_config("ndrm2"), vocab)
    before = model.bs.mean_dlen
    train(model, corpus, query_tokens, instances,
          TrainConfig(batch_size=4, steps=10, lr=1e-4, seed=0))
    assert model.bs.mean_dlen != before


# -- instance sampling against the per-triple oracle -------------------------------


def _same_instances(triples, candidates, corpus, seed):
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    got = make_instances(triples, candidates, corpus, rngs[0])
    want = make_instances_pool_per_triple(triples, candidates, corpus, rngs[1])
    assert got == want
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    return got


def test_make_instances_matches_oracle_on_synthetic(synth):
    instances = _same_instances(synth.triples, synth.candidates, synth.corpus, 7)
    assert len(instances) > 100


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 16), st.data())
def test_make_instances_matches_oracle(seed, data):
    num_docs = data.draw(st.integers(DOCS_PER_INSTANCE, 9))
    corpus = Corpus()
    for i in range(num_docs):
        corpus.add(DocumentRecord(f"D{i}", ["w"]))
    # ids past num_docs are missing from the corpus
    doc = st.integers(0, num_docs + 2).map(lambda i: f"D{i}")
    qid = st.sampled_from(["Q0", "Q1", "Q2"])
    triples = data.draw(st.lists(st.tuples(qid, doc), max_size=12))
    candidates = data.draw(st.dictionaries(qid, st.lists(doc, max_size=6)))
    _same_instances(triples, candidates, corpus, seed)
