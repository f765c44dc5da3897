"""Model config, explicit/duet scoring formulas, and the additive contract."""

import dataclasses
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from helpers import micro_config, micro_corpus, tiny_config
from oracles import (TermDocStats, latent_term_score, ndrm2_term_score,
                     ndrm3_term_score)

import ckrank.tensor as T
from ckrank.corpus import DocumentRecord, QueryRecord
from ckrank.errors import ConfigError, ContractError, NonFiniteError
from ckrank.index import build_index, rerank
from ckrank.model import (BSState, CKModel, DuetParams, ExplicitParams,
                          ModelConfig, duet_scores, ndrm2_term_scores)
from ckrank.train import TrainInstance, batch_loss


@pytest.fixture(scope="module")
def micro():
    corpus, vocab = micro_corpus()
    return corpus, vocab


# -- config ---------------------------------------------------------------------


def test_config_defaults():
    cfg = ModelConfig()
    assert cfg.variant == "ndrm3"
    assert (cfg.model_dim, cfg.num_heads, cfg.d_key, cfg.d_value) == (256, 32, 8, 8)
    assert (cfg.conv_window, cfg.conv_groups) == (31, 32)
    assert (cfg.window_len, cfg.stride) == (300, 100)
    assert (cfg.max_doc_tokens, cfg.max_query_tokens) == (4000, 20)
    assert cfg.dropout_rate == 0.2
    assert cfg.bn_momentum == 0.9


def test_config_validation_cascades():
    with pytest.raises(ConfigError):
        ModelConfig(variant="ndrm9")
    with pytest.raises(ConfigError):
        ModelConfig(conv_window=30)  # even
    with pytest.raises(ConfigError):
        ModelConfig(window_len=10, stride=20)
    with pytest.raises(ConfigError):
        ModelConfig(kernel_mus=(0.5, 0.1), kernel_sigmas=(0.1, 0.1))
    # an index records the cap, and retrieve reads that many tokens
    for cap in (-1, 2.5, "3"):
        with pytest.raises(ConfigError, match="max_query_tokens"):
            ModelConfig(max_query_tokens=cap)
    # -1 would drop each document's last token, 2.5 fail at the slice, 0
    # leave every document empty
    for cap in (-1, 0, 2.5, "3", True, None):
        with pytest.raises(ConfigError, match="max_doc_tokens"):
            ModelConfig(max_doc_tokens=cap)
    assert ModelConfig(max_doc_tokens=1).max_doc_tokens == 1


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ModelConfig)])
def test_every_config_field_refuses_a_bool_and_a_str(name):
    """A field added without a rule in ModelConfig's table fails here."""
    for value in (True, False, "1"):
        with pytest.raises(ConfigError, match=name):
            ModelConfig(**{name: value})


@pytest.mark.parametrize("name,value", [
    ("seed", -1), ("seed", 2.5), ("max_query_tokens", -1), ("num_layers", 0),
    ("model_dim", 8.0), ("stride", 0), ("dropout_rate", 1.0),
    ("dropout_rate", -0.1), ("dropout_rate", float("nan")), ("bn_momentum", 1.5),
    ("bn_momentum", -0.1), ("var_floor", -1.0), ("var_floor", 0.0),
    ("epsilon", -1.0), ("epsilon", float("inf")), ("eps_log", 0.0),
    ("kernel_mus", (0.1, float("nan"))), ("kernel_sigmas", 0.1)])
def test_config_refuses_each_field_out_of_range(name, value):
    # ndrm1 builds no ExplicitParams, whose own check would refuse epsilon
    with pytest.raises(ConfigError, match=name):
        ModelConfig(variant="ndrm1", **{name: value})


def test_config_accepts_each_bound_and_coerces_nothing():
    cfg = ModelConfig(dropout_rate=0, bn_momentum=1, epsilon=1, var_floor=2,
                      seed=0, max_query_tokens=0, stride=300)
    assert [type(getattr(cfg, name)) for name in ("dropout_rate", "bn_momentum",
                                                   "epsilon", "var_floor")] == [int] * 4
    assert ModelConfig(bn_momentum=0.0, dropout_rate=0.999).bn_momentum == 0.0
    # the kernel sequences alone become tuples of floats, as they hash
    assert ModelConfig(kernel_mus=[0, 1], kernel_sigmas=np.array([0.1, 0.001])) \
        .to_dict()["kernel_mus"] == (0.0, 1.0)


def test_config_dict_round_trip_and_unknown_keys():
    cfg = micro_config("ndrm1", seed=7)
    clone = ModelConfig.from_dict(cfg.to_dict())
    assert clone == cfg
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"variant": "ndrm1", "learning_rate": 0.1})


def test_config_hash_tracks_content():
    a = micro_config("ndrm1")
    b = micro_config("ndrm1")
    c = micro_config("ndrm1", seed=99)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 64


def test_config_is_frozen(micro):
    """A model's checkpoints and indexes carry the hash of the config it was
    built with, so that config cannot change under it."""
    _, vocab = micro
    model = CKModel(micro_config("ndrm2"), vocab)
    with pytest.raises(FrozenInstanceError):
        model.config.max_query_tokens = 5
    assert model.config_hash == model.config.config_hash()


def test_config_file_round_trip(tmp_path):
    cfg = micro_config("ndrm3")
    path = tmp_path / "config.json"
    cfg.save(path)
    assert ModelConfig.load(path) == cfg


@pytest.mark.parametrize("damage", ["truncated", "not_utf8", "not_object",
                                    "wrong_type"])
def test_config_load_malformed_is_config_error(tmp_path, damage):
    path = tmp_path / "config.json"
    micro_config("ndrm3").save(path)
    text = path.read_bytes()
    damaged = {
        "truncated": text[:len(text) // 2],
        "not_utf8": b"\xff" + text,
        "not_object": b"[[1, 2]]",
        "wrong_type": b'{"model_dim": "wide"}',
    }[damage]
    path.write_bytes(damaged)
    with pytest.raises(ConfigError, match="malformed model config"):
        ModelConfig.load(path)


# -- explicit branch ---------------------------------------------------------------


def test_term_doc_stats_validation():
    TermDocStats(idf=1.0, tf=0.0, dlen=1.0)
    with pytest.raises(ContractError):
        TermDocStats(idf=1.0, tf=-1.0, dlen=10.0)
    with pytest.raises(ContractError):
        TermDocStats(idf=1.0, tf=1.0, dlen=0.0)
    with pytest.raises(ContractError):
        BSState(mean_tf=-0.1)


def test_explicit_hand_value():
    # idf 2, tf 3 against mean 2 -> bs(tf) ~ 1.5; dlen 50 against mean 100
    # -> relu term ~ 0.5; score ~ 2 * 1.5 / (1.5 + 0.5 + 1e-6)
    params = ExplicitParams()
    bs = BSState(mean_tf=2.0, mean_dlen=100.0)
    stats = TermDocStats(idf=2.0, tf=3.0, dlen=50.0)
    got = ndrm2_term_score(stats, params, bs)
    assert got.shape == ()
    assert got.item() == pytest.approx(1.49999925, abs=1e-6)


def test_explicit_zero_tf_scores_zero():
    params = ExplicitParams()
    bs = BSState(mean_tf=2.0, mean_dlen=100.0)
    got = ndrm2_term_score(TermDocStats(idf=2.0, tf=0.0, dlen=50.0), params, bs)
    assert got.item() == 0.0


def test_explicit_relu_clamps_negative_length_term():
    # b_dlen pushed far negative: the length penalty vanishes entirely
    params = ExplicitParams(w_dlen=T.parameter(1.0), b_dlen=T.parameter(-100.0))
    bs = BSState(mean_tf=2.0, mean_dlen=100.0)
    got = ndrm2_term_score(TermDocStats(idf=1.0, tf=2.0, dlen=50.0), params, bs)
    bs_tf = 2.0 / (2.0 + 1e-6)
    assert got.item() == pytest.approx(bs_tf / (bs_tf + 1e-6), rel=1e-6)


def test_explicit_monotone_in_tf_and_saturating():
    params = ExplicitParams()
    bs = BSState(mean_tf=1.0, mean_dlen=60.0)
    tf = np.arange(0.0, 30.0)
    scores = ndrm2_term_scores(np.full(30, 1.3), tf, np.full(30, 60.0),
                               params, bs).numpy()
    assert np.all(np.diff(scores) > 0)
    assert np.all(scores < 1.3)  # bounded by idf as tf grows


def test_explicit_longer_docs_score_less():
    params = ExplicitParams()
    bs = BSState(mean_tf=1.0, mean_dlen=60.0)
    dlen = np.array([20.0, 60.0, 200.0])
    scores = ndrm2_term_scores(np.full(3, 1.0), np.full(3, 2.0), dlen,
                               params, bs).numpy()
    assert scores[0] > scores[1] > scores[2]


def test_vectorized_explicit_matches_scalar():
    params = ExplicitParams()
    bs = BSState(mean_tf=1.7, mean_dlen=45.0)
    idf = np.array([0.5, 1.1, 2.2])
    tf = np.array([1.0, 0.0, 4.0])
    dlen = np.array([30.0, 44.0, 90.0])
    batched = ndrm2_term_scores(idf, tf, dlen, params, bs).numpy()
    singles = [ndrm2_term_score(TermDocStats(i, t, d), params, bs).item()
               for i, t, d in zip(idf, tf, dlen)]
    np.testing.assert_allclose(batched, singles, rtol=1e-6)


# -- duet branch ---------------------------------------------------------------------


def test_duet_train_mode_hand_example():
    params = DuetParams()
    lat = T.constant(np.array([1.0, 3.0]))
    exp = T.constant(np.array([0.0, 0.0]))
    out = duet_scores(lat, exp, params, mode="train").numpy()
    # latent standardizes to {-1, +1}; constant explicit batch clamps to zero
    np.testing.assert_allclose(out, [-1.0, 1.0], atol=1e-5)
    # EMA with momentum 0.9 folds in the batch statistics
    assert params.bn_latent_mean == pytest.approx(0.2)
    assert params.bn_latent_var == pytest.approx(1.0)
    assert params.bn_explicit_mean == pytest.approx(0.0)
    assert params.bn_explicit_var == pytest.approx(0.9)


def test_duet_infer_mode_uses_frozen_stats():
    params = DuetParams(bn_latent_mean=2.0, bn_latent_var=4.0,
                        bn_explicit_mean=1.0, bn_explicit_var=1.0)
    lat = T.constant(np.array([4.0]))
    exp = T.constant(np.array([3.0]))
    out = duet_scores(lat, exp, params, mode="infer").numpy()
    # (4-2)/2 * 1 + (3-1)/1 * 1 + 0
    np.testing.assert_allclose(out, [3.0], rtol=1e-5)
    assert params.bn_latent_mean == 2.0  # infer never touches running stats


def test_duet_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        duet_scores(T.constant(np.ones(2)), T.constant(np.ones(2)),
                    DuetParams(), mode="test")


def test_ndrm3_term_score_scalar_wrapper():
    params = DuetParams()
    out = ndrm3_term_score(T.constant(np.array(1.0)), T.constant(np.array(0.5)),
                           params, mode="infer")
    assert out.shape == ()
    assert out.item() == pytest.approx(1.5, rel=1e-5)


# -- CKModel wiring ----------------------------------------------------------------


def test_parameter_sets_by_variant(micro):
    _, vocab = micro
    m1 = CKModel(micro_config("ndrm1"), vocab)
    m2 = CKModel(micro_config("ndrm2"), vocab)
    m3 = CKModel(micro_config("ndrm3"), vocab)
    p1, p2, p3 = m1.parameters(), m2.parameters(), m3.parameters()
    assert "embedding" in p1 and "head.w" in p1
    assert not any(k.startswith(("explicit.", "duet.")) for k in p1)
    assert set(p2) == {"explicit.w_dlen", "explicit.b_dlen"}
    assert set(p3) >= set(p1) | set(p2) | {"duet.w1", "duet.w2", "duet.b"}
    assert m1.embedding.shape == (vocab.size + 1, 8)
    assert m2.embedding is None


def test_model_construction_is_deterministic(micro):
    _, vocab = micro
    a = CKModel(micro_config("ndrm3"), vocab)
    b = CKModel(micro_config("ndrm3"), vocab)
    for name, pa in a.parameters().items():
        np.testing.assert_array_equal(pa.numpy(), b.parameters()[name].numpy())


def test_encode_document_shape_and_truncation(micro):
    corpus, vocab = micro
    model = CKModel(micro_config("ndrm1", max_doc_tokens=5), vocab)
    doc = DocumentRecord("long", ["w00"] * 12)
    enc = model.encode_document(doc)
    assert enc.shape == (5, 8)


def test_encode_document_guards(micro):
    _, vocab = micro
    with pytest.raises(ContractError):
        CKModel(micro_config("ndrm2"), vocab).encode_document(
            DocumentRecord("d", ["w00"]))
    with pytest.raises(ContractError):
        CKModel(micro_config("ndrm1"), vocab).encode_document(
            DocumentRecord("d", []))


def test_repeated_terms_score_alike(micro):
    corpus, vocab = micro
    model = CKModel(micro_config("ndrm1"), vocab)
    doc = next(iter(corpus))
    enc = model.encode_document(doc)
    scores = model.latent_term_scores(["w00", "w01", "w00"], enc).numpy()
    assert scores[0] == scores[2]


def test_oov_terms_get_constant_no_match_score(micro):
    corpus, vocab = micro
    model = CKModel(micro_config("ndrm1"), vocab)
    doc = next(iter(corpus))
    enc = model.encode_document(doc)
    mixed = model.latent_term_scores(["qqq", "w00", "zzz"], enc).numpy()
    from ckrank.pooling import empty_features
    want = latent_term_score(T.constant(empty_features(model.bank)),
                             model.head).item()
    assert mixed[0] == pytest.approx(want, rel=1e-5)
    assert mixed[2] == pytest.approx(want, rel=1e-5)
    only_known = model.latent_term_scores(["w00"], enc).numpy()
    assert mixed[1] == pytest.approx(only_known[0], rel=1e-6)


def test_column_scores_variant_dispatch(micro):
    corpus, vocab = micro
    doc = next(iter(corpus))
    terms = ["w00", "w07"]

    m1 = CKModel(micro_config("ndrm1"), vocab)
    enc = m1.encode_document(doc)
    np.testing.assert_array_equal(m1.column_scores([doc], [terms]).numpy(),
                                  m1.latent_term_scores(terms, enc).numpy())

    m2 = CKModel(micro_config("ndrm2"), vocab)
    np.testing.assert_array_equal(m2.column_scores([doc], [terms]).numpy(),
                                  m2.explicit_term_scores(terms, doc).numpy())

    m3 = CKModel(micro_config("ndrm3"), vocab)
    enc3 = m3.encode_document(doc)
    lat = m3.latent_term_scores(terms, enc3)
    exp = m3.explicit_term_scores(terms, doc)
    want = duet_scores(lat, exp, m3.duet, "infer").numpy()
    np.testing.assert_allclose(m3.column_scores([doc], [terms]).numpy(), want,
                               rtol=1e-6)


def rerank_score(model, query, doc, corpus):
    """The score ``rerank`` gives doc for query, alone in its list."""
    (doc_id, score), = rerank(query, [doc.doc_id], model, corpus).ranking
    assert doc_id == doc.doc_id
    return score


@pytest.mark.parametrize("variant", ["ndrm1", "ndrm2", "ndrm3"])
def test_additive_decomposition_per_term(micro, variant):
    """A query's score is exactly the sum of independently computed term scores."""
    corpus, vocab = micro
    model = CKModel(micro_config(variant), vocab)
    doc = next(iter(corpus))
    terms = ["w00", "w05", "unseen", "w00"]
    whole = rerank_score(model, terms, doc, corpus)
    singles = [model.per_term_scores([t], doc)[0] for t in terms]
    assert whole == pytest.approx(sum(singles), abs=1e-6)


def test_rerank_of_an_empty_query_scores_zero(micro):
    corpus, vocab = micro
    model = CKModel(micro_config("ndrm2"), vocab)
    doc = next(iter(corpus))
    assert rerank_score(model, [], doc, corpus) == 0.0
    assert rerank_score(model, QueryRecord("q", []), doc, corpus) == 0.0


def test_query_truncated_to_max_terms(micro):
    corpus, vocab = micro
    model = CKModel(micro_config("ndrm2", max_query_tokens=2), vocab)
    doc = next(iter(corpus))
    long_q = ["w00", "w01", "w02", "w03"]
    assert rerank_score(model, long_q, doc, corpus) == \
        pytest.approx(rerank_score(model, long_q[:2], doc, corpus))


def test_scoring_is_deterministic_in_eval(micro):
    corpus, vocab = micro
    model = CKModel(micro_config("ndrm3"), vocab)
    model.eval()
    doc = next(iter(corpus))
    a = rerank_score(model, ["w00", "w03"], doc, corpus)
    b = rerank_score(model, ["w00", "w03"], doc, corpus)
    assert a == b


def test_mode_toggles(micro):
    _, vocab = micro
    model = CKModel(micro_config("ndrm3"), vocab)
    assert model.mode == "infer"
    model.train()
    assert model.mode == "train"
    model.eval()
    assert model.mode == "infer"


def test_update_bs_stats_ema(micro):
    _, vocab = micro
    model = CKModel(micro_config("ndrm2"), vocab)
    before_tf = model.bs.mean_tf
    before_dl = model.bs.mean_dlen
    model.update_bs_stats(np.array([3.0, 5.0]), np.array([10.0, 30.0]))
    assert model.bs.mean_tf == pytest.approx(0.9 * before_tf + 0.1 * 4.0)
    assert model.bs.mean_dlen == pytest.approx(0.9 * before_dl + 0.1 * 20.0)
    model.update_bs_stats(np.array([]), np.array([]))  # empty batch is a no-op
    assert model.bs.mean_tf == pytest.approx(0.9 * before_tf + 0.1 * 4.0)


def test_running_stats_round_trip(micro):
    _, vocab = micro
    model = CKModel(micro_config("ndrm3"), vocab)
    stats = model.running_stats()
    assert set(stats) == {"bs_tf_mean", "bs_dlen_mean", "bn_latent_mean",
                          "bn_latent_var", "bn_explicit_mean", "bn_explicit_var"}
    other = CKModel(micro_config("ndrm3"), vocab)
    other.duet.bn_latent_mean = 42.0
    other.load_running_stats(stats)
    assert other.duet.bn_latent_mean == stats["bn_latent_mean"]


def test_explicit_stats_use_raw_tokens(micro):
    """df/tf come from raw tokens even for terms outside the dense vocabulary."""
    corpus, vocab = micro
    model = CKModel(micro_config("ndrm2"), vocab)
    doc = DocumentRecord("d", ["raretoken", "raretoken", "w00"])
    idf, tf, dlen = model.explicit_stats([doc], [["raretoken"]])
    assert tf[0] == 2.0
    assert dlen[0] == 3.0
    assert idf[0] == pytest.approx(vocab.idf("raretoken"))


# -- non-finite weights in the fused encoder -----------------------------------------


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("weight", ["conv_kernel", "ffn_w1", "wv"])
def test_an_inf_weight_in_a_fused_sublayer_is_caught(micro, weight):
    """The finite check sees only each fused sublayer's normalized output;
    an inf weight inside the conv, the FFN or the attention still reaches
    it (inf or nan through the layer norm), when folding and in a
    train-mode step with dropout on."""
    corpus, vocab = micro
    model = CKModel(tiny_config("ndrm3"), vocab)
    model.parameters()[f"block0.{weight}"].data.reshape(-1)[0] = np.inf
    with pytest.raises(NonFiniteError):
        build_index(corpus, model)
    doc_ids = sorted(corpus.docs)
    inst = TrainInstance("Q1", doc_ids[0], doc_ids[1], tuple(doc_ids[2:4]))
    model.train()
    with pytest.raises(NonFiniteError):
        batch_loss(model, [inst], corpus, {"Q1": ["w00", "w01", "w02"]})
