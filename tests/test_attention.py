"""Attention variants: oracles, invariances, memory shape, block wiring."""

import numpy as np
import pytest
from helpers import micro_corpus, tiny_config
from hypothesis import given, settings
from hypothesis import strategies as st
from refops import self_attention, separable_self_attention

import ckrank.tensor as T
from ckrank.attention import (conformer_block, init_block_params, multi_head,
                              positional_encoding)
from ckrank.corpus import Corpus, DocumentRecord
from ckrank.errors import ConfigError, ShapeError
from ckrank.index import build_index
from ckrank.memory import tracker
from ckrank.model import CKModel, ModelConfig


def micro_cfg(**overrides):
    kwargs = dict(model_dim=8, num_heads=2, d_key=4, d_value=4, conv_window=3,
                  conv_groups=2, dropout_rate=0.0, num_layers=1)
    kwargs.update(overrides)
    return ModelConfig(**kwargs)


def rand_qkv(n, dk=4, dv=3, seed=0):
    rng = np.random.default_rng(seed)
    return (T.constant(rng.normal(size=(n, dk))),
            T.constant(rng.normal(size=(n, dk))),
            T.constant(rng.normal(size=(n, dv))))


def dense_oracle_standard(q, k, v):
    scaled = (q / np.sqrt(q.shape[1])) @ k.T
    shifted = scaled - scaled.max(axis=-1, keepdims=True)
    w = np.exp(shifted)
    w /= w.sum(axis=-1, keepdims=True)
    return w @ v


def dense_oracle_separable(q, k, v):
    def sm(x):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    return sm(q) @ (sm(k.T) @ v)


# -- config validation -----------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        micro_cfg(conv_window=4)  # even window
    with pytest.raises(ConfigError):
        micro_cfg(conv_groups=3)  # 8 % 3 != 0
    with pytest.raises(ConfigError):
        micro_cfg(dropout_rate=1.5)
    with pytest.raises(ConfigError):
        micro_cfg(num_heads=0)


# -- positional encoding -----------------------------------------------------------


def test_positional_encoding_shape_and_values():
    pe = positional_encoding(5, 6)
    assert isinstance(pe, np.ndarray)
    assert pe.shape == (5, 6)
    np.testing.assert_allclose(pe[0], [0, 1, 0, 1, 0, 1], atol=1e-7)
    # even columns are sines, odd columns cosines of the same angle
    angle = 3 / 10000 ** (2 / 6)
    assert pe[3, 2] == pytest.approx(np.sin(angle), abs=1e-6)
    assert pe[3, 3] == pytest.approx(np.cos(angle), abs=1e-6)


def test_positional_encoding_rows_do_not_depend_on_length():
    long = positional_encoding(50, 6).copy()
    for n in (1, 7, 50, 80):
        pe = positional_encoding(n, 6)
        assert not pe.flags.writeable
        np.testing.assert_array_equal(pe[:min(n, 50)], long[:min(n, 50)])
    # A table built for exactly n rows agrees bit for bit with the cached prefix.
    pos = np.arange(80, dtype=np.float64)[:, None]
    idx = np.arange(6, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / 6)
    fresh = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle)).astype(np.float32)
    np.testing.assert_array_equal(positional_encoding(80, 6), fresh)


def test_positional_encoding_dtype_follows_default():
    assert positional_encoding(4, 8).dtype == np.float32
    with T.precision("float64"):
        assert positional_encoding(4, 8).dtype == np.float64


# -- oracle agreement -----------------------------------------------------------


def test_standard_attention_matches_dense_oracle_f64():
    with T.precision("float64"):
        for seed in range(10):
            q, k, v = rand_qkv(12, seed=seed)
            got = self_attention(q, k, v).numpy()
            want = dense_oracle_standard(q.numpy(), k.numpy(), v.numpy())
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_separable_attention_matches_dense_oracle_f64():
    with T.precision("float64"):
        for seed in range(10):
            q, k, v = rand_qkv(12, seed=seed)
            got = separable_self_attention(q, k, v).numpy()
            want = dense_oracle_separable(q.numpy(), k.numpy(), v.numpy())
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_separable_multi_head_matches_dense_oracle():
    """The sublayer the encoder runs (one fused op with a hand-written
    backward) against projections applied in numpy and each head's dense
    separable attention, at acceptance test 01's sizes and bounds."""
    rng = np.random.default_rng(11)
    worst64 = worst32 = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 65))
        heads = int(rng.integers(1, 5))
        dk = int(rng.integers(1, 17))
        dv = int(rng.integers(1, 17))
        m = heads * int(rng.integers(1, 5))
        cfg = ModelConfig(model_dim=m, num_heads=heads, d_key=dk, d_value=dv,
                          conv_groups=1)
        shapes = {"wq": (m, heads * dk), "wk": (m, heads * dk),
                  "wv": (m, heads * dv), "wo": (heads * dv, m)}
        arrays = {}
        for w, shape in shapes.items():
            arrays[w] = rng.normal(size=shape) / np.sqrt(shape[0])
            arrays["b" + w[1]] = rng.normal(size=shape[1])
        x = rng.normal(size=(n, m))
        q, k, v = (x @ arrays["w" + c] + arrays["b" + c] for c in "qkv")
        heads_out = [dense_oracle_separable(q[:, h * dk:(h + 1) * dk],
                                            k[:, h * dk:(h + 1) * dk],
                                            v[:, h * dv:(h + 1) * dv])
                     for h in range(heads)]
        want = np.concatenate(heads_out, axis=1) @ arrays["wo"] + arrays["bo"]
        for mode in ("float64", "float32"):
            with T.precision(mode):
                params = {name: T.constant(a) for name, a in arrays.items()}
                got = multi_head(T.constant(x), params, cfg).numpy()
            err = float(np.max(np.abs(got - want)))
            if mode == "float64":
                worst64 = max(worst64, err)
            else:
                worst32 = max(worst32, err)
    assert worst64 <= 1e-10, worst64
    assert worst32 <= 1e-5, worst32


def test_attention_row_count_mismatch_rejected():
    q = T.constant(np.ones((3, 4)))
    k = T.constant(np.ones((5, 4)))
    v = T.constant(np.ones((5, 2)))
    with pytest.raises(ShapeError):
        self_attention(q, k, v)  # self-attention: q/k/v share the sequence
    with pytest.raises(ShapeError):
        separable_self_attention(q, k, v)
    with pytest.raises(ShapeError):
        self_attention(T.constant(np.ones((5, 3))), k, v)  # key dims differ


# -- analytic special cases -------------------------------------------------------


def test_single_position_returns_value_row():
    q, k, v = rand_qkv(1, seed=3)
    np.testing.assert_allclose(self_attention(q, k, v).numpy(), v.numpy(),
                               rtol=1e-5)
    np.testing.assert_allclose(separable_self_attention(q, k, v).numpy(),
                               v.numpy(), rtol=1e-5)


def test_identical_keys_give_value_mean():
    rng = np.random.default_rng(0)
    q = T.constant(rng.normal(size=(6, 4)))
    k = T.constant(np.tile(rng.normal(size=(1, 4)), (6, 1)))
    v = T.constant(rng.normal(size=(6, 3)))
    want = np.tile(v.numpy().mean(axis=0), (6, 1))
    np.testing.assert_allclose(self_attention(q, k, v).numpy(), want, rtol=1e-5)
    np.testing.assert_allclose(separable_self_attention(q, k, v).numpy(), want,
                               rtol=1e-5)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2**32 - 1))
def test_outputs_stay_in_value_hull(n, seed):
    q, k, v = rand_qkv(n, seed=seed)
    lo, hi = v.numpy().min(axis=0), v.numpy().max(axis=0)
    for fn in (self_attention, separable_self_attention):
        out = fn(q, k, v).numpy()
        assert np.all(out >= lo - 1e-5)
        assert np.all(out <= hi + 1e-5)


def test_permutation_equivariance():
    rng = np.random.default_rng(1)
    q, k, v = rand_qkv(8, seed=1)
    perm = rng.permutation(8)
    for fn in (self_attention, separable_self_attention):
        base = fn(q, k, v).numpy()
        permed = fn(T.constant(q.numpy()[perm]), T.constant(k.numpy()[perm]),
                    T.constant(v.numpy()[perm])).numpy()
        np.testing.assert_allclose(permed, base[perm], rtol=1e-4, atol=1e-6)


def test_variants_differ_in_general():
    q, k, v = rand_qkv(8, seed=5)
    a = self_attention(q, k, v).numpy()
    b = separable_self_attention(q, k, v).numpy()
    assert np.abs(a - b).max() > 1e-3


# -- multi-head and block -----------------------------------------------------------


def test_multi_head_output_shape_and_determinism():
    cfg = micro_cfg()
    params = init_block_params(cfg, np.random.default_rng(0))
    x = T.constant(np.random.default_rng(1).normal(size=(7, cfg.model_dim)))
    for variant in ("separable", "standard"):
        out1 = multi_head(x, params, cfg, variant=variant)
        out2 = multi_head(x, params, cfg, variant=variant)
        assert out1.shape == (7, cfg.model_dim)
        np.testing.assert_array_equal(out1.numpy(), out2.numpy())


def test_init_block_params_key_set():
    cfg = micro_cfg()
    params = init_block_params(cfg, np.random.default_rng(0))
    expected = {
        "conv_kernel", "conv_bias", "ln1_gamma", "ln1_beta",
        "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
        "ln2_gamma", "ln2_beta",
        "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2", "ln3_gamma", "ln3_beta",
    }
    assert set(params) == expected
    assert params["wq"].shape == (cfg.model_dim, cfg.num_heads * cfg.d_key)
    assert params["wv"].shape == (cfg.model_dim, cfg.num_heads * cfg.d_value)
    assert params["wo"].shape == (cfg.num_heads * cfg.d_value, cfg.model_dim)
    assert params["ffn_w1"].shape == (cfg.model_dim, 2 * cfg.model_dim)
    assert params["conv_kernel"].shape == (
        cfg.conv_groups, cfg.conv_window,
        cfg.model_dim // cfg.conv_groups, cfg.model_dim // cfg.conv_groups)
    assert all(p.requires_grad for p in params.values())


def test_conformer_block_shape_preserved():
    cfg = micro_cfg()
    params = init_block_params(cfg, np.random.default_rng(0))
    x = T.constant(np.random.default_rng(2).normal(size=(9, cfg.model_dim)))
    out = conformer_block(x, params, cfg)
    assert out.shape == x.shape


def test_conformer_block_zero_residual_paths_is_iterated_layer_norm():
    cfg = micro_cfg()
    params = init_block_params(cfg, np.random.default_rng(0))
    for name in ("conv_kernel", "conv_bias", "wo", "bo", "ffn_w2", "ffn_b2"):
        params[name].data[...] = 0.0
    x = T.constant(np.random.default_rng(3).normal(size=(6, cfg.model_dim)))
    got = conformer_block(x, params, cfg).numpy()
    want = x
    for i in (1, 2, 3):
        want = T.layer_norm(want, params[f"ln{i}_gamma"], params[f"ln{i}_beta"])
    np.testing.assert_allclose(got, want.numpy(), rtol=1e-5, atol=1e-6)


def test_conformer_block_dropout_only_in_training():
    cfg = micro_cfg(dropout_rate=0.5)
    params = init_block_params(cfg, np.random.default_rng(0))
    x = T.constant(np.random.default_rng(4).normal(size=(6, cfg.model_dim)))
    eval_a = conformer_block(x, params, cfg, training=False).numpy()
    eval_b = conformer_block(x, params, cfg, training=False).numpy()
    np.testing.assert_array_equal(eval_a, eval_b)
    rng = np.random.default_rng(5)
    train_out = conformer_block(x, params, cfg, training=True, rng=rng).numpy()
    assert np.abs(train_out - eval_a).max() > 1e-4


# -- memory shape -----------------------------------------------------------------


def multi_head_peaks(variant, lengths):
    """Exact tracked peak of one multi_head forward that records a graph, at
    each length: its output plus every intermediate it keeps."""
    cfg = micro_cfg()
    params = init_block_params(cfg, np.random.default_rng(7))
    peaks = []
    for n in lengths:
        x = T.constant(np.random.default_rng(n).normal(size=(n, cfg.model_dim)))
        with tracker.scope() as scope:
            out = multi_head(x, params, cfg, variant=variant)
        assert out.requires_grad
        peaks.append(scope.peak_bytes)
    return peaks


def test_separable_never_allocates_n_by_n():
    """Doubling n at most doubles the separable sublayer's peak."""
    small, large = multi_head_peaks("separable", (96, 192))
    assert small < 96 * 96 * 4
    assert large <= 2 * small


def test_standard_does_allocate_n_by_n():
    """The standard sublayer keeps (heads, n, n) weights, so doubling n
    nearly quadruples its peak."""
    small, large = multi_head_peaks("standard", (96, 192))
    assert small >= 2 * 96 * 96 * 4
    assert large >= 3.5 * small


def test_tiny_fold_peak_is_four_activations():
    """Without a graph, a conformer block drops each sublayer's input and
    output once its layer norm has read them, so at most four (n, d)
    tensors are live: the caller's input, y2, the FFN output and the
    result. Folding one 80-token document (fold-short's longest) with a
    tiny-config ndrm3 peaks at 4 * 80 * 32 * 4 bytes; before, conv, y1 and
    the attention output were live too, seven tensors in all."""
    corpus, vocab = micro_corpus()
    rng = np.random.default_rng(6)
    terms = sorted(vocab.term_to_id)
    one = Corpus()
    one.add(DocumentRecord("long", [terms[i] for i in
                                    rng.integers(0, len(terms), size=80)]))
    model = CKModel(tiny_config("ndrm3"), vocab)
    model.eval()
    with tracker.scope() as scope:
        build_index(one, model)
    assert scope.peak_bytes == 4 * 80 * 32 * 4 == 40960
