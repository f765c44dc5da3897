"""Fused ops against the chains of small ops they replace (``oracles.py``).

Each fused op must give the forward value and every gradient of its chain,
within 1e-12 in float64; ``ndrm2_term_scores`` and ``ranknet_loss`` repeat
their chains' numpy operations in order, so their forwards and gradients are
``==`` in float32 and float64.
"""

import numpy as np
import pytest
import refops as R
from helpers import value_and_grads
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (duet_infer_composed, duet_mix_composed, embedding_then_add,
                     feed_forward_composed, latent_term_scores_composed,
                     layer_norm_after_add, ndrm2_term_scores_composed,
                     separable_multi_head_composed, windowed_pool_terms_blocks)

import ckrank.tensor as T
from ckrank.attention import feed_forward, multi_head
from ckrank.errors import ShapeError
from ckrank.model import BSState, DuetParams, ExplicitParams, ModelConfig, \
    duet_scores, ndrm2_term_scores
from ckrank.pooling import KernelBank, latent_term_scores, windowed_pool_terms
from ckrank.train import ranknet_loss

TOL = 1e-12
SEEDS = st.integers(0, 2**32 - 1)


def assert_same(fused, composed, tol=TOL):
    (got, got_grads), (want, want_grads) = fused, composed
    if tol is None:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)
    assert got_grads.keys() == want_grads.keys()
    for name in got_grads:
        if tol is None:
            np.testing.assert_array_equal(got_grads[name], want_grads[name],
                                          err_msg=name)
        else:
            np.testing.assert_allclose(got_grads[name], want_grads[name],
                                       rtol=0, atol=tol, err_msg=name)


# -- residual inside layer_norm ------------------------------------------------------


def _ln_arrays(rng, n, d):
    return {"x": rng.normal(size=(n, d)), "r": rng.normal(size=(n, d)),
            "gamma": rng.normal(size=d), "beta": rng.normal(size=d)}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 9), SEEDS)
def test_layer_norm_residual_matches_add_then_layer_norm(n, d, seed):
    arrays = _ln_arrays(np.random.default_rng(seed), n, d)
    with T.precision("float64"):
        fused = value_and_grads(lambda p: T.layer_norm(
            p["x"], p["gamma"], p["beta"], residual=p["r"]), arrays)
        composed = value_and_grads(lambda p: layer_norm_after_add(
            p["x"], p["r"], p["gamma"], p["beta"]), arrays)
    assert_same(fused, composed)


def test_layer_norm_zero_residual_is_plain_layer_norm():
    arrays = _ln_arrays(np.random.default_rng(3), 4, 6)
    arrays["r"] = np.zeros((4, 6))
    for mode in ("float32", "float64"):
        with T.precision(mode):
            fused = value_and_grads(lambda p: T.layer_norm(
                p["x"], p["gamma"], p["beta"], residual=p["r"]), arrays)
            plain = value_and_grads(
                lambda p: T.layer_norm(p["x"], p["gamma"], p["beta"]),
                {name: a for name, a in arrays.items() if name != "r"})
        got, got_grads = fused
        want, want_grads = plain
        np.testing.assert_array_equal(got, want)
        for name in want_grads:
            np.testing.assert_array_equal(got_grads[name], want_grads[name])
        # the residual gets the gradient x gets
        np.testing.assert_array_equal(got_grads["r"], want_grads["x"])


def test_layer_norm_refuses_residual_of_another_shape():
    x = T.constant(np.ones((3, 4)))
    gamma, beta = T.constant(np.ones(4)), T.constant(np.zeros(4))
    with pytest.raises(ShapeError):
        T.layer_norm(x, gamma, beta, residual=T.constant(np.ones((3, 1))))
    with pytest.raises(ShapeError):
        T.layer_norm(x, gamma, beta, residual=T.constant(np.ones(4)))


# -- the explicit branch ---------------------------------------------------------------


def _ndrm2_pair(idf, tf, dlen, w, b, mode):
    """(fused, composed) value and gradients of the two scalars."""
    bs = BSState(mean_tf=1.7, mean_dlen=48.0)
    with T.precision(mode):
        runs = []
        for fn in (ndrm2_term_scores, ndrm2_term_scores_composed):
            def build(p, fn=fn):
                params = ExplicitParams(w_dlen=p["w"], b_dlen=p["b"])
                return fn(idf, tf, dlen, params, bs)
            runs.append(value_and_grads(build, {"w": np.array(w),
                                                "b": np.array(b)}))
    return runs


@pytest.mark.parametrize("mode", ["float32", "float64"])
@settings(max_examples=40, deadline=None)
@given(m=st.integers(0, 12), w=st.floats(-3, 3), b=st.floats(-4, 2),
       seed=SEEDS)
def test_ndrm2_term_scores_equal_the_chain(mode, m, w, b, seed):
    # b below -bs_dl * w drives lin below 0 for some or all terms.
    rng = np.random.default_rng(seed)
    idf = rng.uniform(0, 5, size=m)
    tf = rng.integers(0, 6, size=m).astype(np.float64)
    dlen = rng.integers(1, 120, size=m).astype(np.float64)
    fused, composed = _ndrm2_pair(idf, tf, dlen, w, b, mode)
    assert_same(fused, composed, tol=None)


@pytest.mark.parametrize("mode", ["float32", "float64"])
@pytest.mark.parametrize("w, b", [(0.0, 0.0), (1.0, -5.0), (-1.0, 0.5)],
                         ids=["lin-zero", "lin-negative", "lin-mixed"])
@pytest.mark.parametrize("m", [0, 1, 3], ids=["zero-terms", "one-term", "three"])
def test_ndrm2_term_scores_edge_cases(mode, w, b, m):
    idf = np.array([1.2, 0.7, 2.0])[:m]
    tf = np.array([3.0, 1.0, 0.0])[:m]
    dlen = np.array([40.0, 60.0, 10.0])[:m]
    fused, composed = _ndrm2_pair(idf, tf, dlen, w, b, mode)
    assert_same(fused, composed, tol=None)
    if w == 0.0 and b == 0.0:     # lin is exactly 0: relu passes no gradient
        assert fused[1]["w"] == 0.0 and fused[1]["b"] == 0.0


# -- the RankNet loss ------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["float32", "float64"])
@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 12), spread=st.sampled_from([0.1, 1.0, 10.0, 100.0]),
       seed=SEEDS)
def test_ranknet_loss_equals_softplus_of_sub(mode, m, spread, seed):
    # A spread of 100 saturates the sigmoid in float32: exp(-d) overflows.
    rng = np.random.default_rng(seed)
    arrays = {"pref": rng.normal(size=m) * spread, "other": rng.normal(size=m) * spread}
    with T.precision(mode):
        fused = value_and_grads(lambda p: ranknet_loss(p["pref"], p["other"]), arrays)
        composed = value_and_grads(
            lambda p: R.softplus(R.sub(p["other"], p["pref"])), arrays)
    assert_same(fused, composed, tol=None)


def test_ranknet_loss_refuses_scores_of_another_shape():
    with pytest.raises(ShapeError):
        ranknet_loss(T.constant(np.zeros(3)), T.constant(np.zeros(1)))


# -- the duet mix ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["train", "infer"])
@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 10), seed=SEEDS)
def test_duet_mix_matches_the_chain(mode, m, seed):
    rng = np.random.default_rng(seed)
    arrays = {"lat": rng.normal(size=m), "exp": rng.normal(size=m),
              "w1": np.array(rng.normal()), "w2": np.array(rng.normal()),
              "b": np.array(rng.normal())}
    stats = dict(bn_latent_mean=0.3, bn_latent_var=2.0, bn_explicit_mean=-0.1,
                 bn_explicit_var=0.5)

    def params_of(p):
        return DuetParams(w1=p["w1"], w2=p["w2"], b=p["b"], **stats)

    def composed(p):
        params = params_of(p)
        if mode == "infer":
            return duet_infer_composed(p["lat"], p["exp"], params)
        bn_lat = T.batch_norm_train(p["lat"], params.var_floor)[0]
        bn_exp = T.batch_norm_train(p["exp"], params.var_floor)[0]
        return duet_mix_composed(bn_lat, bn_exp, params)

    with T.precision("float64"):
        fused = value_and_grads(
            lambda p: duet_scores(p["lat"], p["exp"], params_of(p), mode), arrays)
        want = value_and_grads(composed, arrays)
    assert_same(fused, want)


def test_infer_duet_with_variance_below_the_floor_matches_the_chain():
    arrays = {"lat": np.array([0.5, -1.0, 2.0]), "exp": np.array([1.0, 0.0, 3.0]),
              "w1": np.array(0.7), "w2": np.array(-1.3), "b": np.array(0.2)}

    def params_of(p):
        return DuetParams(w1=p["w1"], w2=p["w2"], b=p["b"], bn_latent_mean=1.0,
                          bn_latent_var=0.0, bn_explicit_mean=0.0,
                          bn_explicit_var=1e-9)

    with T.precision("float64"):
        fused = value_and_grads(
            lambda p: duet_scores(p["lat"], p["exp"], params_of(p), "infer"), arrays)
        want = value_and_grads(
            lambda p: duet_infer_composed(p["lat"], p["exp"], params_of(p)), arrays)
    assert_same(fused, want)


# -- separable attention ---------------------------------------------------------------


def _attention_arrays(rng, n, heads, d_key, d_value, m):
    pk, pv = heads * d_key, heads * d_value
    return {"x": rng.normal(size=(n, m)),
            "wq": rng.normal(size=(m, pk)), "bq": rng.normal(size=pk),
            "wk": rng.normal(size=(m, pk)), "bk": rng.normal(size=pk),
            "wv": rng.normal(size=(m, pv)), "bv": rng.normal(size=pv),
            "wo": rng.normal(size=(pv, m)) / np.sqrt(pv), "bo": rng.normal(size=m)}


def _attention_pair(n, heads, d_key, d_value, per_head_dim, seed):
    m = heads * per_head_dim
    cfg = ModelConfig(model_dim=m, num_heads=heads, d_key=d_key,
                      d_value=d_value, conv_window=1, conv_groups=1)
    arrays = _attention_arrays(np.random.default_rng(seed), n, heads, d_key,
                               d_value, m)
    with T.precision("float64"):
        fused = value_and_grads(lambda p: multi_head(p["x"], p, cfg), arrays)
        composed = value_and_grads(
            lambda p: separable_multi_head_composed(p["x"], p, heads), arrays)
    return fused, composed


@pytest.mark.parametrize("n, heads, d_key, d_value, per_head_dim", [
    (1, 1, 3, 3, 4), (1, 3, 2, 5, 2), (5, 1, 4, 4, 6), (5, 1, 2, 7, 3),
    (7, 2, 3, 6, 4), (9, 4, 5, 2, 1), (40, 2, 8, 8, 16)],
    ids=["n1-one-head", "n1-dk-ne-dv", "one-head", "one-head-dk-ne-dv",
         "dk-lt-dv", "dk-gt-dv", "tiny-shape"])
def test_separable_attention_matches_the_chain(n, heads, d_key, d_value,
                                               per_head_dim):
    assert_same(*_attention_pair(n, heads, d_key, d_value, per_head_dim, n + heads))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4), st.integers(1, 6),
       st.integers(1, 6), st.integers(1, 4), SEEDS)
def test_separable_attention_matches_the_chain_random(n, heads, d_key, d_value,
                                                      per_head_dim, seed):
    assert_same(*_attention_pair(n, heads, d_key, d_value, per_head_dim, seed))


# -- the feed-forward sublayer ---------------------------------------------------------


def _ffn_arrays(rng, n, m, hidden):
    return {"x": rng.normal(size=(n, m)), "w1": rng.normal(size=(m, hidden)),
            "b1": rng.normal(size=hidden), "w2": rng.normal(size=(hidden, m)),
            "b2": rng.normal(size=m)}


def _ffn_pair(arrays):
    with T.precision("float64"):
        return [value_and_grads(lambda p, fn=fn: fn(p["x"], p["w1"], p["b1"],
                                                    p["w2"], p["b2"]), arrays)
                for fn in (feed_forward, feed_forward_composed)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 6), st.integers(1, 12), SEEDS)
def test_feed_forward_matches_the_chain(n, m, hidden, seed):
    assert_same(*_ffn_pair(_ffn_arrays(np.random.default_rng(seed), n, m, hidden)))


def test_feed_forward_passes_no_gradient_through_exact_zeros():
    # Row 0 of x and column 0 of w1 are zero, and so are b1[0] and b1[2], so
    # those pre-activations are exactly 0; relu sends them no gradient.
    arrays = _ffn_arrays(np.random.default_rng(4), 4, 3, 5)
    arrays["x"][0] = 0.0
    arrays["w1"][:, 0] = 0.0
    arrays["b1"][[0, 2]] = 0.0
    fused, composed = _ffn_pair(arrays)
    assert_same(fused, composed)
    assert np.all(fused[1]["b1"][0] == 0.0)
    assert np.all(fused[1]["w1"][:, 0] == 0.0)


# -- the positional add inside the embedding -------------------------------------------


@pytest.mark.parametrize("mode", ["float32", "float64"])
@pytest.mark.parametrize("ids", [[0], [3, 1, 3, 0, 3], [2, 2]],
                         ids=["one", "repeats", "all-same"])
def test_embedding_offset_equals_embedding_then_add(mode, ids):
    rng = np.random.default_rng(len(ids))
    arrays = {"t": rng.normal(size=(4, 6))}
    offset = rng.normal(size=(len(ids), 6))
    with T.precision(mode):
        offset = offset.astype(T.default_dtype())
        fused = value_and_grads(lambda p: T.embedding(p["t"], ids, offset), arrays)
        composed = value_and_grads(
            lambda p: embedding_then_add(p["t"], ids, offset), arrays)
    assert_same(fused, composed, tol=None)


def test_embedding_refuses_offset_of_another_shape():
    table = T.constant(np.ones((4, 3)))
    with pytest.raises(ShapeError):
        T.embedding(table, [0, 1], np.zeros((3, 3)))
    with pytest.raises(ShapeError):
        T.embedding(table, [0, 1], np.zeros(3))


# -- the latent head -------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(t=st.integers(0, 6), k=st.integers(1, 12), seed=SEEDS)
def test_latent_head_matches_the_chain(t, k, seed):
    rng = np.random.default_rng(seed)
    arrays = {"f": rng.normal(size=(t, k)), "w": rng.normal(size=k),
              "b": np.array(rng.normal())}
    with T.precision("float64"):
        fused = value_and_grads(
            lambda p: latent_term_scores(p["f"], {"w": p["w"], "b": p["b"]}), arrays)
        want = value_and_grads(lambda p: latent_term_scores_composed(
            p["f"], {"w": p["w"], "b": p["b"]}), arrays)
    assert_same(fused, want)


def test_latent_head_refuses_mismatched_features():
    head = {"w": T.constant(np.ones(4)), "b": T.constant(np.zeros(()))}
    with pytest.raises(ShapeError):
        latent_term_scores(T.constant(np.ones((2, 3))), head)
    with pytest.raises(ShapeError):
        latent_term_scores(T.constant(np.ones(4)), head)


# -- window sums -------------------------------------------------------------------------


def _pool_pair(t, n, window_len, stride, seed, bank):
    wcfg = ModelConfig(window_len=window_len, stride=stride)
    rows = np.random.default_rng(seed).uniform(-1, 1, size=(t, n))
    with T.precision("float64"):
        fused = value_and_grads(
            lambda p: windowed_pool_terms(p["rows"], wcfg, bank), {"rows": rows})
        blocks = value_and_grads(
            lambda p: windowed_pool_terms_blocks(p["rows"], wcfg, bank),
            {"rows": rows})
    return fused, blocks


@pytest.mark.parametrize("window_len, stride", [(5, 2), (6, 4), (7, 3), (4, 4)],
                         ids=["5-2", "6-4", "coprime-7-3", "stride-eq-window"])
@pytest.mark.parametrize("n_from_window", [None, -1, 0, 1],
                         ids=["n-1", "below-window", "at-window", "window-plus-1"])
@pytest.mark.parametrize("t", [0, 1, 3])
def test_matmul_window_sums_match_blocks(window_len, stride, n_from_window, t):
    n = 1 if n_from_window is None else window_len + n_from_window
    fused, blocks = _pool_pair(t, n, window_len, stride, n + t, KernelBank())
    assert_same(fused, blocks)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(1, 40), st.integers(1, 12),
       st.integers(1, 12), SEEDS)
def test_matmul_window_sums_match_blocks_random(t, n, window_len, stride, seed):
    stride = min(stride, window_len)
    fused, blocks = _pool_pair(t, n, window_len, stride, seed, KernelBank())
    assert_same(fused, blocks)
