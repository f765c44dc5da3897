"""Central finite-difference checks for every differentiable op (64-bit)."""

import numpy as np
import pytest
import refops as R
from helpers import init_head_params
from oracles import batch_norm_infer, kernel_features, windowed_pool_term

import ckrank.tensor as T
from ckrank.attention import (conformer_block, feed_forward, init_block_params,
                              multi_head)
from ckrank.gradcheck import finite_difference_check
from ckrank.model import BSState, DuetParams, ExplicitParams, ModelConfig, \
    duet_scores, ndrm2_term_scores
from ckrank.pooling import (KernelBank, interaction_rows, latent_term_scores,
                            windowed_pool_terms)
from ckrank.train import ranknet_loss

RNG = np.random.default_rng(12345)
TOL = 1e-5


def rand(*shape, lo=-1.0, hi=1.0):
    return RNG.uniform(lo, hi, size=shape)


def check(build_loss, arrays, tol=TOL, max_elements=None):
    """FD-check `build_loss` (dict of param tensors -> scalar tensor) in f64."""
    with T.precision("float64"):
        params = {name: T.parameter(arr) for name, arr in arrays.items()}
        result = finite_difference_check(lambda: build_loss(params), params,
                                         max_elements=max_elements,
                                         rng=np.random.default_rng(0))
    assert result.max_rel_err < tol, (
        f"{result.worst_param}[{result.worst_index}]: "
        f"analytic {result.analytic} vs numeric {result.numeric} "
        f"(rel {result.max_rel_err:.3e})")
    return result


def mixed(out, seed=0):
    """Scalar loss with a fixed random mix so gradients are nondegenerate."""
    mix = T.constant(np.random.default_rng(seed).normal(size=out.shape))
    return T.tsum(R.mul(out, mix))


# -- elementwise and scalar ops -------------------------------------------------


def test_grad_add_sub_mul_div():
    arrays = {"a": rand(4, 3), "b": rand(4, 3, lo=0.5, hi=2.0)}
    check(lambda p: mixed(R.add(p["a"], p["b"])), arrays)
    check(lambda p: mixed(R.sub(p["a"], p["b"])), arrays)
    check(lambda p: mixed(R.mul(p["a"], p["b"])), arrays)
    check(lambda p: mixed(R.div(p["a"], p["b"])), arrays)


def test_grad_bias_broadcast():
    arrays = {"a": rand(4, 3), "b": rand(3)}
    check(lambda p: mixed(R.add(p["a"], p["b"])), arrays)
    check(lambda p: mixed(R.mul(p["a"], p["b"])), arrays)


def test_grad_scalar_broadcast():
    arrays = {"a": rand(4, 3), "s": rand(1).reshape(())}
    check(lambda p: mixed(R.mul(p["a"], p["s"])), arrays)
    check(lambda p: mixed(R.div(p["a"], R.add_const(p["s"], 3.0))), arrays)


def test_grad_maximum_away_from_ties():
    a = rand(5, 2)
    b = a + np.where(rand(5, 2) > 0, 0.5, -0.5)  # keep a gap at every element
    check(lambda p: mixed(R.maximum(p["a"], p["b"])), {"a": a, "b": b})


def test_grad_scale_add_const():
    arrays = {"a": rand(3, 3)}
    check(lambda p: mixed(T.scale(p["a"], -2.5)), arrays)
    check(lambda p: mixed(R.add_const(p["a"], 4.0)), arrays)


def test_grad_unary_ops():
    pos = {"a": rand(4, 3, lo=0.2, hi=3.0)}
    any_ = {"a": rand(4, 3, lo=-2.0, hi=2.0)}
    off_zero = {"a": rand(4, 3, lo=0.3, hi=2.0) * np.where(rand(4, 3) > 0, 1, -1)}
    check(lambda p: mixed(R.exp(p["a"])), any_)
    check(lambda p: mixed(R.log(p["a"])), pos)
    check(lambda p: mixed(R.sqrt(p["a"])), pos)
    check(lambda p: mixed(R.softplus(p["a"])), any_)
    check(lambda p: mixed(R.relu(p["a"])), off_zero)


def test_grad_dropout_matches_mask():
    # FD would resample the mask, so compare against the captured mask directly.
    with T.precision("float64"):
        x = T.parameter(rand(6, 4))
        y = T.dropout(x, 0.5, training=True, rng=np.random.default_rng(3))
        mask = y.numpy() / np.where(x.numpy() == 0, 1, x.numpy())
        T.backward(T.tsum(y))
        np.testing.assert_allclose(x.grad, mask, rtol=1e-12)


# -- shape ops -------------------------------------------------------------------


def test_grad_matmul_transpose_reshape():
    arrays = {"a": rand(4, 3), "b": rand(3, 5)}
    check(lambda p: mixed(R.matmul(p["a"], p["b"])), arrays)
    check(lambda p: mixed(R.transpose(p["a"])), {"a": rand(4, 3)})
    check(lambda p: mixed(R.reshape(p["a"], (2, 6))), {"a": rand(4, 3)})


def test_grad_concat_narrow():
    arrays = {"a": rand(2, 3), "b": rand(4, 3)}
    check(lambda p: mixed(T.concat([p["a"], p["b"]], axis=0)), arrays)
    check(lambda p: mixed(R.narrow(T.concat([p["a"], p["b"]], axis=0), 0, 1, 3)),
          arrays)


def test_grad_gather_segment_sum():
    check(lambda p: mixed(T.gather(p["a"], np.array([0, 2, 2, 4]))),
          {"a": rand(5)})
    check(lambda p: mixed(T.segment_sum(p["a"], np.array([0, 1, 1, 3]), 4)),
          {"a": rand(4)})


def test_grad_reductions():
    arrays = {"a": rand(4, 3)}
    check(lambda p: T.tsum(p["a"]), arrays)
    check(lambda p: T.tmean(p["a"]), arrays)
    check(lambda p: mixed(T.tsum(p["a"], axis=0)), arrays)
    check(lambda p: mixed(T.tmean(p["a"], axis=1)), arrays)
    # unique maxima so the argmax route is stable under FD probes
    base = np.arange(12.0).reshape(4, 3) * 0.37
    check(lambda p: mixed(R.tmax(p["a"], axis=1)), {"a": base})
    check(lambda p: R.tmax(p["a"]), {"a": base})


def test_grad_softmax_linear():
    check(lambda p: mixed(T.softmax(p["a"], axis=-1)), {"a": rand(4, 5)})
    arrays = {"x": rand(4, 3), "w": rand(3, 2), "b": rand(2)}
    check(lambda p: mixed(T.linear(p["x"], p["w"], p["b"])), arrays)


def test_grad_embedding():
    ids = np.array([1, 3, 1, 0])
    check(lambda p: mixed(T.embedding(p["table"], ids)), {"table": rand(5, 4)})


def test_grad_embedding_with_offset():
    ids = np.array([1, 3, 1, 0])
    offset = rand(4, 4)
    check(lambda p: mixed(T.embedding(p["table"], ids, offset)),
          {"table": rand(5, 4)})


def test_grad_feed_forward():
    arrays = {"x": rand(5, 4), "w1": rand(4, 6), "b1": rand(6), "w2": rand(6, 4),
              "b2": rand(4)}
    check(lambda p: mixed(feed_forward(p["x"], p["w1"], p["b1"], p["w2"],
                                       p["b2"])), arrays)


def test_grad_layer_norm():
    arrays = {"x": rand(5, 8), "gamma": rand(8, lo=0.5, hi=1.5), "beta": rand(8)}
    check(lambda p: mixed(T.layer_norm(p["x"], p["gamma"], p["beta"])), arrays)


def test_grad_grouped_conv1d():
    groups, cg, window, n = 2, 3, 3, 7
    arrays = {
        "x": rand(n, groups * cg),
        "k": rand(groups, window, cg, cg),
        "b": rand(groups * cg),
    }
    check(lambda p: mixed(T.grouped_conv1d(p["x"], p["k"], groups, window, p["b"])),
          arrays)


def test_grad_batch_norm_train_both_branches():
    check(lambda p: mixed(T.batch_norm_train(p["x"])[0]), {"x": rand(8)})
    # clamped branch: variance below the floor is treated as a constant
    tiny = 7.0 + rand(8) * 1e-4
    check(lambda p: mixed(T.batch_norm_train(p["x"], var_floor=1.0)[0]),
          {"x": tiny})


def test_grad_batch_norm_infer():
    check(lambda p: mixed(batch_norm_infer(p["x"], mean=0.3, var=2.0)),
          {"x": rand(8)})


# -- attention -------------------------------------------------------------------


def test_grad_self_attention_both_variants():
    arrays = {"q": rand(6, 4), "k": rand(6, 4), "v": rand(6, 3)}
    check(lambda p: mixed(R.self_attention(p["q"], p["k"], p["v"])), arrays)
    check(lambda p: mixed(R.separable_self_attention(p["q"], p["k"], p["v"])), arrays)


def _micro_attention_cfg():
    return ModelConfig(model_dim=8, num_heads=2, d_key=4, d_value=4,
                       conv_window=3, conv_groups=2, dropout_rate=0.0,
                       num_layers=1)


def test_grad_multi_head_and_conformer_block():
    cfg = _micro_attention_cfg()
    with T.precision("float64"):
        params = init_block_params(cfg, np.random.default_rng(0))
        arrays = {name: t.numpy() for name, t in params.items()}
    arrays["x"] = rand(5, cfg.model_dim)

    def block_loss(p):
        block = {name: p[name] for name in p if name != "x"}
        return mixed(conformer_block(p["x"], block, cfg, training=False,
                                     rng=None, variant="separable"))

    def mha_loss(p):
        block = {name: p[name] for name in p if name != "x"}
        return mixed(multi_head(p["x"], block, cfg, variant="separable"))

    check(mha_loss, arrays, max_elements=6)
    check(block_loss, arrays, max_elements=6)


def test_grad_conformer_block_standard_variant():
    cfg = _micro_attention_cfg()
    with T.precision("float64"):
        params = init_block_params(cfg, np.random.default_rng(1))
        arrays = {name: t.numpy() for name, t in params.items()}
    arrays["x"] = rand(5, cfg.model_dim)

    def block_loss(p):
        block = {name: p[name] for name in p if name != "x"}
        return mixed(conformer_block(p["x"], block, cfg, training=False,
                                     rng=None, variant="standard"))

    check(block_loss, arrays, max_elements=6)


# -- pooling and scoring -----------------------------------------------------------


def _smooth_bank():
    # Moderate kernel widths keep FD probes away from the sharp exact-match tail.
    mus = tuple(np.linspace(-0.8, 1.0, 7))
    return KernelBank(mus=mus, sigmas=(0.3,) * 7)


def test_grad_interaction_rows():
    arrays = {"q": rand(3, 6), "d": rand(10, 6)}
    check(lambda p: mixed(interaction_rows(p["q"], p["d"])), arrays)


def test_grad_kernel_features():
    bank = _smooth_bank()
    check(lambda p: mixed(kernel_features(p["row"], bank)),
          {"row": rand(12, lo=-0.9, hi=0.9)})


def test_grad_windowed_pooling_both_paths():
    bank = _smooth_bank()
    wcfg = ModelConfig(window_len=5, stride=2)
    row = rand(12, lo=-0.9, hi=0.9)
    check(lambda p: mixed(windowed_pool_term(p["row"], wcfg, bank)), {"row": row})
    rows = rand(3, 12, lo=-0.9, hi=0.9)
    check(lambda p: mixed(windowed_pool_terms(p["rows"], wcfg, bank)),
          {"rows": rows})


def test_grad_latent_scores_and_head():
    bank = _smooth_bank()
    with T.precision("float64"):
        head = init_head_params(np.random.default_rng(0), bank.k)
        arrays = {"w": head["w"].numpy(), "b": head["b"].numpy(),
                  "features": rand(4, bank.k)}

    def loss(p):
        return mixed(latent_term_scores(p["features"], {"w": p["w"], "b": p["b"]}))

    check(loss, arrays)


def test_grad_ndrm2_term_scores():
    bs = BSState(mean_tf=1.5, mean_dlen=50.0)
    idf = np.array([1.2, 0.7, 2.0])
    tf = np.array([3.0, 1.0, 0.0])
    dlen = np.array([40.0, 60.0, 55.0])

    def loss(p):
        params = ExplicitParams(w_dlen=p["w"], b_dlen=p["b"])
        return mixed(ndrm2_term_scores(idf, tf, dlen, params, bs))

    check(loss, {"w": np.array(1.0), "b": np.array(0.0)})


def test_grad_duet_combination():
    def loss(p):
        duet = DuetParams(w1=p["w1"], w2=p["w2"], b=p["b"])
        return mixed(duet_scores_wrapper(p["lat"], p["exp"], duet))

    def duet_scores_wrapper(lat, exp, duet):
        from ckrank.model import duet_scores
        return duet_scores(lat, exp, duet, mode="train")

    arrays = {"w1": np.array(1.0), "w2": np.array(1.0), "b": np.array(0.0),
              "lat": rand(8), "exp": rand(8, lo=0.1, hi=2.0)}
    check(loss, arrays)


def test_grad_duet_infer_mode():
    def loss(p):
        duet = DuetParams(w1=p["w1"], w2=p["w2"], b=p["b"], bn_latent_mean=0.3,
                          bn_latent_var=2.0, bn_explicit_mean=-0.4,
                          bn_explicit_var=0.5)
        return mixed(duet_scores(p["lat"], p["exp"], duet, mode="infer"))

    arrays = {"w1": np.array(0.8), "w2": np.array(-1.2), "b": np.array(0.1),
              "lat": rand(8), "exp": rand(8, lo=0.1, hi=2.0)}
    check(loss, arrays)


def test_grad_ranknet_loss():
    check(lambda p: T.tmean(ranknet_loss(p["pref"], p["other"])),
          {"pref": rand(6), "other": rand(6)})


def test_gradcheck_reports_worst_param():
    with T.precision("float64"):
        x = T.parameter(rand(3))
        result = finite_difference_check(lambda: T.tsum(R.mul(x, x)), {"x": x})
    assert result.worst_param == "x"
    assert result.checked > 0
    assert result.max_rel_err < 1e-6
