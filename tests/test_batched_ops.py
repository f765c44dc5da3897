"""Batched grouped convolution and multi-head attention against their
per-tap and per-head compositions, in float64, forward and backward."""

import gc

import numpy as np
import pytest
import refops as R

import ckrank.tensor as T
from ckrank.attention import init_block_params, multi_head
from ckrank.errors import ShapeError
from ckrank.memory import tracker
from ckrank.model import ModelConfig

ATOL = 1e-12


# -- oracles ---------------------------------------------------------------------


def conv_oracle(x, kernel, groups, window, bias=None):
    """Grouped conv as one einsum per tap, with the matching per-tap backward."""
    n, c = x.shape
    cg = c // groups
    pad = (window - 1) // 2
    xp = np.zeros((n + 2 * pad, c), dtype=x.data.dtype)
    xp[pad:pad + n] = x.data
    xg = xp.reshape(n + 2 * pad, groups, cg)
    k = kernel.data
    out = np.zeros((n, groups, cg), dtype=x.data.dtype)
    for t in range(window):
        out += np.einsum("ngi,gio->ngo", xg[t:t + n], k[:, t], optimize=True)
    data = out.reshape(n, c)
    if bias is not None:
        data = data + bias.data
    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def backward(g):
        go = g.reshape(n, groups, cg)
        dk = np.zeros_like(k)
        for t in range(window):
            dk[:, t] = np.einsum("ngi,ngo->gio", xg[t:t + n], go, optimize=True)
        kernel._accumulate(dk)
        dxp = np.zeros_like(xg)
        for t in range(window):
            dxp[t:t + n] += np.einsum("ngo,gio->ngi", go, k[:, t], optimize=True)
        x._accumulate(dxp[pad:pad + n].reshape(n, c))
        if bias is not None:
            bias._accumulate(g.sum(axis=0))

    return T.wrap_op(data, parents, backward, "conv_oracle")


def multi_head_oracle(x, params, cfg, variant):
    """One narrow per head and projection, single-head attention, concat."""
    attend = R.self_attention if variant == "standard" else R.separable_self_attention
    q = T.linear(x, params["wq"], params["bq"])
    k = T.linear(x, params["wk"], params["bk"])
    v = T.linear(x, params["wv"], params["bv"])
    dk, dv = cfg.d_key, cfg.d_value
    heads = [attend(R.narrow(q, 1, h * dk, dk), R.narrow(k, 1, h * dk, dk),
                    R.narrow(v, 1, h * dv, dv))
             for h in range(cfg.num_heads)]
    cat = heads[0] if len(heads) == 1 else T.concat(heads, axis=1)
    return T.linear(cat, params["wo"], params["bo"])


def forward_and_grads(fn, arrays, mix):
    """Output and every parameter gradient of sum(fn(params) * mix)."""
    params = {name: T.parameter(a) for name, a in arrays.items()}
    out = fn(params)
    T.backward(T.tsum(R.mul(out, T.constant(mix))))
    return out.numpy(), {name: p.grad for name, p in params.items()}


def assert_same(fn_a, fn_b, arrays, out_shape, seed=0):
    mix = np.random.default_rng(seed).normal(size=out_shape)
    with T.precision("float64"):
        out_a, grads_a = forward_and_grads(fn_a, arrays, mix)
        out_b, grads_b = forward_and_grads(fn_b, arrays, mix)
    np.testing.assert_allclose(out_a, out_b, rtol=0, atol=ATOL)
    for name in arrays:
        np.testing.assert_allclose(grads_a[name], grads_b[name], rtol=0,
                                   atol=ATOL, err_msg=name)


# -- grouped convolution ---------------------------------------------------------------


# The paper shape in float64: up to PAPER_SWITCH positions, whose fields
# fit one chunk, a field row is one position's window; above it a row
# covers P = _CONV_POSITIONS positions, PAPER_ROWS rows to a pool block.
P = T._CONV_POSITIONS
PAPER_SWITCH = T._CONV_CHUNK_BYTES // (32 * 31 * 8 * 8)
PAPER_ROWS = T._CONV_CHUNK_BYTES // (32 * (P + 30) * 8 * 8)
CONV_CASES = ([(groups, cg, window, n) for n in (1, 2, 3, 7, 40)
               for groups, cg, window in ((1, 1, 1), (2, 3, 3), (4, 2, 7), (1, 4, 9))]
              # The paper shape: shorter than the window, both sides of the
              # switch, every n mod P above it, and a ragged third block.
              + [(32, 8, 31, n) for n in sorted({
                  1, 16, 17, 50, PAPER_SWITCH,
                  *range(PAPER_SWITCH + 1, PAPER_SWITCH + P + 1),
                  2 * P * PAPER_ROWS + 3})])


@pytest.mark.parametrize("groups,cg,window,n", CONV_CASES)
@pytest.mark.parametrize("with_bias", [True, False])
def test_grouped_conv_matches_per_tap_oracle(n, groups, cg, window, with_bias):
    rng = np.random.default_rng([n, groups, window])
    arrays = {"x": rng.normal(size=(n, groups * cg)),
              "k": rng.normal(size=(groups, window, cg, cg))}
    if with_bias:
        arrays["b"] = rng.normal(size=groups * cg)

    def batched(p):
        return T.grouped_conv1d(p["x"], p["k"], groups, window, p.get("b"))

    def oracle(p):
        return conv_oracle(p["x"], p["k"], groups, window, p.get("b"))

    assert_same(batched, oracle, arrays, (n, groups * cg))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 30])
def test_grouped_conv_in_rows_of_several_positions_matches_the_oracle(monkeypatch, n):
    """With a chunk smaller than any field, the paper shape takes P positions
    a field row at every n, one row a block: shorter than the window, than
    one row, and with a ragged last row."""
    monkeypatch.setattr(T, "_CONV_CHUNK_BYTES", 1)
    test_grouped_conv_matches_per_tap_oracle(n, 32, 8, 31, True)


def test_grouped_conv_in_rows_of_several_positions_casts_a_wider_kernel():
    """A float64 kernel on float32 input, above the switch: the weight is
    built in the output's dtype, so the result is the float64 one rounded."""
    n = 2 * P * PAPER_ROWS + 3
    rng = np.random.default_rng(n)
    x, k = rng.normal(size=(n, 256)), rng.normal(size=(32, 31, 8, 8))
    out = T.grouped_conv1d(T.constant(x.astype(np.float32)), T.constant(k, np.float64),
                           32, 31)
    with T.precision("float64"):
        ref = conv_oracle(T.constant(x.astype(np.float32)), T.constant(k), 32, 31)
    assert out.dtype == np.float32
    np.testing.assert_allclose(out.data, ref.data, rtol=0, atol=1e-3)


def test_grouped_conv_rejects_empty_input():
    with pytest.raises(ShapeError):
        T.grouped_conv1d(T.constant(np.zeros((0, 4))),
                         T.constant(np.zeros((2, 3, 2, 2))), 2, 3)


# -- multi-head attention --------------------------------------------------------------


def head_cfg(heads, d_key, d_value):
    return ModelConfig(model_dim=8, num_heads=heads, d_key=d_key,
                       d_value=d_value, conv_window=3, conv_groups=2,
                       dropout_rate=0.0, num_layers=1)


@pytest.mark.parametrize("variant", ["separable", "standard"])
@pytest.mark.parametrize("n,heads,d_key,d_value",
                         [(n, heads, d_key, d_value) for heads, d_key, d_value in
                          ((1, 4, 4), (2, 4, 3), (4, 2, 2), (8, 3, 5))
                          for n in (1, 2, 9)]
                         + [(300, 4, 8, 8)])
def test_multi_head_matches_per_head_oracle(variant, heads, d_key, d_value, n):
    cfg = head_cfg(heads, d_key, d_value)
    with T.precision("float64"):
        block = init_block_params(cfg, np.random.default_rng(heads))
    names = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
    arrays = {name: block[name].numpy() for name in names}
    arrays["x"] = np.random.default_rng(n).normal(size=(n, cfg.model_dim))

    def batched(p):
        return multi_head(p["x"], p, cfg, variant=variant)

    def oracle(p):
        return multi_head_oracle(p["x"], p, cfg, variant)

    assert_same(batched, oracle, arrays, (n, cfg.model_dim))


@pytest.mark.parametrize("variant,visible", [
    # q, k, v, the heads output and the projection out, plus the kept weights.
    ("standard", lambda h, n, dk, dv, m: 5 * n * m + h * n * n),
    # The fused op's output plus its saved arrays: the stacked q/k/v weights
    # (m, p), the key-major q/k/v (p, n) with p = h * (2 dk + dv), the
    # summaries (h, dk, dv) and the summaries times wo (h * dk, m).
    ("separable", lambda h, n, dk, dv, m:
     n * m + (m + n) * h * (2 * dk + dv) + h * dk * (dv + m))])
def test_kept_intermediates_are_charged_until_backward(variant, visible):
    cfg = head_cfg(2, 4, 4)
    n = 48
    params = init_block_params(cfg, np.random.default_rng(0))
    x = T.constant(np.random.default_rng(1).normal(size=(n, cfg.model_dim)))
    gc.collect()
    before = tracker.live_bytes
    out = multi_head(x, params, cfg, variant=variant)
    itemsize = np.dtype(np.float32).itemsize
    visible = visible(2, n, 4, 4, cfg.model_dim) * itemsize
    assert tracker.live_bytes - before == visible
    T.backward(T.tsum(out))
    grads = sum(p.grad.nbytes for p in params.values() if p.grad is not None)
    del out
    gc.collect()
    assert tracker.live_bytes - before == grads
    assert tracker.audit() == tracker.live_bytes
    for p in params.values():
        p.drop_grad()


def test_no_grad_keeps_nothing():
    cfg = head_cfg(2, 4, 4)
    params = init_block_params(cfg, np.random.default_rng(0))
    x = T.constant(np.random.default_rng(1).normal(size=(16, cfg.model_dim)))
    with T.no_grad():
        out = multi_head(x, params, cfg, variant="standard")
    assert out.tracked_nbytes() == out.data.nbytes
