"""Every op charges what its backward closure keeps.

An op that records a graph keeps arrays alive in its backward closure until
the backward pass (or the graph's release) drops it. ``wrap_op`` charges
the ``saved`` arrays to the live-bytes tracker, so ``out._kept`` must equal
the bytes of the distinct buffers the closure refers to. Left out: the
parents' buffers and the output's, which their tensors already charge, and
read-only shared constants (the kernel bank's cast constants, cached cover
tables), which no single op owns.
"""

import ast
import inspect

import numpy as np
import pytest
from helpers import TINY_KWARGS

import ckrank.tensor as T
from ckrank import attention, model, pooling, train
from ckrank.attention import init_block_params
from ckrank.model import BSState, DuetParams, ExplicitParams, ModelConfig
from ckrank.pooling import KernelBank

N = 60                                   # positions, as a short document
CFG = ModelConfig(**{k: TINY_KWARGS[k] for k in (
    "model_dim", "num_heads", "d_key", "d_value", "conv_window", "conv_groups",
    "num_layers")}, dropout_rate=0.1)
D = CFG.model_dim


def _owner(a):
    """The array whose memory a views (through as_strided's wrapper too)."""
    while True:
        base = a.base
        if base is not None and not isinstance(base, np.ndarray):
            base = getattr(base, "base", None)
        if not isinstance(base, np.ndarray):
            return a
        a = base


def _closure_arrays(fn):
    """The arrays a function's closure refers to, directly, inside a list or
    tuple, or through the closure of a function it refers to (a fused op's
    backward calls its sublayer's)."""
    found = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        items = value if isinstance(value, (list, tuple)) else (value,)
        found += [v for v in items if isinstance(v, np.ndarray)]
        found += [a for v in items if inspect.isfunction(v)
                  for a in _closure_arrays(v)]
    return found


def _kept_bytes(out, inputs):
    """Bytes of the distinct buffers out's backward closure keeps, less the
    inputs' and the output's buffers and read-only constants."""
    skip = {id(_owner(t.data)) for t in inputs} | {id(_owner(out.data))}
    owners = {id(o): o for o in map(_owner, _closure_arrays(out._backward))
              if id(o) not in skip and o.flags.writeable}
    return sum(o.nbytes for o in owners.values())


def _rng():
    return np.random.default_rng(0)


def _param(*shape):
    return T.parameter(_rng().normal(size=shape))


def _tensor_ops():
    x, y = _param(N, D), _param(N, D)
    v = _param(N)
    gamma, beta = _param(D), _param(D)
    cg = D // CFG.conv_groups
    kernel = _param(CFG.conv_groups, CFG.conv_window, cg, cg)
    bias, weight, out_bias = _param(D), _param(D, 2 * D), _param(2 * D)
    table = _param(40, D)
    return {
        "scale": lambda: (T.scale(x, 0.5), [x]),
        "concat": lambda: (T.concat([x, y]), [x, y]),
        "gather": lambda: (T.gather(v, [3, 1, 1, 7]), [v]),
        "segment_sum": lambda: (T.segment_sum(v, np.arange(N) % 5, 5), [v]),
        "sum": lambda: (T.tsum(x, axis=0), [x]),
        "softmax": lambda: (T.softmax(x), [x]),
        "linear": lambda: (T.linear(x, weight, out_bias), [x, weight, out_bias]),
        "embedding": lambda: (T.embedding(table, [1, 5, 2], np.ones((3, D))),
                              [table]),
        "layer_norm": lambda: (T.layer_norm(x, gamma, beta, residual=y),
                               [x, gamma, beta, y]),
        "grouped_conv1d": lambda: (T.grouped_conv1d(x, kernel, CFG.conv_groups,
                                                    CFG.conv_window, bias),
                                   [x, kernel, bias]),
        "batch_norm_train": lambda: (T.batch_norm_train(v)[0], [v]),
    }


def _attention_ops():
    x = _param(N, D)
    params = init_block_params(CFG, _rng())
    p = CFG.num_heads * CFG.d_key
    q, k, v = _param(N, p), _param(N, p), _param(N, CFG.num_heads * CFG.d_value)
    ffn = [params[name] for name in ("ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2")]
    return {
        "separable_attention": lambda: (
            attention.multi_head(x, params, CFG), [x, *params.values()]),
        "standard_heads": lambda: (attention._standard_heads(q, k, v, CFG.num_heads),
                                   [q, k, v]),
        "feed_forward": lambda: (attention.feed_forward(x, *ffn), [x, *ffn]),
    }


def _pooling_ops():
    q, doc = _param(3, D), _param(N, D)
    rows = T.parameter(np.tanh(_rng().normal(size=(3, N))))
    feats, head = _param(3, 10), {"w": _param(10), "b": _param()}
    bank, wcfg = KernelBank(), ModelConfig(window_len=30, stride=10)
    return {
        "interaction_rows": lambda: (pooling.interaction_rows(q, doc), [q, doc]),
        "windowed_pool_terms": lambda: (pooling.windowed_pool_terms(rows, wcfg, bank),
                                        [rows]),
        "latent_term_scores": lambda: (pooling.latent_term_scores(feats, head),
                                       [feats, *head.values()]),
    }


def _model_ops():
    params, duet = ExplicitParams(), DuetParams()
    m = 12
    idf, tf, dlen = _rng().random(m) + 1, np.arange(1, m + 1), np.full(m, 30.0)
    lat, exp = _param(m), _param(m)
    return {
        "ndrm2_term_scores": lambda: (
            model.ndrm2_term_scores(idf, tf, dlen, params, BSState(1.5, 40.0)),
            [params.w_dlen, params.b_dlen]),
        "duet_mix": lambda: (model._duet_mix(lat, exp, duet, 0.1, 2.0, -0.3, 0.5),
                             [lat, exp, duet.w1, duet.w2, duet.b]),
    }


def _train_ops():
    a, b = _param(8), _param(8)
    return {"ranknet_loss": lambda: (train.ranknet_loss(a, b), [a, b])}


MODULES = (T, attention, pooling, model, train)
BUILDERS = {**_tensor_ops(), **_attention_ops(), **_pooling_ops(), **_model_ops(),
            **_train_ops()}


def _op_names(module):
    """The op names a module passes to wrap_op or sublayer_op (the fourth
    argument of both; sublayer_op's own wrap_op call passes a name on)."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(
                node.func, "id", None)) in ("wrap_op", "sublayer_op") \
                and len(node.args) > 3 and isinstance(node.args[3], ast.Constant):
            names.add(node.args[3].value)
    return names


def test_every_op_is_covered():
    assert set().union(*map(_op_names, MODULES)) == set(BUILDERS)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_an_op_charges_the_buffers_its_closure_keeps(name):
    out, inputs = BUILDERS[name]()
    assert out.requires_grad and out._backward is not None
    assert out._kept == _kept_bytes(out, inputs), name
    assert out.tracked_nbytes() == out.data.nbytes + out._kept


def _fused_sublayers(dropout):
    """Each encoder sublayer fused with its dropout (when on), residual add
    and layer norm, both attention variants, and the inputs it reads."""
    params = init_block_params(CFG, _rng())
    cfg = ModelConfig(**{**CFG.to_dict(), "dropout_rate": 0.1 if dropout else 0.0})
    conv, attn, ffn = attention.conformer_sublayers(params, cfg, True, _rng())
    _, standard, _ = attention.conformer_sublayers(params, cfg, True, _rng(),
                                                   variant="standard")
    names = {"conv": ("conv_kernel", "conv_bias", "ln1_gamma", "ln1_beta"),
             "attention": ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
                           "ln2_gamma", "ln2_beta"),
             "ffn": ("ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2", "ln3_gamma",
                     "ln3_beta")}
    x = _param(N, D)
    return {name: (fn, [x, *(params[p] for p in names[key])], x)
            for name, key, fn in (("conv", "conv", conv),
                                  ("separable-attention", "attention", attn),
                                  ("standard-attention", "attention", standard),
                                  ("ffn", "ffn", ffn))}


@pytest.mark.parametrize("dropout", [True, False], ids=["dropout", "no-dropout"])
@pytest.mark.parametrize("name", ["conv", "separable-attention",
                                  "standard-attention", "ffn"])
def test_a_fused_sublayer_charges_what_its_closure_keeps(name, dropout):
    fn, inputs, x = _fused_sublayers(dropout)[name]
    out = fn(x)
    assert out.requires_grad and out._backward is not None
    # The standard variant's op reads the heads' output, another parent.
    assert out._kept == _kept_bytes(out, [*inputs, *out._parents]), name
    # The normalized rows and their deviations, the mask when dropout is
    # on, and what the sublayer keeps: never a second (n, d) output.
    n_d = N * D * out.data.itemsize
    masks = n_d if dropout else 0
    assert out._kept >= n_d + N * out.data.itemsize + masks
    assert out.tracked_nbytes() == out.data.nbytes + out._kept
