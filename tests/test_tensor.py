"""Tensor op semantics, broadcasting rules, backward contract, accounting."""

import gc
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
import refops as R
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import batch_norm_infer, layer_norm_rows

import ckrank
import ckrank.tensor as T
from ckrank.errors import ContractError, NonFiniteError, ShapeError
from ckrank.memory import tracker


def ten(data, requires_grad=False, dtype=None):
    make = T.parameter if requires_grad else T.constant
    return make(np.asarray(data, dtype=np.float64), dtype=dtype)


# -- construction and dtypes --------------------------------------------------


def test_default_dtype_is_float32():
    assert T.constant([1.0, 2.0]).dtype == np.float32


def test_precision_context_switches_dtype():
    with T.precision("float64"):
        assert T.constant([1.0]).dtype == np.float64
    assert T.constant([1.0]).dtype == np.float32


def test_precision_rejects_unknown_mode():
    with pytest.raises(ContractError):
        with T.precision("float16"):
            pass


def test_parameter_requires_grad_constant_does_not():
    assert T.parameter([1.0]).requires_grad
    assert not T.constant([1.0]).requires_grad


def test_item_and_numpy():
    t = T.constant([[3.5]])
    assert t.item() == pytest.approx(3.5)
    out = t.numpy()
    out[0, 0] = 99.0
    assert t.item() == pytest.approx(3.5)  # numpy() returns a copy


# -- arithmetic forwards -------------------------------------------------------


def test_elementwise_forward_values():
    a = ten([1.0, -2.0, 3.0])
    b = ten([4.0, 5.0, -6.0])
    np.testing.assert_allclose(R.add(a, b).numpy(), [5.0, 3.0, -3.0])
    np.testing.assert_allclose(R.sub(a, b).numpy(), [-3.0, -7.0, 9.0])
    np.testing.assert_allclose(R.mul(a, b).numpy(), [4.0, -10.0, -18.0])
    np.testing.assert_allclose(R.div(a, b).numpy(), [0.25, -0.4, -0.5])
    np.testing.assert_allclose(R.maximum(a, b).numpy(), [4.0, 5.0, 3.0])


def test_scalar_broadcast_allowed():
    a = ten([[1.0, 2.0], [3.0, 4.0]])
    s = ten(5.0)
    np.testing.assert_allclose(R.mul(a, s).numpy(), [[5.0, 10.0], [15.0, 20.0]])
    np.testing.assert_allclose(R.add(s, a).numpy(), [[6.0, 7.0], [8.0, 9.0]])


def test_trailing_bias_broadcast_allowed():
    a = ten([[1.0, 2.0], [3.0, 4.0]])
    b = ten([10.0, 20.0])
    np.testing.assert_allclose(R.add(a, b).numpy(), [[11.0, 22.0], [13.0, 24.0]])


def test_general_broadcast_rejected():
    a = ten(np.ones((2, 3)))
    b = ten(np.ones((2, 1)))
    with pytest.raises(ShapeError):
        R.add(a, b)


def test_bias_broadcast_gradient_reduces():
    a = T.parameter(np.ones((3, 2)))
    b = T.parameter(np.array([1.0, 2.0]))
    loss = T.tsum(R.add(a, b))
    T.backward(loss)
    np.testing.assert_allclose(b.grad, [3.0, 3.0])
    np.testing.assert_allclose(a.grad, np.ones((3, 2)))


# -- unary ops -----------------------------------------------------------------


def test_relu_values_and_grad():
    x = T.parameter([-1.0, 0.0, 2.0])
    y = R.relu(x)
    np.testing.assert_allclose(y.numpy(), [0.0, 0.0, 2.0])
    T.backward(T.tsum(y))
    np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0])


def test_exp_log_sqrt():
    x = ten([1.0, 4.0])
    np.testing.assert_allclose(R.exp(x).numpy(), np.exp([1.0, 4.0]), rtol=1e-6)
    np.testing.assert_allclose(R.log(x).numpy(), np.log([1.0, 4.0]), rtol=1e-6)
    np.testing.assert_allclose(R.sqrt(x).numpy(), [1.0, 2.0], rtol=1e-6)


def test_softplus_values_and_stability():
    x = T.constant(np.array([0.0, 1.0, -40.0, 40.0], dtype=np.float64),
                   dtype=np.float64)
    y = R.softplus(x).numpy()
    assert y[0] == pytest.approx(np.log(2.0), abs=1e-12)
    assert y[1] == pytest.approx(np.log1p(np.exp(1.0)), abs=1e-12)
    assert y[2] == pytest.approx(np.exp(-40.0), rel=1e-6)  # no underflow to junk
    assert y[3] == pytest.approx(40.0, abs=1e-12)  # no overflow


def test_softmax_rows_sum_to_one_and_stable():
    x = ten([[1000.0, 1000.0, 999.0], [0.0, 0.0, 0.0]])
    s = T.softmax(x, axis=-1).numpy()
    np.testing.assert_allclose(s.sum(axis=-1), [1.0, 1.0], rtol=1e-6)
    assert np.all(np.isfinite(s))
    np.testing.assert_allclose(s[1], [1 / 3] * 3, rtol=1e-6)


def test_dropout_eval_is_identity_object():
    x = T.parameter(np.ones(8))
    assert R.dropout(x, 0.5, training=False, rng=None) is x
    assert R.dropout(x, 0.0, training=True, rng=None) is x


def test_dropout_train_scales_survivors():
    rng = np.random.default_rng(0)
    x = T.constant(np.ones(2000))
    y = R.dropout(x, 0.25, training=True, rng=rng).numpy()
    kept = y > 0
    assert 0.6 < kept.mean() < 0.9
    np.testing.assert_allclose(y[kept], 1.0 / 0.75, rtol=1e-6)
    assert np.all(y[~kept] == 0.0)


# -- shape ops -----------------------------------------------------------------


def test_matmul_shape_error_names_shapes():
    a = ten(np.ones((2, 3)))
    b = ten(np.ones((4, 2)))
    with pytest.raises(ShapeError, match=r"2, 3"):
        R.matmul(a, b)


def test_transpose_reshape_roundtrip():
    x = ten(np.arange(6.0).reshape(2, 3))
    np.testing.assert_allclose(R.transpose(x).numpy(), x.numpy().T)
    np.testing.assert_allclose(R.reshape(x, (3, 2)).numpy(),
                               x.numpy().reshape(3, 2))


def test_concat_and_narrow_inverse():
    a = ten(np.ones((2, 3)))
    b = ten(np.full((4, 3), 2.0))
    cat = T.concat([a, b], axis=0)
    assert cat.shape == (6, 3)
    np.testing.assert_allclose(R.narrow(cat, 0, 0, 2).numpy(), a.numpy())
    np.testing.assert_allclose(R.narrow(cat, 0, 2, 4).numpy(), b.numpy())


def test_narrow_bounds_checked():
    x = ten(np.ones((3, 3)))
    with pytest.raises(ShapeError):
        R.narrow(x, 0, 2, 2)


def test_gather_repeats_and_grad_accumulates():
    x = T.parameter(np.array([1.0, 3.0, 5.0]))
    idx = np.array([0, 2, 0])
    y = T.gather(x, idx)
    np.testing.assert_allclose(y.numpy(), [1.0, 5.0, 1.0])
    T.backward(T.tsum(y))
    np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0])


def test_gather_rejects_matrices():
    with pytest.raises(ShapeError):
        T.gather(ten(np.ones((2, 2))), np.array([0]))


def test_segment_sum_matches_bincount():
    x = ten([1.0, 2.0, 3.0, 4.0])
    seg = np.array([0, 0, 2, 2])
    y = T.segment_sum(x, seg, 3)
    np.testing.assert_allclose(y.numpy(), [3.0, 0.0, 7.0])


def test_segment_sum_gradient_scatters():
    x = T.parameter(np.array([1.0, 2.0, 3.0]))
    out = T.segment_sum(x, np.array([1, 1, 0]), 2)
    T.backward(T.tsum(R.mul(out, T.constant(np.array([10.0, 1.0])))))
    np.testing.assert_allclose(x.grad, [1.0, 1.0, 10.0])


def test_reductions():
    x = ten([[1.0, 5.0], [3.0, 2.0]])
    assert T.tsum(x).item() == pytest.approx(11.0)
    assert T.tmean(x).item() == pytest.approx(2.75)
    assert R.tmax(x).item() == pytest.approx(5.0)
    np.testing.assert_allclose(T.tsum(x, axis=0).numpy(), [4.0, 7.0])
    np.testing.assert_allclose(R.tmax(x, axis=1).numpy(), [5.0, 3.0])


def test_tmax_routes_gradient_to_argmax():
    x = T.parameter(np.array([[1.0, 5.0], [3.0, 2.0]]))
    T.backward(T.tsum(R.tmax(x, axis=1)))
    np.testing.assert_allclose(x.grad, [[0.0, 1.0], [1.0, 0.0]])


def test_linear_matches_manual():
    x = ten(np.random.default_rng(0).normal(size=(4, 3)))
    w = ten(np.random.default_rng(1).normal(size=(3, 2)))
    b = ten([0.5, -0.5])
    got = T.linear(x, w, b).numpy()
    want = x.numpy() @ w.numpy() + b.numpy()
    np.testing.assert_allclose(got, want, rtol=1e-6)


def test_embedding_lookup_and_range_check():
    table = T.parameter(np.arange(8.0).reshape(4, 2))
    ids = np.array([3, 0, 3])
    y = T.embedding(table, ids)
    np.testing.assert_allclose(y.numpy(), [[6, 7], [0, 1], [6, 7]])
    with pytest.raises(ShapeError):
        T.embedding(table, np.array([4]))
    T.backward(T.tsum(y))
    np.testing.assert_allclose(table.grad,
                               [[1, 1], [0, 0], [0, 0], [2, 2]])


def test_layer_norm_standardizes_rows():
    x = ten(np.random.default_rng(0).normal(size=(5, 8), scale=3.0))
    gamma = ten(np.ones(8))
    beta = ten(np.zeros(8))
    y = T.layer_norm(x, gamma, beta).numpy()
    np.testing.assert_allclose(y.mean(axis=-1), np.zeros(5), atol=1e-6)
    np.testing.assert_allclose(y.var(axis=-1), np.ones(5), rtol=1e-3)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 8),
       st.sampled_from(["random", "constant", "offset"]), st.integers(0, 2**32 - 1))
@example(3, 1, "random", 0)
@example(3, 5, "constant", 0)
@example(3, 5, "offset", 0)
def test_layer_norm_matches_textbook_oracle(n, d, rows, seed):
    """Forward and every gradient equal the primitive-op textbook form;
    rows may be constant (variance 0), one wide, or offset by 1e4."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d), scale=3.0)
    if rows == "constant":
        x = np.repeat(x[:, :1], d, axis=1)
    elif rows == "offset":
        x += 1e4
    arrays = (x, rng.normal(size=d), rng.normal(size=d))
    weights = rng.normal(size=(n, d))
    results = []
    with T.precision("float64"):
        for layer_norm in (T.layer_norm, layer_norm_rows):
            params = [T.parameter(a) for a in arrays]
            y = layer_norm(*params)
            T.backward(T.tsum(R.mul(y, T.constant(weights))))
            results.append([y.numpy()] + [p.grad for p in params])
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_grouped_conv1d_identity_kernel():
    n, groups, cg, window = 6, 2, 3, 3
    x = ten(np.random.default_rng(0).normal(size=(n, groups * cg)))
    kernel = np.zeros((groups, window, cg, cg))
    for g in range(groups):
        kernel[g, window // 2] = np.eye(cg)
    y = T.grouped_conv1d(x, ten(kernel), groups, window)
    np.testing.assert_allclose(y.numpy(), x.numpy(), rtol=1e-6)


def test_grouped_conv1d_validates_window_and_groups():
    x = ten(np.ones((4, 6)))
    from ckrank.errors import ConfigError
    with pytest.raises(ConfigError):
        T.grouped_conv1d(x, ten(np.zeros((2, 4, 3, 3))), 2, 4)  # even window
    with pytest.raises(ConfigError):
        T.grouped_conv1d(x, ten(np.zeros((4, 3, 2, 2))), 4, 3)  # 6 % 4 != 0


def test_batch_norm_train_standardizes():
    x = ten(np.array([1.0, 3.0]))
    y, mean, var = T.batch_norm_train(x)
    assert mean == pytest.approx(2.0)
    assert var == pytest.approx(1.0)
    np.testing.assert_allclose(y.numpy(), [-1.0, 1.0], rtol=1e-6)


def test_batch_norm_train_variance_floor():
    x = ten(np.full(4, 7.0))
    y, mean, var = T.batch_norm_train(x, var_floor=1e-5)
    assert mean == pytest.approx(7.0)
    assert var == pytest.approx(0.0)  # raw batch variance is reported
    np.testing.assert_allclose(y.numpy(), np.zeros(4), atol=1e-6)  # floored denom


def test_batch_norm_infer_uses_running_stats():
    x = ten(np.array([1.0, 3.0]))
    y = batch_norm_infer(x, mean=1.0, var=4.0)
    np.testing.assert_allclose(y.numpy(), [0.0, 1.0], rtol=1e-5)


# -- autodiff contract ---------------------------------------------------------


def test_backward_requires_scalar():
    x = T.parameter(np.ones(3))
    with pytest.raises(ContractError):
        T.backward(R.relu(x))


def test_backward_requires_grad_path():
    x = T.constant(np.ones(3))
    with pytest.raises(ContractError):
        T.backward(T.tsum(x))


def test_backward_twice_raises():
    x = T.parameter(np.ones(3))
    loss = T.tsum(R.mul(x, x))
    T.backward(loss)
    with pytest.raises(ContractError):
        T.backward(loss)


def test_grad_accumulates_across_branches():
    x = T.parameter(np.array([2.0]))
    loss = R.add(R.mul(x, x), T.scale(x, 3.0))  # x^2 + 3x
    T.backward(T.tsum(loss))
    np.testing.assert_allclose(x.grad, [7.0])  # 2x + 3


def test_no_grad_blocks_tape():
    x = T.parameter(np.ones(3))
    with T.no_grad():
        y = R.mul(x, x)
    assert not y.requires_grad
    with pytest.raises(ContractError):
        T.backward(T.tsum(y))


def test_grad_mode_is_per_thread():
    """A thread indexing under no_grad leaves another thread's training
    graph intact, and both see their own precision."""
    from helpers import micro_config, micro_corpus

    from ckrank.index import build_index
    from ckrank.model import CKModel

    corpus, vocab = micro_corpus(num_docs=6)
    inside, trained = threading.Event(), threading.Event()
    seen = {}

    class Indexer(CKModel):
        def encode_document(self, doc):
            if not inside.is_set():
                inside.set()
                seen["trainer_done"] = trained.wait(timeout=10)
            return super().encode_document(doc)

    def index():
        with T.precision("float64"):
            seen["index"] = build_index(corpus, Indexer(micro_config("ndrm1"), vocab))
        seen["indexer_grad_after"] = T.grad_enabled()

    def train():
        seen["trainer_saw_indexer"] = inside.wait(timeout=10)
        x = T.parameter(np.array([1.0, 2.0]))
        T.backward(T.tsum(R.mul(x, x)))
        seen["grad"] = x.grad.copy()
        seen["trainer_dtype"] = T.default_dtype()
        trained.set()

    threads = [threading.Thread(target=index), threading.Thread(target=train)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert seen["trainer_saw_indexer"] and seen["trainer_done"]
    np.testing.assert_array_equal(seen["grad"], [2.0, 4.0])
    assert seen["trainer_dtype"] == np.float32
    assert seen["indexer_grad_after"] and seen["index"].num_postings > 0


def test_intermediate_grads_freed_leaf_grads_kept():
    x = T.parameter(np.ones(3))
    mid = R.mul(x, x)
    T.backward(T.tsum(mid))
    assert x.grad is not None
    assert mid.grad is None  # freed eagerly during the sweep


def test_finite_checks_catch_nonfinite():
    x = T.constant(np.array([1.0, np.inf]))
    with pytest.raises(NonFiniteError):
        R.relu(x)
    with T.finite_checks(False):
        R.relu(x)  # check disabled, no raise


# -- allocation accounting -----------------------------------------------------


def test_tracked_nbytes_matches_payload():
    x = T.constant(np.ones((10, 10), dtype=np.float32))
    assert x.tracked_nbytes() == 400


def test_tracker_scope_measures_peak():
    with tracker.scope() as scope:
        a = T.constant(np.ones(1000, dtype=np.float32))  # 4000 bytes
        b = R.add(a, a)  # + 4000
        del a, b
        gc.collect()
    assert scope.peak_bytes >= 8000


def test_tracker_audit_balances_after_gc():
    before_live = tracker.live_bytes
    keep = T.parameter(np.ones(4))
    mid = R.mul(keep, keep)
    T.backward(T.tsum(mid))
    del mid
    gc.collect()
    assert tracker.live_bytes >= before_live
    assert tracker.audit() == tracker.live_bytes


def test_live_bytes_return_to_baseline_after_build_index():
    from helpers import micro_config, micro_corpus

    from ckrank.index import build_index
    from ckrank.model import CKModel

    corpus, vocab = micro_corpus(num_docs=6)
    model = CKModel(micro_config("ndrm3"), vocab)
    gc.collect()
    before = tracker.live_bytes
    index = build_index(corpus, model)
    assert index.num_postings > 0
    # Released on deallocation, with no collector pass.
    assert tracker.live_bytes == before


def test_live_bytes_return_to_baseline_after_backward():
    from helpers import micro_config, micro_corpus

    from ckrank.model import CKModel

    corpus, vocab = micro_corpus(num_docs=6)
    model = CKModel(micro_config("ndrm1"), vocab)
    doc = corpus.get(sorted(corpus.docs)[0])
    gc.collect()
    before = tracker.live_bytes
    T.backward(T.tsum(model.term_scores(["w00", "w01", "zzz"], doc)))
    grads = [p.grad for p in model.parameters().values() if p.grad is not None]
    assert grads
    assert tracker.live_bytes == before + sum(g.nbytes for g in grads)
    for p in model.parameters().values():
        p.drop_grad()
    assert tracker.live_bytes == before


def test_exit_with_live_tensors_writes_nothing_to_stderr():
    script = textwrap.dedent("""
        import sys

        import numpy as np
        import ckrank.tensor as T

        KEPT = [T.constant(np.ones(3)) for _ in range(100)]
        x = T.parameter(np.ones(4))
        y = T.scale(x, 2.0)              # a recorded graph, never consumed
        cycle = [T.constant(np.ones(2))]
        cycle.append(cycle)
        # sys keeps ckrank.tensor alive until the interpreter clears module
        # globals in order at exit: `tracker` goes before this tensor does.
        T.kept_by_module = T.constant(np.ones(2))
        sys.kept_module = T
    """)
    src = str(Path(ckrank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == b""


# -- property tests ------------------------------------------------------------


finite_row = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=8)


@settings(max_examples=50, deadline=None)
@given(finite_row, st.integers(0, 2**32 - 1))
def test_add_commutes_mul_distributes(row, seed):
    rng = np.random.default_rng(seed)
    a = np.array(row)
    b = rng.normal(size=a.shape)
    ta, tb = ten(a), ten(b)
    np.testing.assert_allclose(R.add(ta, tb).numpy(), R.add(tb, ta).numpy())
    np.testing.assert_allclose(
        R.mul(ta, R.add(tb, tb)).numpy(),
        R.add(R.mul(ta, tb), R.mul(ta, tb)).numpy(), rtol=1e-5, atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_softmax_rows_are_distributions(rows, cols, seed):
    x = np.random.default_rng(seed).normal(size=(rows, cols), scale=5.0)
    s = T.softmax(ten(x), axis=-1).numpy()
    assert np.all(s >= 0)
    np.testing.assert_allclose(s.sum(axis=-1), np.ones(rows), rtol=1e-5)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_matmul_matches_numpy(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, 3))
    b = rng.normal(size=(3, n))
    np.testing.assert_allclose(R.matmul(ten(a), ten(b)).numpy(),
                               a @ b, rtol=1e-5, atol=1e-6)
