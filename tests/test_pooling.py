"""Kernel bank, cosine interactions, windowed pooling, and the scoring head."""

import numpy as np
import pytest
import refops as R
from helpers import init_head_params
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (interaction_row, kernel_features, latent_term_score,
                     window_cover_fresh, windowed_pool_term)

import ckrank.tensor as T
from ckrank import pooling
from ckrank.errors import ConfigError, ShapeError
from ckrank.model import ModelConfig
from ckrank.pooling import (KernelBank, empty_features, interaction_rows,
                            latent_term_scores, num_windows, window_cover,
                            windowed_pool_terms)

LOG_EPS = np.log(1e-10)


# -- kernel bank -----------------------------------------------------------------


def test_default_bank_layout():
    bank = KernelBank()
    np.testing.assert_allclose(
        bank.mus, [-0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    np.testing.assert_allclose(bank.sigmas, [0.1] * 9 + [0.001])
    assert bank.k == 10
    assert bank.eps_log == 1e-10


def test_bank_validation():
    with pytest.raises(ConfigError):
        KernelBank(mus=np.array([0.5, 0.1]), sigmas=np.array([0.1, 0.1]))
    with pytest.raises(ConfigError):
        KernelBank(mus=np.array([0.1, 0.5]), sigmas=np.array([0.1, -0.1]))
    with pytest.raises(ConfigError):
        KernelBank(mus=np.array([0.1, 0.5]), sigmas=np.array([0.1]))
    with pytest.raises(ConfigError):
        KernelBank(eps_log=0.0)


def test_window_config_validation():
    assert ModelConfig().window_len == 300
    assert ModelConfig().stride == 100
    with pytest.raises(ConfigError):
        ModelConfig(window_len=10, stride=11)
    with pytest.raises(ConfigError):
        ModelConfig(window_len=0, stride=1)


def test_num_windows_enumeration():
    wcfg = ModelConfig(window_len=300, stride=100)
    assert num_windows(1, wcfg) == 1
    assert num_windows(300, wcfg) == 1
    assert num_windows(301, wcfg) == 2
    assert num_windows(500, wcfg) == 3
    assert num_windows(4000, wcfg) == 38


def test_empty_features_value():
    bank = KernelBank()
    feats = empty_features(bank)
    assert feats.shape == (10,)
    np.testing.assert_allclose(feats, LOG_EPS, rtol=1e-6)


# -- cosine interaction ------------------------------------------------------------


def test_interaction_rows_hand_values():
    q = T.constant(np.array([[1.0, 0.0]]))
    d = T.constant(np.array([[2.0, 0.0], [0.0, 3.0], [-1.0, 0.0], [0.0, 0.0]]))
    cos = interaction_rows(q, d).numpy()
    np.testing.assert_allclose(cos, [[1.0, 0.0, -1.0, 0.0]], atol=1e-7)


def test_interaction_rows_zero_norm_query():
    q = T.constant(np.zeros((1, 3)))
    d = T.constant(np.random.default_rng(0).normal(size=(5, 3)))
    np.testing.assert_array_equal(interaction_rows(q, d).numpy(), np.zeros((1, 5)))


def test_interaction_row_matches_batched():
    rng = np.random.default_rng(1)
    qv = rng.normal(size=4)
    d = T.constant(rng.normal(size=(6, 4)))
    single = interaction_row(T.constant(qv), d).numpy()
    batched = interaction_rows(T.constant(qv[None, :]), d).numpy()[0]
    np.testing.assert_array_equal(single, batched)


def test_interaction_rows_shape_mismatch():
    with pytest.raises(ShapeError):
        interaction_rows(T.constant(np.ones((2, 3))), T.constant(np.ones((4, 5))))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_cosines_bounded(t, n, seed):
    rng = np.random.default_rng(seed)
    cos = interaction_rows(T.constant(rng.normal(size=(t, 4))),
                           T.constant(rng.normal(size=(n, 4)))).numpy()
    assert np.all(cos <= 1.0 + 1e-6)
    assert np.all(cos >= -1.0 - 1e-6)


# -- kernel features -----------------------------------------------------------------


def test_kernel_features_exact_match_row():
    with T.precision("float64"):
        feats = kernel_features(T.constant(np.array([1.0])), KernelBank()).numpy()
    assert feats[9] == pytest.approx(0.0, abs=1e-9)  # exact-match kernel fires
    assert feats[8] == pytest.approx(-0.5, abs=1e-8)  # mu=0.9: log exp(-0.5)
    assert feats[0] == pytest.approx(LOG_EPS, abs=1e-9)  # mu=-0.7: dead kernel


def test_kernel_features_counts_multiplicity():
    with T.precision("float64"):
        bank = KernelBank()
        one = kernel_features(T.constant(np.array([0.1])), bank).numpy()
        three = kernel_features(T.constant(np.array([0.1, 0.1, 0.1])), bank).numpy()
    # kernel centered at 0.1 sums three unit bumps: log(3) gap
    assert three[4] - one[4] == pytest.approx(np.log(3.0), abs=1e-9)


def test_kernel_features_requires_vector():
    with pytest.raises(ShapeError):
        kernel_features(T.constant(np.ones((2, 2))), KernelBank())


# -- windowed pooling -----------------------------------------------------------------


def numpy_pool_oracle(row, wcfg, bank):
    """Straight-line reimplementation used as a test oracle."""
    n = row.size
    feats = []
    for i in range(num_windows(n, wcfg)):
        start = i * wcfg.stride
        window = row[start:start + wcfg.window_len]
        ex = np.exp(-(window[:, None] - bank.mus) ** 2 / (2 * bank.sigmas ** 2))
        feats.append(np.log(bank.eps_log + ex.sum(axis=0)))
    return np.max(feats, axis=0)


@pytest.mark.parametrize("n", [1, 4, 5, 7, 12, 13])
def test_windowed_pool_matches_numpy_oracle(n):
    wcfg = ModelConfig(window_len=5, stride=2)
    bank = KernelBank()
    rng = np.random.default_rng(n)
    row = rng.uniform(-1, 1, size=n)
    with T.precision("float64"):
        got = windowed_pool_term(T.constant(row), wcfg, bank).numpy()
    np.testing.assert_allclose(got, numpy_pool_oracle(row, wcfg, bank),
                               atol=1e-12)


def _pool_value_and_grad(pool, rows, mix):
    """Pooled features of rows and the gradient of sum(features * mix)."""
    p = T.parameter(rows)
    out = pool(p)
    T.backward(T.tsum(R.mul(out, T.constant(mix))))
    return out.numpy(), p.grad


@pytest.mark.parametrize("n,window_len,stride", [
    *(pytest.param(n, 5, 2, id=str(n)) for n in (1, 4, 5, 7, 12, 13)),
    *(pytest.param(n, 300, 100, id=str(n)) for n in (300, 500)),
    # window_len and stride with gcd 2, 3, 1 (coprime) and 4.
    *(pytest.param(n, w, s, id=f"{n}-{w}-{s}") for w, s in ((6, 4), (9, 6), (7, 3), (4, 4))
      for n in (5, 23, 30)),
])
def test_fused_matches_composed(n, window_len, stride):
    wcfg = ModelConfig(window_len=window_len, stride=stride)
    bank = KernelBank()
    rng = np.random.default_rng(n + 1)
    rows = rng.uniform(-1, 1, size=(3, n))
    mix = rng.normal(size=(3, bank.k))

    def composed(p):
        per_term = [windowed_pool_term(R.reshape(R.narrow(p, 0, i, 1), (n,)), wcfg, bank)
                    for i in range(rows.shape[0])]
        return T.concat([R.reshape(f, (1, bank.k)) for f in per_term], axis=0)

    with T.precision("float64"):
        fused, fused_grad = _pool_value_and_grad(
            lambda p: windowed_pool_terms(p, wcfg, bank), rows, mix)
        want, want_grad = _pool_value_and_grad(composed, rows, mix)
    np.testing.assert_allclose(fused, want, atol=1e-12)
    np.testing.assert_allclose(fused_grad, want_grad, atol=1e-12)


def test_fused_handles_zero_terms():
    out = windowed_pool_terms(T.constant(np.zeros((0, 10))),
                              ModelConfig(window_len=5, stride=2), KernelBank())
    assert out.shape == (0, 10)


def test_pooled_features_dominate_every_window():
    wcfg = ModelConfig(window_len=4, stride=2)
    bank = KernelBank()
    row = np.random.default_rng(9).uniform(-1, 1, size=11)
    pooled = windowed_pool_term(T.constant(row), wcfg, bank).numpy()
    for i in range(num_windows(11, wcfg)):
        window = row[i * wcfg.stride: i * wcfg.stride + wcfg.window_len]
        feats = kernel_features(T.constant(window), bank).numpy()
        assert np.all(pooled >= feats - 1e-6)


def test_single_window_equals_plain_kernel_features():
    bank = KernelBank()
    row = np.random.default_rng(11).uniform(-1, 1, size=8)
    pooled = windowed_pool_term(T.constant(row), ModelConfig(window_len=300, stride=100),
                                bank)
    plain = kernel_features(T.constant(row), bank)
    np.testing.assert_array_equal(pooled.numpy(), plain.numpy())


def test_fused_gradient_only_hits_winning_windows():
    # Two windows with no overlap; a strong match in the second window means
    # the exact-match kernel's gradient must not touch the first window.
    bank = KernelBank()
    wcfg = ModelConfig(window_len=2, stride=2)
    rows = T.parameter(np.array([[0.0, 0.1, 1.0, 0.99]]))
    out = windowed_pool_terms(rows, wcfg, bank)
    T.backward(T.tsum(R.mul(out, T.constant(np.eye(10)[9][None, :]))))
    assert np.all(rows.grad[0, :2] == 0.0)
    assert np.any(rows.grad[0, 2:] != 0.0)


# -- cached constants ----------------------------------------------------------------


def test_cover_slices_equal_fresh_covers(monkeypatch):
    monkeypatch.setattr(pooling, "_COVER_TABLES", {})
    wcfg = ModelConfig(window_len=5, stride=2)
    # the table grows, then serves shorter lengths
    for n in (3, 12, 40, 1, 5, 6, 39, 12):
        got = window_cover(n, wcfg, np.float32)
        want = window_cover_fresh(n, wcfg, np.float32)
        assert got.dtype == want.dtype and np.array_equal(got, want), n
    assert pooling._COVER_TABLES[5, 2, np.dtype(np.float32)].shape == (40, 19)


def test_cover_tables_and_constants_per_dtype(monkeypatch):
    monkeypatch.setattr(pooling, "_COVER_TABLES", {})
    wcfg, bank = ModelConfig(window_len=5, stride=2), KernelBank()
    rows = np.random.default_rng(4).uniform(-1, 1, size=(2, 9))
    for mode in ("float32", "float64"):
        with T.precision(mode), T.no_grad():
            windowed_pool_terms(T.constant(rows), wcfg, bank)
    tables = pooling._COVER_TABLES
    assert set(tables) == {(5, 2, np.dtype(np.float32)), (5, 2, np.dtype(np.float64))}
    for dtype in (np.float32, np.float64):
        assert tables[5, 2, np.dtype(dtype)].dtype == dtype
        mus, inv2s = bank.constants(dtype)
        assert mus.dtype == inv2s.dtype == dtype
        assert np.array_equal(mus, bank.mus.astype(dtype))
        assert np.array_equal(inv2s, (1.0 / (2.0 * bank.sigmas ** 2)).astype(dtype))
    assert bank.constants(np.float32)[0] is not bank.constants(np.float64)[0]


def test_cached_arrays_are_read_only():
    wcfg, bank = ModelConfig(window_len=5, stride=2), KernelBank()
    cover = window_cover(7, wcfg, np.float64)
    arrays = (cover, pooling._COVER_TABLES[5, 2, np.dtype(np.float64)],
              *bank.constants(np.float32), bank.mus, bank.sigmas)
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 2.0


def test_bank_does_not_freeze_the_callers_arrays():
    mus, sigmas = np.array([0.1, 0.5]), np.array([0.1, 0.2])
    KernelBank(mus, sigmas)
    assert mus.flags.writeable and sigmas.flags.writeable


def test_same_length_makes_no_new_table(monkeypatch):
    monkeypatch.setattr(pooling, "_COVER_TABLES", {})
    wcfg, bank = ModelConfig(window_len=5, stride=2), KernelBank()
    key = (5, 2, np.dtype(np.float32))
    window_cover(11, wcfg, np.float32)
    table = pooling._COVER_TABLES[key]
    constants = bank.constants(np.float32)
    for n in (11, 4):
        assert np.shares_memory(window_cover(n, wcfg, np.float32), table)
        assert pooling._COVER_TABLES[key] is table
    assert all(a is b for a, b in zip(bank.constants(np.float32), constants))


def test_cover_past_the_cap_is_built_per_call(monkeypatch):
    # a table holds about n^2 / stride entries, so it stops growing at
    # _COVER_CACHE_ROWS and a longer document gets a fresh cover
    monkeypatch.setattr(pooling, "_COVER_TABLES", {})
    monkeypatch.setattr(pooling, "_COVER_CACHE_ROWS", 20)
    wcfg = ModelConfig(window_len=5, stride=2)
    key = (5, 2, np.dtype(np.float64))
    window_cover(20, wcfg, np.float64)
    table = pooling._COVER_TABLES[key]
    for n in (21, 60):
        got = window_cover(n, wcfg, np.float64)
        assert np.array_equal(got, window_cover_fresh(n, wcfg, np.float64))
        assert not np.shares_memory(got, table) and not got.flags.writeable
        assert pooling._COVER_TABLES[key] is table
    assert np.shares_memory(window_cover(13, wcfg, np.float64), table)


# -- scoring head -----------------------------------------------------------------


def test_latent_term_score_hand_value():
    feats = T.constant(np.array([1.0, 2.0, 3.0]))
    head = {"w": T.constant(np.array([0.5, -1.0, 2.0])),
            "b": T.constant(np.array(0.25))}
    assert latent_term_score(feats, head).item() == pytest.approx(4.75)


def test_batched_head_matches_single():
    rng = np.random.default_rng(2)
    head = init_head_params(rng, 10)
    feats = rng.normal(size=(4, 10))
    batched = latent_term_scores(T.constant(feats), head).numpy()
    singles = [latent_term_score(T.constant(feats[i]), head).item()
               for i in range(4)]
    np.testing.assert_allclose(batched, singles, rtol=1e-5, atol=1e-6)


def test_init_head_params_shapes():
    head = init_head_params(np.random.default_rng(0), 10)
    assert head["w"].shape == (10,)
    assert head["b"].shape == ()
    assert head["w"].requires_grad and head["b"].requires_grad
