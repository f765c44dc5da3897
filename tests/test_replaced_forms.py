"""The fold's lean helpers against the forms they replaced, held ``==``.

Each oracle in ``oracles.py`` is the helper as it was before it dropped a
numpy wrapper, a rebuilt constant or per-term bookkeeping; the new form must
give the same bytes in float32 and float64.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import micro_config, micro_corpus, value_and_grads
from oracles import (best_window_take_along, duet_scores_np_sqrt,
                     idfs_generator, latent_term_scores_slots,
                     ndrm2_term_scores_asarray, runs_diff_append,
                     unit_rows_linalg, windowed_pool_terms_fresh)

import ckrank.tensor as T
from ckrank.corpus import Vocabulary
from ckrank.index import _runs
from ckrank.model import (BSState, CKModel, DuetParams, ExplicitParams,
                          ModelConfig, duet_scores, ndrm2_term_scores)
from ckrank.pooling import (KernelBank, _kernel_features, _unit_rows,
                            window_cover, windowed_pool_terms)

DTYPES = (np.float32, np.float64)
WCFG = ModelConfig(window_len=8, stride=3)
BANK = KernelBank()


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _cosines(rng, t, n, dtype):
    """Cosine-like rows with exact matches (1.0) and a zero row."""
    rows = np.clip(rng.normal(size=(t, n)) * 0.5, -1.0, 1.0)
    rows[rng.random(size=(t, n)) < 0.1] = 1.0
    rows[0] = 0.0
    return rows.astype(dtype)


# n = 1, n < window, n = window and longer documents
N = st.integers(1, 40)
N_EXAMPLES = (1, 5, WCFG.window_len, WCFG.window_len + 1, 37)


def _with_examples(test):
    for n in N_EXAMPLES:
        test = example(n=n, t=3, seed=n)(test)
    return test


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=60, deadline=None)
@given(n=N, t=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@_with_examples
def test_unit_rows_match_linalg_norm(dtype, n, t, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(t, n)).astype(dtype)
    a[rng.random(t) < 0.3] = 0.0                 # zero-norm rows
    for got, want in zip(_unit_rows(a), unit_rows_linalg(a)):
        assert _same(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=60, deadline=None)
@given(n=N, t=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@_with_examples
def test_best_window_pick_matches_take_along_axis(dtype, n, t, seed):
    r = _cosines(np.random.default_rng(seed), t, n, dtype)
    mus, inv2s = BANK.constants(r.dtype)
    cover = window_cover(n, WCFG, dtype)
    ex = np.empty((BANK.k, t, n), dtype)
    e = np.empty((BANK.k, t, cover.shape[1]), dtype)
    arg, best = _kernel_features(r, mus, inv2s, cover, BANK.eps_log, ex, e)
    want_arg, want_best = best_window_take_along(np.log(BANK.eps_log + e))
    assert np.array_equal(arg, want_arg)
    assert _same(best, want_best)


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=60, deadline=None)
@given(n=N, t=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@_with_examples
def test_pooling_matches_constants_built_per_call(dtype, n, t, seed):
    r = _cosines(np.random.default_rng(seed), t, n, dtype)
    with T.no_grad():
        got = windowed_pool_terms(T.constant(r, dtype=dtype), WCFG, BANK).data
    assert _same(got, windowed_pool_terms_fresh(r, WCFG, BANK))


IDF_VOCAB = Vocabulary({t: i for i, t in enumerate("abcd")},
                       {"a": 5, "b": 2, "c": 3, "d": 4, "r1": 1},
                       num_docs=7, mean_dlen=4.0, mean_tf=1.2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(list("abcd") + ["r1", "zz", ""]), max_size=12))
def test_idfs_match_generator(terms):
    # vocabulary terms, a df below min_df, unseen terms and repeats
    got = IDF_VOCAB.idfs(terms)
    assert _same(got, idfs_generator(IDF_VOCAB, terms))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=30),
       st.booleans())
def test_runs_match_diff_and_append(values, ordered):
    col = np.array(sorted(values) if ordered else values, dtype=np.int64)
    assert _runs(col) == runs_diff_append(col)


@pytest.fixture(scope="module")
def latent_models():
    corpus, vocab = micro_corpus(seed=4, num_docs=16, vocab_terms=24,
                                 doc_len=(1, 14))
    models = {}
    for dtype in ("float32", "float64"):
        with T.precision(dtype):
            for variant in ("ndrm1", "ndrm3"):
                model = CKModel(micro_config(variant, seed=2), vocab)
                model.eval()
                models[dtype, variant] = model
    return corpus, sorted(vocab.term_to_id), models


@pytest.mark.parametrize("dtype", ("float32", "float64"))
@pytest.mark.parametrize("variant", ("ndrm1", "ndrm3"))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_latent_term_scores_match_slot_bookkeeping(latent_models, dtype, variant,
                                                   data):
    corpus, vocab_terms, models = latent_models
    model = models[dtype, variant]
    doc = corpus.get(data.draw(st.sampled_from(sorted(corpus.docs))))
    # vocabulary terms, out-of-vocabulary terms and repeats of both
    terms = data.draw(st.lists(st.sampled_from(vocab_terms[:6] + ["oov1", "oov2"]),
                               min_size=1, max_size=8))
    with T.precision(dtype), T.no_grad():
        enc = model.encode_document(doc)
        got = model.latent_term_scores(terms, enc).data
        want = latent_term_scores_slots(model, terms, enc).data
    assert _same(got, want)


@pytest.mark.parametrize("terms", [["w01", "w02"], ["w01", "oov", "w01"],
                                   ["oov", "oov"], ["w03", "oov"], ["oov"]])
def test_latent_term_scores_gradients_match_slot_bookkeeping(latent_models, terms):
    corpus, _, models = latent_models
    model = models["float64", "ndrm1"]
    doc = corpus.get(sorted(corpus.docs)[0])
    grads = []
    with T.precision("float64"):
        for scores_of in (model.latent_term_scores,
                          lambda ts, enc: latent_term_scores_slots(model, ts, enc)):
            for p in model.parameters().values():
                p.grad = None
            T.backward(T.tsum(scores_of(terms, model.encode_document(doc))))
            grads.append({name: None if p.grad is None else p.grad.copy()
                          for name, p in model.parameters().items()})
    for name, got in grads[0].items():
        want = grads[1][name]
        assert (got is None) == (want is None), name
        assert got is None or _same(got, want), name


def _same_forms(got, want):
    (got_out, got_grads), (want_out, want_grads) = got, want
    assert _same(got_out, want_out)
    assert got_grads.keys() == want_grads.keys()
    for name, grad in got_grads.items():
        assert _same(grad, want_grads[name]), name


@pytest.mark.parametrize("dtype", ("float32", "float64"))
@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 12), int_tf=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_explicit_scores_match_asarray_casts(dtype, m, int_tf, seed):
    # tf as posting_table's int64 column or explicit_stats' float64 one, zero
    # included; a negative w_dlen or b_dlen clamps part of the relu term
    rng = np.random.default_rng(seed)
    idf, dlen = rng.uniform(0.0, 5.0, m), rng.integers(1, 90, m).astype(float)
    tf = rng.integers(0, 6, m)
    tf = tf if int_tf else tf.astype(float)
    leaves = {"w": np.array(rng.normal()), "b": np.array(rng.normal())}
    bs = BSState(mean_tf=float(rng.uniform(0.5, 3.0)),
                 mean_dlen=float(rng.uniform(1.0, 60.0)))
    forms = []
    with T.precision(dtype):
        for form in (ndrm2_term_scores, ndrm2_term_scores_asarray):
            forms.append(value_and_grads(lambda p: form(
                idf, tf, dlen, ExplicitParams(p["w"], p["b"]), bs), leaves, seed))
    _same_forms(*forms)


@pytest.mark.parametrize("dtype", ("float32", "float64"))
@pytest.mark.parametrize("mode", ("train", "infer"))
@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 10), floored=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_duet_scores_match_np_sqrt_and_tuples(dtype, mode, m, floored, seed):
    rng = np.random.default_rng(seed)
    leaves = {"lat": rng.normal(size=m), "exp": rng.normal(size=m),
              "w1": np.array(rng.normal()), "w2": np.array(rng.normal()),
              "b": np.array(rng.normal())}
    # a running variance below the floor takes the floor's deviation
    stats = dict(bn_latent_mean=float(rng.normal()),
                 bn_latent_var=0.0 if floored else float(rng.uniform(0.1, 3.0)),
                 bn_explicit_mean=float(rng.normal()),
                 bn_explicit_var=float(rng.uniform(0.1, 3.0)))
    forms, running = [], []
    with T.precision(dtype):
        for form in (duet_scores, duet_scores_np_sqrt):
            params = []

            def build(p):
                params.append(DuetParams(p["w1"], p["w2"], p["b"], **stats))
                return form(p["lat"], p["exp"], params[0], mode)

            forms.append(value_and_grads(build, leaves, seed))
            running.append([getattr(params[0], name) for name in stats])
    _same_forms(*forms)
    # train mode folds the batch statistics into the running ones alike
    assert running[0] == running[1]
