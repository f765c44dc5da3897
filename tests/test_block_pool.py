"""The block pool that runs large forward ops in row blocks.

Results must not depend on the worker count: every blocked op, and a whole
paper-config fold, gives the same bytes with one worker and with two. An
error raised in a helper thread reaches the caller, a tiny-config fold
never shares work, and every blocked op keeps exact gradients when its
arrays span several blocks.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from helpers import tiny_config
from hypothesis import given, settings
from hypothesis import strategies as st
from test_gradients import check, mixed

import ckrank.tensor as T
from ckrank.attention import feed_forward, init_block_params, multi_head
from ckrank.corpus import Corpus, DocumentRecord, Vocabulary
from ckrank.index import build_index
from ckrank.model import CKModel, ModelConfig
from ckrank.pooling import KernelBank, interaction_rows, windowed_pool_terms

PAPER = ModelConfig(dropout_rate=0.0)
PAPER_PARAMS = init_block_params(PAPER, np.random.default_rng(3))
D = PAPER.model_dim
BANK = KernelBank()


class CountingPool(T.BlockPool):
    """A pool that records the block count of every call and counts the
    calls that had more than one block to share."""

    def __init__(self, workers):
        super().__init__(workers)
        self.calls = []
        self.shared = 0

    def run(self, fn, blocks):
        self.calls.append(len(blocks))
        self.shared += len(blocks) > 1
        super().run(fn, blocks)


@pytest.fixture
def pools():
    made = {workers: CountingPool(workers) for workers in (1, 2)}
    yield made
    for pool in made.values():
        pool.close()


def per_worker_count(monkeypatch, pools, build):
    """``build()`` (inputs made inside, under no_grad) with one worker and
    with two."""
    out = []
    for workers in (1, 2):
        monkeypatch.setattr(T, "_POOL", pools[workers])
        with T.no_grad():
            out.append(build().data)
    return out


def assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def rows_per_block(row_bytes, budget=None):
    return (budget or T._BLOCK_BYTES) // row_bytes


def paper_op(name, n, rng, p=PAPER_PARAMS):
    """A zero-argument builder of one paper-width blocked op over n rows."""
    x = rng.normal(size=(n, D))
    r = rng.normal(size=(n, D))
    return {
        "conv": lambda: T.grouped_conv1d(T.constant(x), p["conv_kernel"],
                                         PAPER.conv_groups, PAPER.conv_window,
                                         p["conv_bias"]),
        "layer_norm": lambda: T.layer_norm(T.constant(x), p["ln1_gamma"],
                                           p["ln1_beta"], residual=T.constant(r)),
        "feed_forward": lambda: feed_forward(T.constant(x), p["ffn_w1"], p["ffn_b1"],
                                             p["ffn_w2"], p["ffn_b2"]),
        "attention": lambda: multi_head(T.constant(x), p, PAPER),
    }[name]


# Rows per block of each paper-width float32 op; for the conv, positions:
# a field row of a document past one chunk covers _CONV_POSITIONS of them.
PAPER_BLOCK = {
    "conv": T._CONV_POSITIONS * rows_per_block(
        D * (T._CONV_POSITIONS + PAPER.conv_window - 1) * 4, T._CONV_CHUNK_BYTES),
    "layer_norm": rows_per_block(D * 4),
    "feed_forward": rows_per_block(2 * D * 4),
    "attention": rows_per_block((3 * PAPER.num_heads * PAPER.d_key) * 4),
}
SIZES = ("1", "block - 1", "block", "block + 1", "2000")


def size_of(label, block):
    return {"1": 1, "block - 1": block - 1, "block": block,
            "block + 1": block + 1, "2000": 2000}[label]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("op", sorted(PAPER_BLOCK))
def test_encoder_ops_do_not_depend_on_the_worker_count(monkeypatch, pools, op, size):
    n = size_of(size, PAPER_BLOCK[op])
    build = paper_op(op, n, np.random.default_rng(n))
    one, two = per_worker_count(monkeypatch, pools, build)
    assert_same_bytes(one, two)
    assert one.dtype == np.float32
    if n > PAPER_BLOCK[op]:
        assert pools[2].shared > 0
    else:
        assert pools[2].shared == 0


TERMS = 145


@pytest.mark.parametrize("size", SIZES)
def test_interaction_rows_do_not_depend_on_the_worker_count(monkeypatch, pools, size):
    """The blocks are document positions."""
    block = rows_per_block((D + TERMS) * 4)
    n = size_of(size, block)
    rng = np.random.default_rng(n)
    q, doc = rng.normal(size=(TERMS, D)), rng.normal(size=(n, D))
    q[0] = 0.0   # zero-norm rows on both sides take the masked path
    doc[-1] = 0.0
    one, two = per_worker_count(monkeypatch, pools, lambda: interaction_rows(
        T.constant(q), T.constant(doc)))
    assert_same_bytes(one, two)
    assert (pools[2].shared > 0) == (n > block)


@pytest.mark.parametrize("size", SIZES)
def test_pooling_does_not_depend_on_the_worker_count(monkeypatch, pools, size):
    """The blocks are kernels: banks of 1, block - 1, block and block + 1
    kernels over 20 terms and 300 positions, and the default bank over 145
    terms and 2000 positions."""
    t, n = (TERMS, 2000) if size == "2000" else (20, 300)
    block = rows_per_block(t * n * 4)
    bank = BANK if size == "2000" else KernelBank(
        np.linspace(-0.9, 1.0, size_of(size, block)), np.full(size_of(size, block), 0.1))
    rng = np.random.default_rng(t)
    cos = np.clip(rng.normal(size=(t, n)) * 0.4, -1, 1)
    one, two = per_worker_count(monkeypatch, pools, lambda: windowed_pool_terms(
        T.constant(cos), PAPER, bank))
    assert_same_bytes(one, two)
    assert (pools[2].shared > 0) == (bank.k > block)


def test_one_position_document_is_one_block(monkeypatch, pools):
    rng = np.random.default_rng(0)
    q, doc = rng.normal(size=(3, D)), rng.normal(size=(1, D))
    one, two = per_worker_count(monkeypatch, pools, lambda: windowed_pool_terms(
        interaction_rows(T.constant(q), T.constant(doc)), PAPER, BANK))
    assert_same_bytes(one, two)
    assert pools[2].shared == 0


@pytest.mark.parametrize("op", ["conv", "layer_norm", "feed_forward", "attention",
                                "interaction_rows", "windowed_pool_terms"])
def test_float64_blocks_stay_float64(monkeypatch, pools, op):
    """Workers never read the per-thread precision flag: the blocked path
    under float64 returns float64 equal to its one-worker result."""
    rng = np.random.default_rng(5)
    with T.precision("float64"):
        if op in ("interaction_rows", "windowed_pool_terms"):
            q, doc = rng.normal(size=(TERMS, D)), rng.normal(size=(700, D))

            def build():
                rows = interaction_rows(T.constant(q), T.constant(doc))
                if op == "interaction_rows":
                    return rows
                return windowed_pool_terms(rows, PAPER, BANK)
        else:
            params = init_block_params(PAPER, np.random.default_rng(3))
            build = paper_op(op, 700, rng, params)
        one, two = per_worker_count(monkeypatch, pools, build)
    assert one.dtype == np.float64
    assert_same_bytes(one, two)
    assert pools[2].shared > 0


def test_paper_fold_postings_do_not_depend_on_the_worker_count(monkeypatch, pools):
    rng = np.random.default_rng(11)
    terms = [f"t{i:03d}" for i in range(150)]
    corpus = Corpus()
    for i, length in enumerate((1100, 700, 60)):
        corpus.add(DocumentRecord(f"L{i}", [terms[j] for j in
                                             rng.integers(0, len(terms), size=length)]))
    vocab = Vocabulary.build(corpus)
    model = CKModel(ModelConfig(variant="ndrm3", seed=0), vocab)
    model.eval()
    indexes = []
    for workers in (1, 2):
        monkeypatch.setattr(T, "_POOL", pools[workers])
        indexes.append(build_index(corpus, model))
    one, two = indexes
    assert one.postings.keys() == two.postings.keys()
    for term, (docs, scores) in one.postings.items():
        assert docs.tobytes() == two.postings[term][0].tobytes()
        assert scores.tobytes() == two.postings[term][1].tobytes()
    assert pools[2].shared > 0


def test_tiny_config_fold_shares_nothing(monkeypatch):
    """Every op of a tiny-config fold of documents up to 80 tokens fits in
    one block, so no helper thread starts."""
    pool = CountingPool(2)
    monkeypatch.setattr(T, "_POOL", pool)
    rng = np.random.default_rng(2)
    terms = [f"w{i:03d}" for i in range(200)]
    corpus = Corpus()
    for i, length in enumerate((40, 60, 80, 80)):
        # Distinct tokens: as many query terms as positions.
        corpus.add(DocumentRecord(f"S{i}", list(rng.choice(terms, size=length,
                                                           replace=False))))
    vocab = Vocabulary.build(corpus, min_df=1)
    model = CKModel(tiny_config("ndrm3"), vocab)
    model.eval()
    assert build_index(corpus, model).postings
    assert pool.shared == 0
    assert pool._executor is None


def test_one_document_tiny_fold_runs_every_blocked_op_through_the_pool(monkeypatch):
    """No op runs its rows beside the pool: per layer the conv, the
    attention's projection, summaries and output rows, and the FFN, then
    the interaction rows and the pooling, each one call of one block."""
    pool = CountingPool(2)
    monkeypatch.setattr(T, "_POOL", pool)
    rng = np.random.default_rng(2)
    terms = [f"w{i:03d}" for i in range(200)]
    corpus = Corpus()
    corpus.add(DocumentRecord("S0", list(rng.choice(terms, size=60, replace=False))))
    config = tiny_config("ndrm3")
    model = CKModel(config, Vocabulary.build(corpus, min_df=1))
    model.eval()
    with T.no_grad():
        assert build_index(corpus, model).postings
    assert pool.calls == [1] * (5 * config.num_layers + 2)
    assert pool.shared == 0
    assert pool._executor is None


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 3000), row_bytes=st.integers(1, 4096),
       budget=st.integers(1, 1 << 16))
def test_row_blocks_tile_the_rows(rows, row_bytes, budget):
    """Consecutive slices that cover range(rows) exactly, each of at most
    the rows the budget holds (one when it holds none): ``WHOLE`` iff all
    rows fit in the budget, else as few blocks as that allows."""
    blocks = T.row_blocks(rows, row_bytes, budget)
    step = max(1, budget // row_bytes)
    spans = [range(rows)[b] for b in blocks]
    assert [i for span in spans for i in span] == list(range(rows))
    assert max(map(len, spans)) <= step
    assert (blocks is T.WHOLE) == (rows * row_bytes <= budget)
    assert len(blocks) == max(1, -(-rows // step))


def test_ffn_without_a_graph_keeps_only_block_sized_hidden_rows(monkeypatch, pools):
    """At paper width and n = 2000, without a graph each of two workers
    relus into a hidden block of its own: the traced peak stays within the
    output, two blocks and 1 MiB of slack."""
    monkeypatch.setattr(T, "_POOL", pools[2])
    n = 2000
    x = T.constant(np.random.default_rng(4).normal(size=(n, D)))
    p = PAPER_PARAMS
    with T.no_grad():
        tracemalloc.start()
        try:
            out = feed_forward(x, p["ffn_w1"], p["ffn_b1"], p["ffn_w2"], p["ffn_b2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert pools[2].shared > 0
    assert peak <= out.data.nbytes + 2 * T._BLOCK_BYTES + (1 << 20)


def test_worker_error_reaches_the_caller_and_the_pool_stays_usable():
    pool = T.BlockPool(2)
    caller = threading.get_ident()
    helper_ran = threading.Event()

    def fail_in_helper(block):
        if threading.get_ident() == caller:
            # Hold the caller on this block until a helper has taken one.
            assert helper_ran.wait(10)
        else:
            helper_ran.set()
            raise ValueError(f"block {block} failed")

    try:
        with pytest.raises(ValueError, match="failed"):
            pool.run(fail_in_helper, [0, 1])
        seen = []
        lock = threading.Lock()

        def record(block):
            with lock:
                seen.append(block)

        pool.run(record, list(range(20)))
        assert sorted(seen) == list(range(20))
    finally:
        pool.close()


def test_every_block_runs_once_under_contention():
    """More workers than cores and a tiny switch interval: each block is
    taken exactly once and writes only its own rows."""
    pool = T.BlockPool(8)
    counts = np.zeros(4000, dtype=np.int64)
    blocks = T.row_blocks(len(counts), 8, budget=64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            pool.run(lambda b: np.add(counts[b], 1, out=counts[b]), blocks)
    finally:
        sys.setswitchinterval(interval)
        pool.close()
    assert len(blocks) == 500
    assert (counts == 20).all()


def test_an_error_in_any_block_is_raised():
    pool = T.BlockPool(2)

    def fail_first(block):
        if block == 0:
            raise KeyError("first block")

    try:
        for _ in range(20):
            with pytest.raises(KeyError):
                pool.run(fail_first, list(range(6)))
    finally:
        pool.close()


# -- gradients with arrays spanning several blocks ------------------------------


@pytest.fixture
def small_blocks(monkeypatch):
    """Budgets of a few rows, so micro-sized arrays take several blocks: for
    the conv, one float64 field row of _CONV_POSITIONS positions over 2
    groups of 3 channels and a window of 3."""
    pool = CountingPool(2)
    monkeypatch.setattr(T, "_POOL", pool)
    monkeypatch.setattr(T, "_BLOCK_BYTES", 96)
    monkeypatch.setattr(T, "_CONV_CHUNK_BYTES", 2 * (T._CONV_POSITIONS + 2) * 3 * 8)
    yield pool
    pool.close()


def rand(rng, *shape, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, size=shape)


def test_gradients_of_blocked_layer_norm_and_ffn(small_blocks):
    rng = np.random.default_rng(21)
    check(lambda p: mixed(T.layer_norm(p["x"], p["g"], p["b"], residual=p["r"])),
          {"x": rand(rng, 7, 6), "r": rand(rng, 7, 6), "g": rand(rng, 6, lo=0.5, hi=1.5),
           "b": rand(rng, 6)})
    check(lambda p: mixed(feed_forward(p["x"], p["w1"], p["b1"], p["w2"], p["b2"])),
          {"x": rand(rng, 7, 4), "w1": rand(rng, 4, 8), "b1": rand(rng, 8),
           "w2": rand(rng, 8, 4), "b2": rand(rng, 4)})
    assert small_blocks.shared >= 2


def test_gradients_of_blocked_conv(small_blocks, monkeypatch):
    """Nine positions in field rows of several: the last row is ragged."""
    rows = []
    fields = T._receptive_fields

    def recorded(a, groups, window, p):
        rows.append(p)
        return fields(a, groups, window, p)

    monkeypatch.setattr(T, "_receptive_fields", recorded)
    rng = np.random.default_rng(22)
    check(lambda p: mixed(T.grouped_conv1d(p["x"], p["k"], 2, 3, p["b"])),
          {"x": rand(rng, 9, 6), "k": rand(rng, 2, 3, 3, 3), "b": rand(rng, 6)})
    assert small_blocks.shared > 0
    assert set(rows) == {T._CONV_POSITIONS}


def test_gradients_of_blocked_attention(small_blocks):
    cfg = ModelConfig(model_dim=8, num_heads=4, d_key=3, d_value=2,
                      conv_window=3, conv_groups=2, dropout_rate=0.0,
                      num_layers=1)
    with T.precision("float64"):
        base = init_block_params(cfg, np.random.default_rng(23))
    names = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
    arrays = {name: base[name].data for name in names}
    arrays["x"] = rand(np.random.default_rng(24), 9, 8)
    check(lambda p: mixed(multi_head(p["x"], {**base, **p}, cfg)), arrays,
          max_elements=20)
    assert small_blocks.shared >= 3


def test_gradients_of_blocked_interaction_and_pooling(small_blocks):
    rng = np.random.default_rng(25)
    bank = KernelBank(np.linspace(-0.8, 0.8, 5), np.full(5, 0.3))
    check(lambda p: mixed(interaction_rows(p["q"], p["d"])),
          {"q": rand(rng, 5, 4), "d": rand(rng, 7, 4)})
    windows = ModelConfig(window_len=5, stride=2)
    check(lambda p: mixed(windowed_pool_terms(p["rows"], windows, bank)),
          {"rows": np.clip(rng.normal(size=(4, 11)) * 0.4, -1, 1)})
    assert small_blocks.shared >= 2
