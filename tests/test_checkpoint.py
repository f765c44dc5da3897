"""Checkpoint format: bit-exact round trips and corruption detection."""

import hashlib
import json
import os
import struct
import tempfile

import numpy as np
import pytest
from helpers import micro_config, micro_corpus, tiny_config
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import save_checkpoint_tobytes

import ckrank.attention
import ckrank.container
import ckrank.tensor as T
from ckrank.checkpoint import MAGIC, VERSION, load_model, save_model
from ckrank.corpus import Vocabulary
from ckrank.errors import ContractError, IndexFormatError
from ckrank.model import CKModel, ModelConfig, parameter_specs
from ckrank.train import TrainConfig, TrainInstance, train


@pytest.fixture(scope="module")
def micro():
    return micro_corpus()


def write_raw(path, params, config=None, config_hash="x", stats=None, **fields):
    """A checkpoint container of the given parameters, without a model."""
    ckrank.container.write(path, MAGIC, VERSION,
                           {"config": config or {}, "config_hash": config_hash,
                            "stats": stats or {}, **fields}, params)


def read_raw(path):
    """(manifest, name -> array) of a checkpoint container."""
    return ckrank.container.read(path, MAGIC, VERSION, "checkpoint", {})


def test_raw_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "w32": rng.normal(size=(3, 4)).astype(np.float32),
        "w64": rng.normal(size=7),
        "scalar": np.array(0.125, dtype=np.float32),
    }
    stats = {"mean": 1.5, "var": 0.25}
    path = tmp_path / "model.ckpt"
    write_raw(path, params, {"variant": "ndrm1"}, "deadbeef", stats)
    fields, arrays = read_raw(path)
    assert fields["config"] == {"variant": "ndrm1"}
    assert fields["config_hash"] == "deadbeef"
    assert fields["stats"] == stats
    for name, arr in params.items():
        assert arrays[name].dtype == arr.dtype
        np.testing.assert_array_equal(arrays[name], arr)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(IndexFormatError, match="magic"):
        read_raw(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "v999.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", VERSION + 1) +
                     struct.pack("<Q", 2) + b"{}")
    with pytest.raises(IndexFormatError, match="version"):
        read_raw(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    write_raw(path, {"w": np.ones(64, dtype=np.float32)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(IndexFormatError, match="truncated"):
        read_raw(path)


def _small_checkpoint_bytes():
    params = {"w32": np.arange(6, dtype=np.float32).reshape(2, 3),
              "w64": np.array([0.5, -1.25]),
              "scalar": np.array(0.125, dtype=np.float32)}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "small.ckpt")
        write_raw(path, params, {"variant": "ndrm2"}, "hash", {"m": 1.5})
        with open(path, "rb") as fh:
            return params, fh.read()


SMALL_PARAMS, SMALL_BLOB = _small_checkpoint_bytes()
PAYLOAD_BYTES = 6 * 4 + 2 * 8 + 4


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(0, len(SMALL_BLOB)),
                 st.integers(len(SMALL_BLOB) - PAYLOAD_BYTES - 16, len(SMALL_BLOB))))
def test_every_checkpoint_prefix_fails_cleanly_or_round_trips(cut):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cut.ckpt")
        with open(path, "wb") as fh:
            fh.write(SMALL_BLOB[:cut])
        try:
            fields, arrays = read_raw(path)
        except IndexFormatError:
            assert cut < len(SMALL_BLOB)
            return
    assert (fields["config"], fields["config_hash"], fields["stats"]) == \
        ({"variant": "ndrm2"}, "hash", {"m": 1.5})
    assert arrays.keys() == SMALL_PARAMS.keys()
    for name, arr in SMALL_PARAMS.items():
        assert arrays[name].dtype == arr.dtype
        assert arrays[name].tobytes() == arr.tobytes()
        assert arrays[name].shape == arr.shape


@pytest.mark.parametrize("entry", [
    {"shape": [4]},                   # 12 bytes cannot be 4 float32
    {"shape": [-3]},
    {"offset": -8},
    {"dtype": "<i8"},
    {"shape": "x"},
])
def test_inconsistent_manifest_rejected(tmp_path, entry):
    path = tmp_path / "model.ckpt"
    write_raw(path, {"w": np.ones(3, dtype=np.float32)})
    blob = path.read_bytes()
    mlen = struct.unpack_from("<Q", blob, 8)[0]
    manifest = json.loads(blob[16:16 + mlen])
    manifest["params"][0].update(entry)
    raw = json.dumps(manifest).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + mlen:])
    with pytest.raises(IndexFormatError):
        read_raw(path)


def test_integer_params_rejected(tmp_path):
    with pytest.raises(IndexFormatError, match="dtype"):
        write_raw(tmp_path / "x.ckpt", {"ids": np.arange(4)})


@pytest.mark.parametrize("edit,reason", [
    (lambda c, s: c.update(wariant="ndrm2"), "unknown config keys"),
    (lambda c, s: c.update(variant="ndrm9"), "unknown variant"),
    (lambda c, s: c.update(epsilon=0.0), "epsilon must be positive"),
    (lambda c, s: s.pop("bs_tf_mean"), "running statistics"),
    (lambda c, s: s.update(extra=1.0), "running statistics"),
    (lambda c, s: c.update(seed=-2), "seed must be an integer >= 0, not -2"),
    (lambda c, s: c.update(seed=2.5), "seed must be an integer >= 0, not 2.5"),
    (lambda c, s: c.update(model_dim=8.0), "model_dim must be an integer >= 1"),
    (lambda c, s: c.update(bn_momentum=7.0), "bn_momentum must be in"),
    (lambda c, s: c.update(var_floor=0.0), "var_floor must be positive"),
], ids=["unknown-key", "variant", "epsilon", "missing-stat", "extra-stat",
        "seed-negative", "seed-real", "model_dim-real", "bn_momentum",
        "var_floor"])
def test_load_model_refuses_a_malformed_manifest(tmp_path, micro, edit, reason):
    """A config ModelConfig or CKModel refuses, or running statistics that
    are not the model's, is a malformed file, not a ConfigError or a
    KeyError."""
    _, vocab = micro
    model = CKModel(micro_config("ndrm2"), vocab)
    config, stats = model.config.to_dict(), model.running_stats()
    edit(config, stats)
    path = tmp_path / "bad.ckpt"
    write_raw(path, model.parameters(), config, model.config_hash, stats,
              vocab_fingerprint=vocab.fingerprint())
    with pytest.raises(IndexFormatError, match=reason):
        load_model(path, vocab)


BS_STATS = ["bs_tf_mean", "bs_dlen_mean"]
DUET_STATS = ["bn_latent_mean", "bn_latent_var", "bn_explicit_mean",
              "bn_explicit_var"]
BAD_STATS = [("x", "finite real number"), (True, "finite real number"),
             (None, "finite real number"), (float("nan"), "finite real number"),
             (float("inf"), "finite real number"),
             (float("-inf"), "finite real number")]


@pytest.mark.parametrize("variant,name,value,reason", [
    (variant, name, value, reason)
    for variant in ("ndrm2", "ndrm3")
    for name in BS_STATS + (DUET_STATS if variant == "ndrm3" else [])
    for value, reason in BAD_STATS
] + [(variant, name, -0.5, "must be non-negative")
     for variant in ("ndrm2", "ndrm3") for name in BS_STATS] + [
    ("ndrm3", name, -0.5, "must be non-negative")
    for name in ("bn_latent_var", "bn_explicit_var")])
def test_load_model_refuses_malformed_running_statistics(tmp_path, micro, variant,
                                                         name, value, reason):
    """A statistic that is not a finite real number, or a negative
    scale-normalization mean or variance, is refused on load instead of
    failing at the first score."""
    _, vocab = micro
    model = CKModel(micro_config(variant), vocab)
    stats = model.running_stats()
    stats[name] = value
    path = tmp_path / "stats.ckpt"
    write_raw(path, model.parameters(), model.config.to_dict(), model.config_hash,
              stats, vocab_fingerprint=vocab.fingerprint())
    with pytest.raises(IndexFormatError, match=reason):
        load_model(path, vocab)


def test_refused_running_statistics_change_nothing(micro):
    _, vocab = micro
    model = CKModel(micro_config("ndrm3"), vocab)
    before = model.running_stats()
    with pytest.raises(ContractError, match="bn_explicit_var"):
        model.load_running_stats({**before, "bs_tf_mean": 2.0,
                                  "bn_explicit_var": float("nan")})
    assert model.running_stats() == before
    # a mean of the duet's batch norm may be negative
    model.load_running_stats({**before, "bn_latent_mean": -0.25})
    assert model.running_stats()["bn_latent_mean"] == -0.25


@pytest.mark.parametrize("variant", ["ndrm1", "ndrm2", "ndrm3"])
def test_load_model_refuses_a_uint8_parameter(tmp_path, micro, variant):
    """The container holds uint8 payloads for indexes; a model parameter
    stored as one is refused, even with the shape the config asks for."""
    _, vocab = micro
    model = CKModel(micro_config(variant), vocab)
    params = {name: p.data for name, p in model.parameters().items()}
    name = sorted(params)[0]
    params[name] = np.zeros(params[name].shape, dtype=np.uint8)
    path = tmp_path / "u1.ckpt"
    write_raw(path, params, model.config.to_dict(), model.config_hash,
              model.running_stats(), vocab_fingerprint=vocab.fingerprint())
    assert read_raw(path)[1][name].dtype == np.uint8
    with pytest.raises(IndexFormatError, match=f"{name} has dtype uint8"):
        load_model(path, vocab)


@pytest.mark.parametrize("variant", ["ndrm1", "ndrm2", "ndrm3"])
def test_model_round_trip_bit_exact(tmp_path, micro, variant):
    corpus, vocab = micro
    model = CKModel(micro_config(variant, seed=3), vocab)
    if model.duet is not None:
        model.duet.bn_latent_mean = 0.37  # non-default running stats survive
    path = tmp_path / f"{variant}.ckpt"
    save_model(model, path)
    loaded = load_model(path, vocab)
    assert loaded.mode == "infer"
    assert loaded.config == model.config
    for name, tensor in model.parameters().items():
        np.testing.assert_array_equal(loaded.parameters()[name].numpy(),
                                      tensor.numpy())
    assert loaded.running_stats() == model.running_stats()


def test_model_round_trip_preserves_scores(tmp_path, micro):
    corpus, vocab = micro
    model = CKModel(micro_config("ndrm3", seed=5), vocab)
    model.eval()
    doc = next(iter(corpus))
    before = model.per_term_scores(["w00", "w04"], doc)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    loaded = load_model(path, vocab)
    np.testing.assert_array_equal(loaded.per_term_scores(["w00", "w04"], doc),
                                  before)


def test_load_model_detects_config_tampering(tmp_path, micro):
    _, vocab = micro
    model = CKModel(micro_config("ndrm2"), vocab)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    # flip the stored seed inside the manifest JSON without updating the hash
    idx = blob.find(b'"seed": 0')
    assert idx > 0
    blob[idx:idx + 9] = b'"seed": 9'
    path.write_bytes(bytes(blob))
    with pytest.raises(IndexFormatError, match="hash"):
        load_model(path, vocab)


def test_load_model_detects_vocab_size_mismatch(tmp_path, micro):
    _, vocab = micro
    model = CKModel(micro_config("ndrm1"), vocab)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    other_corpus, other_vocab = micro_corpus(seed=9, vocab_terms=13)
    assert other_vocab.size != vocab.size
    with pytest.raises(IndexFormatError, match="shape"):
        load_model(path, other_vocab)


# -- manifest tiling ---------------------------------------------------------------


def _rewrite_manifest(path, edit, tail=b""):
    blob = path.read_bytes()
    mlen = struct.unpack_from("<Q", blob, 8)[0]
    manifest = json.loads(blob[16:16 + mlen])
    edit(manifest)
    raw = json.dumps(manifest).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw +
                     blob[16 + mlen:] + tail)


def _two_param_checkpoint(path):
    write_raw(path, {"a": np.ones(2, dtype=np.float32),
                     "b": np.zeros(2, dtype=np.float32)})


def test_duplicate_parameter_names_rejected(tmp_path):
    path = tmp_path / "dup.ckpt"
    _two_param_checkpoint(path)
    _rewrite_manifest(path, lambda m: m["params"][1].update(name="a"))
    with pytest.raises(IndexFormatError, match="twice"):
        read_raw(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "tail.ckpt"
    _two_param_checkpoint(path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(IndexFormatError, match="after the last payload"):
        read_raw(path)


@pytest.mark.parametrize("edit", [
    lambda m: m["params"].reverse(),                # out of file order
    lambda m: m["params"][1].update(offset=0),      # overlaps the first
    lambda m: m["params"].pop(),                    # leaves bytes unclaimed
])
def test_payloads_must_tile_the_file(tmp_path, edit):
    path = tmp_path / "tile.ckpt"
    _two_param_checkpoint(path)
    _rewrite_manifest(path, edit)
    with pytest.raises(IndexFormatError):
        read_raw(path)


def test_payload_after_a_gap_rejected(tmp_path):
    """Four bytes between the payloads, the file still ending where the last
    one does: reading in file order would load b from the gap."""
    path = tmp_path / "gap.ckpt"
    _two_param_checkpoint(path)
    _rewrite_manifest(path, lambda m: m["params"][1].update(offset=12),
                      tail=b"\x00" * 4)
    with pytest.raises(IndexFormatError, match="not where the previous one ended"):
        read_raw(path)


def test_version_1_refused_with_reason(tmp_path, micro):
    _, vocab = micro
    path = tmp_path / "v1.ckpt"
    save_model(CKModel(micro_config("ndrm2"), vocab), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
    with pytest.raises(IndexFormatError, match="version 1 predates the "
                                               "vocabulary fingerprint"):
        load_model(path, vocab)


# -- the writer against per-parameter copies ----------------------------------------


def _param_arrays():
    floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
    shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
    array = hnp.arrays(st.sampled_from([np.float32, np.float64]), shapes,
                       elements=floats)
    # a reversed or strided view is not C-contiguous
    return st.tuples(array, st.sampled_from(["plain", "transpose", "stride"])) \
        .map(lambda a: {"plain": a[0], "transpose": a[0].T,
                        "stride": a[0][..., ::2]}[a[1]] if a[0].ndim else a[0])


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.text("abcdef.", min_size=1, max_size=6),
                       _param_arrays(), max_size=5))
def test_writer_matches_per_parameter_tobytes(params):
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = os.path.join(tmp, "a.ckpt"), os.path.join(tmp, "b.ckpt")
        write_raw(ours, params, {"v": 1}, "h", {"m": 0.5})
        save_checkpoint_tobytes(theirs, {"v": 1}, "h", params, {"m": 0.5})
        blobs = []
        for path in (ours, theirs):
            with open(path, "rb") as fh:
                blob = fh.read()
            mlen = struct.unpack_from("<Q", blob, 8)[0]
            blobs.append((json.loads(blob[16:16 + mlen])["params"],
                          blob[16 + mlen:]))
        _, arrays = read_raw(ours)
    assert blobs[0] == blobs[1]
    for name, arr in params.items():
        assert arrays[name].shape == arr.shape
        assert arrays[name].tobytes() == np.ascontiguousarray(arr).tobytes()


# -- loading builds the model from the file, drawing nothing -------------------------


class _NoDraws(np.random.Generator):
    def uniform(self, *args, **kwargs):
        raise AssertionError("a load drew a parameter")


def _refuse(*args, **kwargs):
    raise AssertionError("a load initialized parameters")


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("variant", ["ndrm1", "ndrm2", "ndrm3"])
def test_load_draws_nothing_and_adopts_the_file(tmp_path, micro, monkeypatch,
                                                variant, precision):
    _, vocab = micro
    path = tmp_path / "model.ckpt"
    with T.precision(precision):
        model = CKModel(micro_config(variant, seed=2), vocab)
        save_model(model, path)
        made = []

        def default_rng(seed=None):
            made.append((seed, _NoDraws(np.random.PCG64(seed))))
            return made[-1][1]

        read = ckrank.container.read
        files = []
        monkeypatch.setattr(np.random, "default_rng", default_rng)
        monkeypatch.setattr(ckrank.attention, "init_block_params", _refuse)
        monkeypatch.setattr(ckrank.container, "read",
                            lambda *a: files.append(read(*a)) or files[-1])
        loaded = load_model(path, vocab)
        monkeypatch.undo()
    # only the dropout stream was made, and it is untouched
    assert [seed for seed, _ in made] == [model.config.seed + 1]
    assert made[0][1].bit_generator.state == \
        np.random.PCG64(model.config.seed + 1).state
    _, arrays = files[0]
    saved = model.parameters()
    assert list(loaded.parameters()) == list(saved)
    for name, tensor in loaded.parameters().items():
        data = tensor.data
        assert data is arrays[name]          # adopted, not copied again
        assert data.dtype == saved[name].data.dtype
        assert data.flags.owndata and data.flags.writeable
        assert data.dtype.isnative
        assert data.tobytes() == saved[name].data.tobytes()


@pytest.mark.parametrize("variant", ["ndrm1", "ndrm2", "ndrm3"])
def test_parameter_specs_name_every_parameter(micro, variant):
    _, vocab = micro
    model = CKModel(micro_config(variant), vocab)
    specs = parameter_specs(model.config, vocab.size)
    assert [(name, shape) for name, shape, _ in specs] == \
        [(name, p.shape) for name, p in model.parameters().items()]


def test_loaded_copy_trains_like_the_original(tmp_path, micro):
    corpus, vocab = micro
    doc_ids = sorted(corpus.docs)
    rng = np.random.default_rng(11)
    queries = {f"Q{i}": [f"w{j:02d}" for j in rng.integers(40, size=3)]
               for i in range(4)}
    instances = [TrainInstance(q, *(doc_ids[j] for j in picks[:2]),
                               tuple(doc_ids[j] for j in picks[2:]))
                 for q, picks in ((q, rng.choice(len(doc_ids), 4, replace=False))
                                  for q in queries)]
    model = CKModel(tiny_config("ndrm3", seed=6), vocab)
    path = tmp_path / "fresh.ckpt"
    save_model(model, path)
    loaded = load_model(path, vocab)
    cfg = TrainConfig(batch_size=2, steps=3, lr=3e-3, seed=1)
    traces = [train(m, corpus, queries, instances, cfg).loss_trace
              for m in (model, loaded)]
    assert len(traces[0]) == 3
    assert traces[0] == traces[1]
    for name, tensor in model.parameters().items():
        assert tensor.data.tobytes() == loaded.parameters()[name].data.tobytes()


# -- the vocabulary fingerprint -------------------------------------------------------


def _vocab_like(vocab, term_to_id=None, df=None, num_docs=None):
    return Vocabulary(vocab.term_to_id if term_to_id is None else term_to_id,
                      vocab.df if df is None else df,
                      vocab.num_docs if num_docs is None else num_docs,
                      vocab.mean_dlen, vocab.mean_tf)


@pytest.mark.parametrize("change", ["reversed terms", "df", "num_docs"])
@pytest.mark.parametrize("variant", ["ndrm1", "ndrm2", "ndrm3"])
def test_load_model_refuses_another_vocabulary(tmp_path, micro, variant, change):
    _, vocab = micro
    path = tmp_path / "model.ckpt"
    save_model(CKModel(micro_config(variant), vocab), path)
    terms = sorted(vocab.term_to_id, key=vocab.term_to_id.get)
    other = {
        "reversed terms": lambda: _vocab_like(
            vocab, term_to_id={t: i for i, t in enumerate(reversed(terms))}),
        "df": lambda: _vocab_like(vocab, df={**vocab.df,
                                             terms[0]: vocab.df[terms[0]] + 1}),
        "num_docs": lambda: _vocab_like(vocab, num_docs=vocab.num_docs + 1),
    }[change]()
    assert other.size == vocab.size
    with pytest.raises(IndexFormatError, match="different vocabulary"):
        load_model(path, other)


def test_load_model_accepts_a_saved_and_reloaded_vocabulary(tmp_path, micro):
    corpus, vocab = micro
    model = CKModel(micro_config("ndrm3", seed=1), vocab)
    save_model(model, tmp_path / "model.ckpt")
    vocab.save(tmp_path / "vocab.json")
    reloaded = Vocabulary.load(tmp_path / "vocab.json")
    assert reloaded.fingerprint() == vocab.fingerprint()
    loaded = load_model(tmp_path / "model.ckpt", reloaded)
    doc = next(iter(corpus))
    model.eval()
    np.testing.assert_array_equal(loaded.per_term_scores(["w01", "w03"], doc),
                                  model.per_term_scores(["w01", "w03"], doc))


def test_load_model_refuses_a_permuted_vocabulary_after_hashing_the_first(
        tmp_path, micro):
    """The fingerprint is kept per vocabulary object, so a permutation of a
    vocabulary that was already hashed is still refused."""
    _, vocab = micro
    path = tmp_path / "model.ckpt"
    save_model(CKModel(micro_config("ndrm3"), vocab), path)
    assert load_model(path, vocab).vocab is vocab
    terms = sorted(vocab.term_to_id, key=vocab.term_to_id.get)
    order = np.random.default_rng(4).permutation(len(terms))
    permuted = _vocab_like(vocab, term_to_id={terms[j]: i for i, j in enumerate(order)})
    with pytest.raises(IndexFormatError, match="different vocabulary"):
        load_model(path, permuted)


def test_fingerprint_is_hashed_once_per_vocabulary(monkeypatch, micro):
    corpus, _ = micro
    vocab = Vocabulary.build(corpus)
    calls = []
    sha256 = hashlib.sha256

    def counted(*args):
        calls.append(args)
        return sha256(*args)

    monkeypatch.setattr(hashlib, "sha256", counted)
    first = vocab.fingerprint()
    assert len(calls) == 1
    assert vocab.fingerprint() == first
    assert len(calls) == 1


def test_config_is_hashed_once_per_save_load_cycle(tmp_path, monkeypatch, micro):
    _, vocab = micro
    model = CKModel(micro_config("ndrm3"), vocab)
    want = model.config.config_hash()
    calls = []
    config_hash = ModelConfig.config_hash

    def counted(self):
        calls.append(self)
        return config_hash(self)

    monkeypatch.setattr(ModelConfig, "config_hash", counted)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    loaded = load_model(path, vocab)
    assert len(calls) == 1
    assert read_raw(path)[0]["config_hash"] == loaded.config_hash == want


def test_raw_checkpoint_without_fingerprint_is_not_a_model(tmp_path, micro):
    _, vocab = micro
    model = CKModel(micro_config("ndrm2"), vocab)
    path = tmp_path / "raw.ckpt"
    write_raw(path, model.parameters(), model.config.to_dict(),
              model.config.config_hash(), model.running_stats())
    with pytest.raises(IndexFormatError, match="different vocabulary"):
        load_model(path, vocab)
