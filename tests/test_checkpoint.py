"""Checkpoint format: bit-exact round trips and corruption detection."""

import json
import os
import struct
import tempfile

import numpy as np
import pytest
from helpers import micro_config, micro_corpus
from hypothesis import given, settings
from hypothesis import strategies as st

from ckrank.checkpoint import (MAGIC, VERSION, load_checkpoint, load_model,
                               save_checkpoint, save_model)
from ckrank.errors import IndexFormatError
from ckrank.model import CKModel


@pytest.fixture(scope="module")
def micro():
    return micro_corpus()


def test_raw_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "w32": rng.normal(size=(3, 4)).astype(np.float32),
        "w64": rng.normal(size=7),
        "scalar": np.array(0.125, dtype=np.float32),
    }
    stats = {"mean": 1.5, "var": 0.25}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"variant": "ndrm1"}, "deadbeef", params, stats)
    config, chash, arrays, loaded_stats = load_checkpoint(path)
    assert config == {"variant": "ndrm1"}
    assert chash == "deadbeef"
    assert loaded_stats == stats
    for name, arr in params.items():
        assert arrays[name].dtype == arr.dtype
        np.testing.assert_array_equal(arrays[name], arr)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(IndexFormatError, match="magic"):
        load_checkpoint(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "v999.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", VERSION + 1) +
                     struct.pack("<Q", 2) + b"{}")
    with pytest.raises(IndexFormatError, match="version"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {}, "x", {"w": np.ones(64, dtype=np.float32)}, {})
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(IndexFormatError, match="truncated"):
        load_checkpoint(path)


def _small_checkpoint_bytes():
    params = {"w32": np.arange(6, dtype=np.float32).reshape(2, 3),
              "w64": np.array([0.5, -1.25]),
              "scalar": np.array(0.125, dtype=np.float32)}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "small.ckpt")
        save_checkpoint(path, {"variant": "ndrm2"}, "hash", params, {"m": 1.5})
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
            config, chash, arrays, stats = load_checkpoint(path)
        except IndexFormatError:
            assert cut < len(SMALL_BLOB)
            return
    assert (config, chash, stats) == ({"variant": "ndrm2"}, "hash", {"m": 1.5})
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
    save_checkpoint(path, {}, "x", {"w": np.ones(3, dtype=np.float32)}, {})
    blob = path.read_bytes()
    mlen = struct.unpack_from("<Q", blob, 8)[0]
    manifest = json.loads(blob[16:16 + mlen])
    manifest["params"][0].update(entry)
    raw = json.dumps(manifest).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + mlen:])
    with pytest.raises(IndexFormatError):
        load_checkpoint(path)


def test_integer_params_rejected(tmp_path):
    with pytest.raises(IndexFormatError, match="dtype"):
        save_checkpoint(tmp_path / "x.ckpt", {}, "h",
                        {"ids": np.arange(4)}, {})


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
    before = model.score_query_document(["w00", "w04"], doc)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    loaded = load_model(path, vocab)
    assert loaded.score_query_document(["w00", "w04"], doc) == before


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
