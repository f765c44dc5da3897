"""Single-byte corruption of checkpoint and index files: every flip is
refused with IndexFormatError or the file loads."""

import os
import struct
import tempfile

import numpy as np
from helpers import index_from_postings, micro_config, micro_corpus
from hypothesis import given, settings
from hypothesis import strategies as st

from ckrank.checkpoint import load_model, save_model
from ckrank.errors import IndexFormatError
from ckrank.index import load_index, save_index
from ckrank.model import CKModel

CORPUS, VOCAB = micro_corpus()


def _saved(save, obj, name):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        save(obj, path)
        with open(path, "rb") as fh:
            return fh.read()


FILES = {
    "ckix": (_saved(save_index, index_from_postings(
        [f"D{i}" for i in range(301)],
        {"alpha": (np.array([0, 2, 3]), np.array([0.5, -1.25, 2.0], np.float32)),
         "beta": (np.array([1]), np.array([3.5], np.float32)),
         "gamma": (np.array([0, 300]), np.array([1.0, 0.25], np.float32))},
        "hash", {"bs_tf_mean": 1.5}, 5), "small.ckix"), load_index),
    "ckpt": (_saved(save_model, CKModel(micro_config("ndrm3"), VOCAB),
                    "small.ckpt"), lambda path: load_model(path, VOCAB)),
}


def _manifest_end(blob):
    return 16 + struct.unpack_from("<Q", blob, 8)[0]


@st.composite
def flips(draw):
    """A file kind, a byte position (half of them in the header or the
    manifest, where most of the structure is) and a non-zero xor mask."""
    kind = draw(st.sampled_from(sorted(FILES)))
    blob = FILES[kind][0]
    pos = draw(st.one_of(st.integers(0, _manifest_end(blob) - 1),
                         st.integers(0, len(blob) - 1)))
    return kind, pos, draw(st.integers(1, 255))


@settings(max_examples=400, deadline=None)
@given(flips())
def test_every_byte_flip_is_refused_or_loads(flip):
    kind, pos, mask = flip
    blob, load = FILES[kind]
    bad = bytearray(blob)
    bad[pos] ^= mask
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"flipped.{kind}")
        with open(path, "wb") as fh:
            fh.write(bad)
        try:
            load(path)
        except IndexFormatError:
            pass
