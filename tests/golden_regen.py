"""Write ``tests/golden.json``, the outputs ``test_golden.py`` pins.

A change meant to move an output runs ``python tests/golden_regen.py`` from
the repository root (with ``src`` on ``PYTHONPATH``) and says in
``CHANGES.md`` what moved and why. The outputs, each under a flat key:

- ``<variant>/checkpoint_sha256``: the sha256 of an untrained micro model's
  checkpoint (``helpers.micro_config``, seed 0) over ``helpers.micro_corpus()``.
- ``<variant>/header``, ``/manifest``, ``/gaps`` and ``/scores``: its CKIX
  index cut into the 16-byte header (hex), the manifest text, the varint
  gap payload (hex) and the float32 score column; ``bm25/...`` the same
  for BM25 at the default k1 and b.
- ``sparse/...``: the same parts of a hand-made index whose gaps need two
  varint bytes, which the micro corpus's 24 documents never do.
- ``<variant>/step/loss`` and ``<variant>/step/grad/<parameter>``: one
  train-mode ``batch_loss`` on two fixed instances, and every gradient.
"""

import hashlib
import json
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from helpers import index_from_postings, micro_config, micro_corpus

import ckrank.tensor as T
from ckrank.bm25 import BM25Searcher
from ckrank.checkpoint import save_model
from ckrank.index import build_index, save_index
from ckrank.model import VARIANTS, CKModel
from ckrank.train import TrainInstance, batch_loss

GOLDEN = Path(__file__).with_name("golden.json")

QUERY_TOKENS = {"Q1": ["w01", "w02", "w03"], "Q2": ["w10", "w11"]}
INSTANCES = [TrainInstance("Q1", "M000", "M001", ("M002", "M003")),
             TrainInstance("Q2", "M005", "M006", ("M007", "M008"))]


def _floats(values):
    """A float array as a list of 9-significant-digit floats, which hold a
    float32 exactly and a float64 to within 5e-10."""
    return [float(f"{v:.9g}") for v in np.ravel(values).tolist()]


def _index_parts(index, path):
    """The saved CKIX file of index, cut at the container's boundaries."""
    save_index(index, path)
    data = Path(path).read_bytes()
    mlen = struct.unpack_from("<Q", data, 8)[0]
    manifest = data[16:16 + mlen].decode("utf-8")
    payloads = {e["name"]: data[16 + mlen + e["offset"]:][:e["nbytes"]]
                for e in json.loads(manifest)["params"]}
    return {"header": data[:16].hex(), "manifest": manifest,
            "gaps": payloads["gaps"].hex(),
            "scores": _floats(np.frombuffer(payloads["scores"], "<f4"))}


def golden_outputs():
    """Every pinned output, computed by the tree under test."""
    corpus, vocab = micro_corpus()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        indexes = {"bm25": BM25Searcher(corpus, vocab).index,
                   "sparse": index_from_postings(
                       [f"D{i:03d}" for i in range(300)],
                       {"t": ([0, 299], [1.0, 2.0]),
                        "u": ([5, 133, 290], [0.5, 0.25, 0.125])})}
        for variant in VARIANTS:
            model = CKModel(micro_config(variant), vocab)
            save_model(model, tmp / "model.ckpt")
            out[f"{variant}/checkpoint_sha256"] = hashlib.sha256(
                (tmp / "model.ckpt").read_bytes()).hexdigest()
            indexes[variant] = build_index(corpus, model)
            model.train()
            loss, _ = batch_loss(model, INSTANCES, corpus, QUERY_TOKENS)
            T.backward(loss)
            out[f"{variant}/step/loss"] = _floats(loss.numpy())
            for name, p in sorted(model.parameters().items()):
                out[f"{variant}/step/grad/{name}"] = _floats(
                    np.zeros(p.shape) if p.grad is None else p.grad)
        for name, index in indexes.items():
            parts = _index_parts(index, tmp / "index.ckix")
            out.update({f"{name}/{part}": v for part, v in parts.items()})
    return out


def write_golden(path=GOLDEN):
    """One key a line, in sorted order, so a diff shows what moved."""
    out = golden_outputs()
    lines = [f"{json.dumps(key)}: {json.dumps(out[key])}" for key in sorted(out)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    write_golden()
    print(f"wrote {GOLDEN}")
