"""Parameter checkpoints: JSON manifest + concatenated little-endian payloads.

Layout: magic ``CKPT`` | u32 format version | u64 manifest length |
manifest JSON (utf-8) | raw parameter payloads, in manifest order, each
starting where the previous one ended and the last ending at the end of the
file. Round-trips are bit-exact. Loading verifies magic, version, payload
sizes and that the payloads tile the file; a file cut short anywhere, with a
malformed manifest, a repeated parameter name or trailing bytes raises
IndexFormatError.

Each parameter is copied once either way: saving writes every array's own
buffer to the file, and loading reads every payload from the file straight
into the array the model then adopts. ``load_model`` builds the model from
those arrays without drawing a random initialization first.

Version 2 adds the training vocabulary's fingerprint (``save_model``);
``load_model`` refuses a vocabulary whose term order, document frequencies
or document count differ from it. Version 1 files are refused.
"""

import json
import math
import os
import struct

import numpy as np

from .errors import IndexFormatError

MAGIC = b"CKPT"
VERSION = 2

_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


def _wire_dtype(arr):
    if arr.dtype == np.float32:
        return "<f4"
    if arr.dtype == np.float64:
        return "<f8"
    raise IndexFormatError(f"unsupported checkpoint dtype {arr.dtype}")


def save_checkpoint(path, config_dict, config_hash, params, stats):
    """params: name -> Tensor (or ndarray); stats: name -> float."""
    _write(path, {"config": config_dict, "config_hash": config_hash,
                  "stats": dict(stats)}, params)


def _write(path, fields, params):
    entries = []
    payloads = []
    offset = 0
    for name in sorted(params):
        arr = np.asarray(getattr(params[name], "data", params[name]))
        # copies only an array that is not already C-contiguous little-endian
        arr = arr.astype(_DTYPES[_wire_dtype(arr)], order="C", copy=False)
        entries.append({"name": name, "shape": list(arr.shape),
                        "dtype": arr.dtype.str, "offset": offset,
                        "nbytes": arr.nbytes})
        payloads.append(arr)
        offset += arr.nbytes
    manifest = json.dumps({"format_version": VERSION, **fields,
                           "params": entries}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(manifest)))
        fh.write(manifest)
        for arr in payloads:
            fh.write(arr)


_HEADER = struct.Struct("<4sIQ")          # magic, version, manifest length


def load_checkpoint(path):
    """Returns (config_dict, config_hash, arrays name->ndarray, stats dict).
    Any truncated or inconsistent part raises IndexFormatError."""
    fields, arrays = _read(path)
    return fields["config"], fields["config_hash"], arrays, fields["stats"]


def _read(path):
    """The manifest's fields (config, config_hash, stats, vocab_fingerprint)
    and name -> owned native-endian array, each read from the file straight
    into its array once the manifest has been checked against the file's
    size."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise IndexFormatError(f"{path}: truncated header")
        magic, version, mlen = _HEADER.unpack(head)
        if magic != MAGIC:
            raise IndexFormatError(f"{path}: not a checkpoint file (bad magic)")
        if version < VERSION:
            raise IndexFormatError(
                f"{path}: checkpoint version {version} predates the vocabulary "
                f"fingerprint of version {VERSION}; train and save the model "
                f"again")
        if version != VERSION:
            raise IndexFormatError(
                f"{path}: unsupported checkpoint version {version}")
        size = os.fstat(fh.fileno()).st_size - _HEADER.size - mlen
        if size < 0:
            raise IndexFormatError(f"{path}: truncated manifest")
        try:
            manifest = json.loads(fh.read(mlen).decode("utf-8"))
            fields = {"config": dict(manifest["config"]),
                      "config_hash": manifest["config_hash"],
                      "stats": dict(manifest["stats"]),
                      "vocab_fingerprint": manifest.get("vocab_fingerprint")}
            entries = [(e["name"], e["dtype"], tuple(map(int, e["shape"])),
                        int(e["offset"]), int(e["nbytes"]))
                       for e in manifest["params"]]
        except (UnicodeDecodeError, ValueError, KeyError, TypeError) as err:
            raise IndexFormatError(f"{path}: malformed manifest ({err})") \
                from None
        layout = {}
        end = 0
        for name, wire, shape, lo, nbytes in entries:
            dtype = _DTYPES.get(wire)
            if dtype is None:
                raise IndexFormatError(f"{path}: unknown payload dtype {wire}")
            if lo < 0 or nbytes < 0 or lo + nbytes > size:
                raise IndexFormatError(f"{path}: truncated payload for {name}")
            if lo != end:
                raise IndexFormatError(
                    f"{path}: payload of {name} starts at {lo}, not where the "
                    f"previous one ended ({end})")
            if name in layout:
                raise IndexFormatError(f"{path}: parameter {name!r} appears twice")
            if min(shape, default=0) < 0 or \
                    math.prod(shape) * dtype.itemsize != nbytes:
                raise IndexFormatError(f"{path}: payload size of {name} does "
                                       f"not match its shape {list(shape)}")
            layout[name] = (dtype, shape, nbytes)
            end = lo + nbytes
        if end != size:
            raise IndexFormatError(f"{path}: {size - end} bytes after the last "
                                   f"payload")
        arrays = {}
        for name, (dtype, shape, nbytes) in layout.items():
            arr = np.empty(shape, dtype.newbyteorder("="))
            if fh.readinto(arr) != nbytes:
                raise IndexFormatError(f"{path}: truncated payload for {name}")
            if not dtype.isnative:
                arr.byteswap(inplace=True)
            arrays[name] = arr
    return fields, arrays


def save_model(model, path):
    _write(path, {"config": model.config.to_dict(),
                  "config_hash": model.config_hash,
                  "stats": model.running_stats(),
                  "vocab_fingerprint": model.vocab.fingerprint()},
           model.parameters())


def load_model(path, vocab):
    """Rebuild a CKModel from a checkpoint; returns it in eval mode. A
    stored config hash that differs from the rebuilt config's raises
    IndexFormatError.

    The model adopts the loaded arrays; its dropout stream starts as a
    fresh model's does.
    """
    from .model import CKModel, ModelConfig, parameter_specs

    fields, arrays = _read(path)
    config = ModelConfig.from_dict(fields["config"])
    specs = parameter_specs(config, vocab.size)
    names = {name for name, _, _ in specs}
    if names != set(arrays):
        raise IndexFormatError(f"{path}: parameter set mismatch: "
                               f"{sorted(names ^ set(arrays))}")
    for name, shape, _ in specs:
        arr = arrays[name]
        if arr.shape != shape:
            raise IndexFormatError(f"{path}: shape mismatch for {name}: "
                                   f"{arr.shape} vs {shape}")
    if fields["vocab_fingerprint"] != vocab.fingerprint():
        raise IndexFormatError(f"{path}: the model was trained with a different "
                               f"vocabulary (term order, document frequencies "
                               f"or document count differ)")
    model = CKModel(config, vocab, arrays)
    # the model hashes its config once, on construction
    if model.config_hash != fields["config_hash"]:
        raise IndexFormatError(f"{path}: config hash mismatch")
    model.load_running_stats(fields["stats"])
    model.eval()
    return model
