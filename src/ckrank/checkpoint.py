"""Parameter checkpoints: JSON manifest + concatenated little-endian payloads.

Layout: magic ``CKPT`` | u32 format version | u64 manifest length |
manifest JSON (utf-8) | raw parameter payloads at the offsets the manifest
declares. Round-trips are bit-exact; loading verifies magic, version, and
payload sizes; a file cut short anywhere or with a malformed manifest raises
IndexFormatError.
"""

import json
import math
import struct

import numpy as np

from .errors import IndexFormatError

MAGIC = b"CKPT"
VERSION = 1

_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


def _wire_dtype(arr):
    if arr.dtype == np.float32:
        return "<f4"
    if arr.dtype == np.float64:
        return "<f8"
    raise IndexFormatError(f"unsupported checkpoint dtype {arr.dtype}")


def save_checkpoint(path, config_dict, config_hash, params, stats):
    """params: name -> Tensor (or ndarray); stats: name -> float."""
    entries = []
    payloads = []
    offset = 0
    for name in sorted(params):
        arr = np.asarray(getattr(params[name], "data", params[name]))
        if not arr.flags["C_CONTIGUOUS"]:
            # keep 0-d shapes intact; ascontiguousarray would promote to (1,)
            arr = np.ascontiguousarray(arr)
        wire = _wire_dtype(arr)
        buf = arr.astype(_DTYPES[wire], copy=False).tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "dtype": wire,
                        "offset": offset, "nbytes": len(buf)})
        payloads.append(buf)
        offset += len(buf)
    manifest = json.dumps({
        "format_version": VERSION,
        "config": config_dict,
        "config_hash": config_hash,
        "params": entries,
        "stats": dict(stats),
    }).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(manifest)))
        fh.write(manifest)
        for buf in payloads:
            fh.write(buf)


_HEADER = struct.Struct("<4sIQ")          # magic, version, manifest length


def load_checkpoint(path):
    """Returns (config_dict, config_hash, arrays name->ndarray, stats dict).
    Any truncated or inconsistent part raises IndexFormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise IndexFormatError(f"{path}: truncated header")
    magic, version, mlen = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise IndexFormatError(f"{path}: not a checkpoint file (bad magic)")
    if version != VERSION:
        raise IndexFormatError(f"{path}: unsupported checkpoint version {version}")
    if mlen > len(blob) - _HEADER.size:
        raise IndexFormatError(f"{path}: truncated manifest")
    header_end = _HEADER.size + mlen
    try:
        manifest = json.loads(blob[_HEADER.size:header_end].decode("utf-8"))
        config, config_hash = dict(manifest["config"]), manifest["config_hash"]
        stats = dict(manifest["stats"])
        entries = [(e["name"], e["dtype"], tuple(map(int, e["shape"])),
                    int(e["offset"]), int(e["nbytes"])) for e in manifest["params"]]
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as err:
        raise IndexFormatError(f"{path}: malformed manifest ({err})") from None
    payload = blob[header_end:]
    arrays = {}
    for name, wire, shape, lo, nbytes in entries:
        dtype = _DTYPES.get(wire)
        if dtype is None:
            raise IndexFormatError(f"{path}: unknown payload dtype {wire}")
        if lo < 0 or nbytes < 0 or lo + nbytes > len(payload):
            raise IndexFormatError(f"{path}: truncated payload for {name}")
        if min(shape, default=0) < 0 or math.prod(shape) * dtype.itemsize != nbytes:
            raise IndexFormatError(f"{path}: payload size of {name} does not "
                                   f"match its shape {list(shape)}")
        arr = np.frombuffer(payload[lo:lo + nbytes], dtype=dtype).reshape(shape)
        arrays[name] = arr.astype(arr.dtype.newbyteorder("="), copy=True)
    return config, config_hash, arrays, stats


def save_model(model, path):
    save_checkpoint(path, model.config.to_dict(), model.config.config_hash(),
                    model.parameters(), model.running_stats())


def load_model(path, vocab):
    """Rebuild a CKModel from a checkpoint; returns it in eval mode."""
    from .model import CKModel, ModelConfig

    config_dict, config_hash, arrays, stats = load_checkpoint(path)
    config = ModelConfig.from_dict(config_dict)
    if config.config_hash() != config_hash:
        raise IndexFormatError(f"{path}: config hash mismatch")
    model = CKModel(config, vocab)
    params = model.parameters()
    if set(params) != set(arrays):
        missing = set(params) ^ set(arrays)
        raise IndexFormatError(f"{path}: parameter set mismatch: {sorted(missing)}")
    for name, tensor in params.items():
        arr = arrays[name]
        if tuple(arr.shape) != tuple(tensor.shape):
            raise IndexFormatError(f"{path}: shape mismatch for {name}: "
                                   f"{arr.shape} vs {tuple(tensor.shape)}")
        tensor.data[...] = arr
    model.load_running_stats(stats)
    model.eval()
    return model
