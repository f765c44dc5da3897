"""One binary container for checkpoints and impact indexes.

Layout: 4-byte magic | u32 format version | u64 manifest length | manifest
JSON (utf-8) | raw little-endian payloads, in manifest order, each starting
where the previous one ended and the last ending at the end of the file.
The manifest holds ``format_version``, the caller's fields and ``params``:
each payload's name, dtype, shape, offset and byte count. Round-trips are
bit-exact. ``read`` verifies magic, version, payload sizes and that the
payloads tile the file; a file cut short anywhere, with a malformed
manifest, a repeated payload name, an unknown dtype or trailing bytes
raises IndexFormatError.

Each payload is copied once either way: ``write`` writes every array's own
buffer to the file, and ``read`` reads every payload from the file straight
into an owned native-endian array.
"""

import json
import math
import os
import struct

import numpy as np

from .errors import IndexFormatError

_DTYPES = {wire: np.dtype(wire) for wire in ("<f4", "<f8", "|u1")}
_HEADER = struct.Struct("<4sIQ")          # magic, version, manifest length


def write(path, magic, version, fields, payloads):
    """Write ``fields`` (JSON-ready) and ``payloads`` (name -> Tensor or
    ndarray of float32, float64 or uint8), payloads in name order."""
    entries = []
    arrays = []
    offset = 0
    for name in sorted(payloads):
        arr = np.asarray(getattr(payloads[name], "data", payloads[name]))
        dtype = _DTYPES.get(arr.dtype.newbyteorder("<").str)
        if dtype is None:
            raise IndexFormatError(f"unsupported payload dtype {arr.dtype}")
        # copies only an array that is not already C-contiguous little-endian
        arr = arr.astype(dtype, order="C", copy=False)
        entries.append({"name": name, "shape": list(arr.shape),
                        "dtype": arr.dtype.str, "offset": offset,
                        "nbytes": arr.nbytes})
        arrays.append(arr)
        offset += arr.nbytes
    manifest = json.dumps({"format_version": version, **fields,
                           "params": entries}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, version, len(manifest)))
        fh.write(manifest)
        for arr in arrays:
            fh.write(arr)


def read(path, magic, version, what, older):
    """The manifest (a dict) and name -> owned native-endian array, each
    read from the file straight into its array once the manifest has been
    checked against the file's size. ``what`` names the kind of file in
    messages; ``older`` maps each refused earlier version to the reason."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise IndexFormatError(f"{path}: truncated header")
        found, got, mlen = _HEADER.unpack(head)
        if found != magic:
            raise IndexFormatError(f"{path}: bad magic, not a "
                                   f"{magic.decode()} {what}")
        if got in older:
            raise IndexFormatError(f"{path}: {what} version {got} {older[got]}")
        if got != version:
            raise IndexFormatError(f"{path}: unsupported {what} version {got}")
        size = os.fstat(fh.fileno()).st_size - _HEADER.size - mlen
        if size < 0:
            raise IndexFormatError(f"{path}: truncated manifest")
        try:
            manifest = json.loads(fh.read(mlen).decode("utf-8"))
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
                raise IndexFormatError(f"{path}: payload {name!r} appears twice")
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
    return manifest, arrays
