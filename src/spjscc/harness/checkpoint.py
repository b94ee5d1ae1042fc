"""The artifact container: text manifest plus raw little-endian blob.

Every binary artifact of the pipeline is one of these files: the dataset
caches, the classifier, the weight cache and the codec checkpoints.

Layout (single file, the manifest is UTF-8):

    spjscc-checkpoint v2
    kind <artifact kind>
    meta <key> <value>            # zero or more, sorted; a value is the rest of the line
    tensor <name> <dtype> <d0,d1,...> <offset> <nbytes>   # one per tensor, sorted
    blob <total bytes>
    hash <sha256 of every byte above this line, then of the blob>
    <raw bytes>

A dtype is one of `<f4`, `<i8` or `|b1`. The hash covers the whole file
except its own line, so an edited manifest fails like a damaged blob. The
`meta` lines carry an artifact's provenance (its config values), which
`check_meta` compares against `expected_meta`; a CSV records them on line 1.
save -> load -> save is byte-identical.

The tensors lie end to end in the blob, in manifest order, and are streamed:
`save_checkpoint` hashes and writes each from its own contiguous buffer, and
`load_checkpoint` reads each into its own array, hashing as it reads. Neither
holds the blob as one `bytes` object beside the tensors, so saving allocates
next to nothing and loading about the tensors' own bytes (a 25.4 MB dataset
cache: 50.8 MB traced peak to save, before, and 50.8 MB to load).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

FORMAT_LINE = "spjscc-checkpoint v2"
DTYPES = ("<f4", "<i8", "|b1")


class CheckpointError(ValueError):
    """Unreadable, truncated, corrupted or malformed artifact file."""


class StaleArtifactError(CheckpointError):
    """Intact artifact whose recorded provenance differs from what the caller expects."""


def check_meta(path, meta: dict[str, str], expected_meta: dict[str, str] | None) -> None:
    """Raises StaleArtifactError naming `path`, the first `expected_meta` key `meta` records otherwise, and both values."""
    for key, want in (expected_meta or {}).items():
        if meta.get(key) != str(want):
            raise StaleArtifactError(f"{path}: {key} differs (artifact has {meta.get(key)!r}, expected {str(want)!r})")


def meta_line(meta: dict[str, str]) -> str:
    """A CSV artifact's first line: `# ` and `meta` as one sorted JSON object, ASCII only."""
    return "# " + json.dumps(meta, sort_keys=True)


def save_checkpoint(params: dict[str, np.ndarray], kind: str, path: str | Path, meta: dict[str, str] | None = None) -> None:
    lines = [FORMAT_LINE, f"kind {kind}"]
    for key in sorted(meta or {}):
        value = str(meta[key])
        if "\n" in value or "\r" in value:
            raise CheckpointError(f"meta value for {key!r} must not contain a line break")
        lines.append(f"meta {key} {value}")
    arrays, offset = [], 0
    for name in sorted(params):
        arr = np.asarray(params[name])
        dtype = arr.dtype.newbyteorder("<").str
        if dtype not in DTYPES:
            raise CheckpointError(f"tensor {name} has dtype {arr.dtype}; the container holds only {', '.join(DTYPES)}")
        arrays.append(np.ascontiguousarray(arr, dtype=dtype))  # a copy only if arr is strided or big-endian
        dims = ",".join(str(d) for d in arr.shape)
        lines.append(f"tensor {name} {dtype} {dims} {offset} {arrays[-1].nbytes}")
        offset += arrays[-1].nbytes
    lines.append(f"blob {offset}")
    manifest = ("\n".join(lines) + "\n").encode("utf-8")
    digest = hashlib.sha256(manifest)
    for arr in arrays:
        digest.update(arr)
    with open(path, "wb") as fh:
        fh.write(manifest)
        fh.write(f"hash {digest.hexdigest()}\n".encode("ascii"))
        for arr in arrays:
            fh.write(arr)


def load_checkpoint(
    path: str | Path, expected_kind: str | None = None, expected_meta: dict[str, str] | None = None
):
    """Returns (params, kind, meta).

    Verifies, in order: the format version, the blob length, the hash over
    manifest and blob, the kind, and that every `expected_meta` value equals
    the recorded one (StaleArtifactError names the key and both values). A
    tensor line whose offset is not the end of the tensor before it, or a
    blob line that is not the tensors' total, is a malformed manifest line.
    """
    with open(path, "rb") as fh:
        first = fh.readline()[:-1]
        if first != FORMAT_LINE.encode("ascii"):
            raise CheckpointError(f"{path}: format version mismatch: {first[:40]!r} (want {FORMAT_LINE!r})")
        digest = hashlib.sha256(first + b"\n")
        header = []
        while True:  # meta values hold no line break, so the first line starting "hash " is the hash line
            line = fh.readline()
            if not line.endswith(b"\n"):
                raise CheckpointError(f"{path}: header never terminated")
            if line.startswith(b"hash "):
                break
            digest.update(line)
            header.append(line[:-1])
        kind = None
        meta: dict[str, str] = {}
        tensors = []
        blob_len, end = None, 0
        for entry in header:
            try:
                tag, _, rest = entry.decode("utf-8").partition(" ")
                if tag == "kind":
                    kind = rest
                elif tag == "meta":
                    key, _, value = rest.partition(" ")
                    meta[key] = value
                elif tag == "tensor":
                    name, dtype, dims, offset, nbytes = rest.split(" ")
                    if dtype not in DTYPES:
                        raise ValueError(f"dtype {dtype!r}")
                    if blob_len is not None or int(offset) != end or int(nbytes) < 0:
                        raise ValueError("tensors must lie end to end, in order, before the blob line")
                    shape = tuple(int(d) for d in dims.split(",") if d)
                    tensors.append((name, dtype, shape, int(nbytes)))
                    end += int(nbytes)
                elif tag == "blob":
                    blob_len = int(rest)
                    if blob_len != end:
                        raise ValueError("blob length is not the tensors' total")
                else:
                    raise ValueError(f"tag {tag!r}")
            except ValueError:  # also UnicodeDecodeError
                raise CheckpointError(f"{path}: malformed manifest line {entry!r}") from None
        size = os.fstat(fh.fileno()).st_size
        got = size - fh.tell()
        if blob_len is None or got != blob_len:
            raise CheckpointError(f"{path}: blob truncated at byte {size} (expected {blob_len} blob bytes, got {got})")
        blobs = []
        for *_, nbytes in tensors:  # each tensor is read into its own buffer and hashed there
            blobs.append(np.empty(nbytes, dtype=np.uint8))
            fh.readinto(blobs[-1])
            digest.update(blobs[-1])
    if line[:-1] != f"hash {digest.hexdigest()}".encode("ascii"):
        raise CheckpointError(f"{path}: hash mismatch; the file is damaged or was edited")
    if expected_kind is not None and kind != expected_kind:
        raise CheckpointError(f"{path}: checkpoint kind {kind!r} is not {expected_kind!r}")
    check_meta(path, meta, expected_meta)
    params = {}
    for (name, dtype, shape, nbytes), blob in zip(tensors, blobs):
        itemsize = np.dtype(dtype).itemsize
        if nbytes != itemsize * int(np.prod(shape)):
            raise CheckpointError(f"{path}: tensor {name} has {nbytes // itemsize} values for shape {shape}")
        params[name] = blob.view(dtype).reshape(shape)
    return params, kind, meta
