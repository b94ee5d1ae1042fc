"""The artifact container: text manifest plus raw little-endian tensors.

Every binary artifact of the pipeline is one of these files: the dataset
caches, the classifier, the weight cache and the codec checkpoints.

Layout (single file, the manifest is UTF-8):

    spjscc-checkpoint v3
    kind <artifact kind>
    meta <key> <value>            # zero or more, sorted; a value is the rest of the line
    tensor <name> <dtype> <d0,d1,...>   # one per tensor, sorted
    hash <sha256 of every byte above this line, then of the tensors>
    <each tensor's raw bytes, in manifest order>

A dtype is one of `<f4`, `<i8` or `|b1`; a tensor's byte count is its
dtype's item size times the product of its dims, so no line records it. The
hash covers the whole file except its own line, so an edited manifest fails
like a damaged tensor. The `meta` lines carry an artifact's provenance (its
config values), which `check_meta` compares against `expected_meta`; a CSV
records them on line 1. save -> load -> save is byte-identical.

The tensors are streamed: `save_checkpoint` hashes and writes each from its
own contiguous buffer, and `load_checkpoint` reads each into its own array,
hashing as it reads, so saving allocates next to nothing and loading about
the tensors' own bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from pathlib import Path

import numpy as np

FORMAT_LINE = "spjscc-checkpoint v3"
DTYPES = ("<f4", "<i8", "|b1")


class CheckpointError(ValueError):
    """Unreadable, truncated, corrupted or malformed artifact file."""


class StaleArtifactError(CheckpointError):
    """Intact artifact whose recorded provenance, or container version, differs from what the caller expects."""


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
    arrays = []
    for name in sorted(params):
        arr = np.asarray(params[name])
        dtype = arr.dtype.newbyteorder("<").str
        if dtype not in DTYPES:
            raise CheckpointError(f"tensor {name} has dtype {arr.dtype}; the container holds only {', '.join(DTYPES)}")
        arrays.append(np.ascontiguousarray(arr, dtype=dtype))  # a copy only if arr is strided or big-endian
        dims = ",".join(str(d) for d in arr.shape)
        lines.append(f"tensor {name} {dtype} {dims}")
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

    Verifies, in order: the format version (another one is stale), the
    length the dims imply, before any tensor is allocated, the hash over
    manifest and tensors, the kind, and that every `expected_meta` value
    equals the recorded one (StaleArtifactError names the key and both values).
    """
    with open(path, "rb") as fh:
        first = fh.readline().removesuffix(b"\n")
        if first != FORMAT_LINE.encode("ascii"):
            other = re.fullmatch(rb"spjscc-checkpoint (v[1-9][0-9]*)", first)
            if other:
                raise StaleArtifactError(f"{path}: format version differs (artifact has {other[1].decode()}, expected {FORMAT_LINE.split()[1]})")
            raise CheckpointError(f"{path}: format version mismatch: {first[:40]!r} (want {FORMAT_LINE!r})")
        digest = hashlib.sha256(first + b"\n")
        kind, meta, tensors = None, {}, []
        while True:  # meta values hold no line break, so the first line starting "hash " is the hash line
            line = fh.readline()
            if not line.endswith(b"\n"):
                raise CheckpointError(f"{path}: header never terminated")
            if line.startswith(b"hash "):
                break
            digest.update(line)
            try:
                tag, _, rest = line[:-1].decode("utf-8").partition(" ")
                if tag == "kind":
                    kind = rest
                elif tag == "meta":
                    key, _, value = rest.partition(" ")
                    meta[key] = value
                elif tag == "tensor":
                    name, dtype, dims = rest.split(" ")
                    shape = tuple(int(d) for d in dims.split(",")) if dims else ()
                    if dtype not in DTYPES or min(shape, default=0) < 0:
                        raise ValueError(f"dtype {dtype!r} or dims {dims!r}")
                    tensors.append((name, dtype, shape))
                else:
                    raise ValueError(f"tag {tag!r}")
            except ValueError:  # also UnicodeDecodeError
                raise CheckpointError(f"{path}: malformed manifest line {line[:-1]!r}") from None
        size = os.fstat(fh.fileno()).st_size
        got, want = size - fh.tell(), sum(np.dtype(dtype).itemsize * math.prod(shape) for _, dtype, shape in tensors)
        if got != want:
            cut = "truncated" if got < want else "extended"
            raise CheckpointError(f"{path}: tensor bytes {cut} at byte {size} (the dims imply {want} tensor bytes, got {got})")
        params = {}
        for name, dtype, shape in tensors:  # each tensor is read into its own array and hashed there
            params[name] = np.empty(shape, dtype)
            fh.readinto(params[name])
            digest.update(params[name])
    if line[:-1] != f"hash {digest.hexdigest()}".encode("ascii"):
        raise CheckpointError(f"{path}: hash mismatch; the file is damaged or was edited")
    if expected_kind is not None and kind != expected_kind:
        raise CheckpointError(f"{path}: checkpoint kind {kind!r} is not {expected_kind!r}")
    check_meta(path, meta, expected_meta)
    return params, kind, meta
