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
"""

from __future__ import annotations

import hashlib
import json
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
    blobs, offset = [], 0
    for name in sorted(params):
        arr = np.asarray(params[name])
        dtype = arr.dtype.newbyteorder("<").str
        if dtype not in DTYPES:
            raise CheckpointError(f"tensor {name} has dtype {arr.dtype}; the container holds only {', '.join(DTYPES)}")
        blobs.append(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        dims = ",".join(str(d) for d in arr.shape)
        lines.append(f"tensor {name} {dtype} {dims} {offset} {len(blobs[-1])}")
        offset += len(blobs[-1])
    lines.append(f"blob {offset}")
    manifest = ("\n".join(lines) + "\n").encode("utf-8")
    blob = b"".join(blobs)
    digest = hashlib.sha256(manifest)
    digest.update(blob)
    with open(path, "wb") as fh:
        fh.write(manifest)
        fh.write(f"hash {digest.hexdigest()}\n".encode("ascii"))
        fh.write(blob)


def load_checkpoint(
    path: str | Path, expected_kind: str | None = None, expected_meta: dict[str, str] | None = None
):
    """Returns (params, kind, meta).

    Verifies, in order: the format version, the blob length, the hash over
    manifest and blob, the kind, and that every `expected_meta` value equals
    the recorded one (StaleArtifactError names the key and both values).
    """
    raw = Path(path).read_bytes()
    first = raw[: raw.find(b"\n")]
    if first != FORMAT_LINE.encode("ascii"):
        raise CheckpointError(f"{path}: format version mismatch: {first[:40]!r} (want {FORMAT_LINE!r})")
    hash_start = raw.find(b"\nhash ") + 1  # meta values hold no line break, so this is the hash line
    blob_start = raw.find(b"\n", hash_start) + 1
    if hash_start == 0 or blob_start == 0:
        raise CheckpointError(f"{path}: header never terminated")
    kind = None
    meta: dict[str, str] = {}
    tensors = []
    blob_len = None
    for line in raw[: hash_start - 1].split(b"\n")[1:]:
        try:
            tag, _, rest = line.decode("utf-8").partition(" ")
            if tag == "kind":
                kind = rest
            elif tag == "meta":
                key, _, value = rest.partition(" ")
                meta[key] = value
            elif tag == "tensor":
                name, dtype, dims, offset, nbytes = rest.split(" ")
                if dtype not in DTYPES:
                    raise ValueError(f"dtype {dtype!r}")
                shape = tuple(int(d) for d in dims.split(",") if d)
                tensors.append((name, dtype, shape, int(offset), int(nbytes)))
            elif tag == "blob":
                blob_len = int(rest)
            else:
                raise ValueError(f"tag {tag!r}")
        except ValueError:  # also UnicodeDecodeError
            raise CheckpointError(f"{path}: malformed manifest line {line!r}") from None
    blob = memoryview(raw)[blob_start:]
    if blob_len is None or len(blob) != blob_len:
        raise CheckpointError(f"{path}: blob truncated at byte {len(raw)} (expected {blob_len} blob bytes, got {len(blob)})")
    digest = hashlib.sha256(raw[:hash_start])
    digest.update(blob)
    if raw[hash_start : blob_start - 1] != f"hash {digest.hexdigest()}".encode("ascii"):
        raise CheckpointError(f"{path}: hash mismatch; the file is damaged or was edited")
    if expected_kind is not None and kind != expected_kind:
        raise CheckpointError(f"{path}: checkpoint kind {kind!r} is not {expected_kind!r}")
    check_meta(path, meta, expected_meta)
    params = {}
    for name, dtype, shape, offset, nbytes in tensors:
        arr = np.frombuffer(blob[offset : offset + nbytes], dtype=dtype)
        if arr.size != int(np.prod(shape)):
            raise CheckpointError(f"{path}: tensor {name} has {arr.size} values for shape {shape}")
        params[name] = arr.reshape(shape).copy()
    return params, kind, meta
