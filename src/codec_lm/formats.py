"""Artifact formats: one binary container and the corpus text tables.

Audio, codebooks and checkpoints share one container: the magic `CLMA`, a
header of `key=value` lines that always holds `format` and `kind`, then named
little-endian float32 blocks, read back as float32 arrays. Every writer goes
through `_write_atomic`, so a failed write leaves the file already at the path
as it was.
"""

import os
import struct
from pathlib import Path

import numpy as np

from .errors import ValidationError

MAGIC = b"CLMA"
FORMAT = "1"


def _write_atomic(path, data: bytes) -> None:
    """Write `data` to a temporary file next to `path`, creating the missing
    parent directories, and rename it onto `path`; on failure, remove the
    temporary file and leave `path` as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    _write_atomic(path, text.encode("utf-8"))


# -- the container ----------------------------------------------------------------

def write_artifact(path, kind: str, fields: dict, blocks: dict) -> None:
    """Header: `format`, `kind` and `fields` as sorted `key=value` lines; then
    each array of `blocks`, by sorted name, as float32 with its shape."""
    if "format" in fields or "kind" in fields:
        raise ValidationError("artifact fields may not set format or kind")
    header = {**fields, "format": FORMAT, "kind": kind}
    for key, value in header.items():
        if "=" in key or "\n" in f"{key}{value}":
            raise ValidationError(f"header entry {key!r} not serializable")
    text = "".join(f"{key}={header[key]}\n" for key in sorted(header)).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", len(text)), text, struct.pack("<I", len(blocks))]
    for name in sorted(blocks):
        arr = np.ascontiguousarray(blocks[name], dtype="<f4")
        encoded = name.encode("utf-8")
        parts += [struct.pack("<H", len(encoded)), encoded,
                  struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape), arr.tobytes()]
    _write_atomic(path, b"".join(parts))


def _read_container(path):
    """(header of str -> str, blocks of name -> float32 array) of the file at
    `path`, which must be a whole container of this format."""
    buf = memoryview(Path(path).read_bytes())
    pos = 0

    def take(n, what):
        nonlocal pos
        if pos + n > len(buf):
            raise ValidationError(f"{path}: truncated while reading {what}")
        pos += n
        return buf[pos - n : pos]

    magic = bytes(take(4, "magic"))
    if magic != MAGIC:
        raise ValidationError(f"{path}: not a codec-lm artifact (magic {magic!r})")
    (header_len,) = struct.unpack("<I", take(4, "header length"))
    text = bytes(take(header_len, "header")).decode("utf-8", errors="replace")
    header = dict(line.partition("=")[::2] for line in text.splitlines())
    if header.get("format") != FORMAT:
        raise ValidationError(f"{path}: format {header.get('format')!r}, expected {FORMAT!r}")
    (n_blocks,) = struct.unpack("<I", take(4, "block count"))
    blocks = {}
    for _ in range(n_blocks):
        (name_len,) = struct.unpack("<H", take(2, "block name length"))
        name = bytes(take(name_len, "block name")).decode("utf-8", errors="replace")
        (ndim,) = struct.unpack("<B", take(1, f"block {name}"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"block {name}"))
        data = take(4 * int(np.prod(shape)), f"block {name}")
        blocks[name] = np.frombuffer(data, dtype="<f4").reshape(shape).astype(np.float32)
    if pos != len(buf):
        raise ValidationError(f"{path}: {len(buf) - pos} bytes after the last block")
    return header, blocks


def read_artifact(path, kind: str, types: dict):
    """(fields, float32 blocks) as `write_artifact` wrote them. Each field
    named in `types` is converted by its type, and a missing or unparsable one
    raises ValidationError; the other fields stay strings."""
    header, blocks = _read_container(path)
    if header.get("kind") != kind:
        raise ValidationError(f"{path}: kind is {header.get('kind')!r}, expected {kind!r}")
    fields = {k: v for k, v in header.items() if k not in ("format", "kind")}
    for name, typ in types.items():
        if name not in fields:
            raise ValidationError(f"{path}: header field {name} is missing")
        try:
            fields[name] = typ(fields[name])
        except ValueError:
            raise ValidationError(
                f"{path}: header field {name}={fields[name]!r} is not {typ.__name__}"
            ) from None
    return fields, blocks


def check_blocks(path, blocks: dict, shapes: dict) -> None:
    """Refuse `blocks` unless it has exactly the names of `shapes`, each with
    its shape; a None in a shape matches any length on that axis."""
    for name in sorted(set(blocks) | set(shapes)):
        if name not in blocks:
            raise ValidationError(f"{path}: block {name} is missing")
        if name not in shapes:
            raise ValidationError(f"{path}: unexpected block {name}")
        got, want = blocks[name].shape, tuple(shapes[name])
        if len(got) != len(want) or any(w is not None and g != w for g, w in zip(got, want)):
            raise ValidationError(f"{path}: block {name} has shape {got}, expected {want}")


# -- audio -------------------------------------------------------------------------

def write_audio(path, samples: np.ndarray, sample_rate: int) -> None:
    write_artifact(path, "audio", {"sample_rate": int(sample_rate)}, {"samples": samples})


def read_audio(path):
    """Returns (samples float64, sample_rate)."""
    fields, blocks = read_artifact(path, "audio", {"sample_rate": int})
    check_blocks(path, blocks, {"samples": (None,)})
    return blocks["samples"].astype(np.float64), fields["sample_rate"]


# -- tables: corpus, report, loss log -----------------------------------------

def read_tsv(path, n_fields, parse):
    """A dict, in file order, of the (key, value) pair `parse(*fields)` gives
    for each nonempty line of the tab-separated file `path`. A line with
    another field count, whose fields `parse` rejects with a ValueError, or
    whose key repeats an earlier line's raises ValidationError naming
    `path:line`."""
    rows, first = {}, {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != n_fields:
                raise ValidationError(
                    f"{path}:{lineno}: expected {n_fields} fields, got {len(fields)}")
            try:
                key, value = parse(*fields)
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
            if key in first:
                raise ValidationError(
                    f"{path}:{lineno}: duplicate key {key!r}, first on line {first[key]}")
            rows[key], first[key] = value, lineno
    return rows


def write_report(path, rows) -> None:
    """Rows: iterable of (metric, split, value)."""
    write_text(path, "".join(f"{metric}\t{split}\t{value:.6f}\n"
                             for metric, split, value in rows))


def write_loss_log(path, rows) -> None:
    """Rows: iterable of (step, loss, lr)."""
    write_text(path, "".join(f"{step}\t{loss:.6f}\t{lr:.8g}\n" for step, loss, lr in rows))


# -- inspection ----------------------------------------------------------------

def describe_file(path) -> str:
    """Human-readable dump of any artifact: its kind, header fields and block
    shapes."""
    header, blocks = _read_container(path)
    lines = [f"{header.get('kind')} artifact"]
    lines += [f"  {key}={header[key]}" for key in sorted(header) if key != "kind"]
    lines += [f"  block {name} [{'x'.join(map(str, block.shape)) or 'scalar'}]"
              for name, block in sorted(blocks.items())]
    lines.append(f"  total values: {sum(b.size for b in blocks.values())}")
    return "\n".join(lines)
