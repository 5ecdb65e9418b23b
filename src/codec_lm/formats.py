"""Binary and line-oriented artifact formats.

All binary headers are little-endian. Magics: CLM1 (audio), CBK1 (codebooks),
CKP1 (model checkpoint).
"""

import struct
from pathlib import Path

import numpy as np

from .errors import ValidationError

AUDIO_MAGIC = b"CLM1"
CODEBOOK_MAGIC = b"CBK1"
CHECKPOINT_MAGIC = b"CKP1"


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise ValidationError(f"truncated file while reading {what}")
    return buf


def _read_f32(fh, shape, what):
    """A little-endian float32 block of `shape`, as float64."""
    data = _read_exact(fh, 4 * int(np.prod(shape)), what)
    return np.frombuffer(data, dtype="<f4").reshape(shape).astype(np.float64)


# -- audio (CLM1): 16-byte header, then float32 samples ----------------------

def write_audio(path, samples: np.ndarray, sample_rate: int) -> None:
    samples = np.asarray(samples, dtype=np.float32)
    with open(path, "wb") as fh:
        fh.write(AUDIO_MAGIC)
        fh.write(struct.pack("<III", int(sample_rate), samples.size, 0))
        fh.write(samples.tobytes())


def read_audio(path):
    """Returns (samples float64, sample_rate)."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != AUDIO_MAGIC:
            raise ValidationError(f"{path}: not a CLM1 audio file (magic {magic!r})")
        sample_rate, num_samples, _ = struct.unpack("<III", _read_exact(fh, 12, "header"))
        samples = _read_f32(fh, (num_samples,), "samples")
    return samples, sample_rate


# -- codebooks (CBK1) ---------------------------------------------------------

def write_codebooks(path, analysis, synthesis, books, stride, sample_rate) -> None:
    books = np.asarray(books, dtype=np.float32)
    q, k, dim = books.shape
    analysis = np.asarray(analysis, dtype=np.float32)
    synthesis = np.asarray(synthesis, dtype=np.float32)
    if analysis.shape != (dim, stride) or synthesis.shape != (stride, dim):
        raise ValidationError(
            f"transform shapes {analysis.shape}/{synthesis.shape} do not match "
            f"dim={dim} stride={stride}"
        )
    with open(path, "wb") as fh:
        fh.write(CODEBOOK_MAGIC)
        fh.write(struct.pack("<IIIII", q, k, dim, int(stride), int(sample_rate)))
        fh.write(analysis.tobytes())
        fh.write(synthesis.tobytes())
        fh.write(books.tobytes())


def read_codebooks(path):
    """Returns (analysis, synthesis, books, stride, sample_rate), float64."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != CODEBOOK_MAGIC:
            raise ValidationError(f"{path}: not a CBK1 codebook file (magic {magic!r})")
        q, k, dim, stride, sample_rate = struct.unpack(
            "<IIIII", _read_exact(fh, 20, "header")
        )
        analysis = _read_f32(fh, (dim, stride), "analysis")
        synthesis = _read_f32(fh, (stride, dim), "synthesis")
        books = _read_f32(fh, (q, k, dim), "codebooks")
    return analysis, synthesis, books, stride, sample_rate


# -- checkpoints (CKP1): config lines + named float32 blocks ------------------

def write_checkpoint(path, config: dict, params: dict) -> None:
    lines = []
    for key in sorted(config):
        value = str(config[key])
        if "\n" in key or "\n" in value or "=" in key:
            raise ValidationError(f"config entry {key!r} not serializable")
        lines.append(f"{key}={value}\n")
    blob = "".join(lines).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name], dtype=np.float32)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def read_checkpoint(path):
    """Returns (config dict of str->str, params dict of str->float64 array)."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise ValidationError(f"{path}: not a CKP1 checkpoint (magic {magic!r})")
        (config_len,) = struct.unpack("<I", _read_exact(fh, 4, "config length"))
        config = {}
        for line in _read_exact(fh, config_len, "config").decode("utf-8").splitlines():
            if not line:
                continue
            key, _, value = line.partition("=")
            config[key] = value
        (n_blocks,) = struct.unpack("<I", _read_exact(fh, 4, "block count"))
        params = {}
        for _ in range(n_blocks):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            name = _read_exact(fh, name_len, "name").decode("utf-8")
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, "ndim"))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, "shape"))
            params[name] = _read_f32(fh, shape, f"block {name}")
    return config, params


# -- manifest / report / loss log ---------------------------------------------

def write_manifest(path, entries) -> None:
    """Entries: iterable of (utt_id, speaker_id, split, relative_path, text)."""
    with open(path, "w", encoding="utf-8") as fh:
        for utt_id, speaker_id, split, relpath, text in entries:
            fh.write(f"{utt_id}\t{speaker_id}\t{split}\t{relpath}\t{text}\n")


def read_tsv(path, n_fields, parse):
    """`parse(*fields)` of each nonempty line of the tab-separated file `path`.
    A line with another field count, or whose fields `parse` rejects with a
    ValueError, raises ValidationError naming `path:line`."""
    rows = []
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
                rows.append(parse(*fields))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return rows


def read_manifest(path):
    """The entries `write_manifest` wrote."""
    def entry(utt_id, speaker_id, split, relpath, text):
        return utt_id, int(speaker_id), split, relpath, text
    return read_tsv(path, 5, entry)


def write_report(path, rows) -> None:
    """Rows: iterable of (metric, split, value)."""
    with open(path, "w", encoding="utf-8") as fh:
        for metric, split, value in rows:
            fh.write(f"{metric}\t{split}\t{value:.6f}\n")


def write_loss_log(path, rows) -> None:
    """Rows: iterable of (step, loss, lr)."""
    with open(path, "w", encoding="utf-8") as fh:
        for step, loss, lr in rows:
            fh.write(f"{step}\t{loss:.6f}\t{lr:.8g}\n")


# -- inspection ----------------------------------------------------------------

def describe_file(path) -> str:
    """Human-readable dump of any CLM1/CBK1/CKP1 file."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == AUDIO_MAGIC:
        samples, sample_rate = read_audio(path)
        dur = samples.size / sample_rate if sample_rate else float("nan")
        peak = float(np.max(np.abs(samples))) if samples.size else 0.0
        return (
            f"CLM1 audio: sample_rate={sample_rate} num_samples={samples.size} "
            f"duration={dur:.3f}s peak={peak:.4f}"
        )
    if magic == CODEBOOK_MAGIC:
        analysis, synthesis, books, stride, sample_rate = read_codebooks(path)
        q, k, dim = books.shape
        return (
            f"CBK1 codebooks: Q={q} K={k} D={dim} stride={stride} "
            f"sample_rate={sample_rate} frame_rate={sample_rate / stride:g}Hz"
        )
    if magic == CHECKPOINT_MAGIC:
        config, params = read_checkpoint(path)
        lines = [f"CKP1 checkpoint: {len(params)} parameter blocks"]
        for key in sorted(config):
            lines.append(f"  config {key}={config[key]}")
        total = 0
        for name in sorted(params):
            shape = "x".join(str(s) for s in params[name].shape) or "scalar"
            total += params[name].size
            lines.append(f"  param {name} [{shape}]")
        lines.append(f"  total parameters: {total}")
        return "\n".join(lines)
    raise ValidationError(f"{path}: unrecognized magic {magic!r}")
