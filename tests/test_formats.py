import numpy as np
import pytest

from codec_lm import formats
from codec_lm.errors import ValidationError


def test_audio_round_trip(tmp_path, rng):
    samples = rng.uniform(-1, 1, size=1234)
    path = tmp_path / "wave.clm"
    formats.write_audio(path, samples, 8000)
    back, sr = formats.read_audio(path)
    assert sr == 8000
    np.testing.assert_allclose(back, samples.astype(np.float32), atol=0)
    # header is exactly 16 bytes
    assert path.stat().st_size == 16 + 4 * 1234


def test_audio_bad_magic(tmp_path):
    path = tmp_path / "bad.clm"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValidationError):
        formats.read_audio(path)


def test_codebooks_round_trip(tmp_path, rng):
    q, k, d, stride = 3, 5, 4, 8
    analysis = rng.normal(size=(d, stride))
    synthesis = rng.normal(size=(stride, d))
    books = rng.normal(size=(q, k, d))
    path = tmp_path / "books.cbk"
    formats.write_codebooks(path, analysis, synthesis, books, stride, 8000)
    a, s, b, st, sr = formats.read_codebooks(path)
    assert (st, sr) == (stride, 8000)
    np.testing.assert_allclose(a, analysis.astype(np.float32))
    np.testing.assert_allclose(s, synthesis.astype(np.float32))
    np.testing.assert_allclose(b, books.astype(np.float32))


def test_checkpoint_round_trip(tmp_path, rng):
    params = {
        "emb": rng.normal(size=(7, 3)),
        "layers.0.w": rng.normal(size=(3, 3)),
        "bias": rng.normal(size=3),
    }
    config = {"kind": "ar", "layers": "2", "note": "a=b is fine in values"}
    path = tmp_path / "model.ckp"
    formats.write_checkpoint(path, config, params)
    cfg, back = formats.read_checkpoint(path)
    assert cfg["kind"] == "ar"
    assert cfg["note"] == "a=b is fine in values"
    assert set(back) == set(params)
    for name in params:
        np.testing.assert_allclose(back[name], params[name].astype(np.float32))


def test_manifest_round_trip(tmp_path):
    entries = [
        ("utt_000_000", 0, "train", "audio/utt_000_000.clm", "aeiou"),
        ("utt_003_001", 3, "eval", "audio/utt_003_001.clm", "bdg"),
    ]
    path = tmp_path / "manifest.tsv"
    formats.write_manifest(path, entries)
    assert formats.read_manifest(path) == entries


def read_report(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValidationError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
            rows.append((fields[0], fields[1], float(fields[2])))
    return rows


def test_report_round_trip(tmp_path):
    rows = [("ar_teacher_forced_accuracy", "train", 0.9625), ("codec_snr_stages_8", "eval", 31.25)]
    path = tmp_path / "report.tsv"
    formats.write_report(path, rows)
    back = read_report(path)
    assert [r[0] for r in back] == [r[0] for r in rows]
    assert back[0][2] == pytest.approx(0.9625, abs=1e-6)


def read_loss_log(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            step, loss, lr = line.split("\t")
            rows.append((int(step), float(loss), float(lr)))
    return rows


def test_loss_log_round_trip(tmp_path):
    rows = [(1, 5.5, 1e-5), (50, 3.25, 0.0005)]
    path = tmp_path / "loss.log"
    formats.write_loss_log(path, rows)
    back = read_loss_log(path)
    assert [r[0] for r in back] == [1, 50]
    assert back[1][1] == pytest.approx(3.25)


def test_describe_unknown_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"WHAT" + b"\x00" * 8)
    with pytest.raises(ValidationError):
        formats.describe_file(path)
