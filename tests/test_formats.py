import numpy as np
import pytest

from codec_lm import codec, formats
from codec_lm.errors import ValidationError


def test_audio_round_trip(tmp_path, rng):
    samples = rng.uniform(-1, 1, size=1234)
    path = tmp_path / "wave.clm"
    formats.write_audio(path, samples, 8000)
    back, sr = formats.read_audio(path)
    assert sr == 8000
    np.testing.assert_array_equal(back, samples.astype(np.float32))


def test_audio_bad_magic(tmp_path):
    path = tmp_path / "bad.clm"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValidationError):
        formats.read_audio(path)


def test_codebooks_round_trip(tmp_path, rng):
    """The codebook file stores the books, the stride and the sample rate,
    not the frame transform."""
    books = rng.normal(size=(3, 5, 4))
    books[1:, 0] = 0.0
    path = tmp_path / "books.cbk"
    codec.CodebookSet(books=books, stride=8, sample_rate=8000).save(path)
    fields, blocks = formats.read_artifact(path, "codebooks", {"stride": int,
                                                               "sample_rate": int})
    assert fields == {"stride": 8, "sample_rate": 8000}
    assert list(blocks) == ["books"]
    np.testing.assert_array_equal(blocks["books"], books.astype(np.float32))


def test_checkpoint_round_trip(tmp_path, rng):
    params = {
        "emb": rng.normal(size=(7, 3)),
        "layers.0.w": rng.normal(size=(3, 3)),
        "bias": rng.normal(size=3),
    }
    fields = {"layers": 2, "note": "a=b is fine in values"}
    path = tmp_path / "model.ckp"
    formats.write_artifact(path, "ar", fields, params)
    back_fields, back = formats.read_artifact(path, "ar", {"layers": int})
    assert back_fields == fields
    assert set(back) == set(params)
    for name in params:
        np.testing.assert_array_equal(back[name], params[name].astype(np.float32))


def _artifact(tmp_path):
    path = tmp_path / "a.bin"
    formats.write_artifact(path, "audio", {"sample_rate": 8000}, {"samples": np.ones(10)})
    return path


def test_truncated_or_padded_artifact_rejected(tmp_path):
    path = _artifact(tmp_path)
    data = path.read_bytes()
    for cut in (2, 6, 20, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(ValidationError, match="truncated"):
            formats.read_audio(path)
    path.write_bytes(data + b"\x00")
    with pytest.raises(ValidationError, match="1 bytes after the last block"):
        formats.read_audio(path)


def test_wrong_kind_format_or_field_rejected(tmp_path):
    path = _artifact(tmp_path)
    with pytest.raises(ValidationError, match="kind is 'audio', expected 'codebooks'"):
        formats.read_artifact(path, "codebooks", {})
    with pytest.raises(ValidationError, match="header field stride is missing"):
        formats.read_artifact(path, "audio", {"stride": int})
    formats.write_artifact(path, "audio", {"sample_rate": "fast"}, {"samples": np.ones(3)})
    with pytest.raises(ValidationError, match="sample_rate='fast' is not int"):
        formats.read_audio(path)
    path.write_bytes(_artifact(tmp_path).read_bytes().replace(b"format=1", b"format=9"))
    with pytest.raises(ValidationError, match="format '9', expected '1'"):
        formats.read_audio(path)
    with pytest.raises(ValidationError, match="may not set format or kind"):
        formats.write_artifact(path, "audio", {"kind": "ar"}, {})


def test_old_magics_rejected(tmp_path):
    """Files of the retired per-kind layouts are refused, not misread."""
    path = tmp_path / "old.bin"
    for magic in (b"CLM1", b"CBK1", b"CKP1"):
        path.write_bytes(magic + b"\x00" * 32)
        with pytest.raises(ValidationError, match="not a codec-lm artifact"):
            formats.describe_file(path)


def test_check_blocks_names_the_block():
    blocks = {"a": np.zeros((2, 3)), "b": np.zeros(4)}
    formats.check_blocks("f", blocks, {"a": (2, None), "b": (4,)})
    with pytest.raises(ValidationError, match="block c is missing"):
        formats.check_blocks("f", blocks, {"a": (2, 3), "b": (4,), "c": (1,)})
    with pytest.raises(ValidationError, match="unexpected block b"):
        formats.check_blocks("f", blocks, {"a": (2, 3)})
    with pytest.raises(ValidationError, match=r"block a has shape \(2, 3\), expected \(3, 2\)"):
        formats.check_blocks("f", blocks, {"a": (3, 2), "b": (4,)})


class _FailingFile:
    """Writes half of what it is given to the real file, then raises."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("write", [
    lambda p: formats.write_audio(p, np.ones(50), 8000),
    lambda p: formats.write_artifact(p, "ar", {"layers": 1}, {"w": np.ones((4, 4))}),
    lambda p: formats.write_manifest(p, [("u", 0, "train", "audio/u.clm", "abc")]),
    lambda p: formats.write_report(p, [("metric", "eval", 1.0)]),
    lambda p: formats.write_loss_log(p, [(1, 2.0, 1e-3)]),
], ids=["audio", "artifact", "manifest", "report", "loss-log"])
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, write):
    """A write that raises partway leaves the file already at the path as it
    was, and no temporary file behind."""
    path = tmp_path / "out"
    path.write_bytes(b"old contents")
    real_open = open
    monkeypatch.setattr(formats, "open",
                        lambda *a, **k: _FailingFile(real_open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="No space left"):
        write(path)
    assert path.read_bytes() == b"old contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


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
