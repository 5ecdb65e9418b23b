import hashlib
import re
import shutil

import numpy as np
import pytest

from codec_lm import corpus, frontend
from codec_lm.errors import ValidationError


def _spec(**kw):
    args = dict(speaker_id=0, f0=220.0, harmonic_amps=(1.0,))
    args.update(kw)
    return corpus.SpeakerSpec(**args)


def _content(*units):
    return tuple(corpus.ContentUnit(*u) for u in units)


def test_empty_content_rejected():
    with pytest.raises(ValidationError, match="content units must be nonempty"):
        corpus.generate_utterance(_spec(), (), 8000, 0)


def test_invalid_speaker_fields_named():
    with pytest.raises(ValidationError, match="f0"):
        corpus.generate_utterance(_spec(f0=-1.0), _content((3, 0.5)), 8000, 0)
    with pytest.raises(ValidationError, match="harmonic_amps"):
        corpus.generate_utterance(
            _spec(harmonic_amps=(0.0, 0.0)), _content((3, 0.5)), 8000, 0
        )


def test_invalid_content_fields_named():
    with pytest.raises(ValidationError, match="duration"):
        corpus.generate_utterance(_spec(), _content((3, -0.5)), 8000, 0)
    with pytest.raises(ValidationError, match="symbol_id"):
        corpus.generate_utterance(_spec(), _content((9999, 0.5)), 8000, 0)


def test_dominant_fft_bin_matches_f0():
    """Oracle: DFT peak-pick on the generated waveform."""
    utt = corpus.generate_utterance(_spec(), _content((3, 0.5)), 8000, 1)
    x = utt.waveform.samples
    spectrum = np.abs(np.fft.rfft(x))
    peak_hz = np.argmax(spectrum) * 8000 / x.size
    bin_width = 8000 / x.size
    assert abs(peak_hz - 220.0) <= bin_width + 1e-9


def test_determinism_same_seed():
    c = _content((3, 0.5), (5, 0.3))
    a = corpus.generate_utterance(_spec(harmonic_amps=(1.0, 0.5)), c, 8000, 42)
    b = corpus.generate_utterance(_spec(harmonic_amps=(1.0, 0.5)), c, 8000, 42)
    np.testing.assert_array_equal(a.waveform.samples, b.waveform.samples)
    other = corpus.generate_utterance(_spec(harmonic_amps=(1.0, 0.5)), c, 8000, 7)
    np.testing.assert_array_equal(a.waveform.samples, other.waveform.samples)


def test_duration_matches_unit_sum():
    c = _content((3, 0.5), (5, 0.25))
    utt = corpus.generate_utterance(_spec(), c, 8000, 0)
    frame_period = 1.0 / 8000
    assert abs(utt.waveform.duration - 0.75) < frame_period * len(c) + 1e-9


def test_peak_amplitude_below_one(rng):
    for trial in range(5):
        spec = _spec(
            f0=float(rng.uniform(90, 380)),
            harmonic_amps=tuple(rng.uniform(0.1, 1.0, int(rng.integers(1, 6)))),
        )
        units = [(int(rng.integers(1, 30)), float(rng.uniform(0.05, 0.4))) for _ in range(4)]
        utt = corpus.generate_utterance(spec, _content(*units), 8000, trial)
        assert np.max(np.abs(utt.waveform.samples)) <= 1.0


def estimate_f0(samples, sample_rate):
    """Utterance-level f0: median over voiced frames (nan if none)."""
    f0s, voiced = corpus.frame_f0(samples, sample_rate)
    if not voiced.any():
        return float("nan")
    return float(np.median(f0s[voiced]))


def _wobbling_tone(f0, amps, seconds, sample_rate, depth=0.004, rate=5.0):
    """Harmonics of an f0 that swings by +-`depth` at `rate` Hz, normalized
    as the renderer normalizes its harmonics."""
    t = np.arange(int(seconds * sample_rate)) / sample_rate
    phase = 2.0 * np.pi * np.cumsum(f0 * (1.0 + depth * np.sin(2.0 * np.pi * rate * t)))
    phase /= sample_rate
    amps = np.asarray(amps) / np.sum(amps) * corpus.PEAK_TARGET
    return sum(a * np.sin(h * phase) for h, a in enumerate(amps, start=1))


@pytest.mark.parametrize("f0", [80.0, 150.0, 262.0, 400.0])
def test_autocorrelation_f0_within_2_percent(f0):
    """The tracker finds f0 within 2% on a rendered voice and on the same
    harmonics under a 0.4% vibrato."""
    amps = (1.0, 0.5, 0.25)
    c = _content((3, 0.8), (5, 0.7), (7, 0.8))
    utt = corpus.generate_utterance(_spec(f0=f0, harmonic_amps=amps), c, 8000, 3)
    for samples in (utt.waveform.samples, _wobbling_tone(f0, amps, 2.3, 8000)):
        est = estimate_f0(samples, 8000)
        assert abs(est - f0) / f0 < 0.02


@pytest.mark.parametrize("seed", [0, 1])
def test_make_speakers_roster(seed):
    """Default size: distinct f0s on the 20 Hz grid over [120, 300]; the two
    held-out speakers take its centermost points, strictly inside the train
    speakers' range; a config with an 11th speaker, which would find no grid
    point, cannot be built."""
    specs = corpus.make_speakers(corpus.CorpusConfig(out_dir="unused", seed=seed))
    assert [s.speaker_id for s in specs] == list(range(10))
    f0s = [s.f0 for s in specs]
    assert sorted(f0s) == [120.0 + 20.0 * k for k in range(10)]
    train, held = f0s[:8], f0s[8:]
    assert sorted(held) == [200.0, 220.0]
    assert min(train) < min(held) and max(held) < max(train)
    with pytest.raises(ValidationError, match="grid has 10 points"):
        corpus.CorpusConfig(out_dir="unused", speakers=11)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_make_speakers_keeps_the_vibrato_draws(seed):
    """The roster equals the draw order written out by hand, with two uniforms
    drawn and thrown away after each speaker's harmonics (where its vibrato
    rate and depth were once drawn), so every corpus renders as it did."""
    cfg = corpus.CorpusConfig(out_dir="unused", seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    rng.permutation(cfg.speakers - cfg.held_out_speakers)
    expected = []
    for _ in range(cfg.speakers):
        n_h = int(rng.integers(3, corpus.MAX_HARMONICS + 1))
        decay = rng.uniform(0.5, 0.9)
        expected.append(tuple(rng.uniform(0.4, 1.0, n_h) * decay ** np.arange(n_h)))
        rng.uniform(4.0, 6.0)
        rng.uniform(0.0, 0.0)
    assert [s.harmonic_amps for s in corpus.make_speakers(cfg)] == expected


class TestBuildCorpus:
    def test_split_disjoint(self, tiny_corpus_dir):
        records = corpus.load_corpus(tiny_corpus_dir).records
        train = {r.speaker_id for r in records if r.split == "train"}
        evals = {r.speaker_id for r in records if r.split == "eval"}
        assert train and evals
        assert train.isdisjoint(evals)

    def test_counts(self, tiny_corpus_dir):
        records = corpus.load_corpus(tiny_corpus_dir).records
        assert len(records) == 4 * 2
        evals = [r for r in records if r.split == "eval"]
        assert len(evals) == 1 * 2

    def test_files_are_two_tables_and_the_audio(self, tiny_corpus_dir):
        """A corpus is manifest.tsv, speakers.tsv and one audio/<utt_id>.clm
        per manifest row, and nothing else."""
        utt_ids = [line.split("\t")[0] for line in
                   (tiny_corpus_dir / "manifest.tsv").read_text().splitlines()]
        files = sorted(p.relative_to(tiny_corpus_dir).as_posix()
                       for p in tiny_corpus_dir.rglob("*") if p.is_file())
        assert files == sorted(["manifest.tsv", "speakers.tsv",
                                *(f"audio/{u}.clm" for u in utt_ids)])
        assert [r.path for r in corpus.load_corpus(tiny_corpus_dir).records] == [
            tiny_corpus_dir / "audio" / f"{u}.clm" for u in utt_ids]

    def test_zero_utterances_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="utterances_per_speaker"):
            corpus.build_corpus(corpus.CorpusConfig(out_dir=tmp_path, utterances_per_speaker=0))
        assert not any(tmp_path.iterdir())

    def test_more_held_out_than_speakers_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="held_out_speakers"):
            corpus.build_corpus(
                corpus.CorpusConfig(out_dir=tmp_path, speakers=2, held_out_speakers=3))
        assert not any(tmp_path.iterdir())

    def test_rebuild_is_bit_identical(self, tmp_path):
        """Oracle: content hash of the first run."""
        def build(where):
            cfg = corpus.CorpusConfig(
                out_dir=where, speakers=3, held_out_speakers=1,
                utterances_per_speaker=2, duration_min=2.0, duration_max=3.0, seed=9,
            )
            corpus.build_corpus(cfg)
            digest = hashlib.sha256()
            for name in sorted(p.relative_to(where).as_posix() for p in where.rglob("*") if p.is_file()):
                digest.update(name.encode())
                digest.update((where / name).read_bytes())
            return digest.hexdigest()

        h1 = build(tmp_path / "one")
        h2 = build(tmp_path / "two")
        assert h1 == h2

    def test_text_matches_alignment_and_frontend(self, tiny_corpus_dir):
        """A transcription, the units' symbols in order, reads back through the
        frontend as the units' deduplicated symbol ids."""
        records = corpus.load_corpus(tiny_corpus_dir).records
        assert len(records) == 4 * 2
        for rec in records:
            text = "".join(frontend.ID_TO_SYMBOL[u.symbol_id] for u in rec.units)
            ids = frontend.text_to_phonemes(text)
            aligned = tuple(
                frontend.dedup_consecutive([u.symbol_id for u in rec.units])
            )
            assert ids == aligned

    def test_manifest_round_trip(self, tiny_corpus_dir):
        """The manifest reads back each utterance's id, speaker, split and the
        units `make_content` drew for it, durations exact."""
        cfg = corpus.CorpusConfig(out_dir="unused", speakers=4, held_out_speakers=1,
                                  duration_min=3.5, duration_max=4.5, seed=7)
        expected = [
            (f"utt_{sid:03d}_{idx:03d}", sid, "eval" if sid == 3 else "train",
             corpus.make_content(cfg, np.random.default_rng(
                 np.random.SeedSequence([cfg.seed, 7, sid, idx]))))
            for sid in range(4) for idx in range(2)
        ]
        records = corpus.load_corpus(tiny_corpus_dir).records
        assert [(r.utt_id, r.speaker_id, r.split, r.units) for r in records] == expected

    def test_speakers_file_round_trip(self, tiny_corpus_dir):
        """speakers.tsv reads back the roster of the tiny corpus's config (4
        speakers, 1 held out, seed 7) exactly."""
        table = corpus.load_corpus(tiny_corpus_dir).speakers
        roster = corpus.make_speakers(
            corpus.CorpusConfig(out_dir="unused", speakers=4, held_out_speakers=1, seed=7))
        assert table == {s.speaker_id: s for s in roster}

    @pytest.mark.parametrize("table, lineno, column, value, message", [
        ("speakers.tsv", 1, 1, "0.0", "speaker.f0 must be positive"),
        ("speakers.tsv", 1, 1, "-150.0", "speaker.f0 must be positive"),
        ("speakers.tsv", 2, 2, "-1.0,0.5", "speaker.harmonic_amps must be nonnegative"),
        ("manifest.tsv", 3, 3, "a:-0.5", "content unit duration -0.5 must be positive"),
        ("manifest.tsv", 3, 3, "a:0.2 e:0.0", "content unit duration 0.0 must"),
        ("manifest.tsv", 3, 3, "a:0.2 e:0.3:0.0",
         "units are symbol:duration pairs, not 'e:0.3:0.0'"),
        ("speakers.tsv", 2, 2, "5.0\t0.0\t1.0,0.5\ttrain", "expected 3 fields, got 6"),
        ("manifest.tsv", 3, 3, "audio/utt_001_000.clm\tabd", "expected 4 fields, got 5"),
        ("manifest.tsv", 2, 0, "utt_000_000", "duplicate key 'utt_000_000', first on line 1"),
        ("speakers.tsv", 2, 0, "0", "duplicate key 0, first on line 1"),
    ])
    def test_load_refuses_invalid_rows(self, tiny_corpus_dir, tmp_path, table, lineno,
                                       column, value, message):
        """A table row whose record refuses its values, a row or unit of an
        older layout (vibrato and split columns, pitch offsets, the manifest's
        audio-path and text columns), or a row whose key repeats an earlier
        row's, is an error naming `path:line`."""
        root = tmp_path / "corpus"
        shutil.copytree(tiny_corpus_dir, root)
        path = root / table
        lines = path.read_text().splitlines()
        fields = lines[lineno - 1].split("\t")
        fields[column] = value
        lines[lineno - 1] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}:{lineno}: {message}")):
            corpus.load_corpus(root)
