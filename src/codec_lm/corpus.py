"""Synthetic multi-speaker corpus.

A voice is a harmonic source: a fixed fundamental f0 and a harmonic
amplitude profile, with no vibrato or other pitch movement, so speaker
identity is directly measurable from audio (f0, spectral shape). Content is
a sequence of symbol units; each symbol modulates gain and spectral tilt,
giving the language models real content to predict. Held-out speakers never
appear in the training split, which is what makes zero-shot cloning
checkable.

The generator's shape is fixed by the module constants below (the f0 grid,
harmonic count, unit durations and alphabet). A `CorpusConfig` sets
only the number of speakers, held-out speakers and utterances, the utterance
duration range, the sample rate and the seed.
"""

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import formats, frontend
from .errors import ValidationError

log = logging.getLogger("codec_lm.corpus")

PEAK_TARGET = 0.85  # harmonic amplitudes are normalized to sum to this
EDGE_RAMP_SECONDS = 0.010  # linear attack/release per unit


@dataclass(frozen=True)
class Waveform:
    samples: np.ndarray  # float64 in [-1, 1]
    sample_rate: int

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValidationError("waveform.sample_rate must be positive")
        peak = np.max(np.abs(self.samples), initial=0.0)
        if not np.isfinite(peak):
            raise ValidationError("waveform.samples are non-finite")
        if peak > 1.0 + 1e-9:
            raise ValidationError("waveform.samples exceed [-1, 1]")


@dataclass(frozen=True)
class SpeakerSpec:
    speaker_id: int
    f0: float
    harmonic_amps: tuple

    def __post_init__(self):
        if not self.f0 > 0:  # also refuses nan
            raise ValidationError("speaker.f0 must be positive")
        amps = np.asarray(self.harmonic_amps, dtype=np.float64)
        if not (np.all(amps >= 0) and np.any(amps > 0)):
            raise ValidationError(
                "speaker.harmonic_amps must be nonnegative with at least one positive"
            )


@dataclass(frozen=True)
class ContentUnit:
    symbol_id: int
    duration: float

    def __post_init__(self):
        if not self.duration > 0:
            raise ValidationError(f"content unit duration {self.duration} must be positive")
        if self.symbol_id not in frontend.ID_TO_SYMBOL:
            raise ValidationError(
                f"content unit symbol_id {self.symbol_id} not in frontend vocabulary")


@dataclass(frozen=True)
class Utterance:
    waveform: Waveform


def _symbol_traits(sym_id: int):
    """Deterministic per-symbol (gain, spectral tilt) signature."""
    h = (sym_id * 2654435761) % (1 << 32)
    gain = 0.6 + 0.4 * ((h >> 8) % 1000) / 999.0
    tilt = 0.55 + 0.45 * ((h >> 20) % 1000) / 999.0
    return gain, tilt


def generate_utterance(
    spec: SpeakerSpec, units: tuple, sample_rate: int, seed: int
) -> Utterance:
    """Render harmonic audio for one speaker saying `units`, a nonempty
    sequence of `ContentUnit`: a steady f0 with the speaker's harmonics below
    0.49 of the sample rate, each unit shaped by its symbol's gain and tilt.
    Deterministic; `seed` is unused and stays for callers that still pass one.
    """
    if sample_rate < 8000:
        raise ValidationError("sample_rate must be at least 8000 Hz")
    if not units:
        raise ValidationError("content units must be nonempty")

    unit_samples = [max(1, int(round(u.duration * sample_rate))) for u in units]
    total = sum(unit_samples)
    phase = 2.0 * np.pi * np.cumsum(np.full(total, spec.f0)) / sample_rate

    base_amps = np.asarray(spec.harmonic_amps, dtype=np.float64)
    base_amps = base_amps / base_amps.sum() * PEAK_TARGET

    samples = np.zeros(total)
    ramp = EDGE_RAMP_SECONDS
    pos = 0
    nyquist = 0.49 * sample_rate
    for u, n in zip(units, unit_samples):
        gain, tilt = _symbol_traits(u.symbol_id)
        sl = slice(pos, pos + n)
        unit_wave = np.zeros(n)
        for h, amp in enumerate(base_amps, start=1):
            if h * spec.f0 >= nyquist:
                break
            unit_wave += amp * (tilt ** (h - 1)) * np.sin(h * phase[sl])
        env = np.ones(n)
        edge = min(int(round(ramp * sample_rate)), n // 2)
        if edge > 0:
            env[:edge] = np.arange(edge) / edge
            env[-edge:] = np.arange(edge, 0, -1) / edge
        samples[sl] = gain * env * unit_wave
        pos += n

    return Utterance(waveform=Waveform(samples=samples, sample_rate=sample_rate))


# -- f0 tracking ---------------------------------------------------------------

F0_MIN = 60.0  # Hz
F0_MAX = 500.0  # Hz
F0_WINDOW = 0.040  # seconds
F0_HOP = 0.010  # seconds
F0_VOICING_THRESHOLD = 0.5  # normalized autocorrelation peak


def frame_f0(samples: np.ndarray, sample_rate: int):
    """Autocorrelation pitch track. Returns (f0 per frame, voiced mask)."""
    win = int(round(F0_WINDOW * sample_rate))
    step = int(round(F0_HOP * sample_rate))
    lag_min = max(2, int(np.floor(sample_rate / F0_MAX)))
    lag_max = int(np.ceil(sample_rate / F0_MIN))
    f0s, voiced = [], []
    for start in range(0, len(samples) - win + 1, step):
        x = samples[start : start + win].astype(np.float64)
        x = x - x.mean()
        energy = float(x @ x)
        if energy < 1e-8 or lag_max >= win:
            f0s.append(0.0)
            voiced.append(False)
            continue
        # full autocorrelation via FFT, normalized by zero-lag
        n = int(2 ** np.ceil(np.log2(2 * win)))
        spec = np.fft.rfft(x, n)
        r = np.fft.irfft(spec * np.conj(spec), n)[: lag_max + 1]
        r = r / r[0]
        seg = r[lag_min : lag_max + 1]
        peak = float(seg.max())
        if peak < F0_VOICING_THRESHOLD:
            f0s.append(0.0)
            voiced.append(False)
            continue
        # smallest lag close to the global peak avoids octave-down errors
        candidates = np.flatnonzero(seg >= 0.9 * peak)
        lag = lag_min + int(candidates[0])
        # refine the chosen local maximum
        while lag + 1 <= lag_max and r[lag + 1] > r[lag]:
            lag += 1
        while lag - 1 >= lag_min and r[lag - 1] > r[lag]:
            lag -= 1
        if lag_min < lag < lag_max:
            a, b, c = r[lag - 1], r[lag], r[lag + 1]
            denom = a - 2 * b + c
            shift = 0.5 * (a - c) / denom if abs(denom) > 1e-12 else 0.0
            lag_refined = lag + float(np.clip(shift, -0.5, 0.5))
        else:
            lag_refined = float(lag)
        f0s.append(sample_rate / lag_refined)
        voiced.append(True)
    return np.asarray(f0s), np.asarray(voiced, dtype=bool)


def resample_waveform(w: Waveform, factor: float) -> Waveform:
    """Linear-interpolation resampling that shifts all frequencies by
    `factor` while keeping the sample rate, like playing the tape faster."""
    if factor <= 0:
        raise ValidationError("resampling factor must be positive")
    n_out = max(1, int(w.samples.size / factor))
    src = np.arange(n_out) * factor
    out = np.interp(src, np.arange(w.samples.size), w.samples)
    return Waveform(samples=out, sample_rate=w.sample_rate)


# -- corpus building -----------------------------------------------------------

# Speaker fundamentals sit on this 20 Hz grid over [120, 300] Hz, which keeps
# each voice periodic over a handful of codec frames instead of precessing
# continuously.
F0_GRID = 20.0 * np.arange(6, 16)
MAX_HARMONICS = 5
UNIT_DURATION = (0.10, 0.30)  # seconds, drawn per unit
UNIT_QUANTUM = 0.01  # unit durations snap to this (envelope ramp length)
ALPHABET = "aeioubdg"


@dataclass(frozen=True)
class CorpusConfig:
    out_dir: Path
    speakers: int = 10
    held_out_speakers: int = 2
    utterances_per_speaker: int = 2
    duration_min: float = 4.0
    duration_max: float = 6.0
    sample_rate: int = 8000
    seed: int = 0

    def __post_init__(self):
        problems = []
        if self.speakers < 1:
            problems.append("corpus.speakers must be >= 1")
        if self.speakers > len(F0_GRID):
            problems.append(
                f"corpus f0 grid has {len(F0_GRID)} points"
                f" but {self.speakers} speakers are requested"
            )
        if self.held_out_speakers < 0 or self.speakers < self.held_out_speakers:
            problems.append("corpus.held_out_speakers must be in [0, speakers]")
        if self.utterances_per_speaker < 1:
            problems.append("corpus.utterances_per_speaker must be >= 1")
        if not 0 < self.duration_min <= self.duration_max:
            problems.append("corpus duration range must satisfy 0 < min <= max")
        if self.sample_rate < 8000:
            problems.append("corpus.sample_rate must be >= 8000")
        if self.seed < 0:
            problems.append("corpus.seed must be >= 0")
        if problems:
            raise ValidationError("; ".join(problems))


def make_speakers(cfg: CorpusConfig):
    """Deterministic speaker roster over `F0_GRID`.

    Held-out speakers (the last `held_out_speakers` ids) take the centermost
    grid points, so zero-shot cloning is an interpolation task: unseen voices
    lie strictly inside the f0 range covered by training speakers."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 101]))
    pick = np.round(np.linspace(0, len(F0_GRID) - 1, cfg.speakers)).astype(int)
    grid = F0_GRID[pick]
    h = cfg.held_out_speakers
    lo = (cfg.speakers - h) // 2
    held_idx = list(range(lo, lo + h))
    train_idx = [i for i in range(cfg.speakers) if i not in held_idx]
    order = rng.permutation(len(train_idx))
    f0_of = {}
    for rank, sid in enumerate(range(cfg.speakers - h)):
        f0_of[sid] = float(grid[train_idx[order[rank]]])
    for j, sid in enumerate(range(cfg.speakers - h, cfg.speakers)):
        f0_of[sid] = float(grid[held_idx[j]])
    specs = []
    for sid in range(cfg.speakers):
        n_h = int(rng.integers(3, MAX_HARMONICS + 1))
        decay = rng.uniform(0.5, 0.9)
        amps = rng.uniform(0.4, 1.0, n_h) * decay ** np.arange(n_h)
        # Two uniforms once drew a vibrato; they are still drawn so that every
        # later speaker's harmonics, and so every corpus, stay as they were.
        rng.random(2)
        specs.append(SpeakerSpec(speaker_id=sid, f0=f0_of[sid],
                                 harmonic_amps=tuple(float(a) for a in amps)))
    return specs


def make_content(cfg: CorpusConfig, rng: np.random.Generator) -> tuple:
    """Random `ContentUnit`s with no immediate symbol repeats, filling a
    random target duration."""
    target = rng.uniform(cfg.duration_min, cfg.duration_max)
    units = []
    total = 0.0
    prev = None
    while total < target:
        ch = ALPHABET[int(rng.integers(len(ALPHABET)))]
        if ch == prev:
            continue
        dur = float(rng.uniform(*UNIT_DURATION))
        dur = max(UNIT_QUANTUM, round(dur / UNIT_QUANTUM) * UNIT_QUANTUM)
        units.append(ContentUnit(frontend.symbol_id(ch), dur))
        total += dur
        prev = ch
    return tuple(units)


def _audio_path(root, utt_id) -> Path:
    """Where a corpus directory keeps an utterance's audio."""
    return Path(root) / "audio" / f"{utt_id}.clm"


def build_corpus(cfg: CorpusConfig):
    """Generate and persist the corpus; returns the manifest path.

    Layout (the tables are tab-separated, one row per line):
    - manifest.tsv: utt_id, speaker_id, split, then the units as
      space-separated `symbol:duration` pairs. The transcription is the
      units' symbols in order;
    - speakers.tsv: speaker_id, f0, harmonic amplitudes joined by ",";
    - audio/<utt_id>.clm: the rendered waveform.
    Held-out speakers are the last `held_out_speakers` ids and are marked
    split=eval; they appear in no train entry. Over an existing corpus, the
    audio files the new manifest does not name and an older layout's
    alignments.tsv are removed, so the directory is what a fresh build
    writes; no other file is touched.
    """
    out = Path(cfg.out_dir)
    (out / "audio").mkdir(parents=True, exist_ok=True)
    specs = make_speakers(cfg)
    first_eval = cfg.speakers - cfg.held_out_speakers

    manifest_lines, speaker_lines, audio = [], [], set()
    for spec in specs:
        split = "eval" if spec.speaker_id >= first_eval else "train"
        amps = ",".join(repr(a) for a in spec.harmonic_amps)
        speaker_lines.append(f"{spec.speaker_id}\t{spec.f0!r}\t{amps}\n")
        for idx in range(cfg.utterances_per_speaker):
            rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, 7, spec.speaker_id, idx])
            )
            units = make_content(cfg, rng)
            utt = generate_utterance(spec, units, cfg.sample_rate, 0)
            utt_id = f"utt_{spec.speaker_id:03d}_{idx:03d}"
            audio.add(_audio_path(out, utt_id))
            formats.write_audio(_audio_path(out, utt_id), utt.waveform.samples, cfg.sample_rate)
            pairs = " ".join(f"{frontend.ID_TO_SYMBOL[u.symbol_id]}:{u.duration!r}"
                             for u in units)
            manifest_lines.append(f"{utt_id}\t{spec.speaker_id}\t{split}\t{pairs}\n")

    formats.write_text(out / "manifest.tsv", "".join(manifest_lines))
    formats.write_text(out / "speakers.tsv", "".join(speaker_lines))
    for stale in set((out / "audio").glob("*.clm")) - audio:
        stale.unlink()
    (out / "alignments.tsv").unlink(missing_ok=True)
    log.info(
        "corpus written to %s: %d utterances, %d train / %d eval speakers",
        out,
        len(manifest_lines),
        first_eval,
        cfg.held_out_speakers,
    )
    return out / "manifest.tsv"


# -- corpus reading ------------------------------------------------------------

@dataclass
class UttRecord:
    utt_id: str
    speaker_id: int
    split: str
    path: Path
    units: tuple  # of ContentUnit


@dataclass
class CorpusData:
    records: list
    speakers: dict  # speaker_id -> SpeakerSpec

    def split_records(self, split):
        return [r for r in self.records if r.split == split]


def read_waveform(path) -> Waveform:
    """An audio artifact as a Waveform; samples that are non-finite or outside
    [-1, 1] raise ValidationError naming `path`."""
    samples, sample_rate = formats.read_audio(path)
    try:
        return Waveform(samples=samples, sample_rate=sample_rate)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _parse_units(pairs):
    """The ContentUnits of a manifest `sym:duration` list."""
    units = []
    for item in pairs.split(" "):
        parts = item.split(":")
        if len(parts) != 2:
            raise ValueError(f"units are symbol:duration pairs, not {item!r}")
        units.append(ContentUnit(frontend.symbol_id(parts[0]), float(parts[1])))
    return tuple(units)


def _parse_speaker(sid, f0, amps):
    """One speakers.tsv row as (speaker_id, SpeakerSpec)."""
    spec = SpeakerSpec(speaker_id=int(sid), f0=float(f0),
                       harmonic_amps=tuple(float(a) for a in amps.split(",")))
    return spec.speaker_id, spec


def load_corpus(corpus_dir) -> CorpusData:
    """Read back what `build_corpus` wrote: the utterances of manifest.tsv,
    each with its audio path, and the speaker table of speakers.tsv. A
    malformed line (such as one of an older layout), a row whose ContentUnit
    or SpeakerSpec refuses its values (a unit duration or a speaker f0 that is
    not positive), a repeated utt_id or speaker_id, or a manifest entry
    without its speaker row, raises ValidationError naming the file."""
    root = Path(corpus_dir)

    def record(utt_id, sid, split, pairs):
        return utt_id, UttRecord(utt_id=utt_id, speaker_id=int(sid), split=split,
                                 path=_audio_path(root, utt_id), units=_parse_units(pairs))

    records = list(formats.read_tsv(root / "manifest.tsv", 4, record).values())
    speakers = formats.read_tsv(root / "speakers.tsv", 3, _parse_speaker)
    for rec in records:
        if rec.speaker_id not in speakers:
            raise ValidationError(
                f"{root / 'speakers.tsv'}: no row for speaker {rec.speaker_id}")
    return CorpusData(records=records, speakers=speakers)
