"""Synthetic multi-speaker corpus.

Each speaker is a harmonic source with a fixed fundamental, harmonic
amplitude profile and mild vibrato, so speaker identity is directly
measurable from audio (f0, spectral shape). Content is a sequence of symbol
units; each symbol modulates gain and spectral tilt, giving the language
models real content to predict. Held-out speakers never appear in the
training split, which is what makes zero-shot cloning checkable.

The generator's shape is fixed by the module constants below (the f0 grid,
harmonic count, vibrato, unit durations and alphabet). A `CorpusConfig` sets
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

    def validate(self):
        if self.sample_rate <= 0:
            raise ValidationError("waveform.sample_rate must be positive")
        if self.samples.size and np.max(np.abs(self.samples)) > 1.0 + 1e-9:
            raise ValidationError("waveform.samples exceed [-1, 1]")


@dataclass(frozen=True)
class SpeakerSpec:
    speaker_id: int
    f0: float
    harmonic_amps: tuple
    vibrato_rate: float
    vibrato_depth: float

    def validate(self):
        if self.f0 <= 0:
            raise ValidationError("speaker.f0 must be positive")
        amps = np.asarray(self.harmonic_amps, dtype=np.float64)
        if amps.size == 0:
            raise ValidationError("speaker.harmonic_amps must be nonempty")
        if np.any(amps < 0) or not np.any(amps > 0):
            raise ValidationError(
                "speaker.harmonic_amps must be nonnegative with at least one positive"
            )
        if not 0.0 <= self.vibrato_depth <= 0.2:
            raise ValidationError("speaker.vibrato_depth must lie in [0, 0.2]")
        if self.vibrato_rate < 0:
            raise ValidationError("speaker.vibrato_rate must be nonnegative")


@dataclass(frozen=True)
class ContentUnit:
    symbol_id: int
    duration: float
    pitch_offset: float = 0.0  # semitones


@dataclass(frozen=True)
class ContentSeq:
    units: tuple

    def validate(self):
        if not self.units:
            raise ValidationError("content.units must be nonempty")
        for i, unit in enumerate(self.units):
            if unit.duration <= 0:
                raise ValidationError(f"content.units[{i}].duration must be positive")
            if not 1 <= unit.symbol_id < frontend.VOCAB_SIZE or (
                unit.symbol_id not in frontend.ID_TO_SYMBOL
            ):
                raise ValidationError(
                    f"content.units[{i}].symbol_id {unit.symbol_id} not in frontend vocabulary"
                )

    def text(self) -> str:
        return "".join(frontend.ID_TO_SYMBOL[u.symbol_id] for u in self.units)


@dataclass(frozen=True)
class Utterance:
    speaker: SpeakerSpec
    content: ContentSeq
    waveform: Waveform
    text: str


def _symbol_traits(sym_id: int):
    """Deterministic per-symbol (gain, spectral tilt) signature."""
    h = (sym_id * 2654435761) % (1 << 32)
    gain = 0.6 + 0.4 * ((h >> 8) % 1000) / 999.0
    tilt = 0.55 + 0.45 * ((h >> 20) % 1000) / 999.0
    return gain, tilt


def generate_utterance(
    spec: SpeakerSpec, content: ContentSeq, sample_rate: int, seed: int
) -> Utterance:
    """Render harmonic audio for one (speaker, content) pair.

    Deterministic for fixed arguments: the seed only drives the vibrato
    starting phase.
    """
    spec.validate()
    content.validate()
    if sample_rate < 8000:
        raise ValidationError("sample_rate must be at least 8000 Hz")

    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF]))
    vib_phase = rng.uniform(0.0, 2.0 * np.pi)

    unit_samples = [max(1, int(round(u.duration * sample_rate))) for u in content.units]
    total = sum(unit_samples)
    t = np.arange(total) / sample_rate

    pitch_factor = np.empty(total)
    pos = 0
    for u, n in zip(content.units, unit_samples):
        pitch_factor[pos : pos + n] = 2.0 ** (u.pitch_offset / 12.0)
        pos += n

    vibrato = 1.0 + spec.vibrato_depth * np.sin(
        2.0 * np.pi * spec.vibrato_rate * t + vib_phase
    )
    inst_freq = spec.f0 * pitch_factor * vibrato
    phase = 2.0 * np.pi * np.cumsum(inst_freq) / sample_rate

    base_amps = np.asarray(spec.harmonic_amps, dtype=np.float64)
    base_amps = base_amps / base_amps.sum() * PEAK_TARGET

    samples = np.zeros(total)
    ramp = EDGE_RAMP_SECONDS
    pos = 0
    nyquist = 0.49 * sample_rate
    for u, n in zip(content.units, unit_samples):
        gain, tilt = _symbol_traits(u.symbol_id)
        sl = slice(pos, pos + n)
        unit_wave = np.zeros(n)
        top = spec.f0 * 2.0 ** (u.pitch_offset / 12.0) * (1.0 + spec.vibrato_depth)
        for h, amp in enumerate(base_amps, start=1):
            if h * top >= nyquist:
                break
            unit_wave += amp * (tilt ** (h - 1)) * np.sin(h * phase[sl])
        env = np.ones(n)
        edge = min(int(round(ramp * sample_rate)), n // 2)
        if edge > 0:
            env[:edge] = np.arange(edge) / edge
            env[-edge:] = np.arange(edge, 0, -1) / edge
        samples[sl] = gain * env * unit_wave
        pos += n

    wav = Waveform(samples=samples, sample_rate=sample_rate)
    wav.validate()
    return Utterance(speaker=spec, content=content, waveform=wav, text=content.text())


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
VIBRATO_RATE = (4.0, 6.0)  # Hz, drawn per speaker
VIBRATO_DEPTH_MAX = 0.0  # drawn per speaker in [0, this]
UNIT_DURATION = (0.10, 0.30)  # seconds, drawn per unit
UNIT_QUANTUM = 0.01  # unit durations snap to this (envelope ramp length)
ALPHABET = "aeioubdg"


@dataclass
class CorpusConfig:
    out_dir: Path
    speakers: int = 10
    held_out_speakers: int = 2
    utterances_per_speaker: int = 2
    duration_min: float = 4.0
    duration_max: float = 6.0
    sample_rate: int = 8000
    seed: int = 0

    def validate(self):
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
        specs.append(
            SpeakerSpec(
                speaker_id=sid,
                f0=f0_of[sid],
                harmonic_amps=tuple(float(a) for a in amps),
                vibrato_rate=float(rng.uniform(*VIBRATO_RATE)),
                vibrato_depth=float(rng.uniform(0.0, VIBRATO_DEPTH_MAX)),
            )
        )
    return specs


def make_content(cfg: CorpusConfig, rng: np.random.Generator) -> ContentSeq:
    """Random symbol sequence with no immediate repeats, filling a random
    target duration."""
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
    return ContentSeq(units=tuple(units))


def build_corpus(cfg: CorpusConfig):
    """Generate and persist the corpus; returns the manifest path.

    Layout: <out>/manifest.tsv, speakers.tsv, alignments.tsv, audio/*.clm.
    Held-out speakers are the last `held_out_speakers` ids and are marked
    split=eval; they appear in no train entry.
    """
    cfg.validate()
    out = Path(cfg.out_dir)
    (out / "audio").mkdir(parents=True, exist_ok=True)
    specs = make_speakers(cfg)
    first_eval = cfg.speakers - cfg.held_out_speakers

    manifest_rows, align_lines, speaker_lines = [], [], []
    for spec in specs:
        split = "eval" if spec.speaker_id >= first_eval else "train"
        amps = ",".join(repr(a) for a in spec.harmonic_amps)
        speaker_lines.append(f"{spec.speaker_id}\t{spec.f0!r}\t{spec.vibrato_rate!r}"
                             f"\t{spec.vibrato_depth!r}\t{amps}\t{split}\n")
        for idx in range(cfg.utterances_per_speaker):
            rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, 7, spec.speaker_id, idx])
            )
            content = make_content(cfg, rng)
            utt = generate_utterance(spec, content, cfg.sample_rate, int(rng.integers(0, 2**31)))
            utt_id = f"utt_{spec.speaker_id:03d}_{idx:03d}"
            rel = f"audio/{utt_id}.clm"
            formats.write_audio(out / rel, utt.waveform.samples, cfg.sample_rate)
            manifest_rows.append((utt_id, spec.speaker_id, split, rel, utt.text))
            triples = " ".join(
                f"{frontend.ID_TO_SYMBOL[u.symbol_id]}:{u.duration!r}:{u.pitch_offset!r}"
                for u in content.units
            )
            align_lines.append(f"{utt_id}\t{triples}\n")

    formats.write_manifest(out / "manifest.tsv", manifest_rows)
    formats.write_text(out / "alignments.tsv", "".join(align_lines))
    formats.write_text(out / "speakers.tsv", "".join(speaker_lines))
    log.info(
        "corpus written to %s: %d utterances, %d train / %d eval speakers",
        out,
        len(manifest_rows),
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
    text: str
    units: tuple  # of ContentUnit


@dataclass
class CorpusData:
    records: list
    speakers: dict  # speaker_id -> (SpeakerSpec, split)

    def split_records(self, split):
        return [r for r in self.records if r.split == split]


def read_waveform(path) -> Waveform:
    """An audio artifact as a Waveform."""
    samples, sample_rate = formats.read_audio(path)
    return Waveform(samples=samples, sample_rate=sample_rate)


def _parse_units(triples):
    """The ContentUnits of an alignments.tsv `sym:duration:pitch_offset` list."""
    units = []
    for item in triples.split(" "):
        sym, dur, off = item.split(":")
        units.append(ContentUnit(frontend.symbol_id(sym), float(dur), float(off)))
    return tuple(units)


def _parse_speaker(sid, f0, rate, depth, amps, split):
    """One speakers.tsv row as (speaker_id, (SpeakerSpec, split))."""
    spec = SpeakerSpec(
        speaker_id=int(sid),
        f0=float(f0),
        harmonic_amps=tuple(float(a) for a in amps.split(",")),
        vibrato_rate=float(rate),
        vibrato_depth=float(depth),
    )
    return spec.speaker_id, (spec, split)


def load_corpus(corpus_dir) -> CorpusData:
    """Read back what `build_corpus` wrote: the manifest, the unit timings of
    alignments.tsv and the speaker table of speakers.tsv. A malformed line, or
    a manifest entry without its alignment or speaker row, raises
    ValidationError."""
    root = Path(corpus_dir)
    entries = formats.read_manifest(root / "manifest.tsv")
    units = dict(formats.read_tsv(
        root / "alignments.tsv", 2, lambda utt_id, triples: (utt_id, _parse_units(triples))))
    speakers = dict(formats.read_tsv(root / "speakers.tsv", 6, _parse_speaker))
    records = []
    for utt_id, sid, split, rel, text in entries:
        if utt_id not in units:
            raise ValidationError(f"{root / 'alignments.tsv'}: no alignment for {utt_id}")
        if sid not in speakers:
            raise ValidationError(f"{root / 'speakers.tsv'}: no row for speaker {sid}")
        records.append(UttRecord(utt_id=utt_id, speaker_id=sid, split=split,
                                 path=root / rel, text=text, units=units[utt_id]))
    return CorpusData(records=records, speakers=speakers)
