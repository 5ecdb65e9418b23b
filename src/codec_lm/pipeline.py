"""End-to-end orchestration: codec + AR + NAR training and prompted synthesis.

Training crops every sampled utterance to a random duration inside the
configured range; the synthetic corpus carries exact unit timings, so the
phoneme sequence for any crop is known without forced alignment. The NAR
trainer additionally samples a 3-second acoustic prompt segment from the same
utterance (disjoint from the target crop whenever the utterance is long
enough).

Inference implements the two prompting modes: `standard` prepends the
enrolled transcription's phonemes to the target phonemes and uses the
enrolled stage-1 codes as the AR prefix, while `continual` uses the target
transcription once and the first seconds of the same utterance as the prompt.
In both modes the NAR stage prompt is the full Q-stage code matrix of the
enrolled audio; only the AR prefix is restricted to stage 1.
"""

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import ar_model, codec, formats, frontend, lm_core, nar_model
from .ar_model import SamplingSpec
from .codec import CodebookSet, CodeMatrix
from .corpus import Waveform, frame_f0, read_alignments, read_speakers
from .errors import ValidationError
from .lm_core import ModelConfig

log = logging.getLogger("codec_lm.pipeline")

NAR_PROMPT_SECONDS = 3.0


@dataclass
class TrainConfig:
    crop_min: float = 1.0
    crop_max: float = 3.0
    batch_tokens: int = 512
    total_steps: int = 1000
    warmup_steps: int = 100
    peak_lr: float = 1e-3
    weight_decay: float = 0.01
    seed: int = 0
    log_every: int = 50
    checkpoint_every: int = 0

    def validate(self):
        if not 0 < self.crop_min <= self.crop_max:
            raise ValidationError("train crop range must satisfy 0 < min <= max")
        if not 1 <= self.warmup_steps < self.total_steps:
            raise ValidationError("need 1 <= warmup_steps < total_steps")
        if self.batch_tokens < 1:
            raise ValidationError("train.batch_tokens must be >= 1")
        if self.peak_lr <= 0:
            raise ValidationError("train.peak_lr must be positive")


@dataclass
class PromptSpec:
    mode: str
    enrolled_waveform: Waveform
    enrolled_text: str | None
    target_text: str

    def validate(self):
        if self.mode not in ("standard", "continual"):
            raise ValidationError(f"unknown prompt mode {self.mode!r}")
        if not self.target_text or not self.target_text.strip():
            raise ValidationError("target_text is empty")
        if self.mode == "standard" and not (self.enrolled_text and self.enrolled_text.strip()):
            raise ValidationError("standard mode requires enrolled_text")


@dataclass
class ModelBundle:
    params: dict
    cfg: ModelConfig
    kind: str

    @classmethod
    def load(cls, path):
        kind, cfg, params, _ = lm_core.load_model(path)
        return cls(params=params, cfg=cfg, kind=kind)

    def save(self, path, extra=None):
        lm_core.save_model(path, self.kind, self.cfg, self.params, extra)


@dataclass
class UttRecord:
    utt_id: str
    speaker_id: int
    split: str
    path: Path
    text: str
    units: tuple


@dataclass
class CorpusData:
    root: Path
    records: list
    speakers: dict  # speaker_id -> (SpeakerSpec, split)

    def split_records(self, split):
        return [r for r in self.records if r.split == split]


def load_corpus(corpus_dir) -> CorpusData:
    root = Path(corpus_dir)
    entries = formats.read_manifest(root / "manifest.tsv")
    units = read_alignments(root)
    speakers = read_speakers(root)
    records = [
        UttRecord(
            utt_id=utt_id,
            speaker_id=sid,
            split=split,
            path=root / rel,
            text=text,
            units=units[utt_id],
        )
        for utt_id, sid, split, rel, text in entries
    ]
    return CorpusData(root=root, records=records, speakers=speakers)


@dataclass
class TokenizedUtterance:
    utt_id: str
    speaker_id: int
    split: str
    text: str
    codes: np.ndarray  # (T, Q)
    frame_symbols: np.ndarray  # (T,) frontend ids

    @property
    def num_frames(self) -> int:
        return self.codes.shape[0]


def tokenize_record(record: UttRecord, cs: CodebookSet) -> TokenizedUtterance:
    samples, sr = formats.read_audio(record.path)
    cm = codec.encode(Waveform(samples=samples, sample_rate=sr), cs)
    ends = np.cumsum([u.duration for u in record.units])
    sym = np.array([u.symbol_id for u in record.units], dtype=np.int64)
    t = cm.num_frames
    frame_times = (np.arange(t) + 0.5) * cs.stride / cs.sample_rate
    idx = np.minimum(np.searchsorted(ends, frame_times), len(sym) - 1)
    return TokenizedUtterance(
        utt_id=record.utt_id,
        speaker_id=record.speaker_id,
        split=record.split,
        text=record.text,
        codes=cm.codes,
        frame_symbols=sym[idx],
    )


def tokenize_split(corpus: CorpusData, cs: CodebookSet, split: str):
    records = corpus.split_records(split)
    return [tokenize_record(r, cs) for r in records]


def crop_phonemes(tu: TokenizedUtterance, start: int, n: int):
    return frontend.dedup_consecutive(tu.frame_symbols[start : start + n].tolist())


def _sample_crop(tu, crop_min, crop_max, frame_rate, rng):
    n = int(rng.uniform(crop_min, crop_max) * frame_rate)
    n = max(1, min(n, tu.num_frames))
    start = int(rng.integers(0, tu.num_frames - n + 1))
    return start, n


def sample_ar_item(tu, train_cfg, frame_rate, rng):
    start, n = _sample_crop(tu, train_cfg.crop_min, train_cfg.crop_max, frame_rate, rng)
    return crop_phonemes(tu, start, n), tu.codes[start : start + n, 0]


def sample_nar_item(tu, train_cfg, frame_rate, rng):
    """Target crop plus a 3-second prompt segment from the same utterance.

    The prompt is drawn disjoint from the target whenever the utterance has
    room for it; utterances shorter than prompt + 1 frame are rejected.
    """
    prompt_len = int(NAR_PROMPT_SECONDS * frame_rate)
    t = tu.num_frames
    if t < prompt_len + 1:
        raise ValidationError(
            f"utterance {tu.utt_id} has {t} frames, shorter than prompt + 1 ({prompt_len + 1})"
        )
    max_target = t - prompt_len  # leave room for a disjoint prompt when possible
    n = int(rng.uniform(train_cfg.crop_min, train_cfg.crop_max) * frame_rate)
    n = max(1, min(n, max_target))
    start = int(rng.integers(0, t - n + 1))
    left = max(0, start - prompt_len + 1)
    right = max(0, (t - prompt_len) - (start + n) + 1)
    if left + right > 0:
        u = int(rng.integers(left + right))
        ps = u if u < left else start + n + (u - left)
    else:
        ps = int(rng.integers(0, t - prompt_len + 1))
    phon = crop_phonemes(tu, start, n)
    return phon, tu.codes[ps : ps + prompt_len], tu.codes[start : start + n]


def _check_dims(model_cfg: ModelConfig, cs: CodebookSet):
    if model_cfg.codebook_size != cs.codebook_size or model_cfg.quantizers != cs.quantizers:
        raise ValidationError(
            f"model (K={model_cfg.codebook_size}, Q={model_cfg.quantizers}) does not match "
            f"codec (K={cs.codebook_size}, Q={cs.quantizers})"
        )


def _train_common(corpus_dir, cs, model_cfg, train_cfg, out_path):
    model_cfg.validate()
    train_cfg.validate()
    if train_cfg.checkpoint_every and out_path is None:
        raise ValidationError("checkpoint_every needs an output path to name the step checkpoints")
    _check_dims(model_cfg, cs)
    if int(train_cfg.crop_min * cs.frame_rate) < 1:
        raise ValidationError(
            f"crop_min {train_cfg.crop_min}s is below one frame at {cs.frame_rate:g} Hz"
        )
    corpus = load_corpus(corpus_dir)
    items = tokenize_split(corpus, cs, "train")
    if not items:
        raise ValidationError("corpus has no training utterances")
    return items


def _finish(params, cfg, kind, train_cfg, rows, out_path, log_path, extra):
    if out_path is not None:
        lm_core.save_model(out_path, kind, cfg, params, extra)
    if log_path is not None:
        formats.write_loss_log(log_path, rows)


def train_ar(corpus_dir, cs: CodebookSet, model_cfg: ModelConfig, train_cfg: TrainConfig,
             out_path=None, log_path=None):
    """Pure causal training over [phonemes, EOS, stage-1 codes, EOS] crops."""
    items = _train_common(corpus_dir, cs, model_cfg, train_cfg, out_path)
    rng_init = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 31]))
    rng_batch = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 37]))
    rng_drop = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 41]))
    params = ar_model.init_ar_params(model_cfg, rng_init)
    opt = lm_core.AdamWConfig(
        peak_lr=train_cfg.peak_lr,
        warmup_steps=train_cfg.warmup_steps,
        total_steps=train_cfg.total_steps,
        weight_decay=train_cfg.weight_decay,
    )
    state = lm_core.AdamWState()
    rows = []
    first_loss = None
    loss = float("nan")
    for step in range(1, train_cfg.total_steps + 1):
        batch, tokens = [], 0
        while tokens < train_cfg.batch_tokens:
            tu = items[int(rng_batch.integers(len(items)))]
            phon, ac = sample_ar_item(tu, train_cfg, cs.frame_rate, rng_batch)
            batch.append((phon, ac))
            tokens += len(ac) + 1
        loss, grads, _ = ar_model.ar_loss(params, model_cfg, batch, train=True, rng=rng_drop)
        lr = lm_core.adamw_step(params, grads, state, step, opt)
        if first_loss is None:
            first_loss = loss
        if step % train_cfg.log_every == 0 or step == train_cfg.total_steps:
            rows.append((step, loss, lr))
            log.info("ar step %d loss %.4f lr %.3g", step, loss, lr)
        if train_cfg.checkpoint_every and step % train_cfg.checkpoint_every == 0:
            lm_core.save_model(f"{out_path}.step{step}", "ar", model_cfg, params)
    _finish(params, model_cfg, "ar", train_cfg, rows, out_path, log_path,
            {"trained_steps": train_cfg.total_steps})
    return {"params": params, "cfg": model_cfg, "rows": rows,
            "first_loss": first_loss, "final_loss": loss}


def train_nar(corpus_dir, cs: CodebookSet, model_cfg: ModelConfig, train_cfg: TrainConfig,
              out_path=None, log_path=None):
    """Stage-conditioned training: one uniform stage in [2, Q] per step."""
    items = _train_common(corpus_dir, cs, model_cfg, train_cfg, out_path)
    prompt_len = int(NAR_PROMPT_SECONDS * cs.frame_rate)
    usable = [tu for tu in items if tu.num_frames >= prompt_len + 1]
    for tu in items:
        if tu.num_frames < prompt_len + 1:
            log.warning(
                "skipping %s: %d frames < prompt + 1 (%d)",
                tu.utt_id, tu.num_frames, prompt_len + 1,
            )
    if not usable:
        raise ValidationError("no training utterance is longer than the NAR prompt")
    rng_init = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 43]))
    rng_batch = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 47]))
    rng_drop = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 53]))
    params = nar_model.init_nar_params(model_cfg, rng_init)
    opt = lm_core.AdamWConfig(
        peak_lr=train_cfg.peak_lr,
        warmup_steps=train_cfg.warmup_steps,
        total_steps=train_cfg.total_steps,
        weight_decay=train_cfg.weight_decay,
    )
    state = lm_core.AdamWState()
    rows, stage_draws = [], []
    first_loss = None
    loss = float("nan")
    for step in range(1, train_cfg.total_steps + 1):
        stage = nar_model.draw_stage(rng_batch, model_cfg.quantizers)
        batch, tokens = [], 0
        while tokens < train_cfg.batch_tokens:
            tu = usable[int(rng_batch.integers(len(usable)))]
            phon, prompt, target = sample_nar_item(tu, train_cfg, cs.frame_rate, rng_batch)
            batch.append((phon, prompt, target))
            tokens += len(target) + len(prompt)
        loss, grads, stage, _ = nar_model.nar_loss(
            params, model_cfg, batch, rng_batch, train=True, stage=stage, dropout_rng=rng_drop
        )
        stage_draws.append(stage)
        lr = lm_core.adamw_step(params, grads, state, step, opt)
        if first_loss is None:
            first_loss = loss
        if step % train_cfg.log_every == 0 or step == train_cfg.total_steps:
            rows.append((step, loss, lr))
            log.info("nar step %d stage %d loss %.4f lr %.3g", step, stage, loss, lr)
        if train_cfg.checkpoint_every and step % train_cfg.checkpoint_every == 0:
            lm_core.save_model(f"{out_path}.step{step}", "nar", model_cfg, params)
    _finish(params, model_cfg, "nar", train_cfg, rows, out_path, log_path,
            {"trained_steps": train_cfg.total_steps})
    return {"params": params, "cfg": model_cfg, "rows": rows, "stage_draws": stage_draws,
            "first_loss": first_loss, "final_loss": loss}


# -- inference -------------------------------------------------------------------

@dataclass
class SynthesisResult:
    waveform: Waveform
    codes: np.ndarray  # (T, Q) generated target codes
    first_layer: np.ndarray


def continual_prompt(full_waveform: Waveform, text: str, seconds: float) -> PromptSpec:
    """Continual-mode prompt: the first `seconds` of the utterance whose
    transcription is `text`."""
    n = int(seconds * full_waveform.sample_rate)
    if n < 1:
        raise ValidationError("continual prompt is shorter than one sample")
    if n >= full_waveform.samples.size:
        raise ValidationError("continual prompt covers the full utterance")
    return PromptSpec(
        mode="continual",
        enrolled_waveform=Waveform(full_waveform.samples[:n], full_waveform.sample_rate),
        enrolled_text=None,
        target_text=text,
    )


def build_phoneme_prompt(spec: PromptSpec):
    """standard: concat(dedup'd enrolled phonemes, dedup'd target phonemes);
    continual: the target phonemes exactly once."""
    target = frontend.text_to_phonemes(spec.target_text).ids
    if spec.mode == "standard":
        enrolled = frontend.text_to_phonemes(spec.enrolled_text).ids
        return list(enrolled) + list(target)
    return list(target)


def synthesize(spec: PromptSpec, ar: ModelBundle, nar: ModelBundle, cs: CodebookSet,
               sampling: SamplingSpec) -> SynthesisResult:
    """Text + enrolled audio -> waveform covering only the new content.

    AR consumes the stage-1 prompt codes as a prefix and samples stage-1
    target codes; NAR then fills stages 2..Q greedily, conditioned on the full
    Q-stage prompt matrix; the codec decodes the target codes alone.
    """
    spec.validate()
    sampling.validate()
    _check_dims(ar.cfg, cs)
    _check_dims(nar.cfg, cs)
    phon = build_phoneme_prompt(spec)
    prompt_cm = codec.encode(spec.enrolled_waveform, cs)
    first = ar_model.ar_generate(ar.params, ar.cfg, phon, prompt_cm.codes[:, 0], sampling)
    if first.size == 0:
        empty = Waveform(samples=np.zeros(0), sample_rate=cs.sample_rate)
        return SynthesisResult(
            waveform=empty,
            codes=np.zeros((0, cs.quantizers), dtype=np.int64),
            first_layer=first,
        )
    codes = nar_model.nar_generate_all(nar.params, nar.cfg, phon, prompt_cm.codes, first)
    wav = codec.decode(CodeMatrix(codes=codes, codebook_size=cs.codebook_size), cs)
    return SynthesisResult(waveform=wav, codes=codes, first_layer=first)


# -- evaluation ------------------------------------------------------------------

def _teacher_forced_ar_accuracy(items, ar: ModelBundle, cs, crop_min, crop_max, rng,
                                crops_per_utt=3):
    hits = total = 0
    for tu in items:
        for _ in range(crops_per_utt):
            start, n = _sample_crop(tu, crop_min, crop_max, cs.frame_rate, rng)
            phon = crop_phonemes(tu, start, n)
            ac = tu.codes[start : start + n, 0]
            logits = ar_model.ar_forward(ar.params, ar.cfg, phon, ac)
            targets = np.concatenate([ac, [ar.cfg.acoustic_eos]])
            hits += int((np.argmax(logits, axis=-1) == targets).sum())
            total += targets.size
    return hits / total if total else float("nan")


def _nar_stage_accuracy(items, nar: ModelBundle, cs, train_like: TrainConfig, rng):
    prompt_len = int(NAR_PROMPT_SECONDS * cs.frame_rate)
    per_stage = {j: [0, 0] for j in range(2, nar.cfg.quantizers + 1)}
    for tu in items:
        if tu.num_frames < prompt_len + 1:
            continue
        phon, prompt, target = sample_nar_item(tu, train_like, cs.frame_rate, rng)
        for stage in range(2, nar.cfg.quantizers + 1):
            logits = nar_model.nar_forward(
                nar.params, nar.cfg, phon, prompt, target[:, : stage - 1], stage
            )
            pred = np.argmax(logits, axis=-1)
            per_stage[stage][0] += int((pred == target[:, stage - 1]).sum())
            per_stage[stage][1] += target.shape[0]
    return {
        j: (h / t if t else float("nan")) for j, (h, t) in per_stage.items()
    }


def _codec_snr_by_stages(corpus: CorpusData, cs, split):
    out = {}
    records = corpus.split_records(split)
    for j in range(1, cs.quantizers + 1):
        vals = []
        for rec in records:
            samples, sr = formats.read_audio(rec.path)
            wav = Waveform(samples=samples, sample_rate=sr)
            cm = codec.encode(wav, cs)
            recon = codec.decode(cm, cs, stages=j)
            n = recon.samples.size
            ref = Waveform(samples=wav.samples[:n], sample_rate=sr)
            snr = codec.reconstruction_snr(ref, recon)
            vals.append(min(snr, 120.0))
        out[j] = float(np.mean(vals)) if vals else float("nan")
    return out


def _enrolled_from_prefix(record: UttRecord, samples, sr, seconds):
    """First `seconds` of an utterance plus the transcription of that window."""
    n = int(seconds * sr)
    n = min(n, samples.size)
    ends = np.cumsum([u.duration for u in record.units])
    k = int(np.searchsorted(ends, seconds)) + 1
    text = "".join(frontend.ID_TO_SYMBOL[u.symbol_id] for u in record.units[:k])
    return Waveform(samples=samples[:n], sample_rate=sr), text


def speaker_f0_match(
    corpus: CorpusData, cs, ar: ModelBundle, nar: ModelBundle, *,
    split="eval", seeds=range(10), sampling: SamplingSpec | None = None,
    prompt_seconds=3.0, n_target_symbols=8, tolerance=0.05,
):
    """Zero-shot speaker proxy: fraction of voiced frames of the synthesized
    audio whose autocorrelation f0 is within `tolerance` of the prompt
    speaker's true f0, averaged over seeds, per speaker."""
    if sampling is None:
        sampling = SamplingSpec()
    by_speaker = {}
    records = corpus.split_records(split)
    if not records:
        raise ValidationError(f"split {split!r} is empty")
    speakers = sorted({r.speaker_id for r in records})
    for sid in speakers:
        spk_records = [r for r in records if r.speaker_id == sid]
        enroll_rec = spk_records[0]
        target_rec = spk_records[1] if len(spk_records) > 1 else spk_records[0]
        samples, sr = formats.read_audio(enroll_rec.path)
        enrolled_wav, enrolled_text = _enrolled_from_prefix(
            enroll_rec, samples, sr, prompt_seconds
        )
        target_ids = frontend.dedup_consecutive(
            [u.symbol_id for u in target_rec.units[:n_target_symbols]]
        )
        target_text = "".join(frontend.ID_TO_SYMBOL[i] for i in target_ids)
        spec = PromptSpec(
            mode="standard",
            enrolled_waveform=enrolled_wav,
            enrolled_text=enrolled_text,
            target_text=target_text,
        )
        true_f0 = corpus.speakers[sid][0].f0
        fracs = []
        for seed in seeds:
            s = replace(sampling, seed=int(seed))
            result = synthesize(spec, ar, nar, cs, s)
            f0s, voiced = frame_f0(result.waveform.samples, cs.sample_rate)
            if voiced.any():
                ok = np.abs(f0s[voiced] - true_f0) <= tolerance * true_f0
                fracs.append(float(ok.mean()))
            else:
                fracs.append(0.0)
        by_speaker[sid] = float(np.mean(fracs))
    return by_speaker


def evaluate(corpus_dir, cs: CodebookSet, ar: ModelBundle, nar: ModelBundle, *,
             split="eval", seeds=range(10), sampling: SamplingSpec | None = None,
             crop_min=1.0, crop_max=3.0, eval_seed=1234, with_synthesis=True,
             n_target_symbols=8):
    """Metric rows: teacher-forced AR accuracy, NAR per-stage accuracy with
    ground-truth lower stages, codec SNR by stage count, and the zero-shot
    speaker-f0 proxy. Returns a list of (metric, split, value) rows."""
    corpus = load_corpus(corpus_dir)
    records = corpus.split_records(split)
    if not records:
        raise ValidationError(f"split {split!r} is empty")
    items = tokenize_split(corpus, cs, split)
    crop_like = TrainConfig(crop_min=crop_min, crop_max=crop_max,
                            total_steps=2, warmup_steps=1)
    rng = np.random.default_rng(np.random.SeedSequence([eval_seed, 61]))
    rows = [
        ("ar_teacher_forced_accuracy", split,
         _teacher_forced_ar_accuracy(items, ar, cs, crop_min, crop_max, rng)),
    ]
    for stage, acc in _nar_stage_accuracy(items, nar, cs, crop_like, rng).items():
        rows.append((f"nar_stage{stage}_accuracy", split, acc))
    for j, snr in _codec_snr_by_stages(corpus, cs, split).items():
        rows.append((f"codec_snr_stages_{j}", split, snr))
    if with_synthesis:
        by_speaker = speaker_f0_match(
            corpus, cs, ar, nar, split=split, seeds=seeds, sampling=sampling,
            n_target_symbols=n_target_symbols,
        )
        for sid, frac in sorted(by_speaker.items()):
            rows.append((f"speaker_f0_match_spk{sid}", split, frac))
        rows.append(
            ("speaker_f0_match", split, float(np.mean(list(by_speaker.values()))))
        )
    return rows
