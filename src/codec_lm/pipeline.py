"""End-to-end orchestration: codec + AR + NAR training, prompted synthesis and
evaluation.

Training and evaluation read the corpus through one data path:

1. load: `corpus.load_corpus` reads the corpus directory's two tables into
   records (speaker, split and unit timings from one manifest row, and the
   audio path derived from the utt_id) and the speaker table. A record's
   transcription is its units' symbols in order;
2. tokenize once: `tokenize_split` encodes each record of a split with the
   codec and labels every frame with the phoneme its unit timings put there;
3. items: `sample_ar_item` and `sample_nar_item` crop those tokens. Training
   draws its batches of crops with `_draw_batch`; evaluation scores the same
   kind of crops, and its codec SNR rows decode the same tokens.

A crop has a random duration in `CROP_SECONDS`; the synthetic corpus
carries exact unit timings, so the phoneme sequence for any crop is known
without forced alignment. A NAR item additionally carries a 3-second acoustic
prompt segment from the same utterance (disjoint from the target crop whenever
the utterance is long enough).

Inference implements the two prompting modes: `standard` prepends the
enrolled transcription's phonemes to the target phonemes and uses the
enrolled stage-1 codes as the AR prefix, while `continual` uses the target
transcription once and the utterance's first `PROMPT_SECONDS` as the prompt.
In both modes the NAR stage prompt is the full Q-stage code matrix of the
enrolled audio; only the AR prefix is restricted to stage 1.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import ar_model, codec, formats, frontend, lm_core, nar_model
from .ar_model import SamplingSpec
from .codec import CodebookSet, CodeMatrix
from .corpus import CorpusData, UttRecord, Waveform, frame_f0, load_corpus, read_waveform
from .errors import ValidationError
from .lm_core import ModelConfig

log = logging.getLogger("codec_lm.pipeline")

PROMPT_SECONDS = 3.0  # the paper's enrolled recording: NAR prompts, the f0 proxy, the CLI
# (min, max) seconds of a training or evaluation crop: 4-6 s corpus utterances
# less the 3 s NAR prompt leave a NAR target 1-3 s of room
CROP_SECONDS = (1.0, 3.0)
EVAL_SEED = 1234
AR_CROPS_PER_UTT = 3  # teacher-forced crops scored per utterance
N_TARGET_SYMBOLS = 8  # units of the speaker's other utterance that the proxy synthesizes
F0_TOLERANCE = 0.05  # relative f0 error that counts as a match


@dataclass(frozen=True)
class TrainConfig:
    batch_tokens: int = 512
    total_steps: int = 1000
    warmup_steps: int = 100
    peak_lr: float = 1e-3
    weight_decay: float = 0.01
    seed: int = 0
    log_every: int = 50
    checkpoint_every: int = 0

    def __post_init__(self):
        if not 1 <= self.warmup_steps < self.total_steps:
            raise ValidationError("need 1 <= warmup_steps < total_steps")
        if self.batch_tokens < 1:
            raise ValidationError("train.batch_tokens must be >= 1")
        if self.peak_lr <= 0:
            raise ValidationError("train.peak_lr must be positive")
        if self.log_every < 1:
            raise ValidationError("train.log_every must be >= 1")
        if self.checkpoint_every < 0:
            raise ValidationError("train.checkpoint_every must be >= 0 (0: no step checkpoints)")
        if self.seed < 0:
            raise ValidationError("train.seed must be >= 0")


@dataclass(frozen=True)
class PromptSpec:
    mode: str
    enrolled_waveform: Waveform
    enrolled_text: str | None
    target_text: str

    def __post_init__(self):
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

    @classmethod
    def load(cls, path, kind: str):
        """The model of the checkpoint at `path`, which must be of `kind` ("ar"
        or "nar") and hold exactly the parameter blocks of its config."""
        cfg, params = lm_core.load_model(path, kind)
        layout = ar_model.ar_layout if kind == "ar" else nar_model.nar_layout
        shapes = {name: shape for name, (shape, _, _) in layout(cfg).items()}
        formats.check_blocks(path, params, shapes)
        return cls(params=params, cfg=cfg)


@dataclass
class TokenizedUtterance:
    record: UttRecord
    codes: np.ndarray  # (T, Q)
    frame_symbols: np.ndarray  # (T,) frontend ids

    @property
    def num_frames(self) -> int:
        return self.codes.shape[0]


def tokenize_record(record: UttRecord, cs: CodebookSet) -> TokenizedUtterance:
    cm = codec.encode(read_waveform(record.path), cs)
    ends = np.cumsum([u.duration for u in record.units])
    sym = np.array([u.symbol_id for u in record.units], dtype=np.int64)
    t = cm.num_frames
    frame_times = (np.arange(t) + 0.5) * cs.stride / cs.sample_rate
    idx = np.minimum(np.searchsorted(ends, frame_times), len(sym) - 1)
    return TokenizedUtterance(record=record, codes=cm.codes, frame_symbols=sym[idx])


def tokenize_split(corpus: CorpusData, cs: CodebookSet, split: str):
    """Every record of `split`, tokenized, in corpus order."""
    records = corpus.split_records(split)
    return [tokenize_record(r, cs) for r in records]


def crop_phonemes(tu: TokenizedUtterance, start: int, n: int):
    return frontend.dedup_consecutive(tu.frame_symbols[start : start + n].tolist())


def sample_ar_item(tu, frame_rate, rng):
    """A random crop of `CROP_SECONDS`: its phonemes and its stage-1 codes."""
    n = int(rng.uniform(*CROP_SECONDS) * frame_rate)
    n = max(1, min(n, tu.num_frames))
    start = int(rng.integers(0, tu.num_frames - n + 1))
    return crop_phonemes(tu, start, n), tu.codes[start : start + n, 0]


def _nar_prompt_len(frame_rate) -> int:
    return int(PROMPT_SECONDS * frame_rate)


def _nar_usable(items, frame_rate):
    """The items with room for a NAR prompt plus one target frame; the others
    are logged and skipped. Without any such item, a ValidationError."""
    need = _nar_prompt_len(frame_rate) + 1
    for tu in items:
        if tu.num_frames < need:
            log.warning("skipping %s: %d frames < prompt + 1 (%d)",
                        tu.record.utt_id, tu.num_frames, need)
    usable = [tu for tu in items if tu.num_frames >= need]
    if not usable:
        raise ValidationError(f"no utterance is longer than the NAR prompt ({need} frames)")
    return usable


def sample_nar_item(tu, frame_rate, rng):
    """Target crop of `CROP_SECONDS` plus a `PROMPT_SECONDS` prompt segment
    from the same utterance.

    The prompt is drawn disjoint from the target whenever the utterance has
    room for it; utterances shorter than prompt + 1 frame are rejected.
    """
    prompt_len = _nar_prompt_len(frame_rate)
    t = tu.num_frames
    if t < prompt_len + 1:
        raise ValidationError(
            f"utterance {tu.record.utt_id} has {t} frames, shorter than prompt + 1 "
            f"({prompt_len + 1})"
        )
    max_target = t - prompt_len  # leave room for a disjoint prompt when possible
    n = int(rng.uniform(*CROP_SECONDS) * frame_rate)
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
    if train_cfg.checkpoint_every and out_path is None:
        raise ValidationError("checkpoint_every needs an output path to name the step checkpoints")
    _check_dims(model_cfg, cs)
    if int(CROP_SECONDS[0] * cs.frame_rate) < 1:
        raise ValidationError(
            f"the {CROP_SECONDS[0]}s crop minimum is below one frame at {cs.frame_rate:g} Hz"
        )
    corpus = load_corpus(corpus_dir)
    items = tokenize_split(corpus, cs, "train")
    if not items:
        raise ValidationError("corpus has no training utterances")
    return items


def _draw_batch(items, sample, tokens_of, train_cfg, frame_rate, rng):
    """Items made by `sample` from utterances drawn uniformly from `items`,
    until they hold `train_cfg.batch_tokens` tokens as `tokens_of(*item)`
    counts them."""
    batch, tokens = [], 0
    while tokens < train_cfg.batch_tokens:
        tu = items[int(rng.integers(len(items)))]
        batch.append(sample(tu, frame_rate, rng))
        tokens += tokens_of(*batch[-1])
    return batch


def step_checkpoint_paths(out_path, train_cfg: TrainConfig) -> dict:
    """{step: path} of the step checkpoints a run writes, one every `checkpoint_every` steps."""
    every = train_cfg.checkpoint_every
    steps = range(every, train_cfg.total_steps + 1, every) if every else ()
    return {k: f"{out_path}.step{k}" for k in steps}


def _fit(kind, params, model_cfg, train_cfg, out_path, log_path, step_fn):
    """AdamW over `step_fn() -> (loss, grads, note)`, one call per step; `note`
    goes into the log line. Logs and keeps a (step, loss, lr) row every
    `log_every` steps and at the last, writes the step checkpoints, then the
    final checkpoint and the loss log; each checkpoint records its step."""
    state = lm_core.AdamWState()
    step_paths = step_checkpoint_paths(out_path, train_cfg)
    rows = []
    first_loss = None
    loss = float("nan")
    with np.errstate(over="ignore", invalid="ignore"):  # adamw_step reports a divergence
        for step in range(1, train_cfg.total_steps + 1):
            loss, grads, note = step_fn()
            lr = lm_core.adamw_step(params, grads, state, step, train_cfg)
            if first_loss is None:
                first_loss = loss
            if step % train_cfg.log_every == 0 or step == train_cfg.total_steps:
                rows.append((step, loss, lr))
                log.info("%s step %d%s loss %.4f lr %.3g", kind, step, note, loss, lr)
            if step in step_paths:
                lm_core.save_model(step_paths[step], kind, model_cfg, params,
                                   {"trained_steps": step})
    if out_path is not None:
        lm_core.save_model(out_path, kind, model_cfg, params,
                           {"trained_steps": train_cfg.total_steps})
    if log_path is not None:
        formats.write_loss_log(log_path, rows)
    return {"params": params, "cfg": model_cfg, "rows": rows,
            "first_loss": first_loss, "final_loss": loss}


def train_ar(corpus_dir, cs: CodebookSet, model_cfg: ModelConfig, train_cfg: TrainConfig,
             out_path=None, log_path=None):
    """Pure causal training over [phonemes, EOS, stage-1 codes] crops."""
    items = _train_common(corpus_dir, cs, model_cfg, train_cfg, out_path)
    rng_init = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 31]))
    rng_batch = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 37]))
    rng_drop = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 41]))
    params = ar_model.init_ar_params(model_cfg, rng_init)

    def step_fn():
        batch = _draw_batch(items, sample_ar_item, lambda phon, ac: len(ac) + 1,
                            train_cfg, cs.frame_rate, rng_batch)
        loss, grads, _ = ar_model.ar_loss(params, model_cfg, batch, rng=rng_drop)
        return loss, grads, ""

    return _fit("ar", params, model_cfg, train_cfg, out_path, log_path, step_fn)


def train_nar(corpus_dir, cs: CodebookSet, model_cfg: ModelConfig, train_cfg: TrainConfig,
              out_path=None, log_path=None):
    """Stage-conditioned training: one uniform stage in [2, Q] per step."""
    items = _nar_usable(_train_common(corpus_dir, cs, model_cfg, train_cfg, out_path),
                        cs.frame_rate)
    rng_init = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 43]))
    rng_batch = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 47]))
    rng_drop = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 53]))
    params = nar_model.init_nar_params(model_cfg, rng_init)
    stage_draws = []

    def step_fn():
        stage = nar_model.draw_stage(rng_batch, model_cfg.quantizers)
        batch = _draw_batch(items, sample_nar_item,
                            lambda phon, prompt, target: len(target) + len(prompt),
                            train_cfg, cs.frame_rate, rng_batch)
        loss, grads, _ = nar_model.nar_loss(params, model_cfg, batch, stage, rng=rng_drop)
        stage_draws.append(stage)
        return loss, grads, f" stage {stage}"

    summary = _fit("nar", params, model_cfg, train_cfg, out_path, log_path, step_fn)
    return {**summary, "stage_draws": stage_draws}


# -- inference -------------------------------------------------------------------

def continual_prompt(full_waveform: Waveform, text: str) -> PromptSpec:
    """Continual-mode prompt: the first `PROMPT_SECONDS` of the utterance
    whose transcription is `text`, which must be longer than that."""
    n = int(PROMPT_SECONDS * full_waveform.sample_rate)
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
    target = frontend.text_to_phonemes(spec.target_text)
    if spec.mode == "standard":
        return list(frontend.text_to_phonemes(spec.enrolled_text) + target)
    return list(target)


def synthesize(spec: PromptSpec, ar: ModelBundle, nar: ModelBundle, cs: CodebookSet,
               sampling: SamplingSpec) -> Waveform:
    """Text + enrolled audio -> waveform covering only the new content.

    AR consumes the stage-1 prompt codes as a prefix and samples stage-1
    target codes; NAR then fills stages 2..Q greedily, conditioned on the full
    Q-stage prompt matrix; the codec decodes the target codes alone. When the
    AR model emits the acoustic EOS first, or the prompt fills max_len, the
    waveform is empty and a warning says so.
    """
    _check_dims(ar.cfg, cs)
    _check_dims(nar.cfg, cs)
    phon = build_phoneme_prompt(spec)
    prompt_cm = codec.encode(spec.enrolled_waveform, cs)
    first = ar_model.ar_generate(ar.params, ar.cfg, phon, prompt_cm.codes[:, 0], sampling)
    if first.size == 0:
        log.warning("the AR model generated no code (acoustic EOS first, or the prompt"
                    " fills max_len): the synthesis is empty")
        return Waveform(samples=np.zeros(0), sample_rate=cs.sample_rate)
    codes = nar_model.nar_generate_all(nar.params, nar.cfg, phon, prompt_cm.codes, first)
    return codec.decode(CodeMatrix(codes=codes, codebook_size=cs.codebook_size), cs)


# -- evaluation ------------------------------------------------------------------

def _teacher_forced_ar_accuracy(items, ar: ModelBundle, cs, rng):
    hits = total = 0
    for tu in items:
        for _ in range(AR_CROPS_PER_UTT):
            phon, ac = sample_ar_item(tu, cs.frame_rate, rng)
            logits = ar_model.ar_forward(ar.params, ar.cfg, phon, ac)
            targets = np.concatenate([ac, [ar.cfg.acoustic_eos]])
            hits += int((np.argmax(logits, axis=-1) == targets).sum())
            total += targets.size
    return hits / total if total else float("nan")


def _nar_stage_accuracy(items, nar: ModelBundle, cs, rng):
    """Greedy NAR accuracy of each live stage in 2..Q; zero-book stages are logged."""
    live = cs.live_stages
    dead = [j for j in range(2, cs.quantizers + 1) if j not in live]
    if dead:
        log.info("no NAR accuracy for stages %s: their codebooks are all zero", dead)
    per_stage = {j: [0, 0] for j in live if j >= 2}
    for tu in items:
        phon, prompt, target = sample_nar_item(tu, cs.frame_rate, rng)
        for stage in per_stage:
            logits = nar_model.nar_forward(
                nar.params, nar.cfg, phon, prompt, target[:, : stage - 1], stage
            )
            pred = np.argmax(logits, axis=-1)
            per_stage[stage][0] += int((pred == target[:, stage - 1]).sum())
            per_stage[stage][1] += target.shape[0]
    return {j: h / t for j, (h, t) in per_stage.items()}


def _codec_snr_by_stages(items, cs):
    """Mean SNR (capped at 120 dB) of each tokenized utterance's audio against
    its tokens decoded from their first j stages, for j = 1..Q."""
    vals = {j: [] for j in range(1, cs.quantizers + 1)}
    for tu in items:
        wav = read_waveform(tu.record.path)
        cm = CodeMatrix(codes=tu.codes, codebook_size=cs.codebook_size)
        for j, snrs in vals.items():
            recon = codec.decode(cm, cs, stages=j)
            ref = Waveform(samples=wav.samples[: recon.samples.size], sample_rate=wav.sample_rate)
            snrs.append(min(codec.reconstruction_snr(ref, recon), 120.0))
    return {j: float(np.mean(v)) if v else float("nan") for j, v in vals.items()}


def _enrolled_from_prefix(record: UttRecord):
    """First PROMPT_SECONDS of an utterance's audio plus the transcription
    of that window."""
    wav = read_waveform(record.path)
    n = int(PROMPT_SECONDS * wav.sample_rate)
    n = min(n, wav.samples.size)
    ends = np.cumsum([u.duration for u in record.units])
    k = int(np.searchsorted(ends, PROMPT_SECONDS)) + 1
    text = "".join(frontend.ID_TO_SYMBOL[u.symbol_id] for u in record.units[:k])
    return Waveform(samples=wav.samples[:n], sample_rate=wav.sample_rate), text


def speaker_f0_match(corpus: CorpusData, cs, ar: ModelBundle, nar: ModelBundle, *,
                     split: str, seeds, sampling: SamplingSpec):
    """Zero-shot speaker proxy: fraction of voiced frames of the synthesized
    audio whose autocorrelation f0 is within F0_TOLERANCE of the prompt
    speaker's true f0, averaged over `seeds` (each replacing `sampling`'s
    seed), per speaker of `split`."""
    by_speaker = {}
    records = corpus.split_records(split)
    speakers = sorted({r.speaker_id for r in records})
    for sid in speakers:
        spk_records = [r for r in records if r.speaker_id == sid]
        enroll_rec = spk_records[0]
        target_rec = spk_records[1] if len(spk_records) > 1 else spk_records[0]
        enrolled_wav, enrolled_text = _enrolled_from_prefix(enroll_rec)
        target_ids = frontend.dedup_consecutive(
            [u.symbol_id for u in target_rec.units[:N_TARGET_SYMBOLS]]
        )
        target_text = "".join(frontend.ID_TO_SYMBOL[i] for i in target_ids)
        spec = PromptSpec(
            mode="standard",
            enrolled_waveform=enrolled_wav,
            enrolled_text=enrolled_text,
            target_text=target_text,
        )
        true_f0 = corpus.speakers[sid].f0
        fracs = []
        for seed in seeds:
            s = replace(sampling, seed=int(seed))
            wav = synthesize(spec, ar, nar, cs, s)
            f0s, voiced = frame_f0(wav.samples, cs.sample_rate)
            if voiced.any():
                ok = np.abs(f0s[voiced] - true_f0) <= F0_TOLERANCE * true_f0
                fracs.append(float(ok.mean()))
            else:
                fracs.append(0.0)
        by_speaker[sid] = float(np.mean(fracs))
    return by_speaker


def evaluate(corpus_dir, cs: CodebookSet, ar: ModelBundle, nar: ModelBundle, *,
             split: str, seeds, sampling: SamplingSpec):
    """Metric rows on `split`: teacher-forced AR accuracy and NAR per-stage
    accuracy (with ground-truth lower stages; no row for a stage with a zero
    book) on crops of `CROP_SECONDS` drawn from `EVAL_SEED`, codec SNR by
    stage count, and the zero-shot speaker-f0 proxy over `seeds` with
    `sampling`; no seeds, no proxy rows.
    The split is tokenized once, and every row but the proxy reads those
    tokens. Returns a list of (metric, split, value) rows."""
    seeds = list(seeds)
    corpus = load_corpus(corpus_dir)
    items = tokenize_split(corpus, cs, split)
    if not items:
        raise ValidationError(f"split {split!r} is empty")
    nar_items = _nar_usable(items, cs.frame_rate)
    rng = np.random.default_rng(np.random.SeedSequence([EVAL_SEED, 61]))
    rows = [
        ("ar_teacher_forced_accuracy", split,
         _teacher_forced_ar_accuracy(items, ar, cs, rng)),
    ]
    for stage, acc in _nar_stage_accuracy(nar_items, nar, cs, rng).items():
        rows.append((f"nar_stage{stage}_accuracy", split, acc))
    for j, snr in _codec_snr_by_stages(items, cs).items():
        rows.append((f"codec_snr_stages_{j}", split, snr))
    if seeds:
        by_speaker = speaker_f0_match(
            corpus, cs, ar, nar, split=split, seeds=seeds, sampling=sampling,
        )
        for sid, frac in sorted(by_speaker.items()):
            rows.append((f"speaker_f0_match_spk{sid}", split, frac))
        rows.append(
            ("speaker_f0_match", split, float(np.mean(list(by_speaker.values()))))
        )
    return rows
