"""codec-lm benchmark: fit a codec, train the AR and NAR models, synthesize.

    python3 perfbench/run.py --workload lloyd2 --seed 1 --seconds 45 --trace 0

Every workload runs the user's whole path in one process, on a corpus made
from `--seed`. Set-up generates the corpus. The measured part repeats a cycle
of operations (see Runner) until `--seconds` have elapsed, after at least one
whole cycle. Each metric is the median over the operations that measure it,
so a slow spell of a shared host that covers less than half the run does not
move it.

The last stdout line is one JSON object {correct, attempted, failed, metrics}.
With `--trace 0` the metrics are the end-to-end ones. With `--trace 1` one
cycle runs untraced and one traced (see tracing.py); the metrics are the
per-layer ones plus the tracing overhead. The line before it holds the host,
the failed checks, the skipped trace targets and, when traced, each
operation's time shares by layer. The exit code is 0 only when every
operation ran and passed its output check.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# One BLAS thread and one corpus worker unless the caller says otherwise: on a
# 2-core host a second thread buys about 8% on the codec fit, and it makes every
# timing depend on what else runs on the other core. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "CODEC_LM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import codec_lm  # noqa: E402

if Path(codec_lm.__file__).resolve().parent != SRC / "codec_lm":
    raise ImportError(f"codec_lm must come from {SRC}, not {codec_lm.__file__}")

from codec_lm import (  # noqa: E402
    _kernels, ar_model, codec, corpus, formats, frontend, lm_core, nar_model, pipeline,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer  # noqa: E402

# Both workloads use the default codec size (K=256, Q=8, so the default model
# heads and a 7-stage NAR fill) and no pitch augment; they differ only in the
# number of Lloyd iterations. With 2, the codec the LM set-up of a desk run
# fits, the k-means++ init weighs most in fitting. With 20, the default, the
# Lloyd passes (`_kernels`) weigh about as much again.
WORKLOADS = {
    "lloyd2": dict(kmeans_iters=2, pitch_augment=0.0),
    "lloyd20": dict(kmeans_iters=20, pitch_augment=0.0),
}

TOP_P = 0.9
TEMPERATURE = 1.0
LOSS_TAIL = 10  # steps
AR_LOSS_HEAD = 5  # steps
AR_LOSS_SLACK = 0.75  # nats; see Runner.train


@dataclass(frozen=True)
class Size:
    corpus: dict = field(default_factory=dict)  # CorpusConfig overrides
    codec: dict = field(default_factory=dict)  # CodecConfig overrides on the workload's
    model: dict = field(default_factory=dict)  # ModelConfig overrides
    train: dict = field(
        default_factory=lambda: dict(total_steps=15, warmup_steps=5, batch_tokens=512)
    )
    prompt_frames: int = 300  # 3 s at 100 frames/s
    synth_frames: int = 300
    setup_repeats: int = 5


FULL = Size()
# Sizes for the smoke tests: seconds per workload instead of tens of seconds.
TOY = Size(
    corpus=dict(speakers=4, held_out_speakers=2, duration_min=3.2, duration_max=3.6),
    codec=dict(codebook_size=16, quantizers=3),
    model=dict(layers=2),
    train=dict(total_steps=3, warmup_steps=1, batch_tokens=256),
    prompt_frames=30,
    synth_frames=30,
    setup_repeats=1,
)

END_TO_END = (
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("codec_fit_s", "s", "lower"),
    ("codec_snr_db", "dB", "higher"),
    ("ar_train_steps_per_s", "1/s", "higher"),
    ("nar_train_steps_per_s", "1/s", "higher"),
    ("ar_train_loss", "nat", "lower"),
    ("nar_train_loss", "nat", "lower"),
    ("synth_rtf", "ratio", "lower"),
    ("ar_prefill_ms", "ms", "lower"),
    ("ar_decode_ms_p50", "ms", "lower"),
    ("ar_decode_ms_p90", "ms", "lower"),
    ("nar_fill_ms", "ms", "lower"),
)


# -- set-up -------------------------------------------------------------------------

@dataclass
class Pair:
    """One synthesis: prompt from one utterance, target from the speaker's other."""

    prompt_wave: corpus.Waveform
    prompt_text: str
    target_wave: corpus.Waveform  # the target utterance's first synth_frames
    target_text: str


@dataclass
class Inputs:
    corpus_dir: Path
    train_waves: list
    eval_waves: list
    fresh_waves: list  # a new utterance of each train speaker, unseen in fitting
    pairs: list


def _read(record):
    samples, sr = formats.read_audio(record.path)
    return corpus.Waveform(samples=samples, sample_rate=sr)


def _prefix(record, wave, frames, stride):
    """The first `frames` codec frames of an utterance and their transcription."""
    n = frames * stride
    if wave.samples.size < n:
        raise ValueError(f"{record.utt_id} is shorter than {frames} frames")
    seconds = n / wave.sample_rate
    text, start = "", 0.0
    for unit in record.units:
        if start >= seconds:
            break
        text += frontend.ID_TO_SYMBOL[unit.symbol_id]
        start += unit.duration
    return corpus.Waveform(samples=wave.samples[:n], sample_rate=wave.sample_rate), text


def setup(out_dir: Path, seed: int, size: Size) -> Inputs:
    """Generate the corpus and pick the syntheses: every held-out speaker in
    both utterance orders, in an order drawn from the seed."""
    cfg = corpus.CorpusConfig(out_dir=out_dir, seed=seed, **size.corpus)
    corpus.build_corpus(cfg)
    data = pipeline.load_corpus(out_dir)
    stride = codec.CodecConfig().stride
    eval_records = data.split_records("eval")
    pairs = []
    for sid in sorted({r.speaker_id for r in eval_records}):
        a, b = [r for r in eval_records if r.speaker_id == sid][:2]
        for p, t in ((a, b), (b, a)):
            pw, ptext = _prefix(p, _read(p), size.prompt_frames, stride)
            tw, ttext = _prefix(t, _read(t), size.synth_frames, stride)
            pairs.append(Pair(pw, ptext, tw, ttext))
    order = np.random.default_rng(np.random.SeedSequence([seed, 71])).permutation(len(pairs))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 83]))
    fresh = [
        corpus.generate_utterance(spec, corpus.make_content(cfg, rng), cfg.sample_rate,
                                  int(rng.integers(2**31))).waveform
        for spec in corpus.make_speakers(cfg)
        if spec.speaker_id < cfg.speakers - cfg.held_out_speakers
    ]
    return Inputs(
        corpus_dir=out_dir,
        train_waves=[_read(r) for r in data.split_records("train")],
        eval_waves=[_read(r) for r in eval_records],
        fresh_waves=fresh,
        pairs=[pairs[i] for i in order],
    )


# -- the measured operations -----------------------------------------------------------

class Checks(list):
    """The failed output checks of one operation."""

    def __call__(self, ok, message):
        if not ok:
            self.append(message)


def _same(a, b):
    """Exact equality of nested dicts / lists / arrays."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return np.array_equal(a, b)


def _snr_db(waves, cs, stages):
    vals = []
    for wave in waves:
        recon = codec.decode(codec.encode(wave, cs), cs, stages=stages)
        ref = corpus.Waveform(wave.samples[: recon.samples.size], wave.sample_rate)
        vals.append(min(codec.reconstruction_snr(ref, recon), 120.0))
    return float(np.mean(vals))


def _synthesize(pair, cs, model_cfg, ar_params, nar_params, rng):
    """One forced-length synthesis; returns (codes, waveform, timings)."""
    ref = codec.encode(pair.target_wave, cs).codes[:, 0]
    t_start = time.perf_counter()
    prompt = codec.encode(pair.prompt_wave, cs)
    spec = pipeline.PromptSpec(
        mode="standard",
        enrolled_waveform=pair.prompt_wave,
        enrolled_text=pair.prompt_text,
        target_text=pair.target_text,
    )
    phon = pipeline.build_phoneme_prompt(spec)
    t0 = time.perf_counter()
    decoder = ar_model.ArDecoder(ar_params, model_cfg, phon, prompt.codes[:, 0])
    prefill_s = time.perf_counter() - t0
    steps = np.empty(ref.size)
    for i, tok in enumerate(ref):
        t0 = time.perf_counter()
        lm_core.nucleus_sample(decoder.next_logits(), TEMPERATURE, TOP_P, rng)
        decoder.push(int(tok))
        steps[i] = time.perf_counter() - t0
    t0 = time.perf_counter()
    codes = nar_model.nar_generate_all(nar_params, model_cfg, phon, prompt.codes, ref)
    nar_s = time.perf_counter() - t0
    wave = codec.decode(codec.CodeMatrix(codes=codes, codebook_size=cs.codebook_size), cs)
    total_s = time.perf_counter() - t_start
    return codes, wave, (total_s, prefill_s, steps, nar_s)


class Runner:
    """Runs cycles of a workload's operations and keeps their timings.

    A cycle is: fit the codec, synthesize, train the AR model, synthesize,
    train the NAR model, then synthesize the remaining pairs, one synthesis
    per pair. Each cycle starts afresh: a synthesis uses the models this cycle
    has trained so far and the seeded fresh models otherwise, so every cycle
    does the same work and must give the same outputs. Teacher forcing makes a
    synthesis cost the same whatever the weights.

    An operation fails if it raises or fails its check, or if its output
    differs from the same operation's in the first cycle. When one raises, the
    rest of its cycle needs its output, so it is counted failed and not run.
    """

    def __init__(self, inp: Inputs, seed: int, workload: str, size: Size):
        self.inp, self.size = inp, size
        self.codec_cfg = codec.CodecConfig(seed=seed, **{**WORKLOADS[workload], **size.codec})
        self.model_cfg = lm_core.ModelConfig(
            codebook_size=self.codec_cfg.codebook_size,
            quantizers=self.codec_cfg.quantizers,
            **size.model,
        )
        self.train_cfg = pipeline.TrainConfig(log_every=1, seed=seed, **size.train)
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 73]))
        init = np.random.default_rng(np.random.SeedSequence([seed, 89]))
        self.fresh = {"ar": ar_model.init_ar_params(self.model_cfg, init),
                      "nar": nar_model.init_nar_params(self.model_cfg, init)}
        self.probe = None  # traced: () -> {layer: self seconds so far}
        self.samples = {}  # metric -> values, one per operation run
        self.step_ms = []  # every decode step of every synthesis
        self.first = {}  # operation -> its output in the first cycle
        self.attempted = 0
        self.runs = {}  # operation kind -> times run
        self.failures = []
        self.shares = {}  # operation -> {layer: share of its wall time}

    def ops(self):
        pairs = range(len(self.inp.pairs))
        return [("codec_fit", self.fit, None), ("synth[0]", self.synth, 0),
                ("ar_train", self.train, "ar"), ("synth[1]", self.synth, 1),
                ("nar_train", self.train, "nar"),
                *((f"synth[{k}]", self.synth, k) for k in pairs[2:])]

    def run_cycle(self, until=None):
        """Runs one cycle, or stops after the operation that ends at `until`."""
        state = {}
        ops = self.ops()
        for i, (name, fn, arg) in enumerate(ops):
            if not self.attempt(name, fn, state, arg):
                self.attempted += len(ops) - i - 1
                self.failures += [f"{n}: not run, {name} raised" for n, _, _ in ops[i + 1:]]
                return
            if until is not None and time.perf_counter() >= until:
                return

    def attempt(self, name, fn, state, arg):
        self.attempted += 1
        kind = name.split("[")[0]
        self.runs[kind] = self.runs.get(kind, 0) + 1
        check = Checks()
        before = self.probe() if self.probe else None
        t0 = time.perf_counter()
        try:
            out = fn(check, state, arg)
        except Exception as exc:  # a failed operation is reported, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return False
        wall = time.perf_counter() - t0
        if before is not None:
            after = self.probe()
            self.shares[name] = {k: round((after[k] - before[k]) / wall, 3)
                                 for k in after if after[k] - before[k] >= 0.001 * wall}
        if name in self.first:
            check(_same(out, self.first[name]), "output differs from the first cycle's")
        else:
            self.first[name] = out
        if check:
            self.failures.append(f"{name}: " + "; ".join(check))
        return True

    def _sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def fit(self, check, state, _):
        """Fit the codec. The reported SNR is over new utterances of the train
        speakers: the eval split has only two voices, so its SNR swings with
        the seed by more than any bound could allow; it is still checked."""
        t0 = time.perf_counter()
        cs = codec.train_codebooks(self.inp.train_waves, self.codec_cfg)
        self._sample("codec_fit_s", time.perf_counter() - t0)
        state["cs"] = cs
        try:
            cs.validate()
        except codec_lm.ValidationError as exc:
            check(False, f"codebooks: {exc}")
        if "codec_snr_db" not in self.samples:  # later fits must equal this one
            snr_1, snr_q = (_snr_db(self.inp.eval_waves, cs, j) for j in (1, cs.quantizers))
            check(snr_q >= snr_1,
                  f"eval SNR fell from {snr_1:.3f} dB at 1 stage to {snr_q:.3f} dB")
            self._sample("codec_snr_db", _snr_db(self.inp.fresh_waves, cs, cs.quantizers))
        return cs.books

    def train(self, check, state, kind):
        """Train one model. Its loss metric is the mean over all steps: single
        steps differ by up to 2 nats with the batch and the NAR stage drawn,
        so a mean over the last few swings with the seed.

        The NAR loss must fall: the mean of the last steps is below the first.
        The AR model moves little in 15 steps, and its single steps spread by
        about 0.45 nats with the batch, so the mean of its last 10 steps must
        only stay below the larger of the mean of its first 5 and the loss of
        the code marginal, ln(K+1) over K codes and EOS, plus AR_LOSS_SLACK:
        three standard deviations of the difference of those two means. Both
        checks need the two spans not to overlap."""
        trainer = pipeline.train_ar if kind == "ar" else pipeline.train_nar
        t0 = time.perf_counter()
        out = trainer(self.inp.corpus_dir, state["cs"], self.model_cfg, self.train_cfg)
        self._sample(f"{kind}_train_s", time.perf_counter() - t0)
        state[kind] = out["params"]
        losses = [row[1] for row in out["rows"]]
        steps = self.train_cfg.total_steps
        check(len(losses) == steps, f"{len(losses)} loss rows, expected {steps}")
        check(all(math.isfinite(x) for x in losses), "non-finite loss")
        if len(losses) == steps and steps >= LOSS_TAIL + AR_LOSS_HEAD:
            tail = float(np.mean(losses[-LOSS_TAIL:]))
            if kind == "ar":
                head = float(np.mean(losses[:AR_LOSS_HEAD]))
                limit = max(head, math.log(self.model_cfg.codebook_size + 1)) + AR_LOSS_SLACK
                check(tail <= limit, f"last-steps loss {tail:.4f} > {limit:.4f}")
            else:
                check(tail < losses[0], f"last-steps loss {tail:.4f} >= first {losses[0]:.4f}")
        if len(losses) == steps:
            self._sample(f"{kind}_train_loss", float(np.mean(losses)))
        return {"params": out["params"], "losses": losses}

    def synth(self, check, state, k):
        cs = state["cs"]
        ar, nar = (state.get(kind, self.fresh[kind]) for kind in ("ar", "nar"))
        codes, wave, (total_s, prefill_s, steps, nar_s) = _synthesize(
            self.inp.pairs[k], cs, self.model_cfg, ar, nar, self.rng)
        frames = self.size.synth_frames
        self._sample("synth_rtf", total_s / (frames / self.codec_cfg.frame_rate))
        self._sample("ar_prefill_ms", 1e3 * prefill_s)
        self._sample("nar_fill_ms", 1e3 * nar_s)
        self.step_ms.extend(1e3 * steps)
        shape = (frames, cs.quantizers)
        check(codes.shape == shape, f"codes shape {codes.shape}, expected {shape}")
        check(codes.min() >= 0 and codes.max() < cs.codebook_size, "code out of [0, K)")
        n = frames * cs.stride
        check(wave.samples.shape == (n,), f"waveform has {wave.samples.size} samples, not {n}")
        check(bool(np.all(np.isfinite(wave.samples))), "non-finite waveform sample")
        check(bool(np.all(np.abs(wave.samples) <= 1.0)), "waveform sample outside [-1, 1]")
        return codes

    def metrics(self):
        """End-to-end values measured so far (all but set-up and memory):
        medians over the operations run, and decode-step percentiles over
        every step."""
        vals = {name: statistics.median(v) for name, v in self.samples.items()}
        for kind in ("ar", "nar"):
            if f"{kind}_train_s" in vals:
                vals[f"{kind}_train_steps_per_s"] = (
                    self.train_cfg.total_steps / vals.pop(f"{kind}_train_s"))
        if self.step_ms:
            vals["ar_decode_ms_p50"] = float(np.percentile(self.step_ms, 50))
            vals["ar_decode_ms_p90"] = float(np.percentile(self.step_ms, 90))
        return vals


# -- host -------------------------------------------------------------------------------

def _git_commit(root: Path):
    if not (root / ".git").exists():  # a plain copy of the tree: no commit to report
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def host_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "CODEC_LM_THREADS")},
        "kernel_backend": getattr(_kernels, "BACKEND", None),
        "commit": _git_commit(ROOT),
    }


# -- entry point ------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: Size = FULL,
                 work_root: Path = ROOT / ".bench_work"):
    """Returns (result, detail): the result line and the context line before it."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    work = work_root / f"{workload}-{seed}-{os.getpid()}"
    try:
        setup_times = []
        for i in range(size.setup_repeats):
            t0 = time.perf_counter()
            inp = setup(work / f"corpus{i}", seed, size)
            setup_times.append(time.perf_counter() - t0)
        t_start = time.perf_counter()
        skipped = []
        runner = Runner(inp, seed, workload, size)
        runner.run_cycle()
        if trace:
            tracer = Tracer()
            if not runner.failures:  # the first cycle is untraced; the traced one must match it
                skipped = tracer.install()
                runner.probe = tracer.self_times
                try:
                    runner.run_cycle()
                finally:
                    tracer.uninstall()
            metrics = tracer.metrics(tracer.overhead_s())
        else:
            while not runner.failures and time.perf_counter() - t_start < seconds:
                runner.run_cycle(until=t_start + seconds)
            vals = runner.metrics()
            vals["setup_s"] = statistics.median(setup_times)
            vals["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {name: (vals[name], unit) for name, unit, _ in END_TO_END if name in vals}
        measured_s = time.perf_counter() - t_start
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "measured_s": measured_s,
        "operations": runner.runs,
        "failed_frac": len(runner.failures) / runner.attempted,
        "failures": runner.failures,
        "skipped_trace_targets": skipped,
        "time_shares": runner.shares,
        "setup_s_each": setup_times,
        "host": host_info(),
    }
    return result, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="cycles repeat until this much time has been measured")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
