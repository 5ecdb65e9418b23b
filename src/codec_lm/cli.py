"""Command-line surface.

Every command is a thin wrapper over one pipeline/module operation. Logs go
to stderr; artifacts and reports go to files (inspect prints its dump to
stdout, the dump being the artifact). Existing outputs are never overwritten
without --force. A --seed flag routes one seed into every stochastic
component of the command; `eval --seed` changes no row (its crops use
`pipeline.EVAL_SEED`, its syntheses seeds 0..--seeds-1). Each rule is checked
once: argparse refuses a missing flag, the built values refuse the rest.
"""

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import codec, config, corpus, formats, pipeline
from .errors import ConfigError, OptimizerError, UsageError, ValidationError

log = logging.getLogger("codec_lm.cli")


def _load_run_config(args) -> config.RunConfig:
    cfg = config.parse_config_file(args.config) if args.config else config.RunConfig.defaults()
    cfg = config.apply_overrides(cfg, args.set or [])
    if args.seed is not None:
        cfg.set_seed(args.seed)
    return cfg


def _guard_out(path, force: bool):
    """`path`, unless it exists and `force` is off. Nothing is created: the
    writer makes the missing parent directories when the output is written."""
    path = Path(path)
    if path.exists() and not force:
        raise UsageError(f"output {path} already exists; pass --force to overwrite")
    return path


def _add_common(p):
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--seed", type=int, help="seed for every stochastic component")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                   help="override one config value (repeatable)")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")


def _load_train_split_waveforms(corpus_dir):
    data = corpus.load_corpus(corpus_dir)
    waves = [corpus.read_waveform(rec.path) for rec in data.split_records("train")]
    if not waves:
        raise ValidationError("corpus has no training utterances")
    return waves


def cmd_gen_corpus(args) -> int:
    run = _load_run_config(args)
    out = Path(args.out)
    if (out / "manifest.tsv").exists() and not args.force:
        raise UsageError(f"corpus manifest {out / 'manifest.tsv'} exists; pass --force")
    manifest = corpus.build_corpus(run.build("corpus", out_dir=out))
    log.info("manifest: %s", manifest)
    return 0


def cmd_train_codec(args) -> int:
    run = _load_run_config(args)
    out = _guard_out(args.out, args.force)
    cfg = run.build("codec")  # refused here, before the corpus is read
    waves = _load_train_split_waveforms(args.corpus)
    cs = codec.train_codebooks(waves, replace(cfg, sample_rate=waves[0].sample_rate))
    cs.save(out)
    log.info("codebooks written to %s", out)
    return 0


def _train_lm(args) -> int:
    run = _load_run_config(args)
    out = _guard_out(args.out, args.force)
    log_path = _guard_out(args.log or f"{out}.log", args.force)
    train_cfg = run.build("train")
    for path in pipeline.step_checkpoint_paths(out, train_cfg).values():
        _guard_out(path, args.force)
    cs = codec.CodebookSet.load(args.codec)
    model_cfg = run.build("model", codebook_size=cs.codebook_size, quantizers=cs.quantizers)
    trainer = pipeline.train_ar if args.kind == "ar" else pipeline.train_nar
    summary = trainer(args.corpus, cs, model_cfg, train_cfg, out_path=out, log_path=log_path)
    log.info("%s training done: loss %.4f -> %.4f", args.kind,
             summary["first_loss"], summary["final_loss"])
    return 0


def cmd_synthesize(args) -> int:
    run = _load_run_config(args)
    out = _guard_out(args.out, args.force)
    enrolled = corpus.read_waveform(args.enrolled_audio)
    if args.mode == "continual":
        spec = pipeline.continual_prompt(enrolled, args.text)
    else:
        spec = pipeline.PromptSpec(
            mode="standard",
            enrolled_waveform=enrolled,
            enrolled_text=args.enrolled_text,
            target_text=args.text,
        )
    cs = codec.CodebookSet.load(args.codec)
    ar = pipeline.ModelBundle.load(args.ar, "ar")
    nar = pipeline.ModelBundle.load(args.nar, "nar")
    sampling = run.build("sampling")
    wav = pipeline.synthesize(spec, ar, nar, cs, sampling)
    formats.write_audio(out, wav.samples, cs.sample_rate)
    log.info("wrote %d samples (%.2fs) to %s", wav.samples.size, wav.duration, out)
    return 0


def cmd_eval(args) -> int:
    if args.seeds < 0:
        raise UsageError("--seeds must be >= 0")
    run = _load_run_config(args)
    out = _guard_out(args.out, args.force)
    cs = codec.CodebookSet.load(args.codec)
    ar = pipeline.ModelBundle.load(args.ar, "ar")
    nar = pipeline.ModelBundle.load(args.nar, "nar")
    rows = pipeline.evaluate(
        args.corpus, cs, ar, nar,
        split=args.split,
        seeds=range(args.seeds),
        sampling=run.build("sampling"),
    )
    formats.write_report(out, rows)
    for metric, split, value in rows:
        log.info("%s\t%s\t%.6f", metric, split, value)
    return 0


def cmd_inspect(args) -> int:
    print(formats.describe_file(args.path))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codec-lm",
        description="Desk-scale conditional codec language modeling for zero-shot TTS",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate the synthetic corpus")
    _add_common(p)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("train-codec", help="fit RVQ codebooks on the train split")
    _add_common(p)
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.set_defaults(func=cmd_train_codec)

    for kind in ("ar", "nar"):
        p = sub.add_parser(f"train-{kind}", help=f"train the {kind.upper()} model")
        _add_common(p)
        p.add_argument("--corpus", required=True)
        p.add_argument("--codec", required=True, help="codebook file (train-codec output)")
        p.add_argument("--log", help="loss log path (default: <out>.log)")
        p.set_defaults(func=_train_lm, kind=kind)

    p = sub.add_parser("synthesize", help="text + enrolled audio -> waveform")
    _add_common(p)
    p.add_argument("--ar", required=True, help="AR checkpoint")
    p.add_argument("--nar", required=True, help="NAR checkpoint")
    p.add_argument("--codec", required=True)
    p.add_argument("--text", required=True, help="target text")
    p.add_argument("--mode", choices=("standard", "continual"), default="standard")
    p.add_argument("--enrolled-audio", required=True,
                   help="the enrolled recording (continual mode: the whole utterance)")
    p.add_argument("--enrolled-text", help="its transcription (standard mode)")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("eval", help="write the evaluation report")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--codec", required=True)
    p.add_argument("--ar", required=True)
    p.add_argument("--nar", required=True)
    p.add_argument("--split", default="eval")
    p.add_argument("--seeds", type=int, default=10,
                   help="synthesis seeds per speaker (0: no synthesis proxy)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="dump any audio, codebook or checkpoint file")
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    except ValidationError as exc:  # UsageError is one too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, OptimizerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
