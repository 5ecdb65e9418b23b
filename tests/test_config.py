import dataclasses

import numpy as np
import pytest

from codec_lm import config
from codec_lm.ar_model import SamplingSpec
from codec_lm.codec import CodecConfig
from codec_lm.corpus import ContentUnit, CorpusConfig, SpeakerSpec, Waveform
from codec_lm.errors import ConfigError, ValidationError
from codec_lm.lm_core import ModelConfig
from codec_lm.pipeline import PromptSpec, TrainConfig

# The file keys as they were written out by hand, section -> key -> (type,
# default). The schema must keep exactly these keys, types and defaults.
ORACLE = {
    "corpus": {
        "speakers": (int, 10),
        "held_out": (int, 2),
        "utterances_per_speaker": (int, 2),
        "duration_min": (float, 4.0),
        "duration_max": (float, 6.0),
        "sample_rate": (int, 8000),
        "seed": (int, 0),
    },
    "codec": {
        "stride": (int, 80),
        "quantizers": (int, 8),
        "codebook_size": (int, 256),
        "kmeans_iters": (int, 2),
        "pitch_augment": (float, 0.02),
        "seed": (int, 0),
    },
    "model": {
        "layers": (int, 4),
        "heads": (int, 4),
        "embed_dim": (int, 128),
        "ffn_dim": (int, 512),
        "dropout": (float, 0.1),
        "max_len": (int, 4096),
    },
    "train": {
        "batch_tokens": (int, 512),
        "total_steps": (int, 1000),
        "warmup_steps": (int, 100),
        "peak_lr": (float, 1e-3),
        "weight_decay": (float, 0.01),
        "seed": (int, 0),
        "log_every": (int, 50),
        "checkpoint_every": (int, 0),
    },
    "sampling": {
        "temperature": (float, 1.0),
        "top_p": (float, 0.9),
        "max_new_tokens": (int, 600),
        "seed": (int, 0),
    },
}

SEEDED = ("corpus", "codec", "train", "sampling")

# A valid value for every file key, unequal to every default of its section,
# so that a key which lands on another field, or on none, is seen.
NEW_VALUES = {
    "corpus": {
        "speakers": 9, "held_out": 3, "utterances_per_speaker": 5, "duration_min": 4.5,
        "duration_max": 6.5, "sample_rate": 16000, "seed": 7,
    },
    "codec": {
        "stride": 160, "quantizers": 4, "codebook_size": 512, "kmeans_iters": 3,
        "pitch_augment": 0.05, "seed": 7,
    },
    "model": {
        "layers": 2, "heads": 8, "embed_dim": 64, "ffn_dim": 256, "dropout": 0.2,
        "max_len": 2048,
    },
    "train": {
        "batch_tokens": 256, "total_steps": 400, "warmup_steps": 40, "peak_lr": 2e-3,
        "weight_decay": 0.05, "seed": 7, "log_every": 10, "checkpoint_every": 20,
    },
    "sampling": {"temperature": 0.7, "top_p": 0.5, "max_new_tokens": 300, "seed": 7},
}


def _build_all(run, out_dir="corpus_out", codebook_size=16, quantizers=3):
    return {
        "corpus": run.build("corpus", out_dir=out_dir),
        "codec": run.build("codec", sample_rate=8000),
        "model": run.build("model", codebook_size=codebook_size, quantizers=quantizers),
        "train": run.build("train"),
        "sampling": run.build("sampling"),
    }


def test_schema_matches_oracle():
    derived = {
        sec: {key: tuple(entry[:2]) for key, entry in keys.items()}
        for sec, keys in config.SCHEMA.items()
    }
    assert derived == ORACLE
    for sec, keys in config.SCHEMA.items():
        for key, entry in keys.items():
            assert type(entry[1]) is entry[0], f"[{sec}] {key}"


def test_defaults_hold_schema_defaults():
    run = config.RunConfig.defaults()
    assert run.sections == {
        sec: {key: default for key, (_, default) in keys.items()}
        for sec, keys in ORACLE.items()
    }


def test_defaults_build_default_dataclasses():
    built = _build_all(config.RunConfig.defaults(), out_dir="c", codebook_size=16, quantizers=3)
    assert built == {
        "corpus": CorpusConfig(out_dir="c"),
        "codec": CodecConfig(),
        "model": ModelConfig(codebook_size=16, quantizers=3),
        "train": TrainConfig(),
        "sampling": SamplingSpec(),
    }


def test_every_file_key_reaches_its_field():
    """Each key set in a file lands in the built dataclass, under its own
    name or under the field it is an alias of."""
    lines = []
    for sec, keys in ORACLE.items():
        assert NEW_VALUES[sec].keys() == keys.keys()
        defaults = [default for _, default in keys.values()]
        lines.append(f"[{sec}]")
        for key, new in NEW_VALUES[sec].items():
            assert type(new) is keys[key][0] and new not in defaults, f"[{sec}] {key}"
            lines.append(f"{key} = {new}")
    built = _build_all(config.parse_config_text("\n".join(lines)))
    fields = {"held_out": "held_out_speakers"}
    for sec, values in NEW_VALUES.items():
        for key, want in values.items():
            assert getattr(built[sec], fields.get(key, key)) == want, f"[{sec}] {key}"


def test_every_file_error_reported_at_once():
    text = "\n".join([
        "seed = 4",                # 1: key before any section
        "[corpus]",
        "speakers = 3",
        "bogus = 1",               # 4: unknown key
        "no pair here",            # 5: not key = value
        "[nosuch]",                # 6: unknown section
        "x = 1",                   # 7: key outside a known section
        "[codec]",
        "stride = eighty",         # 9: bad int
        "pitch_augment = lots",    # 10: bad float
        "[model]  # comment",
        "layers = 2  # comment",
    ])
    with pytest.raises(ConfigError) as err:
        config.parse_config_text(text, source="run.cfg")
    assert err.value.problems == [
        "run.cfg:1: key 'seed' outside any known section",
        "run.cfg:4: unknown key 'bogus' in section [corpus]",
        "run.cfg:5: expected key = value, got 'no pair here'",
        "run.cfg:6: unknown section [nosuch]",
        "run.cfg:7: key 'x' outside any known section",
        "[codec] stride: cannot parse 'eighty' as int",
        "[codec] pitch_augment: cannot parse 'lots' as float",
    ]


def test_every_override_error_reported_at_once():
    cfg = config.RunConfig.defaults()
    with pytest.raises(ConfigError) as err:
        config.apply_overrides(cfg, [
            "model.layers=2",
            "nodot",
            "corpus=3",
            "nosuch.key=1",
            "train.bogus=1",
            "codec.stride=eighty",
            "train.peak_lr=fast",
        ])
    assert err.value.problems == [
        "--set 'nodot': expected section.key=value",
        "--set 'corpus=3': unknown section 'corpus'",
        "--set 'nosuch.key=1': unknown section 'nosuch'",
        "--set 'train.bogus=1': unknown key 'bogus' in section [train]",
        "[codec] stride: cannot parse 'eighty' as int",
        "[train] peak_lr: cannot parse 'fast' as float",
    ]


# (type, valid fields, field to spoil, invalid value, error it raises)
BUILT_CASES = [
    (Waveform, dict(samples=np.zeros(4), sample_rate=8000), "samples",
     np.array([0.0, np.nan]), "non-finite"),
    (SpeakerSpec, dict(speaker_id=0, f0=220.0, harmonic_amps=(1.0, 0.5)), "f0", -150.0,
     "f0 must be positive"),
    (ContentUnit, dict(symbol_id=3, duration=0.2), "duration", -0.5, "duration -0.5"),
    (CorpusConfig, dict(out_dir="c"), "speakers", 11, "grid has 10 points"),
    (CodecConfig, {}, "stride", 0, "stride/quantizers/codebook_size must be positive"),
    (ModelConfig, {}, "heads", 3, "divisible by heads"),
    (SamplingSpec, {}, "top_p", 0.0, "top_p"),
    (TrainConfig, {}, "warmup_steps", 1000, "warmup_steps < total_steps"),
    (PromptSpec, dict(mode="continual", enrolled_waveform=Waveform(np.zeros(4), 8000),
                      enrolled_text=None, target_text="abc"), "mode", "whisper", "prompt mode"),
    # a negative seed would reach np.random.SeedSequence, which raises
    (CorpusConfig, dict(out_dir="c"), "seed", -1, "corpus.seed must be >= 0"),
    (CodecConfig, {}, "seed", -1, "codec.seed must be >= 0"),
    (TrainConfig, {}, "seed", -1, "train.seed must be >= 0"),
    # these would fail only at the first forward pass, without naming the key
    (ModelConfig, dict(heads=1), "embed_dim", 7, "model.embed_dim must be even"),
    (ModelConfig, {}, "max_len", 0, "model.max_len must be >= 1"),
    (ModelConfig, {}, "heads", 0, "must be positive"),
]


def _case_ids(cases):
    """The class name; a later case of the same class adds its field."""
    seen = set()
    ids = []
    for cls, _, field, _, _ in cases:
        ids.append(f"{cls.__name__}-{field}" if cls in seen else cls.__name__)
        seen.add(cls)
    return ids


@pytest.mark.parametrize("cls, valid, field, bad, match", BUILT_CASES, ids=_case_ids(BUILT_CASES))
def test_values_are_checked_when_built(cls, valid, field, bad, match):
    """Each value type refuses an invalid field when it is built, also by
    `dataclasses.replace`, and is frozen, so a built value stays valid."""
    value = cls(**valid)
    with pytest.raises(ValidationError, match=match):
        dataclasses.replace(value, **{field: bad})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, bad)


def test_sampling_seed_may_be_negative():
    """Generation masks the sampling seed to 32 bits, so any int is one."""
    run = config.apply_overrides(config.RunConfig.defaults(), ["sampling.seed=-1"])
    assert run.build("sampling").seed == -1


def test_file_and_overrides_set_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[train]\ntotal_steps = 7\nwarmup_steps = 3\npeak_lr = 0.5\n"
                    "[sampling]\ntop_p = 0.5\n")
    run = config.apply_overrides(config.parse_config_file(path),
                                 [" train.total_steps = 9 ", "corpus.duration_max=7.5"])
    assert run.build("train").total_steps == 9
    assert run.build("train").warmup_steps == 3
    assert run.build("train").peak_lr == 0.5
    assert run.build("sampling").top_p == 0.5
    assert run.build("corpus", out_dir="c").duration_max == 7.5


def test_held_out_alias():
    run = config.parse_config_text("[corpus]\nheld_out = 3\n")
    assert run.build("corpus", out_dir="c").held_out_speakers == 3
    run = config.apply_overrides(config.RunConfig.defaults(), ["corpus.held_out=4"])
    assert run.build("corpus", out_dir="c").held_out_speakers == 4


def test_field_name_behind_alias_rejected():
    with pytest.raises(ConfigError, match="unknown key 'held_out_speakers'"):
        config.parse_config_text("[corpus]\nheld_out_speakers = 3\n")
    with pytest.raises(ConfigError, match="unknown key 'held_out_speakers'"):
        config.apply_overrides(config.RunConfig.defaults(), ["corpus.held_out_speakers=3"])


@pytest.mark.parametrize("section, key", [
    ("model", "codebook_size"),
    ("model", "quantizers"),
    ("model", "phoneme_vocab"),
    ("corpus", "out_dir"),
    ("codec", "sample_rate"),
])
def test_fixed_fields_rejected(section, key):
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        config.parse_config_text(f"[{section}]\n{key} = 3\n")
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        config.apply_overrides(config.RunConfig.defaults(), [f"{section}.{key}=3"])


def test_set_seed_reaches_every_seeded_section():
    run = config.RunConfig.defaults()
    run.set_seed(5)
    built = _build_all(run)
    assert {sec: built[sec].seed for sec in SEEDED} == dict.fromkeys(SEEDED, 5)
    assert not hasattr(built["model"], "seed")


@pytest.mark.parametrize("item", [
    "sampling.temperature=nan",
    "train.peak_lr=nan",
    "corpus.duration_max=inf",
    "codec.pitch_augment=-inf",
])
def test_non_finite_float_rejected(item):
    head, _, raw = item.partition("=")
    section, _, key = head.partition(".")
    with pytest.raises(ConfigError) as err:
        config.apply_overrides(config.RunConfig.defaults(), [item])
    assert err.value.problems == [f"[{section}] {key}: {raw!r} is not a finite number"]
    with pytest.raises(ConfigError) as err:
        config.parse_config_text(f"[{section}]\n{key} = {raw}\n")
    assert err.value.problems == [f"[{section}] {key}: {raw!r} is not a finite number"]
