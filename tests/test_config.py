import pytest

from codec_lm import config
from codec_lm.ar_model import SamplingSpec
from codec_lm.codec import CodecConfig
from codec_lm.corpus import CorpusConfig
from codec_lm.errors import ConfigError
from codec_lm.lm_core import ModelConfig
from codec_lm.pipeline import TrainConfig

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
        "sample_rate": (int, 8000),
        "stride": (int, 80),
        "dim": (int, 80),
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
        "crop_min": (float, 1.0),
        "crop_max": (float, 3.0),
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


def _build_all(run, out_dir="corpus_out", codebook_size=16, quantizers=3):
    return {
        "corpus": run.build("corpus", out_dir=out_dir),
        "codec": run.build("codec"),
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
        lines.append(f"[{sec}]")
        for key, (typ, default) in keys.items():
            new = typ(default + 1)
            lines.append(f"{key} = {new}")
    run = config.parse_config_text("\n".join(lines))
    built = _build_all(run)
    fields = {"held_out": "held_out_speakers"}
    for sec, keys in ORACLE.items():
        for key, (typ, default) in keys.items():
            want = typ(default + 1)
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


def test_file_and_overrides_set_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[train]\ntotal_steps = 7\npeak_lr = 0.5\n[sampling]\ntop_p = 0.5\n")
    run = config.apply_overrides(config.parse_config_file(path),
                                 [" train.total_steps = 9 ", "corpus.duration_max=7.5"])
    assert run.build("train").total_steps == 9
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
