"""Run configuration: plain `key = value` sections with strict validation.

The file format is deliberately parser-free: `[section]` headers, one
`key = value` per line, `#` comments. Unknown sections or keys are errors,
and every offending key is reported at once.

The config dataclasses are the only definition of the fields: `SCHEMA` is
derived from `dataclasses.fields`, so every file key has its field's type and
default. The 31 file keys:

- corpus: speakers, held_out, utterances_per_speaker, duration_min,
  duration_max, sample_rate, seed (the generator's shape is fixed in
  `corpus.py`);
- codec: stride (samples per frame), quantizers, codebook_size,
  kmeans_iters, seed, pitch_augment;
- model: layers, heads, embed_dim, ffn_dim, dropout, max_len;
- train: batch_tokens, total_steps, warmup_steps, peak_lr, weight_decay,
  seed, log_every, checkpoint_every (the crop is `pipeline.CROP_SECONDS`);
- sampling: temperature, top_p, seed, max_new_tokens.

The one alias is `corpus.held_out` for `held_out_speakers`. A file cannot
set `corpus.out_dir` (the `--out` directory), `codec.sample_rate` (the
training audio's rate) or `model.codebook_size`/`quantizers` (the trained
codec's K and Q); the commands fill these in. The phoneme inventory is the
frontend's, which `ModelConfig.phoneme_vocab` reads.

Values are checked when `RunConfig.build` makes a section's dataclass, whose
`__post_init__` refuses an invalid one, so a command refuses every section it
builds and no other (`eval` builds only `[sampling]`). The corpus, codec and
train seeds must be >= 0; the sampling seed may be any int (masked to 32 bits).
"""

import math
from dataclasses import dataclass, field, fields

from .ar_model import SamplingSpec
from .codec import CodecConfig
from .corpus import CorpusConfig
from .errors import ConfigError
from .lm_core import ModelConfig
from .pipeline import TrainConfig

# section -> (dataclass, {file key: field name}, fields the file cannot set)
SECTIONS = {
    "corpus": (CorpusConfig, {"held_out": "held_out_speakers"}, ("out_dir",)),
    "codec": (CodecConfig, {}, ("sample_rate",)),
    "model": (ModelConfig, {}, ("codebook_size", "quantizers")),
    "train": (TrainConfig, {}, ()),
    "sampling": (SamplingSpec, {}, ()),
}


def _file_keys(cls, aliases, fixed):
    key_of = {name: key for key, name in aliases.items()}
    return {
        key_of.get(f.name, f.name): (f.type, f.default, f.name)
        for f in fields(cls)
        if f.name not in fixed
    }


# section -> file key -> (type, default, field name)
SCHEMA = {sec: _file_keys(*entry) for sec, entry in SECTIONS.items()}


@dataclass
class RunConfig:
    sections: dict = field(default_factory=dict)

    @classmethod
    def defaults(cls):
        return cls(
            sections={
                sec: {key: default for key, (_, default, _) in keys.items()}
                for sec, keys in SCHEMA.items()
            }
        )

    def set_seed(self, seed: int):
        """Route one seed to every stochastic component: each `seed` key."""
        for keys in self.sections.values():
            if "seed" in keys:
                keys["seed"] = seed

    def build(self, section, **fixed):
        """The section's dataclass from the file keys plus the fields the
        file cannot set, given by the caller."""
        values = {name: self.sections[section][key]
                  for key, (_, _, name) in SCHEMA[section].items()}
        return SECTIONS[section][0](**values, **fixed)


def _assign(cfg, section, key, raw, where, problems):
    """Set one file key from its text, or record why it cannot be set."""
    if key not in SCHEMA[section]:
        problems.append(f"{where}: unknown key {key!r} in section [{section}]")
        return
    typ = SCHEMA[section][key][0]
    try:
        value = typ(raw)
    except ValueError:
        problems.append(f"[{section}] {key}: cannot parse {raw!r} as {typ.__name__}")
        return
    if typ is float and not math.isfinite(value):
        problems.append(f"[{section}] {key}: {raw!r} is not a finite number")
        return
    cfg.sections[section][key] = value


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    cfg = RunConfig.defaults()
    problems = []
    section = None
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in SCHEMA:
                problems.append(f"{source}:{lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in stripped:
            problems.append(f"{source}:{lineno}: expected key = value, got {stripped!r}")
            continue
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if section is None:
            problems.append(f"{source}:{lineno}: key {key!r} outside any known section")
            continue
        _assign(cfg, section, key, raw, f"{source}:{lineno}", problems)
    if problems:
        raise ConfigError(problems)
    return cfg


def parse_config_file(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def apply_overrides(cfg: RunConfig, overrides) -> RunConfig:
    """Apply `section.key=value` strings (from --set flags)."""
    problems = []
    for item in overrides:
        head, eq, raw = item.partition("=")
        if not eq:
            problems.append(f"--set {item!r}: expected section.key=value")
            continue
        sec, dot, key = head.strip().partition(".")
        key = key.strip()
        if not dot or sec not in SCHEMA:
            problems.append(f"--set {item!r}: unknown section {sec!r}")
            continue
        _assign(cfg, sec, key, raw.strip(), f"--set {item!r}", problems)
    if problems:
        raise ConfigError(problems)
    return cfg
