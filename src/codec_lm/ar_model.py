"""Causal decoder-only language model over first-quantizer codes.

Input is the phoneme sequence and the stage-1 acoustic code sequence, each
terminated by its own EOS token, with positions restarting for each, under
causal attention. Only acoustic positions contribute to the loss. The model
is one `lm_core.lm_forward` pass whose head is the acoustic embedding table
itself, so the tying is structural.
"""

from dataclasses import dataclass

import numpy as np

from . import lm_core
from .errors import ValidationError
from .lm_core import EMB_INIT_STD, ModelConfig


@dataclass
class SamplingSpec:
    temperature: float = 1.0
    top_p: float = 0.9
    seed: int = 0
    max_new_tokens: int = 600

    def validate(self):
        if self.max_new_tokens <= 0:
            raise ValidationError("sampling.max_new_tokens must be positive")
        if not self.temperature >= 0:  # also refuses nan
            raise ValidationError("sampling.temperature must be nonnegative")
        if not 0.0 < self.top_p <= 1.0:
            raise ValidationError("sampling.top_p must lie in (0, 1]")


def ar_layout(cfg: ModelConfig) -> dict:
    """The AR model's parameters in draw order (see `lm_core.stack_layout`)."""
    cfg.validate()
    d = cfg.embed_dim
    return {
        "phoneme_emb": ((cfg.phoneme_vocab + 1, d), "normal", EMB_INIT_STD),
        "acoustic_emb": ((cfg.codebook_size + 1, d), "normal", EMB_INIT_STD),
        **lm_core.stack_layout(cfg, adaln=False),
    }


def init_ar_params(cfg: ModelConfig, rng: np.random.Generator) -> dict:
    return lm_core.init_params(ar_layout(cfg), rng)


def _check_prompt(phon_ids, acoustic_ids, cfg: ModelConfig):
    """The checked phoneme ids with the phoneme EOS appended, and the checked
    acoustic ids; both and one more token must fit in max_len."""
    phon_ids = lm_core.check_ids(phon_ids, cfg.phoneme_vocab, "phoneme")
    if phon_ids.size == 0:
        raise ValidationError("phoneme sequence is empty")
    acoustic_ids = lm_core.check_ids(acoustic_ids, cfg.codebook_size, "acoustic")
    phon_part = np.concatenate([phon_ids, [cfg.phoneme_eos]])
    _check_length(len(phon_part), len(acoustic_ids), cfg)
    return phon_part, acoustic_ids


def _check_length(p, ac_len, cfg: ModelConfig):
    """`p` phoneme positions, `ac_len` acoustic codes and the acoustic EOS (or
    the next token) must fit in max_len."""
    n = p + ac_len + 1
    if n > cfg.max_len:
        raise ValidationError(f"sequence length {n} exceeds max_len {cfg.max_len}")


def _pass(params, cfg: ModelConfig, phon_part, ac_part, rows, **kw):
    """The pass over phoneme then acoustic rows, predicting acoustic ids."""
    p = len(phon_part)
    lookups = [("phoneme_emb", phon_part, 0), ("acoustic_emb", ac_part, p)]
    return lm_core.lm_forward(params, cfg, lookups, [(p, 0), (len(ac_part), 0)],
                              "acoustic_emb", rows, causal=True, **kw)


def ar_forward(params, cfg: ModelConfig, phon_ids, acoustic_ids, *, train=False, rng=None,
               return_cache=False):
    """Teacher-forced forward pass.

    Returns next-token logits of shape (A, K+1) where A = len(acoustic_ids)+1:
    row j is the prediction of the j-th acoustic token (the final row predicts
    the acoustic EOS).
    """
    phon_part, acoustic_ids = _check_prompt(phon_ids, acoustic_ids, cfg)
    ac_part = np.concatenate([acoustic_ids, [cfg.acoustic_eos]])
    p = len(phon_part)
    logits, cache = _pass(params, cfg, phon_part, ac_part, slice(p - 1, p + len(acoustic_ids)),
                          train=train, rng=rng)
    return (logits, cache) if return_cache else logits


def ar_backward(params, cfg: ModelConfig, cache, dlogits) -> dict:
    """Gradients for ar_forward given d(loss)/d(logits)."""
    return lm_core.lm_backward(params, cfg, cache, dlogits)


def ar_loss(params, cfg: ModelConfig, batch, *, train=False, rng=None):
    """Next-token cross-entropy over acoustic positions (incl. acoustic EOS),
    averaged over all acoustic tokens in the batch.

    `batch` is a list of (phoneme_ids, acoustic_ids) pairs. Returns
    (loss, grads, token_count).
    """
    def example(item):
        phon_ids, acoustic_ids = item
        if len(acoustic_ids) == 0:
            raise ValidationError("sequence has an empty acoustic part")
        logits, cache = ar_forward(
            params, cfg, phon_ids, acoustic_ids, train=train, rng=rng, return_cache=True
        )
        targets = np.append(np.asarray(acoustic_ids, np.int64), cfg.acoustic_eos)
        return logits, targets, lambda d: ar_backward(params, cfg, cache, d)

    return lm_core.batch_loss(batch, example)


class ArDecoder:
    """Incremental decoder over a key/value cache.

    The prefill and every step run the same causal `lm_core.lm_forward` pass
    as ar_forward: the prefill over the prompt, each step over the one new
    token against every cached key and value. So cached decoding performs the
    same per-position computation as the one-shot pass. The cache is a
    `lm_core.KVCache`, which the trunk fills in place. `next_logits` returns
    the logits of the last pass, the same array until the next push.
    """

    def __init__(self, params, cfg: ModelConfig, phon_ids, prefix_codes):
        phon_part, prefix_codes = _check_prompt(phon_ids, prefix_codes, cfg)
        self.params = params
        self.cfg = cfg
        self.p = len(phon_part)
        self.ac_len = len(prefix_codes)
        self.kv = lm_core.KVCache()
        self._logits, _ = _pass(params, cfg, phon_part, prefix_codes, -1, kv=self.kv)

    def next_logits(self) -> np.ndarray:
        return self._logits

    def push(self, token: int) -> None:
        """Append one acoustic token and advance the caches."""
        _check_length(self.p, self.ac_len + 1, self.cfg)
        self._logits, _ = lm_core.lm_forward(
            self.params, self.cfg, [("acoustic_emb", [int(token)], 0)], [(1, self.ac_len)],
            "acoustic_emb", -1, causal=True, kv=self.kv,
        )
        self.ac_len += 1


def ar_generate(params, cfg: ModelConfig, phon_ids, prefix_codes, sampling: SamplingSpec):
    """Sample first-layer codes until acoustic EOS or max_new_tokens.

    Returns the generated codes only (prefix and EOS excluded). Deterministic
    for a fixed sampling seed.
    """
    sampling.validate()
    rng = np.random.default_rng(np.random.SeedSequence([sampling.seed & 0xFFFFFFFF]))
    decoder = ArDecoder(params, cfg, phon_ids, prefix_codes)
    out = []
    for _ in range(sampling.max_new_tokens):
        logits = decoder.next_logits()
        token = lm_core.nucleus_sample(logits, sampling.temperature, sampling.top_p, rng)
        if token == cfg.acoustic_eos:
            break
        out.append(token)
        decoder.push(token)
    return np.asarray(out, dtype=np.int64)
