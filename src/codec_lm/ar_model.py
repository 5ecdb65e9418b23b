"""Causal decoder-only language model over first-quantizer codes.

Input is the phoneme sequence, its EOS token and the stage-1 acoustic codes,
with positions restarting for the codes, under causal attention. The last
code's row predicts the acoustic EOS, which is never an input. Only acoustic
positions contribute to the loss. The model is one `lm_core.lm_forward` pass
whose head is the acoustic embedding table itself, so the tying is structural.
"""

from dataclasses import dataclass

import numpy as np

from . import lm_core
from .errors import ValidationError
from .lm_core import EMB_INIT_STD, ModelConfig


@dataclass(frozen=True)
class SamplingSpec:
    temperature: float = 1.0
    top_p: float = 0.9
    seed: int = 0
    max_new_tokens: int = 600

    def __post_init__(self):
        if self.max_new_tokens <= 0:
            raise ValidationError("sampling.max_new_tokens must be positive")
        if not self.temperature >= 0:  # also refuses nan
            raise ValidationError("sampling.temperature must be nonnegative")
        if not 0.0 < self.top_p <= 1.0:
            raise ValidationError("sampling.top_p must lie in (0, 1]")


def ar_layout(cfg: ModelConfig) -> dict:
    """The AR model's parameters in draw order (see `lm_core.stack_layout`)."""
    d = cfg.embed_dim
    return {
        "phoneme_emb": ((cfg.phoneme_vocab + 1, d), "normal", EMB_INIT_STD),
        "acoustic_emb": ((cfg.codebook_size + 1, d), "normal", EMB_INIT_STD),
        **lm_core.stack_layout(cfg, adaln=False),
    }


def init_ar_params(cfg: ModelConfig, rng: np.random.Generator) -> dict:
    return lm_core.init_params(ar_layout(cfg), rng)


def _check_prompt(phon_ids, acoustic_ids, cfg: ModelConfig):
    """The checked phoneme ids, the phoneme EOS appended, and acoustic ids."""
    phon_ids = lm_core.check_ids(phon_ids, cfg.phoneme_vocab, "phoneme")
    if phon_ids.size == 0:
        raise ValidationError("phoneme sequence is empty")
    acoustic_ids = lm_core.check_ids(acoustic_ids, cfg.codebook_size, "acoustic")
    return np.concatenate([phon_ids, [cfg.phoneme_eos]]), acoustic_ids


def _pass(params, cfg: ModelConfig, phon_part, ac_part, rows, **kw):
    """The pass over phoneme then acoustic rows, predicting acoustic ids."""
    p = len(phon_part)
    lookups = [("phoneme_emb", phon_part, 0), ("acoustic_emb", ac_part, p)]
    return lm_core.lm_forward(params, cfg, lookups, [(p, 0), (len(ac_part), 0)],
                              "acoustic_emb", rows, causal=True, **kw)


def ar_forward(params, cfg: ModelConfig, phon_ids, acoustic_ids, *, rng=None, return_cache=False):
    """Teacher-forced forward pass.

    Returns next-token logits of shape (A, K+1) where A = len(acoustic_ids)+1,
    the rows from the phoneme EOS on: row j predicts the j-th acoustic token
    (the last code's row predicts the acoustic EOS). With `return_cache`,
    returns (logits, cache), the cache for one `ar_backward`; without, the
    pass keeps no activations.
    """
    phon_part, acoustic_ids = _check_prompt(phon_ids, acoustic_ids, cfg)
    logits, cache = _pass(params, cfg, phon_part, acoustic_ids, slice(len(phon_part) - 1, None),
                          rng=rng, return_cache=return_cache)
    return (logits, cache) if return_cache else logits


def ar_backward(params, cfg: ModelConfig, cache, dlogits) -> dict:
    """Gradients for ar_forward given d(loss)/d(logits)."""
    return lm_core.lm_backward(params, cfg, cache, dlogits)


def ar_loss(params, cfg: ModelConfig, batch, *, rng=None):
    """Next-token cross-entropy over acoustic positions (incl. acoustic EOS),
    averaged over all acoustic tokens in the batch.

    `batch` is a list of (phoneme_ids, acoustic_ids) pairs. Returns
    (loss, grads, token_count).
    """
    def example(item):
        phon_ids, acoustic_ids = item
        if len(acoustic_ids) == 0:
            raise ValidationError("sequence has an empty acoustic part")
        logits, cache = ar_forward(params, cfg, phon_ids, acoustic_ids, rng=rng, return_cache=True)
        targets = np.append(np.asarray(acoustic_ids, np.int64), cfg.acoustic_eos)
        return logits, targets, lambda d: ar_backward(params, cfg, cache, d)

    return lm_core.batch_loss(batch, example)


class ArDecoder:
    """Incremental decoder over a key/value cache.

    The prefill and every step run the same causal `lm_core.lm_forward` pass
    as ar_forward: the prefill over the prompt, each step over the one new
    token against every cached key and value. So cached decoding performs the
    same per-position computation as the one-shot pass. Each pass reads only
    its last row, the one row the trunk's last layer then computes. The cache
    is a `lm_core.KVCache`, which the trunk fills in place. `next_logits`
    returns the logits of the last pass, the same array until the next push.
    `kv.length` is the one length kept: `ac_len` (the codes after the `p`
    phoneme positions) and `room` (the codes that still fit in max_len) derive
    from it. A push past max_len is the trunk's to refuse, before it writes.
    """

    def __init__(self, params, cfg: ModelConfig, phon_ids, prefix_codes):
        phon_part, prefix_codes = _check_prompt(phon_ids, prefix_codes, cfg)
        self.params = params
        self.cfg = cfg
        self.p = len(phon_part)
        self.kv = lm_core.KVCache()
        logits, _ = _pass(params, cfg, phon_part, prefix_codes, slice(-1, None), kv=self.kv)
        self._logits = logits[0]

    @property
    def ac_len(self) -> int:
        return self.kv.length - self.p

    @property
    def room(self) -> int:
        return self.cfg.max_len - self.kv.length

    def next_logits(self) -> np.ndarray:
        return self._logits

    def push(self, token: int) -> None:
        """Append one acoustic token, a code in [0, K), and advance the caches."""
        token = int(token)
        if not 0 <= token < self.cfg.codebook_size:
            raise ValidationError(
                f"acoustic token {token} out of range [0, {self.cfg.codebook_size})")
        logits, _ = lm_core.lm_forward(
            self.params, self.cfg, [("acoustic_emb", [token], 0)], [(1, self.ac_len)],
            "acoustic_emb", slice(-1, None), causal=True, kv=self.kv,
        )
        self._logits = logits[0]


def ar_generate(params, cfg: ModelConfig, phon_ids, prefix_codes, sampling: SamplingSpec):
    """Sample first-layer codes until acoustic EOS, max_new_tokens, or the
    context limit: the decoder's `room`, the most codes that `ar_forward`
    accepts after the prompt.

    Returns the generated codes only (prefix and EOS excluded). Deterministic
    for a fixed sampling seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence([sampling.seed & 0xFFFFFFFF]))
    decoder = ArDecoder(params, cfg, phon_ids, prefix_codes)
    limit = min(sampling.max_new_tokens, decoder.room)
    out = []
    for _ in range(limit):
        logits = decoder.next_logits()
        token = lm_core.nucleus_sample(logits, sampling.temperature, sampling.top_p, rng)
        if token == cfg.acoustic_eos:
            break
        out.append(token)
        if len(out) < limit:  # the last code's logits would go unread
            decoder.push(token)
    return np.asarray(out, dtype=np.int64)
