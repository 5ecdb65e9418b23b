"""Causal decoder-only language model over first-quantizer codes.

Input is the phoneme sequence and the stage-1 acoustic code sequence, each
terminated by its own EOS token, under one causal mask. Only acoustic
positions contribute to the loss. The output projection shares storage with
the acoustic embedding table: logits are computed against `acoustic_emb`
directly, so the tying is structural.
"""

from dataclasses import dataclass

import numpy as np

from . import lm_core
from .errors import ValidationError
from .lm_core import ModelConfig

EMB_INIT_STD = lm_core.EMB_INIT_STD


@dataclass
class SamplingSpec:
    temperature: float = 1.0
    top_p: float = 0.9
    seed: int = 0
    max_new_tokens: int = 600

    def validate(self):
        if self.max_new_tokens <= 0:
            raise ValidationError("sampling.max_new_tokens must be positive")
        if self.temperature < 0:
            raise ValidationError("sampling.temperature must be nonnegative")
        if not 0.0 < self.top_p <= 1.0:
            raise ValidationError("sampling.top_p must lie in (0, 1]")


def init_ar_params(cfg: ModelConfig, rng: np.random.Generator) -> dict:
    cfg.validate()
    params = {
        "phoneme_emb": EMB_INIT_STD * rng.standard_normal((cfg.phoneme_vocab + 1, cfg.embed_dim)),
        "acoustic_emb": EMB_INIT_STD * rng.standard_normal((cfg.codebook_size + 1, cfg.embed_dim)),
    }
    params.update(lm_core.init_stack_params(cfg, rng, adaln=False))
    return params


def _validate_ids(phon_ids, acoustic_ids, cfg: ModelConfig):
    phon_ids = np.asarray(phon_ids, dtype=np.int64)
    acoustic_ids = np.asarray(acoustic_ids, dtype=np.int64)
    if phon_ids.size == 0:
        raise ValidationError("phoneme sequence is empty")
    if phon_ids.size and (phon_ids.min() < 0 or phon_ids.max() >= cfg.phoneme_vocab):
        raise ValidationError("phoneme id out of range")
    if acoustic_ids.size and (acoustic_ids.min() < 0 or acoustic_ids.max() >= cfg.codebook_size):
        raise ValidationError("acoustic id out of range")
    return phon_ids, acoustic_ids


def _check_length(p, ac_len, cfg: ModelConfig):
    """`p` phoneme positions, `ac_len` acoustic codes and the acoustic EOS (or
    the next token) must fit in max_len."""
    n = p + ac_len + 1
    if n > cfg.max_len:
        raise ValidationError(f"sequence length {n} exceeds max_len {cfg.max_len}")


def _embed(params, cfg, phon_part, ac_part):
    emb = np.concatenate(
        [params["phoneme_emb"][phon_part], params["acoustic_emb"][ac_part]], axis=0
    )
    emb = emb + lm_core.segment_position_encoding([len(phon_part), len(ac_part)], cfg.embed_dim)
    return emb


def ar_forward(params, cfg: ModelConfig, phon_ids, acoustic_ids, *, train=False, rng=None,
               return_cache=False):
    """Teacher-forced forward pass.

    Returns next-token logits of shape (A, K+1) where A = len(acoustic_ids)+1:
    row j is the prediction of the j-th acoustic token (the final row predicts
    the acoustic EOS).
    """
    phon_ids, acoustic_ids = _validate_ids(phon_ids, acoustic_ids, cfg)
    phon_part = np.concatenate([phon_ids, [cfg.phoneme_eos]])
    _check_length(len(phon_part), len(acoustic_ids), cfg)
    ac_part = np.concatenate([acoustic_ids, [cfg.acoustic_eos]])
    n = len(phon_part) + len(ac_part)
    emb = _embed(params, cfg, phon_part, ac_part)
    out, stack_cache = lm_core.stack_forward(
        params, cfg, emb, lm_core.causal_mask(n), train=train, rng=rng
    )
    p = len(phon_part)
    rows = out[p - 1 : n - 1]
    logits = rows @ params["acoustic_emb"].T
    if not return_cache:
        return logits
    cache = {
        "stack": stack_cache,
        "rows": rows,
        "phon_part": phon_part,
        "ac_part": ac_part,
        "p": p,
        "n": n,
    }
    return logits, cache


def ar_backward(params, cfg: ModelConfig, cache, dlogits) -> dict:
    """Gradients for ar_forward given d(loss)/d(logits)."""
    p, n = cache["p"], cache["n"]
    grads = {"acoustic_emb": dlogits.T @ cache["rows"]}
    dout = np.zeros((n, cfg.embed_dim))
    dout[p - 1 : n - 1] = dlogits @ params["acoustic_emb"]
    dx, stack_grads, _ = lm_core.stack_backward(params, cfg, cache["stack"], dout)
    for name, g in stack_grads.items():
        grads[name] = grads.get(name, 0) + g
    grads.setdefault("phoneme_emb", np.zeros_like(params["phoneme_emb"]))
    np.add.at(grads["phoneme_emb"], cache["phon_part"], dx[:p])
    np.add.at(grads["acoustic_emb"], cache["ac_part"], dx[p:])
    return grads


def ar_loss(params, cfg: ModelConfig, batch, *, train=False, rng=None):
    """Next-token cross-entropy over acoustic positions (incl. acoustic EOS),
    averaged over all acoustic tokens in the batch.

    `batch` is a list of (phoneme_ids, acoustic_ids) pairs. Returns
    (loss, grads, token_count).
    """
    if not batch:
        raise ValidationError("batch is empty")
    total_nll = 0.0
    total_count = 0
    acc = {}
    for phon_ids, acoustic_ids in batch:
        if len(acoustic_ids) == 0:
            raise ValidationError("sequence has an empty acoustic part")
        logits, cache = ar_forward(
            params, cfg, phon_ids, acoustic_ids, train=train, rng=rng, return_cache=True
        )
        targets = cache["ac_part"]
        mean_nll, dlogits = lm_core.cross_entropy(logits, targets)
        count = targets.size
        total_nll += mean_nll * count
        total_count += count
        grads = ar_backward(params, cfg, cache, dlogits * count)
        for name, g in grads.items():
            if name in acc:
                acc[name] += g
            else:
                acc[name] = g
    for name in acc:
        acc[name] = acc[name] / total_count
    return total_nll / total_count, acc, total_count


class ArDecoder:
    """Incremental decoder with per-layer key/value caches.

    The prefill and every step run the same `lm_core.stack_forward` as
    ar_forward: the prefill over the prompt under a causal mask, each step
    over the one new token against the cached keys and values (`past_kv`).
    So cached decoding performs the same per-position computation as the
    one-shot pass.
    """

    def __init__(self, params, cfg: ModelConfig, phon_ids, prefix_codes):
        phon_ids, prefix_codes = _validate_ids(phon_ids, prefix_codes, cfg)
        self.params = params
        self.cfg = cfg
        phon_part = np.concatenate([phon_ids, [cfg.phoneme_eos]])
        self.p = len(phon_part)
        self.ac_len = len(prefix_codes)
        _check_length(self.p, self.ac_len, cfg)
        n = self.p + self.ac_len
        self.kv = None
        self._advance(_embed(params, cfg, phon_part, prefix_codes), lm_core.causal_mask(n))

    def _advance(self, x, mask):
        out, cache = lm_core.stack_forward(self.params, self.cfg, x, mask, past_kv=self.kv)
        self.kv = [(lc["kh"], lc["vh"]) for lc in cache["layers"]]
        self._last_hidden = out[-1]

    def next_logits(self) -> np.ndarray:
        return self._last_hidden @ self.params["acoustic_emb"].T

    def push(self, token: int) -> None:
        """Append one acoustic token and advance the caches."""
        cfg = self.cfg
        _check_length(self.p, self.ac_len + 1, cfg)
        n = self.p + self.ac_len + 1
        x = self.params["acoustic_emb"][[int(token)]]
        x = x + lm_core.sinusoidal_positions(1, cfg.embed_dim, start=self.ac_len)
        self._advance(x, np.ones((1, n), dtype=bool))
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
