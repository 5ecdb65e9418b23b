"""Non-autoregressive stage-conditioned model for quantizers 2..Q.

The transformer input is the concatenation of phoneme embeddings, the summed
all-stage embedding of the enrolled acoustic prompt, and the summed embedding
of the target's already-known stages (column j of a code matrix looks up
table j), under full (unmasked) self-attention. The training/decoding stage
is injected through AdaLN at every norm site. The model is one
`lm_core.lm_forward` pass, as the AR model is, and shares its id checks and
batch loss; `nar_generate_all` decodes stages 2..Q with one `nar_forward`
call each.

Weight sharing: the prediction head for stage i is the acoustic embedding
table of stage i (1-indexed), i.e. head j ties to embedding table j+1 for
j = 1..Q-1. Tables are stored once in `acoustic_emb.{0..Q-1}` and a head is
read by its table's name, so the tied parameter count is untied minus
(Q-1)*K*d.
"""

import numpy as np

from . import lm_core
from .errors import ValidationError
from .lm_core import EMB_INIT_STD, ModelConfig


def nar_layout(cfg: ModelConfig) -> dict:
    """The NAR model's parameters in draw order (see `lm_core.stack_layout`)."""
    if cfg.quantizers < 2:
        raise ValidationError("the NAR model needs at least 2 quantizers")
    d = cfg.embed_dim
    layout = {
        "phoneme_emb": ((cfg.phoneme_vocab + 1, d), "normal", EMB_INIT_STD),
        "stage_emb": ((cfg.quantizers - 1, d), "normal", EMB_INIT_STD),
    }
    for j in range(cfg.quantizers):
        layout[f"acoustic_emb.{j}"] = ((cfg.codebook_size, d), "normal", EMB_INIT_STD)
    layout.update(lm_core.stack_layout(cfg, adaln=True))
    return layout


def init_nar_params(cfg: ModelConfig, rng: np.random.Generator) -> dict:
    return lm_core.init_params(nar_layout(cfg), rng)


def _check_codes(codes, cfg: ModelConfig, columns: int, what: str) -> np.ndarray:
    """The code matrix `codes` as checked ids; it must have exactly `columns`
    columns."""
    codes = lm_core.check_ids(codes, cfg.codebook_size, f"{what} code")
    if codes.ndim != 2 or codes.shape[1] != columns:
        raise ValidationError(
            f"{what} codes must have exactly {columns} columns, got shape {codes.shape}"
        )
    return codes


def nar_forward(params, cfg: ModelConfig, phon_ids, acoustic_prompt, partial_target,
                stage: int, *, rng=None, return_cache=False):
    """Logits (T, K) for the target frames at the given stage in [2, Q], from
    the Q-stage prompt and the target's known stages 1..stage-1. With
    `return_cache`, returns (logits, cache), the cache for one `nar_backward`;
    without, the pass keeps no activations."""
    if not 2 <= stage <= cfg.quantizers:
        raise ValidationError(f"stage must lie in [2, {cfg.quantizers}], got {stage}")
    phon_ids = lm_core.check_ids(phon_ids, cfg.phoneme_vocab, "phoneme")
    if phon_ids.size == 0:
        raise ValidationError("phoneme sequence is empty")
    prompt = _check_codes(acoustic_prompt, cfg, cfg.quantizers, "prompt")
    known = _check_codes(partial_target, cfg, stage - 1, "target")
    p, tp, tt = len(phon_ids), len(prompt), len(known)
    lookups = [("phoneme_emb", phon_ids, 0)]
    lookups += [(f"acoustic_emb.{j}", prompt[:, j], p) for j in range(cfg.quantizers)]
    lookups += [(f"acoustic_emb.{j}", known[:, j], p + tp) for j in range(stage - 1)]
    # positions restart for the phoneme prompt; the acoustic prompt and the
    # target continue one numbering, so a target query can address its own
    # neighborhood unambiguously under full attention
    logits, cache = lm_core.lm_forward(
        params, cfg, lookups, [(p, 0), (tp + tt, 0)], f"acoustic_emb.{stage - 1}",
        slice(p + tp, None), causal=False, stage=stage - 2, rng=rng, return_cache=return_cache,
    )
    return (logits, cache) if return_cache else logits


def nar_backward(params, cfg: ModelConfig, cache, dlogits) -> dict:
    """Gradients for nar_forward given d(loss)/d(logits)."""
    return lm_core.lm_backward(params, cfg, cache, dlogits)


def draw_stage(rng: np.random.Generator, quantizers: int) -> int:
    """Uniform training stage in [2, Q]."""
    return int(rng.integers(2, quantizers + 1))


def nar_loss(params, cfg: ModelConfig, batch, stage: int, *, rng=None):
    """Cross-entropy on target positions at `stage` in [2, Q].

    `batch` items are (phoneme_ids, acoustic_prompt (T',Q), target_codes (T,Q)).
    Returns (loss, grads, token_count).
    """
    def example(item):
        phon_ids, prompt, target = item
        target = _check_codes(target, cfg, cfg.quantizers, "target")
        if target.shape[0] < 1:
            raise ValidationError("target has no frames")
        logits, cache = nar_forward(params, cfg, phon_ids, prompt, target[:, : stage - 1], stage,
                                    rng=rng, return_cache=True)
        return logits, target[:, stage - 1], lambda d: nar_backward(params, cfg, cache, d)

    return lm_core.batch_loss(batch, example)


def nar_generate_all(params, cfg: ModelConfig, phon_ids, acoustic_prompt, first_layer):
    """Greedy stage-by-stage decoding: Q-1 forward passes, argmax per frame
    (smallest index on ties). Column 1 is the given first-layer sequence."""
    first_layer = np.asarray(first_layer, dtype=np.int64)
    if first_layer.size == 0:
        raise ValidationError("first-layer code sequence is empty")
    codes = np.zeros((first_layer.size, cfg.quantizers), dtype=np.int64)
    codes[:, 0] = first_layer
    for stage in range(2, cfg.quantizers + 1):
        logits = nar_forward(
            params, cfg, phon_ids, acoustic_prompt, codes[:, : stage - 1], stage
        )
        codes[:, stage - 1] = np.argmax(logits, axis=-1)
    return codes
