"""Non-autoregressive stage-conditioned model for quantizers 2..Q.

The transformer input is the concatenation of phoneme embeddings, the summed
all-stage embedding of the enrolled acoustic prompt, and the summed embedding
of the target's already-known stages (both sums are `nar_embed_stages`),
under full (unmasked) self-attention. The training/decoding stage is injected
through AdaLN at every norm site. The trunk, the id checks and the batch loss
are shared with the AR model through `lm_core`; `nar_generate_all` decodes
stages 2..Q with one `nar_forward` call each.

Weight sharing: the prediction head for stage i is the acoustic embedding
table of stage i (1-indexed), i.e. head j ties to embedding table j+1 for
j = 1..Q-1. Tables are stored once in `acoustic_emb.{0..Q-1}` and heads are
views into them, so the tied parameter count is untied minus (Q-1)*K*d.
"""

import numpy as np

from . import lm_core
from .errors import ValidationError
from .lm_core import ModelConfig

EMB_INIT_STD = lm_core.EMB_INIT_STD

def nar_layout(cfg: ModelConfig) -> dict:
    """The NAR model's parameters in draw order (see `lm_core.stack_layout`)."""
    cfg.validate()
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


def nar_embed_stages(params, cfg: ModelConfig, codes, columns: int, what: str) -> np.ndarray:
    """Per frame, the sum of the stage embeddings of the code matrix `codes`,
    which must have exactly `columns` columns: column j looks up table j."""
    codes = lm_core.check_ids(codes, cfg.codebook_size, f"{what} code")
    if codes.ndim != 2 or codes.shape[1] != columns:
        raise ValidationError(
            f"{what} codes must have exactly {columns} columns, got shape {codes.shape}"
        )
    out = np.zeros((codes.shape[0], cfg.embed_dim), params["acoustic_emb.0"].dtype)
    for j in range(columns):
        out += params[f"acoustic_emb.{j}"][codes[:, j]]
    return out


def nar_forward(params, cfg: ModelConfig, phon_ids, acoustic_prompt, partial_target,
                stage: int, *, train=False, rng=None, return_cache=False):
    """Logits (T, K) for the target frames at the given stage in [2, Q], from
    the Q-stage prompt and the target's known stages 1..stage-1."""
    if not 2 <= stage <= cfg.quantizers:
        raise ValidationError(f"stage must lie in [2, {cfg.quantizers}], got {stage}")
    phon_ids = lm_core.check_ids(phon_ids, cfg.phoneme_vocab, "phoneme")
    if phon_ids.size == 0:
        raise ValidationError("phoneme sequence is empty")
    prompt_emb = nar_embed_stages(params, cfg, acoustic_prompt, cfg.quantizers, "prompt")
    target_emb = nar_embed_stages(params, cfg, partial_target, stage - 1, "target")
    p, tp, tt = len(phon_ids), prompt_emb.shape[0], target_emb.shape[0]
    n = p + tp + tt
    if n > cfg.max_len:
        raise ValidationError(f"sequence length {n} exceeds max_len {cfg.max_len}")
    emb = np.concatenate([params["phoneme_emb"][phon_ids], prompt_emb, target_emb], axis=0)
    # positions restart for the phoneme prompt; the acoustic prompt and the
    # target continue one numbering, so a target query can address its own
    # neighborhood unambiguously under full attention
    emb += lm_core.segment_position_encoding([p, tp + tt], cfg.embed_dim)
    stage_vec = params["stage_emb"][stage - 2]
    out, stack_cache = lm_core.stack_forward(
        params, cfg, emb, None, stage_vec=stage_vec, train=train, rng=rng
    )
    head = params[f"acoustic_emb.{stage - 1}"]
    rows = out[p + tp :]
    logits = rows @ head.T
    if not return_cache:
        return logits
    cache = {
        "stack": stack_cache,
        "rows": rows,
        "phon_ids": phon_ids,
        "prompt": np.asarray(acoustic_prompt, dtype=np.int64),
        "partial": np.asarray(partial_target, dtype=np.int64),
        "stage": stage,
        "p": p,
        "tp": tp,
        "tt": tt,
    }
    return logits, cache


def nar_backward(params, cfg: ModelConfig, cache, dlogits) -> dict:
    stage, p, tp, tt = cache["stage"], cache["p"], cache["tp"], cache["tt"]
    head_name = f"acoustic_emb.{stage - 1}"
    grads = {head_name: dlogits.T @ cache["rows"]}
    dout = np.zeros((p + tp + tt, cfg.embed_dim), cache["rows"].dtype)
    dout[p + tp :] = dlogits @ params[head_name]
    dx, stack_grads, dstage = lm_core.stack_backward(params, cfg, cache["stack"], dout)
    grads.update(stack_grads)
    grads["stage_emb"] = np.zeros_like(params["stage_emb"])
    grads["stage_emb"][stage - 2] = dstage
    grads["phoneme_emb"] = np.zeros_like(params["phoneme_emb"])
    np.add.at(grads["phoneme_emb"], cache["phon_ids"], dx[:p])
    # backward of the two stage-embedding sums: table j gets the prompt rows,
    # and the target rows while j is a known stage
    for j in range(cfg.quantizers):
        g = grads.setdefault(f"acoustic_emb.{j}", np.zeros_like(params[f"acoustic_emb.{j}"]))
        np.add.at(g, cache["prompt"][:, j], dx[p : p + tp])
        if j < stage - 1:
            np.add.at(g, cache["partial"][:, j], dx[p + tp :])
    return grads


def draw_stage(rng: np.random.Generator, quantizers: int) -> int:
    """Uniform training stage in [2, Q]."""
    return int(rng.integers(2, quantizers + 1))


def nar_loss(params, cfg: ModelConfig, batch, stage: int, *, train=False, rng=None):
    """Cross-entropy on target positions at `stage` in [2, Q].

    `batch` items are (phoneme_ids, acoustic_prompt (T',Q), target_codes (T,Q)).
    Returns (loss, grads, token_count).
    """
    def example(item):
        phon_ids, prompt, target = item
        target = lm_core.check_ids(target, cfg.codebook_size, "target code")
        if target.shape[0] < 1:
            raise ValidationError("target has no frames")
        logits, cache = nar_forward(
            params, cfg, phon_ids, prompt, target[:, : stage - 1], stage,
            train=train, rng=rng, return_cache=True,
        )
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
