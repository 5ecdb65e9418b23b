"""Non-autoregressive stage-conditioned model for quantizers 2..Q.

The transformer input is the concatenation of phoneme embeddings, the summed
all-stage embedding of the enrolled acoustic prompt, and the summed embedding
of the target's already-known stages, under full (unmasked) self-attention.
The training/decoding stage is injected through AdaLN at every norm site.

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

# instrumentation: incremented on every nar_forward call
forward_calls = 0


def reset_forward_calls() -> None:
    global forward_calls
    forward_calls = 0


def init_nar_params(cfg: ModelConfig, rng: np.random.Generator) -> dict:
    cfg.validate()
    if cfg.quantizers < 2:
        raise ValidationError("the NAR model needs at least 2 quantizers")
    d = cfg.embed_dim
    params = {
        "phoneme_emb": EMB_INIT_STD * rng.standard_normal((cfg.phoneme_vocab + 1, d)),
        "stage_emb": EMB_INIT_STD * rng.standard_normal((cfg.quantizers - 1, d)),
    }
    for j in range(cfg.quantizers):
        params[f"acoustic_emb.{j}"] = EMB_INIT_STD * rng.standard_normal(
            (cfg.codebook_size, d)
        )
    params.update(lm_core.init_stack_params(cfg, rng, adaln=True))
    return params


def _check_codes(codes, cfg: ModelConfig, what: str):
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size and (codes.min() < 0 or codes.max() >= cfg.codebook_size):
        raise ValidationError(f"{what} code out of range [0, {cfg.codebook_size})")
    return codes


def nar_embed_target(params, cfg: ModelConfig, partial_target, stage: int) -> np.ndarray:
    """Sum of per-stage embeddings of the known columns 1..stage-1."""
    if stage < 2:
        raise ValidationError("target embedding needs stage >= 2")
    partial_target = _check_codes(partial_target, cfg, "target")
    if partial_target.ndim != 2 or partial_target.shape[1] != stage - 1:
        raise ValidationError(
            f"partial target must have exactly {stage - 1} columns, got shape "
            f"{partial_target.shape}"
        )
    out = np.zeros((partial_target.shape[0], cfg.embed_dim))
    for j in range(stage - 1):
        out += params[f"acoustic_emb.{j}"][partial_target[:, j]]
    return out


def nar_embed_prompt(params, cfg: ModelConfig, acoustic_prompt) -> np.ndarray:
    """Sum of the embeddings of all Q prompt stages per frame."""
    acoustic_prompt = _check_codes(acoustic_prompt, cfg, "prompt")
    if acoustic_prompt.ndim != 2 or acoustic_prompt.shape[1] != cfg.quantizers:
        raise ValidationError(
            f"acoustic prompt must have all {cfg.quantizers} columns, got shape "
            f"{acoustic_prompt.shape}"
        )
    out = np.zeros((acoustic_prompt.shape[0], cfg.embed_dim))
    for j in range(cfg.quantizers):
        out += params[f"acoustic_emb.{j}"][acoustic_prompt[:, j]]
    return out


def nar_forward(params, cfg: ModelConfig, phon_ids, acoustic_prompt, partial_target,
                stage: int, *, train=False, rng=None, return_cache=False):
    """Logits (T, K) for the target frames at the given stage in [2, Q]."""
    global forward_calls
    if not 2 <= stage <= cfg.quantizers:
        raise ValidationError(f"stage must lie in [2, {cfg.quantizers}], got {stage}")
    phon_ids = np.asarray(phon_ids, dtype=np.int64)
    if phon_ids.size == 0:
        raise ValidationError("phoneme sequence is empty")
    if phon_ids.min() < 0 or phon_ids.max() >= cfg.phoneme_vocab:
        raise ValidationError("phoneme id out of range")
    forward_calls += 1

    prompt_emb = nar_embed_prompt(params, cfg, acoustic_prompt)
    target_emb = nar_embed_target(params, cfg, partial_target, stage)
    p, tp, tt = len(phon_ids), prompt_emb.shape[0], target_emb.shape[0]
    n = p + tp + tt
    if n > cfg.max_len:
        raise ValidationError(f"sequence length {n} exceeds max_len {cfg.max_len}")
    emb = np.concatenate([params["phoneme_emb"][phon_ids], prompt_emb, target_emb], axis=0)
    # positions restart for the phoneme prompt; the acoustic prompt and the
    # target continue one numbering, so a target query can address its own
    # neighborhood unambiguously under full attention
    emb = emb + lm_core.segment_position_encoding([p, tp + tt], cfg.embed_dim)
    stage_vec = params["stage_emb"][stage - 2]
    out, stack_cache = lm_core.stack_forward(
        params, cfg, emb, lm_core.full_mask(n), stage_vec=stage_vec, train=train, rng=rng
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
    dout = np.zeros((p + tp + tt, cfg.embed_dim))
    dout[p + tp :] = dlogits @ params[head_name]
    dx, stack_grads, dstage = lm_core.stack_backward(params, cfg, cache["stack"], dout)
    for name, g in stack_grads.items():
        grads[name] = grads.get(name, 0) + g
    grads["stage_emb"] = np.zeros_like(params["stage_emb"])
    grads["stage_emb"][stage - 2] = dstage
    grads.setdefault("phoneme_emb", np.zeros_like(params["phoneme_emb"]))
    np.add.at(grads["phoneme_emb"], cache["phon_ids"], dx[:p])
    for j in range(cfg.quantizers):
        name = f"acoustic_emb.{j}"
        if name not in grads:
            grads[name] = np.zeros_like(params[name])
        np.add.at(grads[name], cache["prompt"][:, j], dx[p : p + tp])
    for j in range(stage - 1):
        np.add.at(grads[f"acoustic_emb.{j}"], cache["partial"][:, j], dx[p + tp :])
    return grads


def draw_stage(rng: np.random.Generator, quantizers: int) -> int:
    """Uniform training stage in [2, Q]."""
    return int(rng.integers(2, quantizers + 1))


def nar_loss(params, cfg: ModelConfig, batch, rng: np.random.Generator, *,
             train=True, stage: int | None = None, dropout_rng=None):
    """Cross-entropy on target positions for one uniformly drawn stage.

    `batch` items are (phoneme_ids, acoustic_prompt (T',Q), target_codes (T,Q)).
    Returns (loss, grads, stage, token_count).
    """
    if not batch:
        raise ValidationError("batch is empty")
    if stage is None:
        stage = draw_stage(rng, cfg.quantizers)
    total_nll = 0.0
    total_count = 0
    acc = {}
    for phon_ids, prompt, target in batch:
        target = _check_codes(target, cfg, "target")
        if target.shape[0] < 1:
            raise ValidationError("target has no frames")
        logits, cache = nar_forward(
            params, cfg, phon_ids, prompt, target[:, : stage - 1], stage,
            train=train, rng=dropout_rng, return_cache=True,
        )
        labels = target[:, stage - 1]
        mean_nll, dlogits = lm_core.cross_entropy(logits, labels)
        count = labels.size
        total_nll += mean_nll * count
        total_count += count
        grads = nar_backward(params, cfg, cache, dlogits * count)
        for name, g in grads.items():
            if name in acc:
                acc[name] += g
            else:
                acc[name] = g
    for name in acc:
        acc[name] = acc[name] / total_count
    return total_nll / total_count, acc, stage, total_count


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
