"""Shared neural machinery for both language models.

Everything is plain numpy with hand-written backward passes: embeddings,
sinusoidal positions, causal or full multi-head self-attention, LayerNorm and
its stage-conditioned AdaLN variant, position-wise feed-forward blocks,
cross-entropy, AdamW with linear warmup/decay, nucleus sampling, and model
checkpoints.

The AR and NAR models are one pass, `lm_forward`/`lm_backward`: summed table
lookups plus positions, the trunk, and an output head tied to an embedding
table. A model only states which tables feed which rows, which table and rows
form the head, whether attention is causal, and its AdaLN stage. The models
also share `check_ids`, `batch_loss` and the optimizer here.

Parameters live in a flat dict of name -> ndarray, float32 as initialized,
trained and stored. The parameters' dtype is the compute dtype: every
activation, gradient and optimizer moment follows it, so float64 parameters
(as the gradient checks use) run the same code in float64. Weight sharing is
by construction: a head is an embedding table, read by name (e.g. the AR
output projection IS the acoustic embedding table), so tying cannot drift.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import formats, frontend
from .errors import OptimizerError, ValidationError

LN_EPS = 1e-5


@dataclass
class ModelConfig:
    layers: int = 4
    heads: int = 4
    embed_dim: int = 128
    ffn_dim: int = 512
    dropout: float = 0.1
    phoneme_vocab: int = frontend.VOCAB_SIZE  # ids 0..V_p-1; phoneme-EOS = V_p
    codebook_size: int = 256  # acoustic ids 0..K-1; acoustic-EOS = K (AR only)
    quantizers: int = 8
    max_len: int = 4096

    def validate(self):
        if self.embed_dim % self.heads != 0:
            raise ValidationError("embed_dim must be divisible by heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError("dropout must lie in [0, 1)")
        if min(self.layers, self.heads, self.embed_dim, self.ffn_dim) < 1:
            raise ValidationError("layers/heads/embed_dim/ffn_dim must be positive")
        if self.quantizers < 1 or self.codebook_size < 1:
            raise ValidationError("quantizers and codebook_size must be positive")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.heads

    @property
    def phoneme_eos(self) -> int:
        return self.phoneme_vocab

    @property
    def acoustic_eos(self) -> int:
        return self.codebook_size


# -- positions -------------------------------------------------------------------

def sinusoidal_positions(length: int, dim: int, start: int = 0) -> np.ndarray:
    """Fixed sinusoid table for positions start..start+length-1: entry
    (p, 2k) = sin(p / 10000^(2k/dim)), entry (p, 2k+1) = cos of the same
    angle. Each row depends only on its position, so a window equals the
    same rows of a table that starts at 0."""
    if dim % 2 != 0:
        raise ValidationError("position encoding dim must be even")
    if length < 0 or start < 0:
        raise ValidationError("length and start must be nonnegative")
    pos = np.arange(start, start + length, dtype=np.float64)[:, None]
    k2 = np.arange(0, dim, 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, k2 / dim)
    out = np.empty((length, dim), dtype=np.float64)
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


# -- attention --------------------------------------------------------------------

def _attention_forward(q, k, v, blocked):
    """Scaled dot-product attention. q/k/v: (..., T, hd); blocked: (Tq, Tk)
    with True = may not attend, or None for full attention. Returns (context,
    probabilities)."""
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= 1.0 / math.sqrt(q.shape[-1])
    if blocked is not None:
        np.copyto(scores, -np.inf, where=blocked)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores @ v, scores


def _attention_backward(dctx, q, k, v, probs):
    """Backward of _attention_forward (mask handled implicitly: masked
    probabilities are exactly zero)."""
    scale = 1.0 / math.sqrt(q.shape[-1])
    dprobs = dctx @ np.swapaxes(v, -1, -2)
    dv = np.swapaxes(probs, -1, -2) @ dctx
    dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
    dscores *= scale
    dq = dscores @ k
    dk = np.swapaxes(dscores, -1, -2) @ q
    return dq, dk, dv


# -- layer norm / AdaLN -------------------------------------------------------------

def _ln_core_forward(x):
    """(x - mean) * inv and inv = 1 / sqrt(var + eps) over the last axis:
    bitwise the `x.mean`/`x.var` form, without those methods' overhead."""
    n = x.shape[-1]
    c = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(c * c, axis=-1, keepdims=True) / n + LN_EPS)
    c *= inv
    return c, inv


def _ln_core_backward(dxhat, xhat, inv):
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2)


# -- parameter initialization --------------------------------------------------------

EMB_INIT_STD = 0.1
W_INIT_STD = 0.02


def normal_init(rng: np.random.Generator, std: float, shape) -> np.ndarray:
    """float32 parameters: float64 standard normals times `std`, rounded."""
    return (std * rng.standard_normal(shape)).astype(np.float32)


def init_params(layout: dict, rng: np.random.Generator) -> dict:
    """float32 parameters of `layout` (see `stack_layout`): the normal blocks
    drawn from `rng` in layout order, the constant ones filled."""
    return {name: normal_init(rng, value, shape) if how == "normal"
            else np.full(shape, value, np.float32)
            for name, (shape, how, value) in layout.items()}


def stack_layout(cfg: ModelConfig, adaln: bool) -> dict:
    """Transformer trunk parameters (no embeddings) in draw order: name ->
    (shape, "normal", std) for a drawn block or (shape, "fill", value) for a
    constant one. Residual-branch output projections are scaled down by
    sqrt(2 * layers)."""
    d, f = cfg.embed_dim, cfg.ffn_dim
    out_std = W_INIT_STD / math.sqrt(2.0 * cfg.layers)
    layout = {}

    def norm_site(name):
        if adaln:
            layout[f"{name}.pa"] = ((d, d), "normal", W_INIT_STD)
            layout[f"{name}.ba"] = ((d,), "fill", 1.0)
            layout[f"{name}.pb"] = ((d, d), "normal", W_INIT_STD)
            layout[f"{name}.bb"] = ((d,), "fill", 0.0)
        else:
            layout[f"{name}.g"] = ((d,), "fill", 1.0)
            layout[f"{name}.b"] = ((d,), "fill", 0.0)

    for i in range(cfg.layers):
        p = f"layers.{i}"
        norm_site(f"{p}.ln1")
        for w in ("wq", "wk", "wv"):
            layout[f"{p}.attn.{w}"] = ((d, d), "normal", W_INIT_STD)
        layout[f"{p}.attn.wo"] = ((d, d), "normal", out_std)
        for b in ("bq", "bk", "bv", "bo"):
            layout[f"{p}.attn.{b}"] = ((d,), "fill", 0.0)
        norm_site(f"{p}.ln2")
        layout[f"{p}.ffn.w1"] = ((d, f), "normal", W_INIT_STD)
        layout[f"{p}.ffn.b1"] = ((f,), "fill", 0.0)
        layout[f"{p}.ffn.w2"] = ((f, d), "normal", out_std)
        layout[f"{p}.ffn.b2"] = ((d,), "fill", 0.0)
    norm_site("ln_f")
    return layout


# -- transformer stack ----------------------------------------------------------------

def _dropout(x, rate, rng, train):
    if not train or rate <= 0.0:
        return x, None
    if rng is None:
        raise ValidationError("training forward needs an rng for dropout")
    mask = (rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
    return x * mask, mask


@dataclass
class KVCache:
    """The keys and values of every position a decoder has run: per layer,
    (H, max_len, hd) key and value buffers whose first `length` positions are
    filled. `stack_forward` allocates them on first use, in its compute
    dtype, and writes each call's keys and values in place after the filled
    part."""
    keys: list = field(default_factory=list)
    values: list = field(default_factory=list)
    length: int = 0


def stack_forward(params, cfg: ModelConfig, x, causal: bool, *, stage_vec=None, train=False,
                  rng=None, kv: KVCache | None = None):
    """Run the transformer trunk. x: (T, d) summed embeddings (+ positions).

    `causal` lets each position attend only to itself and earlier ones;
    otherwise attention is full. stage_vec selects AdaLN conditioning (NAR);
    None selects plain LayerNorm with learned gain/bias (AR). With `kv`, for
    incremental decoding, each layer attends to the cached positions followed
    by the T new ones, and the new keys and values are appended to the cache.
    Returns (output (T, d), cache); the cache's per-layer kh/vh hold every key
    and value the layer attended to. Backward needs a cache made without kv.
    """
    adaln = stage_vec is not None
    cache = {"adaln": adaln, "stage_vec": stage_vec, "layers": []}
    h, t = cfg.heads, x.shape[0]
    hd = cfg.head_dim
    start = 0 if kv is None else kv.length
    end = start + t
    if end > cfg.max_len:
        raise ValidationError(f"sequence length {end} exceeds max_len {cfg.max_len}")
    if kv is not None and not kv.keys:
        kv.keys = [np.empty((h, cfg.max_len, hd), x.dtype) for _ in range(cfg.layers)]
        kv.values = [np.empty((h, cfg.max_len, hd), x.dtype) for _ in range(cfg.layers)]
    # new row i (position start + i) may not see a later key; one row sees all
    blocked = np.triu(np.ones((t, end), bool), start + 1) if causal and t > 1 else None
    x, cache["emb_drop"] = _dropout(x, cfg.dropout, rng, train)

    def norm_fwd(name, h):
        xhat, inv = _ln_core_forward(h)
        if adaln:
            # scale and shift: linear projections of the stage embedding
            a = stage_vec @ params[f"{name}.pa"] + params[f"{name}.ba"]
            b = stage_vec @ params[f"{name}.pb"] + params[f"{name}.bb"]
            return a * xhat + b, {"xhat": xhat, "inv": inv, "a": a}
        g = params[f"{name}.g"]
        return g * xhat + params[f"{name}.b"], {"xhat": xhat, "inv": inv, "g": g}

    for i in range(cfg.layers):
        p = f"layers.{i}"
        lc = {}
        n1, lc["ln1"] = norm_fwd(f"{p}.ln1", x)
        q = n1 @ params[f"{p}.attn.wq"] + params[f"{p}.attn.bq"]
        k = n1 @ params[f"{p}.attn.wk"] + params[f"{p}.attn.bk"]
        v = n1 @ params[f"{p}.attn.wv"] + params[f"{p}.attn.bv"]
        qh = q.reshape(t, h, hd).transpose(1, 0, 2)
        kh = k.reshape(t, h, hd).transpose(1, 0, 2)
        vh = v.reshape(t, h, hd).transpose(1, 0, 2)
        if kv is not None:
            kv.keys[i][:, start:end] = kh
            kv.values[i][:, start:end] = vh
            kh, vh = kv.keys[i][:, :end], kv.values[i][:, :end]
        ctx, probs = _attention_forward(qh, kh, vh, blocked)
        ctx_flat = ctx.transpose(1, 0, 2).reshape(t, cfg.embed_dim)
        attn_out = ctx_flat @ params[f"{p}.attn.wo"] + params[f"{p}.attn.bo"]
        attn_out, lc["drop1"] = _dropout(attn_out, cfg.dropout, rng, train)
        lc.update(n1=n1, qh=qh, kh=kh, vh=vh, probs=probs, ctx_flat=ctx_flat)
        x = x + attn_out

        n2, lc["ln2"] = norm_fwd(f"{p}.ln2", x)
        h1 = n2 @ params[f"{p}.ffn.w1"] + params[f"{p}.ffn.b1"]
        r = np.maximum(h1, 0.0)
        f_out = r @ params[f"{p}.ffn.w2"] + params[f"{p}.ffn.b2"]
        f_out, lc["drop2"] = _dropout(f_out, cfg.dropout, rng, train)
        lc.update(n2=n2, relu=r)
        x = x + f_out
        cache["layers"].append(lc)

    if kv is not None:
        kv.length = end
    out, cache["ln_f"] = norm_fwd("ln_f", x)
    return out, cache


def stack_backward(params, cfg: ModelConfig, cache, dout):
    """Backward through stack_forward. Returns (dx, grads, dstage_vec)."""
    adaln = cache["adaln"]
    stage_vec = cache["stage_vec"]
    grads = {}
    dstage = np.zeros_like(stage_vec) if adaln else None

    def acc(name, g):
        if name in grads:
            grads[name] += g
        else:
            grads[name] = g

    def norm_bwd(name, dy, nc):
        nonlocal dstage
        xhat, inv = nc["xhat"], nc["inv"]
        if adaln:
            da = (dy * xhat).sum(axis=0)
            db = dy.sum(axis=0)
            acc(f"{name}.pa", np.outer(stage_vec, da))
            acc(f"{name}.ba", da)
            acc(f"{name}.pb", np.outer(stage_vec, db))
            acc(f"{name}.bb", db)
            dstage += params[f"{name}.pa"] @ da + params[f"{name}.pb"] @ db
            dxhat = dy * nc["a"]
        else:
            acc(f"{name}.g", (dy * xhat).sum(axis=0))
            acc(f"{name}.b", dy.sum(axis=0))
            dxhat = dy * nc["g"]
        return _ln_core_backward(dxhat, xhat, inv)

    h, hd = cfg.heads, cfg.head_dim
    dx = norm_bwd("ln_f", dout, cache["ln_f"])

    for i in reversed(range(cfg.layers)):
        p = f"layers.{i}"
        lc = cache["layers"][i]
        t = lc["n1"].shape[0]

        # feed-forward branch
        df = dx if lc["drop2"] is None else dx * lc["drop2"]
        acc(f"{p}.ffn.w2", lc["relu"].T @ df)
        acc(f"{p}.ffn.b2", df.sum(axis=0))
        dr = df @ params[f"{p}.ffn.w2"].T
        dh1 = dr * (lc["relu"] > 0.0)
        acc(f"{p}.ffn.w1", lc["n2"].T @ dh1)
        acc(f"{p}.ffn.b1", dh1.sum(axis=0))
        dn2 = dh1 @ params[f"{p}.ffn.w1"].T
        dx = dx + norm_bwd(f"{p}.ln2", dn2, lc["ln2"])

        # attention branch
        da = dx if lc["drop1"] is None else dx * lc["drop1"]
        acc(f"{p}.attn.wo", lc["ctx_flat"].T @ da)
        acc(f"{p}.attn.bo", da.sum(axis=0))
        dctx_flat = da @ params[f"{p}.attn.wo"].T
        dctx = dctx_flat.reshape(t, h, hd).transpose(1, 0, 2)
        dqh, dkh, dvh = _attention_backward(dctx, lc["qh"], lc["kh"], lc["vh"], lc["probs"])
        dq = dqh.transpose(1, 0, 2).reshape(t, cfg.embed_dim)
        dk = dkh.transpose(1, 0, 2).reshape(t, cfg.embed_dim)
        dv = dvh.transpose(1, 0, 2).reshape(t, cfg.embed_dim)
        acc(f"{p}.attn.wq", lc["n1"].T @ dq)
        acc(f"{p}.attn.bq", dq.sum(axis=0))
        acc(f"{p}.attn.wk", lc["n1"].T @ dk)
        acc(f"{p}.attn.bk", dk.sum(axis=0))
        acc(f"{p}.attn.wv", lc["n1"].T @ dv)
        acc(f"{p}.attn.bv", dv.sum(axis=0))
        dn1 = (
            dq @ params[f"{p}.attn.wq"].T
            + dk @ params[f"{p}.attn.wk"].T
            + dv @ params[f"{p}.attn.wv"].T
        )
        dx = dx + norm_bwd(f"{p}.ln1", dn1, lc["ln1"])

    if cache["emb_drop"] is not None:
        dx = dx * cache["emb_drop"]
    return dx, grads, dstage


# -- the language-model pass -------------------------------------------------------------

def lm_forward(params, cfg: ModelConfig, lookups, segments, head: str, rows, *, causal: bool,
               stage: int | None = None, train=False, rng=None, kv: KVCache | None = None):
    """One pass of either model: embed, run the trunk, apply a tied head.

    An input row is the sum, in lookup order, of the `lookups` (table, ids,
    first row) that cover it, plus the sinusoid position of its segment:
    `segments` are (length, start) in row order. `stage` picks the `stage_emb`
    row that feeds AdaLN (None: plain LayerNorm). The logits are the output
    `rows` (a slice or an index) against the head table `params[head]`.
    Returns (logits, cache for lm_backward)."""
    n = sum(length for length, _ in segments)
    x = np.zeros((n, cfg.embed_dim), params[head].dtype)
    for table, ids, first in lookups:
        x[first : first + len(ids)] += params[table][ids]
    row = 0
    for length, start in segments:
        x[row : row + length] += sinusoidal_positions(length, cfg.embed_dim, start)
        row += length
    stage_vec = None if stage is None else params["stage_emb"][stage]
    out, trunk = stack_forward(params, cfg, x, causal, stage_vec=stage_vec, train=train, rng=rng,
                               kv=kv)
    hidden = out[rows]
    return hidden @ params[head].T, {"trunk": trunk, "lookups": lookups, "head": head,
                                     "rows": rows, "hidden": hidden, "stage": stage, "n": n}


def lm_backward(params, cfg: ModelConfig, cache, dlogits) -> dict:
    """Gradients for lm_forward given d(loss)/d(logits), for every block it
    read. A table's gradient is its head term, if any, then its lookups'
    rows of the input gradient, scattered in lookup order."""
    head, hidden = cache["head"], cache["hidden"]
    grads = {head: dlogits.T @ hidden}
    dout = np.zeros((cache["n"], cfg.embed_dim), hidden.dtype)
    dout[cache["rows"]] = dlogits @ params[head]
    dx, trunk_grads, dstage = stack_backward(params, cfg, cache["trunk"], dout)
    grads.update(trunk_grads)
    if cache["stage"] is not None:
        grads["stage_emb"] = np.zeros_like(params["stage_emb"])
        grads["stage_emb"][cache["stage"]] = dstage
    for table, ids, first in cache["lookups"]:
        g = grads.setdefault(table, np.zeros_like(params[table]))
        np.add.at(g, ids, dx[first : first + len(ids)])
    return grads


# -- losses ----------------------------------------------------------------------------

def cross_entropy(logits, targets):
    """Mean negative log-likelihood of `targets` (one per row of `logits`),
    computed in float64.

    Returns (loss, dlogits) where dlogits is the gradient of the mean, in the
    dtype of `logits`.
    """
    dtype = np.asarray(logits).dtype
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    count = targets.size
    if count == 0:
        raise ValidationError("cross_entropy: no targets")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    rows = np.arange(count)
    nll = -logp[rows, targets]
    loss = float(nll.sum() / count)
    dlogits = np.exp(logp)
    dlogits[rows, targets] -= 1.0
    dlogits *= 1.0 / count
    return loss, dlogits.astype(dtype, copy=False)


def batch_loss(batch, example):
    """Cross-entropy averaged over every target token of `batch`.

    `example(item) -> (logits, targets, backward)` runs one item's forward
    pass, and `backward(dlogits)` returns its gradients. Per-item gradients,
    weighted by token count, are summed in batch order, then divided by the
    total count. Returns (loss, grads, token_count)."""
    if not batch:
        raise ValidationError("batch is empty")
    total_nll = 0.0
    total_count = 0
    acc = {}
    for item in batch:
        logits, targets, backward = example(item)
        mean_nll, dlogits = cross_entropy(logits, targets)
        count = targets.size
        total_nll += mean_nll * count
        total_count += count
        for name, g in backward(dlogits * count).items():
            if name in acc:
                acc[name] += g
            else:
                acc[name] = g
    grads = {name: g / total_count for name, g in acc.items()}
    return total_nll / total_count, grads, total_count


def check_ids(ids, upper: int, what: str) -> np.ndarray:
    """`ids` as int64, each in [0, upper); else a ValidationError naming `what`."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= upper):
        raise ValidationError(f"{what} id out of range [0, {upper})")
    return ids


# -- optimizer ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def lr_at(cfg, step: int) -> float:
    """Linear warmup to `cfg.peak_lr` at `cfg.warmup_steps`, then linear decay
    to zero at `cfg.total_steps`; `cfg` is a `pipeline.TrainConfig`."""
    if step < 1:
        raise ValidationError("schedule step starts at 1")
    up = step / cfg.warmup_steps
    down = max(0.0, (cfg.total_steps - step) / (cfg.total_steps - cfg.warmup_steps))
    return cfg.peak_lr * min(up, down)


@dataclass
class AdamWState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adamw_step(params, grads, state: AdamWState, step: int, cfg) -> float:
    """Standard decoupled-weight-decay Adam update, in place, with the
    schedule of `lr_at` and `cfg.weight_decay`; returns the lr."""
    lr = lr_at(cfg, step)
    for name in sorted(grads):
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise OptimizerError(f"non-finite gradient in parameter block {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        mhat = m / (1.0 - ADAM_BETA1**step)
        vhat = v / (1.0 - ADAM_BETA2**step)
        params[name] -= lr * (mhat / (np.sqrt(vhat) + ADAM_EPS) + cfg.weight_decay * params[name])
    return lr


# -- sampling ---------------------------------------------------------------------------

def nucleus_sample(logits, temperature: float, top_p: float, rng: np.random.Generator) -> int:
    """Temperature + top-p sampling; temperature 0 means greedy argmax."""
    logits = np.asarray(logits, dtype=np.float64)
    if not temperature >= 0:  # also refuses nan
        raise ValidationError("temperature must be nonnegative")
    if not 0.0 < top_p <= 1.0:
        raise ValidationError("top_p must lie in (0, 1]")
    if temperature == 0.0:
        return int(np.argmax(logits))
    shifted = logits / temperature
    shifted -= shifted.max()
    probs = np.exp(shifted)
    probs /= probs.sum()
    order = np.argsort(-probs, kind="stable")
    csum = np.cumsum(probs[order])
    cut = int(np.searchsorted(csum, top_p)) + 1
    kept = order[:cut]
    kept_probs = probs[kept]
    kept_probs /= kept_probs.sum()
    r = rng.random()
    idx = int(np.searchsorted(np.cumsum(kept_probs), r))
    return int(kept[min(idx, cut - 1)])


# -- checkpoints ----------------------------------------------------------------------------

def save_model(path, kind: str, cfg: ModelConfig, params: dict, extra: dict | None = None):
    """A `kind` artifact: the ModelConfig fields, the phoneme inventory and
    `extra` as header fields, one block per parameter."""
    header = {f.name: getattr(cfg, f.name) for f in fields(ModelConfig)}
    header.update(phoneme_table=frontend.vocab_table(), **(extra or {}))
    formats.write_artifact(path, kind, header, params)


def load_model(path, kind: str):
    """Returns (ModelConfig, params) of the `kind` checkpoint at `path`.
    Rejects a checkpoint of another kind, written for another phoneme
    inventory, or with a model field missing or of the wrong type."""
    types = {f.name: f.type for f in fields(ModelConfig)}
    header, params = formats.read_artifact(path, kind, {**types, "phoneme_table": str})
    if header["phoneme_table"] != frontend.vocab_table():
        raise ValidationError(f"{path}: checkpoint was written for another phoneme inventory")
    cfg = ModelConfig(**{name: header[name] for name in types})
    cfg.validate()
    return cfg, params
