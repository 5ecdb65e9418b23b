"""Shared neural machinery for both language models.

Everything is plain numpy with hand-written backward passes: embeddings,
sinusoidal positions, causal or full multi-head self-attention, LayerNorm,
position-wise feed-forward blocks, cross-entropy, AdamW with linear
warmup/decay, nucleus sampling, and model checkpoints. AdaLN is LayerNorm
whose (scale, shift) pair, a stored `affine` block, gains the stage vector's
projection through a `proj` block; the norm code is otherwise one path.

The AR and NAR models are one pass, `lm_forward`/`lm_backward`: summed table
lookups plus positions, the trunk, and an output head tied to an embedding
table. A model only states which tables feed which rows, which table and rows
form the head, whether attention is causal, and its AdaLN stage. The models
also share `check_ids`, `batch_loss` and the optimizer here.

The head's rows are a slice that the trunk itself takes: its last layer
computes keys and values for every row (the read rows attend to all of them)
but the rest of the layer only for the read rows, in training, the AR
prefill and decode steps and the NAR fill alike. An AR prefill reads 1 row
and a NAR pass its target rows, so most of that layer's work is saved there.
Dropout masks are still drawn at full shape, so a seeded dropout stream does
not depend on the rows read.

A pass keeps activations only for a backward that will run: the cache is
built only on request (`return_cache`, as the training losses ask), so an
inference or kv pass frees each layer's (H, T, T) attention probabilities
before the next layer runs. A cache is single use: the backward pops each
layer as it goes, and `batch_loss` frees an item's cache before the next
item's forward.

Parameters live in a flat dict of name -> ndarray, float32 as initialized,
trained and stored. The parameters' dtype is the compute dtype: every
activation, gradient and optimizer moment follows it, so float64 parameters
(as the gradient checks use) run the same code in float64. Weight sharing is
by construction: a head is an embedding table, read by name (e.g. the AR
output projection IS the acoustic embedding table), so tying cannot drift.
"""

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import formats, frontend
from .errors import OptimizerError, ValidationError

LN_EPS = 1e-5


@dataclass(frozen=True)
class ModelConfig:
    layers: int = 4
    heads: int = 4
    embed_dim: int = 128
    ffn_dim: int = 512
    dropout: float = 0.1
    codebook_size: int = 256  # acoustic ids 0..K-1; acoustic-EOS = K (AR only)
    quantizers: int = 8
    max_len: int = 4096

    def __post_init__(self):
        if min(self.layers, self.heads, self.embed_dim, self.ffn_dim) < 1:
            raise ValidationError("layers/heads/embed_dim/ffn_dim must be positive")
        if self.embed_dim % self.heads != 0:
            raise ValidationError("embed_dim must be divisible by heads")
        if self.embed_dim % 2 != 0:
            raise ValidationError("model.embed_dim must be even (sin/cos position pairs)")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError("dropout must lie in [0, 1)")
        if self.quantizers < 1 or self.codebook_size < 1:
            raise ValidationError("quantizers and codebook_size must be positive")
        if self.max_len < 1:
            raise ValidationError("model.max_len must be >= 1")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.heads

    @property
    def phoneme_vocab(self) -> int:  # ids 0..V_p-1; a checkpoint's phoneme_table pins them
        return frontend.VOCAB_SIZE

    @property
    def phoneme_eos(self) -> int:
        return self.phoneme_vocab

    @property
    def acoustic_eos(self) -> int:
        return self.codebook_size


# -- positions -------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Fixed sinusoid table for positions 0..length-1: entry (p, 2k) =
    sin(p / 10000^(2k/dim)), entry (p, 2k+1) = cos of the same angle.
    `lm_forward` adds windows of the (max_len, dim) table. Tables are cached
    and read-only."""
    if dim % 2 != 0:
        raise ValidationError("position encoding dim must be even")
    if length < 0:
        raise ValidationError("length must be nonnegative")
    pos = np.arange(length, dtype=np.float64)[:, None]
    k2 = np.arange(0, dim, 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, k2 / dim)
    out = np.empty((length, dim), dtype=np.float64)
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    out.flags.writeable = False
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
    probabilities are exactly zero). d(scores) = probs * (dprobs - rowsum(dprobs
    * probs)) * scale is formed in place in the `dctx @ vᵀ` array, with the row
    sums taken one head at a time, so no further (..., Tq, Tk) array is made."""
    scale = 1.0 / math.sqrt(q.shape[-1])
    dv = np.swapaxes(probs, -1, -2) @ dctx
    dscores = dctx @ np.swapaxes(v, -1, -2)
    dscores -= np.stack([(ds * pr).sum(axis=-1, keepdims=True) for ds, pr in zip(dscores, probs)])
    dscores *= probs
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
    sqrt(2 * layers).

    Each norm site has one `affine` block of (scale, shift) rows, filled with
    (1, 0); an AdaLN site adds a drawn `proj` block whose rows map the stage
    vector to the scale and the shift. Each attention has one stacked q/k/v
    weight `wqkv` and bias `bqkv`. A drawn (n, d, d) block takes the same
    values from the stream as n consecutive (d, d) draws, so this layout
    draws what separate per-projection blocks would."""
    d, f = cfg.embed_dim, cfg.ffn_dim
    out_std = W_INIT_STD / math.sqrt(2.0 * cfg.layers)
    layout = {}

    def norm_site(name):
        layout[f"{name}.affine"] = ((2, d), "fill", ((1.0,), (0.0,)))
        if adaln:
            layout[f"{name}.proj"] = ((2, d, d), "normal", W_INIT_STD)

    for i in range(cfg.layers):
        p = f"layers.{i}"
        norm_site(f"{p}.ln1")
        layout[f"{p}.attn.wqkv"] = ((3, d, d), "normal", W_INIT_STD)
        layout[f"{p}.attn.bqkv"] = ((3, d), "fill", 0.0)
        layout[f"{p}.attn.wo"] = ((d, d), "normal", out_std)
        layout[f"{p}.attn.bo"] = ((d,), "fill", 0.0)
        norm_site(f"{p}.ln2")
        layout[f"{p}.ffn.w1"] = ((d, f), "normal", W_INIT_STD)
        layout[f"{p}.ffn.b1"] = ((f,), "fill", 0.0)
        layout[f"{p}.ffn.w2"] = ((f, d), "normal", out_std)
        layout[f"{p}.ffn.b2"] = ((d,), "fill", 0.0)
    norm_site("ln_f")
    return layout


# -- transformer stack ----------------------------------------------------------------

def _dropout(x, rate, rng, t, rows):
    """Inverted dropout, on exactly when a dropout `rng` is given. `x` holds
    the `rows` of a (t, d) activation: the mask is drawn at (t, d) and its
    `rows` applied, so the draws and each row's mask do not depend on which
    rows are computed."""
    if rng is None or rate <= 0.0:
        return x, None
    mask = ((rng.random((t, x.shape[1])) >= rate).astype(x.dtype) / (1.0 - rate))[rows]
    return x * mask, mask


@dataclass
class KVCache:
    """The keys and values of every position a decoder has run: per layer,
    (H, max_len, hd) key and value buffers whose first `length` positions are
    filled. `stack_forward` allocates them on first use, in its compute
    dtype, and writes each call's keys and values in place after the filled
    part. It is the only state a kv pass keeps: the decoder asks for no
    backward cache."""
    keys: list = field(default_factory=list)
    values: list = field(default_factory=list)
    length: int = 0


def stack_forward(params, cfg: ModelConfig, x, causal: bool, *, rows: slice = slice(None),
                  stage_vec=None, rng=None, kv: KVCache | None = None,
                  return_cache: bool = False):
    """Run the transformer trunk. x: (T, d) summed embeddings (+ positions).

    `causal` lets each position attend only to itself and earlier ones;
    otherwise attention is full. Every norm site is LayerNorm with a (scale,
    shift) pair: its `affine` block, plus, when `stage_vec` is given (AdaLN,
    NAR), the stage vector's projection through its `proj` block. With `kv`,
    for incremental decoding, each layer attends to the cached positions
    followed by the T new ones, and the new keys and values are appended to
    the cache.

    `rows`, a slice of the T rows, are the rows returned. Every layer but the
    last computes all T rows, since the next layer's keys and values read
    them. The last layer still projects keys and values for all T rows (the
    returned rows attend to them, and `kv` stores them), but computes the
    queries, attention, output projection, residual adds, FFN and final norm
    for `rows` only. Its dropout masks are drawn at (T, d) and their `rows`
    applied, so the dropout stream is that of an all-rows pass.

    Returns (output (len(rows), d), cache). The cache, the activations
    `stack_backward` reads, is built only with `return_cache`; otherwise it
    is None, and each layer's activations, its (H, T, T) attention
    probabilities among them, are freed before the next layer runs. A cache
    serves one backward, which consumes it, and only if made without kv;
    one made with kv holds, per layer, every key and value attended to.
    """
    cache = {"stage_vec": stage_vec, "layers": []} if return_cache else None
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
    x, emb_drop = _dropout(x, cfg.dropout, rng, t, slice(None))

    def norm_fwd(name, h):
        ab = params[f"{name}.affine"]
        if stage_vec is not None:
            ab = stage_vec @ params[f"{name}.proj"] + ab
        xhat, inv = _ln_core_forward(h)
        return ab[0] * xhat + ab[1], {"xhat": xhat, "inv": inv, "ab": ab}

    def layer(i, x, sel):
        """Layer i over the T rows of x, computing its `sel` rows; returns
        those output rows. Its activations outlive the call only in the
        cache."""
        p, lc = f"layers.{i}", {"rows": sel}
        n1, lc["ln1"] = norm_fwd(f"{p}.ln1", x)
        w, b = params[f"{p}.attn.wqkv"], params[f"{p}.attn.bqkv"]
        # one stacked q/k/v GEMM, unless the queries are needed for a strict
        # subset of the rows only
        q0 = 0 if range(t)[sel] == range(t) else 1
        qkv = (n1 @ w[q0:] + b[q0:, None]).reshape(3 - q0, t, h, hd).transpose(0, 2, 1, 3)
        qh = qkv[0] if q0 == 0 else (n1[sel] @ w[0] + b[0]).reshape(-1, h, hd).transpose(1, 0, 2)
        kh, vh = qkv[-2:]
        if kv is not None:
            kv.keys[i][:, start:end] = kh
            kv.values[i][:, start:end] = vh
            kh, vh = kv.keys[i][:, :end], kv.values[i][:, :end]
        ctx, probs = _attention_forward(qh, kh, vh, None if blocked is None else blocked[sel])
        if cache is not None:
            lc["probs"] = probs
        del probs  # without a cache, the (H, T, T) array is freed before the FFN runs
        ctx_flat = ctx.transpose(1, 0, 2).reshape(-1, cfg.embed_dim)
        attn_out = ctx_flat @ params[f"{p}.attn.wo"] + params[f"{p}.attn.bo"]
        attn_out, lc["drop1"] = _dropout(attn_out, cfg.dropout, rng, t, sel)
        lc.update(n1=n1, qh=qh, kh=kh, vh=vh, ctx_flat=ctx_flat)
        x = x[sel] + attn_out

        n2, lc["ln2"] = norm_fwd(f"{p}.ln2", x)
        h1 = n2 @ params[f"{p}.ffn.w1"] + params[f"{p}.ffn.b1"]
        r = np.maximum(h1, 0.0)
        f_out = r @ params[f"{p}.ffn.w2"] + params[f"{p}.ffn.b2"]
        f_out, lc["drop2"] = _dropout(f_out, cfg.dropout, rng, t, sel)
        lc.update(n2=n2, relu=r)
        if cache is not None:
            cache["layers"].append(lc)
        return x + f_out

    for i in range(cfg.layers):
        x = layer(i, x, rows if i == cfg.layers - 1 else slice(None))

    if kv is not None:
        kv.length = end
    out, ln_f = norm_fwd("ln_f", x)
    if cache is not None:
        cache.update(emb_drop=emb_drop, ln_f=ln_f)
    return out, cache


def stack_backward(params, cfg: ModelConfig, cache, dout):
    """Backward through stack_forward, given d(loss)/d(output) for the rows it
    returned. The last layer's query gradient is zero on the rows it did not
    compute, and its input gradient gets the residual gradient on its `rows`
    only; the other layers run over all rows. Returns (dx (T, d), grads,
    dstage_vec).

    The backward consumes the cache: each layer's activations are dropped as
    soon as its gradients are formed, and a second backward on the same cache
    is refused."""
    layers = cache.pop("layers", None)
    if layers is None:
        raise ValidationError("stack_backward: this cache was consumed by an earlier backward")
    stage_vec = cache["stage_vec"]
    grads = {}
    dstage = None if stage_vec is None else np.zeros_like(stage_vec)

    def norm_bwd(name, dy, nc):
        xhat = nc["xhat"]
        dab = np.stack(((dy * xhat).sum(axis=0), dy.sum(axis=0)))
        grads[f"{name}.affine"] = dab
        if stage_vec is not None:
            grads[f"{name}.proj"] = stage_vec[:, None] * dab[:, None]
            proj = params[f"{name}.proj"]
            dstage[...] += proj[0] @ dab[0] + proj[1] @ dab[1]
        return _ln_core_backward(dy * nc["ab"][0], xhat, nc["inv"])

    h, hd, d = cfg.heads, cfg.head_dim, cfg.embed_dim
    dx = norm_bwd("ln_f", dout, cache["ln_f"])

    for i in reversed(range(cfg.layers)):
        p = f"layers.{i}"
        lc = layers.pop()
        sel, t = lc["rows"], lc["n1"].shape[0]

        # feed-forward branch
        df = dx if lc["drop2"] is None else dx * lc["drop2"]
        grads[f"{p}.ffn.w2"] = lc["relu"].T @ df
        grads[f"{p}.ffn.b2"] = df.sum(axis=0)
        dr = df @ params[f"{p}.ffn.w2"].T
        dh1 = dr * (lc["relu"] > 0.0)
        grads[f"{p}.ffn.w1"] = lc["n2"].T @ dh1
        grads[f"{p}.ffn.b1"] = dh1.sum(axis=0)
        dn2 = dh1 @ params[f"{p}.ffn.w1"].T
        dx = dx + norm_bwd(f"{p}.ln2", dn2, lc["ln2"])

        # attention branch
        da = dx if lc["drop1"] is None else dx * lc["drop1"]
        grads[f"{p}.attn.wo"] = lc["ctx_flat"].T @ da
        grads[f"{p}.attn.bo"] = da.sum(axis=0)
        dctx_flat = da @ params[f"{p}.attn.wo"].T
        dctx = dctx_flat.reshape(-1, h, hd).transpose(1, 0, 2)
        dqh, dkh, dvh = _attention_backward(dctx, lc["qh"], lc["kh"], lc["vh"], lc["probs"])
        dqkv = np.zeros((3, t, h, hd), dx.dtype)
        dqkv[0, sel] = dqh.transpose(1, 0, 2)
        dqkv[1] = dkh.transpose(1, 0, 2)
        dqkv[2] = dvh.transpose(1, 0, 2)
        dqkv = dqkv.reshape(3, t, d)
        grads[f"{p}.attn.wqkv"] = lc["n1"].T @ dqkv
        grads[f"{p}.attn.bqkv"] = dqkv.sum(axis=1)
        dn1 = np.add.reduce(dqkv @ params[f"{p}.attn.wqkv"].transpose(0, 2, 1))
        dx_in = norm_bwd(f"{p}.ln1", dn1, lc["ln1"])
        dx_in[sel] += dx
        dx = dx_in

    if cache["emb_drop"] is not None:
        dx = dx * cache["emb_drop"]
    return dx, grads, dstage


# -- the language-model pass -------------------------------------------------------------

def lm_forward(params, cfg: ModelConfig, lookups, segments, head: str, rows: slice, *,
               causal: bool, stage: int | None = None, rng=None, kv: KVCache | None = None,
               return_cache: bool = False):
    """One pass of either model: embed, run the trunk, apply a tied head.

    An input row is the sum, in lookup order, of the `lookups` (table, ids,
    first row) that cover it, plus the sinusoid position of its segment:
    `segments` are (length, start) in row order. `stage` picks the `stage_emb`
    row that feeds AdaLN (None: plain LayerNorm). The logits are the output
    `rows`, a slice, against the head table `params[head]`; the trunk's last
    layer computes only those rows (see `stack_forward`), and its output is
    the head's input as it stands. Dropout is on exactly when a dropout `rng`
    is given. Returns (logits (len(rows), V), cache): the cache is for one
    lm_backward, which consumes it, and is built only with `return_cache`
    (else None; see `stack_forward`). The pass's end, KV length + rows, is
    checked against max_len before any lookup; every caller's segment windows
    end within it, so they are not checked again."""
    n = sum(length for length, _ in segments)
    end = n + (0 if kv is None else kv.length)
    if end > cfg.max_len:
        raise ValidationError(f"sequence length {end} exceeds max_len {cfg.max_len}")
    x = np.zeros((n, cfg.embed_dim), params[head].dtype)
    for table, ids, first in lookups:
        x[first : first + len(ids)] += params[table][ids]
    positions = sinusoidal_positions(cfg.max_len, cfg.embed_dim)
    row = 0
    for length, start in segments:
        x[row : row + length] += positions[start : start + length]
        row += length
    stage_vec = None if stage is None else params["stage_emb"][stage]
    hidden, trunk = stack_forward(params, cfg, x, causal, rows=rows, stage_vec=stage_vec, rng=rng,
                                  kv=kv, return_cache=return_cache)
    logits = hidden @ params[head].T
    if not return_cache:
        return logits, None
    return logits, {"trunk": trunk, "lookups": lookups, "head": head, "hidden": hidden,
                    "stage": stage}


def lm_backward(params, cfg: ModelConfig, cache, dlogits) -> dict:
    """Gradients for lm_forward given d(loss)/d(logits), for every block it
    read. A table's gradient is its head term, if any, then its lookups'
    rows of the input gradient, scattered in lookup order."""
    head, hidden = cache["head"], cache["hidden"]
    grads = {head: dlogits.T @ hidden}
    dx, trunk_grads, dstage = stack_backward(params, cfg, cache["trunk"], dlogits @ params[head])
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
    pass, and `backward(dlogits)`, called once, returns its gradients; both
    are dropped before the next item's forward. Per-item gradients, weighted
    by token count, are summed in batch order, then divided by the total
    count. Returns (loss, grads, token_count)."""
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
        # the closure holds the item's cache: free it before the next forward
        del logits, dlogits, backward
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
    return int(kept[min(idx, len(kept) - 1)])


# -- checkpoints ----------------------------------------------------------------------------

def save_model(path, kind: str, cfg: ModelConfig, params: dict, extra: dict | None = None):
    """A `kind` artifact: the ModelConfig fields, the phoneme inventory and
    `extra` as header fields, one block per parameter."""
    header = {f.name: getattr(cfg, f.name) for f in fields(ModelConfig)}
    header.update(phoneme_table=frontend.vocab_table(), **(extra or {}))
    formats.write_artifact(path, kind, header, params)


def load_model(path, kind: str):
    """Returns (ModelConfig, params) of the `kind` checkpoint at `path`.
    Rejects a checkpoint of another kind or phoneme inventory, or with a model
    field missing, of the wrong type or refused by ModelConfig."""
    types = {f.name: f.type for f in fields(ModelConfig)}
    header, params = formats.read_artifact(path, kind, {**types, "phoneme_table": str})
    if header["phoneme_table"] != frontend.vocab_table():
        raise ValidationError(f"{path}: checkpoint was written for another phoneme inventory")
    try:
        return ModelConfig(**{name: header[name] for name in types}), params
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
