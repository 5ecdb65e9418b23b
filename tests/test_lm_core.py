import math
import tracemalloc
import weakref
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codec_lm import ar_model, formats, lm_core, nar_model
from codec_lm.errors import OptimizerError, ValidationError
from codec_lm.lm_core import AdamWState, ModelConfig
from codec_lm.pipeline import TrainConfig


class TestSinusoidalPositions:
    def test_row_zero_alternates(self):
        enc = lm_core.sinusoidal_positions(3, 8)
        np.testing.assert_allclose(enc[0], [0, 1] * 4, atol=1e-15)

    def test_direct_evaluation(self):
        """Oracle: sin(1 / 10000^0) at (p=1, 2k=0)."""
        enc = lm_core.sinusoidal_positions(2, 4)
        assert enc[1, 0] == pytest.approx(math.sin(1.0), abs=1e-12)
        assert enc[1, 1] == pytest.approx(math.cos(1.0), abs=1e-12)
        assert enc[1, 2] == pytest.approx(math.sin(1.0 / 100.0), abs=1e-12)

    def test_zero_length(self):
        assert lm_core.sinusoidal_positions(0, 6).shape == (0, 6)

    def test_odd_dim_rejected(self):
        with pytest.raises(ValidationError):
            lm_core.sinusoidal_positions(4, 5)

    def test_table_is_built_once_and_read_only(self):
        """lm_forward adds windows of one cached (max_len, dim) table."""
        d, n = ModelConfig().embed_dim, ModelConfig().max_len
        table = lm_core.sinusoidal_positions(n, d)
        assert lm_core.sinusoidal_positions(n, d) is table
        assert table.shape == (n, d) and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0


INPUT_CFG = ModelConfig(layers=1, heads=2, embed_dim=8, ffn_dim=16, dropout=0.0)


def _trunk_input(trunk_inputs, params, lookups, segments):
    """The rows `lm_core.lm_forward` hands the trunk for these lookups and
    segments."""
    lm_core.lm_forward(params, INPUT_CFG, lookups, segments, "head", slice(None), causal=False)
    return trunk_inputs[0]


def _input_params(rng, head_rows):
    """float64 trunk parameters of INPUT_CFG and a zero (head_rows, 8) table
    "head"."""
    params = lm_core.init_params(lm_core.stack_layout(INPUT_CFG, adaln=False), rng)
    params["head"] = np.zeros((head_rows, 8), np.float32)
    return {name: p.astype(np.float64) for name, p in params.items()}


class TestSegmentedPositions:
    def test_encoding_blocks(self, trunk_inputs, rng):
        """Positions restart at each segment's start: zero embeddings leave
        the sinusoid table of every segment, in row order."""
        params = _input_params(rng, 1)
        x = _trunk_input(trunk_inputs, params, [("head", [0, 0, 0, 0, 0, 0], 0)],
                         [(3, 0), (2, 0), (1, 7)])
        single = lm_core.sinusoidal_positions(8, 8)
        np.testing.assert_array_equal(x, np.concatenate([single[:3], single[:2], single[7:]]))

    def test_segment_past_max_len_rejected(self, rng):
        """A segment longer than the position table is refused as too long a
        sequence, not by a shape error."""
        params = _input_params(rng, 1)
        cfg = replace(INPUT_CFG, max_len=16)
        with pytest.raises(ValidationError, match="sequence length 20 exceeds max_len 16"):
            lm_core.lm_forward(params, cfg, [], [(20, 0)], "head", slice(None), causal=False)


class TestLmInput:
    def test_lookups_sum_in_order_onto_their_rows(self, trunk_inputs, rng):
        """Oracle: each lookup adds its table's rows from its first row on;
        rows no lookup covers carry the positions alone."""
        params = _input_params(rng, 4)
        params["head"] = rng.normal(size=(4, 8))
        params["other"] = rng.normal(size=(3, 8))
        lookups = [("head", [3, 1], 0), ("other", [2, 2, 0], 1), ("head", [0], 3)]
        x = _trunk_input(trunk_inputs, params, lookups, [(5, 0)])
        head, other = params["head"], params["other"]
        expected = np.stack([head[3], head[1] + other[2], other[2], other[0] + head[0],
                             np.zeros(8)])
        np.testing.assert_allclose(x, expected + lm_core.sinusoidal_positions(5, 8), atol=1e-12)


def _attend(q, k, v, blocked):
    """The context output of the trunk's attention."""
    return lm_core._attention_forward(q, k, v, blocked)[0]


def _causal(t, start=0):
    """The causal mask of `t` new rows after `start` cached ones, as the trunk
    builds it: True where row i may not see key j > start + i."""
    return np.triu(np.ones((t, start + t), dtype=bool), start + 1)


class TestAttention:
    def test_identity_mask_returns_v(self, rng):
        q = rng.normal(size=(4, 8))
        k = rng.normal(size=(4, 8))
        v = rng.normal(size=(4, 8))
        out = _attend(q, k, v, ~np.eye(4, dtype=bool))
        np.testing.assert_allclose(out, v, atol=1e-12)

    def test_uniform_scores_average_v(self, rng):
        q = np.zeros((3, 8))
        k = rng.normal(size=(3, 8))
        v = rng.normal(size=(3, 8))
        out = _attend(q, k, v, None)
        np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (3, 1)), atol=1e-12)

    def test_matches_reference_formula(self, rng):
        """Oracle: unbatched softmax(QK^T/sqrt(d)) V."""
        q = rng.normal(size=(3, 3))
        k = rng.normal(size=(3, 3))
        v = rng.normal(size=(3, 3))
        scores = q @ k.T / math.sqrt(3)
        ref = np.exp(scores - scores.max(axis=1, keepdims=True))
        ref /= ref.sum(axis=1, keepdims=True)
        ref = ref @ v
        out = _attend(q, k, v, None)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_causal_rows_see_exactly_their_past(self, rng):
        """A causal chunk of t rows after `start` cached ones: row i attends
        to keys 0..start+i, with weight on its own key, and to no later one,
        so no row is fully masked."""
        cfg = ModelConfig(layers=1, heads=2, embed_dim=8, ffn_dim=16, dropout=0.0, max_len=9)
        params = lm_core.init_params(lm_core.stack_layout(cfg, adaln=False), rng)
        for start, t in ((0, 5), (3, 4), (4, 2)):
            kv = lm_core.KVCache()
            if start:
                lm_core.stack_forward(params, cfg, rng.normal(size=(start, 8)), True, kv=kv)
            _, cache = lm_core.stack_forward(params, cfg, rng.normal(size=(t, 8)), True, kv=kv,
                                             return_cache=True)
            probs = cache["layers"][0]["probs"]
            rows = np.arange(t)
            assert probs.shape == (2, t, start + t)
            assert (probs[:, rows, start + rows] > 0).all()
            np.testing.assert_array_equal(probs[:, _causal(t, start)], 0.0)
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)

    def test_masked_positions_are_ignored(self, rng):
        q = rng.normal(size=(4, 8))
        k = rng.normal(size=(4, 8))
        v = rng.normal(size=(4, 8))
        base = _attend(q, k, v, _causal(4))
        k2, v2 = k.copy(), v.copy()
        k2[3] = 99.0
        v2[3] = -99.0
        out = _attend(q, k2, v2, _causal(4))
        np.testing.assert_array_equal(base[:3], out[:3])

    def test_no_mask_is_full_attention(self, rng):
        """blocked=None skips the masking pass, and gives bitwise what a mask
        that blocks nothing gives."""
        q, k, v = (rng.normal(size=(2, 4, 8)) for _ in range(3))
        a, pa = lm_core._attention_forward(q, k, v, None)
        b, pb = lm_core._attention_forward(q, k, v, np.zeros((4, 4), dtype=bool))
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(pa, pb)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
    @pytest.mark.parametrize("rows", [slice(None), slice(150, None)], ids=["all", "row_slice"])
    def test_backward_is_the_allocating_formula(self, dtype, causal, rows):
        """The in-place backward equals, bit for bit, the formula that makes a
        new array at each step, kept here as the oracle. T = 200 rows sum over
        more than one pairwise-summation block."""
        rng = np.random.default_rng(6)
        h, t, hd = 4, 200, 8
        q, k, v = (rng.normal(size=(h, t, hd)).astype(dtype) for _ in range(3))
        q = q[:, rows]
        ctx, probs = lm_core._attention_forward(q, k, v, _causal(t)[rows] if causal else None)
        dctx = rng.normal(size=ctx.shape).astype(dtype)
        scale = 1.0 / math.sqrt(hd)
        dprobs = dctx @ np.swapaxes(v, -1, -2)
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True)) * scale
        want = (dscores @ k, np.swapaxes(dscores, -1, -2) @ q, np.swapaxes(probs, -1, -2) @ dctx)
        got = lm_core._attention_backward(dctx, q, k, v, probs)
        for name, g, w in zip(("dq", "dk", "dv"), got, want):
            assert g.dtype == w.dtype == dtype, name
            np.testing.assert_array_equal(g, w, err_msg=name)

    def test_softmax_rows_sum_to_one(self, rng):
        q = rng.normal(size=(5, 6))
        k = rng.normal(size=(5, 6))
        _, probs = lm_core._attention_forward(q, k, rng.normal(size=(5, 6)), _causal(5))
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(5), atol=1e-6)


class TestLayerNormCore:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 128), (7, 128), (330, 128), (1, 8), (513, 16)])
    def test_bitwise_the_mean_var_form(self, rng, dtype, shape):
        """Oracle: the textbook form with ndarray.mean and ndarray.var."""
        x = (3.0 * rng.normal(size=shape) + rng.normal(size=shape[-1])).astype(dtype)
        mu = x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + lm_core.LN_EPS)
        xhat, got_inv = lm_core._ln_core_forward(x)
        assert xhat.dtype == got_inv.dtype == dtype
        np.testing.assert_array_equal(got_inv, inv)
        np.testing.assert_array_equal(xhat, (x - mu) * inv)


class TestAdaLayerNorm:
    """AdaLN as the trunk runs it: stack_forward with a stage vector."""

    CFG = ModelConfig(layers=2, heads=2, embed_dim=8, ffn_dim=16, dropout=0.0, quantizers=4)

    def _trunks(self, rng, c, e):
        """An AdaLN trunk with proj = 0 and affine = (c, e) at every norm site,
        and the plain-LN trunk with the same affine and the same weights."""
        ada = lm_core.init_params(lm_core.stack_layout(self.CFG, adaln=True), rng)
        plain = {}
        for name, value in ada.items():
            leaf = name.rpartition(".")[2]
            if leaf == "proj":
                ada[name] = np.zeros_like(value)
            elif leaf == "affine":
                ada[name] = np.stack([np.full(8, c), np.full(8, e)]).astype(value.dtype)
                plain[name] = ada[name]
            else:
                plain[name] = value
        return ada, plain

    def _check_reduces_to_layernorm(self, rng, c, e):
        ada, plain = self._trunks(rng, c, e)
        x = rng.normal(size=(5, 8))
        out, _ = lm_core.stack_forward(ada, self.CFG, x, True, stage_vec=rng.normal(size=8))
        ref, _ = lm_core.stack_forward(plain, self.CFG, x, True)
        np.testing.assert_array_equal(out, ref)

    def test_identity_modulation_is_layernorm(self, rng):
        self._check_reduces_to_layernorm(rng, 1.0, 0.0)

    def test_scalar_affine_composition(self, rng):
        """Oracle: scale 2, shift 0.5 is the plain trunk with that affine, and
        per-channel scales and shifts are the plain trunk with those."""
        self._check_reduces_to_layernorm(rng, 2.0, 0.5)
        self._check_reduces_to_layernorm(rng, rng.normal(size=8), rng.normal(size=8))

    def test_distinct_stages_differ(self, rng):
        params = lm_core.init_params(lm_core.stack_layout(self.CFG, adaln=True), rng)
        x = rng.normal(size=(5, 8))
        a, _ = lm_core.stack_forward(params, self.CFG, x, False, stage_vec=rng.normal(size=8))
        b, _ = lm_core.stack_forward(params, self.CFG, x, False, stage_vec=rng.normal(size=8))
        assert np.abs(a - b).max() > 1e-6

    def test_stage_out_of_range(self, rng):
        """The AdaLN stage vector exists for stages 2..Q only: stage 1 must not
        wrap round to the last row of the stage table, nor Q + 1 run past it."""
        cfg = self.CFG
        params = nar_model.init_nar_params(cfg, rng)
        prompt = rng.integers(0, cfg.codebook_size, size=(3, cfg.quantizers))
        target = rng.integers(0, cfg.codebook_size, size=(2, cfg.quantizers))
        for stage in (2, cfg.quantizers):
            nar_model.nar_forward(params, cfg, [2, 3], prompt, target[:, : stage - 1], stage)
        with pytest.raises(ValidationError):
            nar_model.nar_forward(params, cfg, [2, 3], prompt, target[:, :0], 1)
        with pytest.raises(ValidationError):
            nar_model.nar_forward(params, cfg, [2, 3], prompt, target, cfg.quantizers + 1)


class TestStackLayout:
    CFG = ModelConfig(layers=2, heads=2, embed_dim=8, ffn_dim=16, dropout=0.0,
                      codebook_size=7, quantizers=3)

    @staticmethod
    def _drawn_by_hand(cfg, adaln, rng):
        """The trunk as separate (d, d) blocks drawn one at a time: scale then
        shift projection at an AdaLN site, then q, k and v; each group is
        stacked, and the constant blocks are filled."""
        d, f = cfg.embed_dim, cfg.ffn_dim
        std, out_std = lm_core.W_INIT_STD, lm_core.W_INIT_STD / math.sqrt(2.0 * cfg.layers)
        want = {}

        def draws(n):
            return np.stack([lm_core.normal_init(rng, std, (d, d)) for _ in range(n)])

        def site(name):
            want[f"{name}.affine"] = np.stack([np.ones(d), np.zeros(d)]).astype(np.float32)
            if adaln:
                want[f"{name}.proj"] = draws(2)

        for i in range(cfg.layers):
            p = f"layers.{i}"
            site(f"{p}.ln1")
            want[f"{p}.attn.wqkv"] = draws(3)
            want[f"{p}.attn.bqkv"] = np.zeros((3, d), np.float32)
            want[f"{p}.attn.wo"] = lm_core.normal_init(rng, out_std, (d, d))
            want[f"{p}.attn.bo"] = np.zeros(d, np.float32)
            site(f"{p}.ln2")
            want[f"{p}.ffn.w1"] = lm_core.normal_init(rng, std, (d, f))
            want[f"{p}.ffn.b1"] = np.zeros(f, np.float32)
            want[f"{p}.ffn.w2"] = lm_core.normal_init(rng, out_std, (f, d))
            want[f"{p}.ffn.b2"] = np.zeros(d, np.float32)
        site("ln_f")
        return want

    @pytest.mark.parametrize("kind", ["ar", "nar"])
    def test_init_is_the_per_projection_draw_order(self, kind):
        """Oracle: a seeded init equals, block for block, the embeddings and
        then the trunk drawn as separate (d, d) blocks and stacked, so the
        stacked layout draws the values the per-projection layout drew."""
        cfg, rng = self.CFG, np.random.default_rng(5)
        d, emb = cfg.embed_dim, lm_core.EMB_INIT_STD
        if kind == "ar":
            got = ar_model.init_ar_params(cfg, np.random.default_rng(5))
            want = {"phoneme_emb": lm_core.normal_init(rng, emb, (cfg.phoneme_vocab + 1, d)),
                    "acoustic_emb": lm_core.normal_init(rng, emb, (cfg.codebook_size + 1, d))}
        else:
            got = nar_model.init_nar_params(cfg, np.random.default_rng(5))
            want = {"phoneme_emb": lm_core.normal_init(rng, emb, (cfg.phoneme_vocab + 1, d)),
                    "stage_emb": lm_core.normal_init(rng, emb, (cfg.quantizers - 1, d))}
            for j in range(cfg.quantizers):
                want[f"acoustic_emb.{j}"] = lm_core.normal_init(rng, emb, (cfg.codebook_size, d))
        want.update(self._drawn_by_hand(cfg, kind == "nar", rng))
        assert list(got) == list(want)
        for name, value in want.items():
            assert got[name].dtype == value.dtype == np.float32, name
            np.testing.assert_array_equal(got[name], value, err_msg=name)

    @pytest.mark.parametrize("layout, blocks, count", [
        (ar_model.ar_layout, 43, 834_560),
        (nar_model.nar_layout, 60, 1_359_616),
    ], ids=["ar", "nar"])
    def test_default_parameter_counts(self, layout, blocks, count):
        """The default models keep their parameter counts in fewer blocks."""
        spec = layout(ModelConfig())
        assert len(spec) == blocks
        assert sum(math.prod(shape) for shape, _, _ in spec.values()) == count


class TestPastKV:
    CFG = ModelConfig(layers=2, heads=2, embed_dim=8, ffn_dim=16, dropout=0.0, max_len=6)

    def _params64(self, rng):
        params = lm_core.init_params(lm_core.stack_layout(self.CFG, adaln=False), rng)
        return {name: p.astype(np.float64) for name, p in params.items()}

    def test_chunked_forward_matches_one_pass(self, rng):
        """A causal prefill in chunks of 3, 1 and 2 rows, each against the
        cached keys/values of the rows before it, equals one causal pass over
        all six. The cache's buffers are allocated once and filled in place."""
        cfg, params = self.CFG, self._params64(rng)
        x = rng.normal(size=(6, 8))
        full, _ = lm_core.stack_forward(params, cfg, x, True)
        kv = lm_core.KVCache()
        head, _ = lm_core.stack_forward(params, cfg, x[:3], True, kv=kv)
        buffers = [*kv.keys, *kv.values]
        assert kv.length == 3
        assert all(b.shape == (2, cfg.max_len, 4) and b.dtype == np.float64 for b in buffers)
        one, _ = lm_core.stack_forward(params, cfg, x[3:4], True, kv=kv)
        tail, cache = lm_core.stack_forward(params, cfg, x[4:], True, kv=kv, return_cache=True)
        np.testing.assert_allclose(np.concatenate([head, one, tail]), full, atol=1e-12)
        assert kv.length == 6
        assert all(a is b for a, b in zip([*kv.keys, *kv.values], buffers))
        assert all(lc["kh"].shape == (2, 6, 4) for lc in cache["layers"])

    def test_write_past_max_len_rejected(self, rng):
        """A call that would fill the cache past max_len raises before it
        writes, and the cache keeps its length; so does one pass without a
        cache that is longer than max_len."""
        cfg, params = self.CFG, self._params64(rng)
        kv = lm_core.KVCache()
        lm_core.stack_forward(params, cfg, rng.normal(size=(5, 8)), True, kv=kv)
        with pytest.raises(ValidationError, match="exceeds max_len 6"):
            lm_core.stack_forward(params, cfg, rng.normal(size=(2, 8)), True, kv=kv)
        assert kv.length == 5
        with pytest.raises(ValidationError, match="length 7 exceeds max_len 6"):
            lm_core.stack_forward(params, cfg, rng.normal(size=(7, 8)), False)


def _ref_dropout(x, rate, rng):
    if rng is None or rate <= 0.0:
        return x, None
    mask = (rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
    return x * mask, mask


def reference_trunk(params, cfg, x, causal, *, rows=slice(None), stage_vec=None, rng=None,
                    kv=None, return_cache=False):
    """The trunk before it took `rows`, kept as an oracle: every layer computes
    every row and the rows are taken from the output. A drop-in
    `lm_core.stack_forward` for passes without a key/value cache; it returns
    its cache only with `return_cache`, as the trunk does."""
    assert kv is None
    cache = {"stage_vec": stage_vec, "layers": [], "rows": rows}
    h, t, hd = cfg.heads, x.shape[0], cfg.head_dim
    blocked = np.triu(np.ones((t, t), bool), 1) if causal else None
    x, cache["emb_drop"] = _ref_dropout(x, cfg.dropout, rng)

    def norm_fwd(name, v):
        ab = params[f"{name}.affine"]
        if stage_vec is not None:
            ab = stage_vec @ params[f"{name}.proj"] + ab
        xhat, inv = lm_core._ln_core_forward(v)
        return ab[0] * xhat + ab[1], {"xhat": xhat, "inv": inv, "ab": ab}

    for i in range(cfg.layers):
        p, lc = f"layers.{i}", {}
        n1, lc["ln1"] = norm_fwd(f"{p}.ln1", x)
        qkv = n1 @ params[f"{p}.attn.wqkv"] + params[f"{p}.attn.bqkv"][:, None]
        qh, kh, vh = qkv.reshape(3, t, h, hd).transpose(0, 2, 1, 3)
        ctx, probs = lm_core._attention_forward(qh, kh, vh, blocked)
        ctx_flat = ctx.transpose(1, 0, 2).reshape(t, cfg.embed_dim)
        attn_out = ctx_flat @ params[f"{p}.attn.wo"] + params[f"{p}.attn.bo"]
        attn_out, lc["drop1"] = _ref_dropout(attn_out, cfg.dropout, rng)
        lc.update(n1=n1, qh=qh, kh=kh, vh=vh, probs=probs, ctx_flat=ctx_flat)
        x = x + attn_out
        n2, lc["ln2"] = norm_fwd(f"{p}.ln2", x)
        r = np.maximum(n2 @ params[f"{p}.ffn.w1"] + params[f"{p}.ffn.b1"], 0.0)
        f_out = r @ params[f"{p}.ffn.w2"] + params[f"{p}.ffn.b2"]
        f_out, lc["drop2"] = _ref_dropout(f_out, cfg.dropout, rng)
        lc.update(n2=n2, relu=r)
        x = x + f_out
        cache["layers"].append(lc)
    out, cache["ln_f"] = norm_fwd("ln_f", x)
    return out[rows], cache if return_cache else None


def reference_trunk_backward(params, cfg, cache, dout):
    """Backward of `reference_trunk`: `dout` scattered into zero rows, then
    every layer over every row. A drop-in `lm_core.stack_backward`."""
    stage_vec, grads = cache["stage_vec"], {}
    dstage = None if stage_vec is None else np.zeros_like(stage_vec)
    full = np.zeros((cache["layers"][0]["n1"].shape[0], cfg.embed_dim), dout.dtype)
    full[cache["rows"]] = dout

    def norm_bwd(name, dy, nc):
        dab = np.stack(((dy * nc["xhat"]).sum(axis=0), dy.sum(axis=0)))
        grads[f"{name}.affine"] = dab
        if stage_vec is not None:
            grads[f"{name}.proj"] = stage_vec[:, None] * dab[:, None]
            proj = params[f"{name}.proj"]
            dstage[...] += proj[0] @ dab[0] + proj[1] @ dab[1]
        return lm_core._ln_core_backward(dy * nc["ab"][0], nc["xhat"], nc["inv"])

    h, hd, d = cfg.heads, cfg.head_dim, cfg.embed_dim
    dx = norm_bwd("ln_f", full, cache["ln_f"])
    for i in reversed(range(cfg.layers)):
        p, lc = f"layers.{i}", cache["layers"][i]
        t = lc["n1"].shape[0]
        df = dx if lc["drop2"] is None else dx * lc["drop2"]
        grads[f"{p}.ffn.w2"] = lc["relu"].T @ df
        grads[f"{p}.ffn.b2"] = df.sum(axis=0)
        dh1 = (df @ params[f"{p}.ffn.w2"].T) * (lc["relu"] > 0.0)
        grads[f"{p}.ffn.w1"] = lc["n2"].T @ dh1
        grads[f"{p}.ffn.b1"] = dh1.sum(axis=0)
        dx = dx + norm_bwd(f"{p}.ln2", dh1 @ params[f"{p}.ffn.w1"].T, lc["ln2"])
        da = dx if lc["drop1"] is None else dx * lc["drop1"]
        grads[f"{p}.attn.wo"] = lc["ctx_flat"].T @ da
        grads[f"{p}.attn.bo"] = da.sum(axis=0)
        dctx = (da @ params[f"{p}.attn.wo"].T).reshape(t, h, hd).transpose(1, 0, 2)
        dqkvh = lm_core._attention_backward(dctx, lc["qh"], lc["kh"], lc["vh"], lc["probs"])
        dqkv = np.stack([g.transpose(1, 0, 2) for g in dqkvh]).reshape(3, t, d)
        grads[f"{p}.attn.wqkv"] = lc["n1"].T @ dqkv
        grads[f"{p}.attn.bqkv"] = dqkv.sum(axis=1)
        dn1 = np.add.reduce(dqkv @ params[f"{p}.attn.wqkv"].transpose(0, 2, 1))
        dx = dx + norm_bwd(f"{p}.ln1", dn1, lc["ln1"])
    if cache["emb_drop"] is not None:
        dx = dx * cache["emb_drop"]
    return dx, grads, dstage


ROW_TOL = {np.float32: 1e-5, np.float64: 1e-12}


def _close(got, want, dtype, what=""):
    """Agreement to ROW_TOL relative to the largest entry of `want`."""
    assert got.shape == want.shape and got.dtype == want.dtype, what
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=ROW_TOL[dtype] * float(np.abs(want).max()), err_msg=what)


def _close_grads(got, want, dtype):
    assert sorted(got) == sorted(want)
    for name in want:
        _close(got[name], want[name], dtype, name)


class TestRowSlice:
    """The trunk's last layer computes only the rows its caller reads; each
    slice agrees with the all-rows reference followed by [rows]."""

    CFG = ModelConfig(layers=2, heads=2, embed_dim=8, ffn_dim=16, dropout=0.3,
                      codebook_size=5, quantizers=4)
    T, P = 9, 4  # trunk rows; phoneme rows (with their EOS) of an AR pass
    SLICES = {"first": slice(0, 1), "last": slice(-1, None),
              "ar_rows": slice(P - 1, T - 1),  # drops the first P-1 rows and the EOS input
              "all": slice(None)}

    def _params(self, adaln, dtype, rng):
        """Every block random, constants included, so no bias or affine is a
        no-op."""
        layout = lm_core.stack_layout(self.CFG, adaln)
        return {name: (0.3 * rng.standard_normal(shape)).astype(dtype)
                for name, (shape, _, _) in layout.items()}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("adaln", [False, True], ids=["ln", "adaln"])
    @pytest.mark.parametrize("causal", [True, False], ids=["causal", "full"])
    @pytest.mark.parametrize("rows", list(SLICES))
    def test_output_and_gradients_match_all_rows(self, rows, causal, adaln, dtype):
        """With dropout on: the same seeded masks, the same output rows, and
        the same input, block and stage-vector gradients."""
        rng = np.random.default_rng(3)
        cfg, params = self.CFG, self._params(adaln, dtype, rng)
        x = rng.normal(size=(self.T, 8)).astype(dtype)
        kw = dict(rows=self.SLICES[rows], return_cache=True,
                  stage_vec=rng.normal(size=8).astype(dtype) if adaln else None)
        got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
        got, cache = lm_core.stack_forward(params, cfg, x, causal, rng=got_rng, **kw)
        want, ref_cache = reference_trunk(params, cfg, x, causal, rng=want_rng, **kw)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        _close(got, want, dtype, "output")
        dout = rng.normal(size=got.shape).astype(dtype)
        dx, grads, dstage = lm_core.stack_backward(params, cfg, cache, dout)
        rdx, rgrads, rdstage = reference_trunk_backward(params, cfg, ref_cache, dout)
        _close(dx, rdx, dtype, "dx")
        _close_grads(grads, rgrads, dtype)
        if adaln:
            _close(dstage, rdstage, dtype, "dstage")
        else:
            assert dstage is None and rdstage is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cached_prefill_then_pushes(self, dtype):
        """The decoder's calls: a causal prefill of 5 rows that returns its
        last, then one-row pushes against the cache; each output is that row
        of one all-rows pass."""
        rng = np.random.default_rng(4)
        cfg, params = self.CFG, self._params(False, dtype, rng)
        x = rng.normal(size=(self.T, 8)).astype(dtype)
        want, _ = reference_trunk(params, cfg, x, True)
        kv, last = lm_core.KVCache(), slice(-1, None)
        got = [lm_core.stack_forward(params, cfg, x[:5], True, rows=last, kv=kv)[0]]
        got += [lm_core.stack_forward(params, cfg, x[i : i + 1], True, rows=last, kv=kv)[0]
                for i in range(5, self.T)]
        assert kv.length == self.T
        _close(np.concatenate(got), want[4:], dtype)

    def _model(self, kind, dtype):
        """(params, logits(params), loss(params, rng)) of a small AR or NAR
        model on a fixed 2-item batch (NAR at stage 3)."""
        cfg, rng = self.CFG, np.random.default_rng(5)
        if kind == "ar":
            params = ar_model.init_ar_params(cfg, rng)
            batch = [([2, 9, 4], [1, 3, 0, 4]), ([5, 1], [2, 2])]
            return ({n: p.astype(dtype) for n, p in params.items()},
                    lambda p: ar_model.ar_forward(p, cfg, *batch[0]),
                    lambda p, r: ar_model.ar_loss(p, cfg, batch, rng=r))
        params = nar_model.init_nar_params(cfg, rng)
        k, q = cfg.codebook_size, cfg.quantizers
        batch = [([2, 9, 4], rng.integers(0, k, (3, q)), rng.integers(0, k, (4, q))),
                 ([5, 1], rng.integers(0, k, (2, q)), rng.integers(0, k, (3, q)))]
        phon, prompt, target = batch[0]
        return ({n: p.astype(dtype) for n, p in params.items()},
                lambda p: nar_model.nar_forward(p, cfg, phon, prompt, target[:, :2], 3),
                lambda p, r: nar_model.nar_loss(p, cfg, batch, 3, rng=r))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["ar", "nar"])
    def test_models_match_the_all_rows_path(self, kind, dtype, monkeypatch):
        """ar_forward/nar_forward logits and ar_loss/nar_loss with a dropout
        rng agree with the same models run on the reference trunk, and leave
        that rng in the state the reference leaves it."""
        params, logits, loss = self._model(kind, dtype)
        got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = (logits(params), *loss(params, got_rng))
        monkeypatch.setattr(lm_core, "stack_forward", reference_trunk)
        monkeypatch.setattr(lm_core, "stack_backward", reference_trunk_backward)
        want = (logits(params), *loss(params, want_rng))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        _close(got[0], want[0], dtype, "logits")
        assert got[1] == pytest.approx(want[1], rel=ROW_TOL[dtype])
        _close_grads(got[2], want[2], dtype)
        assert got[3] == want[3]


class TestActivationLifetime:
    """A pass keeps activations only for a backward that will run, and the
    backward and the batch loss free them as they go."""

    CFG = ModelConfig(layers=2, heads=2, embed_dim=8, ffn_dim=16, dropout=0.0,
                      codebook_size=5, quantizers=4)

    def test_inference_pass_holds_one_layer_of_attention(self):
        """A default-size NAR pass over T = 630 rows (30 phonemes, a 300-frame
        prompt, 300 target frames) without a cache peaks at about 1.4 times
        one layer's (H, T, T) float32 probabilities: that array plus the
        layer's smaller activations. Keeping the cache reads about 6.2 times;
        keeping the previous layer's probabilities into the next layer's
        attention, about 2.4 times."""
        cfg = ModelConfig()
        rng = np.random.default_rng(0)
        params = nar_model.init_nar_params(cfg, rng)
        phon = rng.integers(0, cfg.phoneme_vocab, 30)
        prompt, target = rng.integers(0, 256, (300, 8)), rng.integers(0, 256, (300, 1))
        nar_model.nar_forward(params, cfg, phon, prompt, target, 2)  # fills the position table
        tracemalloc.start()
        try:
            nar_model.nar_forward(params, cfg, phon, prompt, target, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_layer = cfg.heads * 630 * 630 * 4
        assert peak < 2 * one_layer, f"peak {peak / one_layer:.2f} x one layer's probabilities"

    @pytest.mark.parametrize("kind", ["ar", "nar"])
    def test_batch_loss_frees_each_item_before_the_next(self, kind, monkeypatch):
        """By the time item k+1's forward runs, item k's logits and cache are
        gone: nothing in `batch_loss` or the model's closure still holds them."""
        params, _, loss = TestRowSlice()._model(kind, np.float64)
        refs = []
        forward = lm_core.lm_forward

        def tracked(*args, **kwargs):
            assert all(r() is None for r in refs), "an earlier item's activations are alive"
            logits, cache = forward(*args, **kwargs)
            refs.extend([weakref.ref(logits), weakref.ref(cache["hidden"])])
            return logits, cache

        monkeypatch.setattr(lm_core, "lm_forward", tracked)
        loss(params, None)
        assert len(refs) == 4

    @pytest.mark.parametrize("kind", ["ar", "nar"])
    def test_a_cache_serves_one_backward(self, kind):
        """The backward consumes its cache; a second one is refused instead
        of running on what is left."""
        rng = np.random.default_rng(0)
        cfg = self.CFG
        if kind == "ar":
            params = ar_model.init_ar_params(cfg, rng)
            logits, cache = ar_model.ar_forward(params, cfg, [2, 9, 4], [1, 3, 0, 4],
                                                return_cache=True)
            backward = ar_model.ar_backward
        else:
            params = nar_model.init_nar_params(cfg, rng)
            logits, cache = nar_model.nar_forward(params, cfg, [2, 9], rng.integers(0, 5, (3, 4)),
                                                  rng.integers(0, 5, (4, 1)), 2, return_cache=True)
            backward = nar_model.nar_backward
        dlogits = rng.normal(size=logits.shape).astype(np.float32)
        assert sorted(backward(params, cfg, cache, dlogits)) == sorted(params)
        with pytest.raises(ValidationError, match="consumed"):
            backward(params, cfg, cache, dlogits)
        with pytest.raises(ValidationError, match="consumed"):
            lm_core.stack_backward(params, cfg, cache["trunk"],
                                   np.zeros((len(logits), cfg.embed_dim), np.float32))

    def test_inference_passes_return_no_cache(self):
        """lm_forward and the trunk build a cache only when asked."""
        cfg = self.CFG
        params = ar_model.init_ar_params(cfg, np.random.default_rng(0))
        lookups = [("phoneme_emb", np.array([2, 9, 4]), 0)]
        assert lm_core.lm_forward(params, cfg, lookups, [(3, 0)], "acoustic_emb", slice(None),
                                  causal=True)[1] is None
        x = np.random.default_rng(1).normal(size=(3, 8))
        assert lm_core.stack_forward(params, cfg, x, True)[1] is None
        assert lm_core.stack_forward(params, cfg, x, True, kv=lm_core.KVCache())[1] is None


class TestComputeDtype:
    """The parameters' dtype is the compute dtype: nothing upcasts float32
    parameters, and float64 parameters stay float64."""

    CFG = ModelConfig(layers=2, heads=2, embed_dim=8, ffn_dim=16, dropout=0.3,
                      codebook_size=5, quantizers=3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_outputs_and_gradients_follow_params(self, dtype):
        cfg = self.CFG
        rng = np.random.default_rng(0)
        ar = {n: p.astype(dtype) for n, p in ar_model.init_ar_params(cfg, rng).items()}
        nar = {n: p.astype(dtype) for n, p in nar_model.init_nar_params(cfg, rng).items()}
        phon, ac = [2, 9, 4], [1, 3, 0, 4]
        prompt, target = rng.integers(0, 5, (3, 3)), rng.integers(0, 5, (4, 3))
        train = dict(rng=np.random.default_rng(1))
        dec = ar_model.ArDecoder(ar, cfg, phon, ac[:2])
        dec.push(ac[2])
        outputs = {
            "ar_forward": ar_model.ar_forward(ar, cfg, phon, ac, **train),
            "next_logits": dec.next_logits(),
            "nar_forward": nar_model.nar_forward(nar, cfg, phon, prompt, target[:, :1], 2,
                                                 **train),
            "kv": dec.kv.keys[0],
        }
        _, ar_grads, _ = ar_model.ar_loss(ar, cfg, [(phon, ac)], **train)
        _, nar_grads, _ = nar_model.nar_loss(nar, cfg, [(phon, prompt, target)], 3, **train)
        assert ar_grads.keys() == ar.keys() and nar_grads.keys() == nar.keys()
        outputs.update({f"ar grad {n}": g for n, g in ar_grads.items()})
        outputs.update({f"nar grad {n}": g for n, g in nar_grads.items()})
        assert {name: out.dtype for name, out in outputs.items()} == dict.fromkeys(outputs, dtype)

    def test_adamw_keeps_float32(self):
        params = ar_model.init_ar_params(self.CFG, np.random.default_rng(0))
        assert {p.dtype for p in params.values()} == {np.dtype(np.float32)}
        grads = {n: np.ones_like(p) for n, p in params.items()}
        state = AdamWState()
        lm_core.adamw_step(params, grads, state, 1, TrainConfig(warmup_steps=1, total_steps=2))
        arrays = [*params.values(), *state.m.values(), *state.v.values()]
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}


class TestCrossEntropy:
    def test_confident_correct_goes_to_zero(self):
        logits = np.array([[100.0, 0.0, 0.0]])
        loss, _ = lm_core.cross_entropy(logits, np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits_ln_k(self):
        k = 17
        logits = np.zeros((5, k))
        loss, _ = lm_core.cross_entropy(logits, np.arange(5))
        assert loss == pytest.approx(math.log(k), abs=1e-12)

    def test_matches_reference(self, rng):
        """Oracle: direct -log softmax."""
        logits = rng.normal(size=(4, 6))
        targets = rng.integers(0, 6, size=4)
        loss, _ = lm_core.cross_entropy(logits, targets)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        ref = -np.log(probs[np.arange(4), targets]).mean()
        assert loss == pytest.approx(ref, abs=1e-6)

    def test_empty_targets_rejected(self):
        with pytest.raises(ValidationError, match="no targets"):
            lm_core.cross_entropy(np.zeros((0, 4)), np.zeros(0, dtype=int))

    def test_gradient_is_softmax_minus_onehot(self, rng):
        logits = rng.normal(size=(2, 3))
        targets = np.array([1, 2])
        _, dlogits = lm_core.cross_entropy(logits, targets)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expected = probs.copy()
        expected[np.arange(2), targets] -= 1
        np.testing.assert_allclose(dlogits, expected / 2, atol=1e-12)


class TestAdamW:
    def _cfg(self, **kw):
        args = dict(peak_lr=0.1, warmup_steps=10, total_steps=100, weight_decay=0.01)
        args.update(kw)
        return TrainConfig(**args)

    def test_schedule_apex_and_end(self):
        cfg = self._cfg()
        assert lm_core.lr_at(cfg, 10) == pytest.approx(0.1)
        assert lm_core.lr_at(cfg, 100) == pytest.approx(0.0)
        assert lm_core.lr_at(cfg, 150) == 0.0

    def test_schedule_piecewise_linear_and_continuous(self):
        cfg = self._cfg()
        xs = np.arange(1, 101)
        ys = np.array([lm_core.lr_at(cfg, int(s)) for s in xs])
        assert ys.argmax() == 9  # peak exactly at warmup step
        up = np.diff(ys[:10])
        down = np.diff(ys[10:])
        np.testing.assert_allclose(up, up[0], atol=1e-15)
        np.testing.assert_allclose(down, down[0], atol=1e-15)

    def test_single_scalar_step_matches_hand_computation(self):
        """Oracle: hand evaluation of the AdamW update formulas."""
        cfg = TrainConfig(peak_lr=0.01, warmup_steps=1, total_steps=2, weight_decay=0.1)
        params = {"w": np.array([2.0])}
        grads = {"w": np.array([0.5])}
        state = AdamWState()
        lm_core.adamw_step(params, grads, state, 1, cfg)
        # beta1 = 0.9, beta2 = 0.999, eps = 1e-8
        # lr at step 1 = peak; m_hat = 0.5; v_hat = 0.25; denom = 0.5 + 1e-8
        expected = 2.0 - 0.01 * (0.5 / (0.5 + 1e-8) + 0.1 * 2.0)
        assert params["w"][0] == pytest.approx(expected, abs=1e-10)

    def test_nonfinite_gradient_names_block(self):
        params = {"emb": np.ones(3)}
        grads = {"emb": np.array([1.0, np.nan, 0.0])}
        with pytest.raises(OptimizerError, match="emb"):
            lm_core.adamw_step(params, grads, AdamWState(), 1, self._cfg())


class TestNucleusSampling:
    def test_temperature_zero_is_argmax(self, rng):
        logits = rng.normal(size=20)
        assert lm_core.nucleus_sample(logits, 0.0, 0.9, rng) == int(np.argmax(logits))

    def test_top_p_restricts_support(self, rng):
        logits = np.array([10.0, 9.5, -50.0, -50.0])
        seen = {lm_core.nucleus_sample(logits, 1.0, 0.95, rng) for _ in range(200)}
        assert seen <= {0, 1}

    def test_top_p_one_keeps_full_support(self):
        rng = np.random.default_rng(0)
        logits = np.zeros(4)
        seen = {lm_core.nucleus_sample(logits, 1.0, 1.0, rng) for _ in range(400)}
        assert seen == {0, 1, 2, 3}

    def test_last_kept_token_when_the_draw_passes_the_rounded_sum(self):
        """With top_p = 1 above the rounded cumulative sum, every token is
        kept; a draw just under 1 that passes the kept probabilities' rounded
        sum picks the last kept token instead of indexing past the set."""
        class AlmostOne:
            def random(self):
                return np.nextafter(1.0, 0.0)

        rng = np.random.default_rng(0)
        for _ in range(200):
            logits = 3.0 * rng.normal(size=257)
            token = lm_core.nucleus_sample(logits, 1.0, 1.0, AlmostOne())
            assert 0 <= token < logits.size

    def test_seeded_determinism(self):
        logits = np.random.default_rng(5).normal(size=30)
        a = [lm_core.nucleus_sample(logits, 1.0, 0.9, np.random.default_rng(7)) for _ in range(3)]
        b = [lm_core.nucleus_sample(logits, 1.0, 0.9, np.random.default_rng(7)) for _ in range(3)]
        assert a == b

    def test_bad_args_rejected(self, rng):
        with pytest.raises(ValidationError):
            lm_core.nucleus_sample(np.zeros(3), -1.0, 0.9, rng)
        with pytest.raises(ValidationError):
            lm_core.nucleus_sample(np.zeros(3), 1.0, 0.0, rng)

    def test_nan_temperature_rejected(self, rng):
        """nan fails every comparison, so a `temperature < 0` check lets it
        through, and every draw then returns token 0."""
        with pytest.raises(ValidationError):
            lm_core.nucleus_sample(np.array([0.0, 5.0, 1.0]), math.nan, 0.9, rng)
        with pytest.raises(ValidationError):
            ar_model.SamplingSpec(temperature=math.nan)


@dataclass
class GradCheckReport:
    max_rel_error: float
    probes: list
    worst: tuple | None


def grad_check(loss_fn, params, *, param_names=None, n_probe=64, step=1e-5, rng=None,
               floor=1e-6) -> GradCheckReport:
    """Compare backprop gradients against central finite differences.

    `loss_fn(params) -> (loss, grads)` must be deterministic (dropout off).
    The default step is 1e-5: at 1e-4 a probe of a freshly initialised model
    can cross a ReLU kink of the FFN, where the finite difference no longer
    measures the gradient (a stage-4 probe of TestWholeModelGradients reads a
    relative error of 0.44 at 1e-4, and agrees to 1e-8 at 1e-5 and 1e-6).
    Probes are drawn uniformly over the coordinates of `param_names` (all
    names by default). The relative error uses a small floor so coordinates
    with near-zero gradient compare absolutely.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    work = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    _, grads = loss_fn(work)
    names = sorted(param_names) if param_names is not None else sorted(grads)
    sizes = np.array([work[n].size for n in names])
    total = int(sizes.sum())
    probes = []
    max_rel = 0.0
    worst = None
    for _ in range(n_probe):
        flat = int(rng.integers(total))
        sel = int(np.searchsorted(np.cumsum(sizes), flat, side="right"))
        name = names[sel]
        idx = flat - int(np.cumsum(sizes)[sel]) + work[name].size
        orig = work[name].flat[idx]
        work[name].flat[idx] = orig + step
        lo_plus, _ = loss_fn(work)
        work[name].flat[idx] = orig - step
        lo_minus, _ = loss_fn(work)
        work[name].flat[idx] = orig
        fd = (lo_plus - lo_minus) / (2.0 * step)
        bp = float(grads[name].flat[idx]) if name in grads else 0.0
        rel = abs(fd - bp) / max(abs(fd), abs(bp), floor)
        probes.append((name, int(idx), bp, fd, rel))
        if rel > max_rel:
            max_rel = rel
            worst = probes[-1]
    return GradCheckReport(max_rel_error=max_rel, probes=probes, worst=worst)


class TestGradCheck:
    def test_linear_model_is_exact(self, rng):
        x = rng.normal(size=5)

        def loss_fn(params):
            w = params["w"]
            loss = float(w @ x)
            return loss, {"w": x.copy()}

        report = grad_check(loss_fn, {"w": rng.normal(size=5)}, n_probe=10, rng=rng)
        assert report.max_rel_error < 1e-8

    def test_detects_wrong_gradient(self, rng):
        x = rng.normal(size=5) + 2.0

        def broken(params):
            w = params["w"]
            return float(w @ x), {"w": 2.0 * x}

        report = grad_check(broken, {"w": rng.normal(size=5)}, n_probe=10, rng=rng)
        assert report.max_rel_error > 0.3


class TestWholeModelGradients:
    """Finite differences against the hand-written backward of a whole loss:
    embeddings, trunk, tied heads and the token weighting of a 2-item batch."""

    CFG = ModelConfig(layers=2, heads=2, embed_dim=8, ffn_dim=16, dropout=0.0,
                      codebook_size=5, quantizers=4)

    def test_ar_loss(self):
        rng = np.random.default_rng(0)
        params = ar_model.init_ar_params(self.CFG, rng)
        batch = [([2, 9, 4], [1, 3, 0, 4]), ([5, 1], [2, 2])]
        report = grad_check(lambda p: ar_model.ar_loss(p, self.CFG, batch)[:2], params,
                            n_probe=200, rng=rng)
        assert report.max_rel_error < 1e-4, report.worst

    @pytest.mark.parametrize("stage", [2, 3, 4])
    def test_nar_loss(self, stage):
        cfg = self.CFG
        rng = np.random.default_rng(stage)
        params = nar_model.init_nar_params(cfg, rng)
        k, q = cfg.codebook_size, cfg.quantizers
        batch = [([2, 9, 4], rng.integers(0, k, (3, q)), rng.integers(0, k, (4, q))),
                 ([5, 1], rng.integers(0, k, (2, q)), rng.integers(0, k, (3, q)))]

        def loss_fn(p):
            return nar_model.nar_loss(p, cfg, batch, stage)[:2]

        report = grad_check(loss_fn, params, n_probe=200, rng=rng)
        assert report.max_rel_error < 1e-4, report.worst


    @pytest.mark.parametrize("stage", [None, 2, 3, 4], ids=["ar", "nar2", "nar3", "nar4"])
    def test_every_block_gets_a_gradient(self, stage):
        """AdamW updates and decays only the blocks it is given, so a loss
        that left a block out would silently freeze it."""
        cfg = self.CFG
        rng = np.random.default_rng(0)
        if stage is None:
            params = ar_model.init_ar_params(cfg, rng)
            _, grads, _ = ar_model.ar_loss(params, cfg, [([2, 9, 4], [1, 3, 0, 4])])
        else:
            params = nar_model.init_nar_params(cfg, rng)
            k, q = cfg.codebook_size, cfg.quantizers
            batch = [([2, 9, 4], rng.integers(0, k, (3, q)), rng.integers(0, k, (4, q)))]
            _, grads, _ = nar_model.nar_loss(params, cfg, batch, stage)
        assert sorted(grads) == sorted(params)
        assert all(grads[n].shape == p.shape for n, p in params.items())


class TestCheckpointHelpers:
    CFG = ModelConfig(layers=1, heads=2, embed_dim=8, ffn_dim=16, dropout=0.0,
                      codebook_size=7, quantizers=3)

    def test_model_round_trip(self, tmp_path, rng):
        params = ar_model.init_ar_params(self.CFG, rng)
        path = tmp_path / "m.ckp"
        lm_core.save_model(path, "ar", self.CFG, params, {"trained_steps": 5})
        cfg2, params2 = lm_core.load_model(path, "ar")
        assert cfg2 == self.CFG
        assert set(params2) == set(params)
        for name in params:
            np.testing.assert_array_equal(params2[name], params[name].astype(np.float32))
        header, _ = formats.read_artifact(path, "ar", {"trained_steps": int})
        assert header["trained_steps"] == 5
        assert "phoneme_table" in header

    @pytest.mark.parametrize("field, value, message", [
        ("format", "2", "format"),
        ("phoneme_table", "a,b,c", "phoneme inventory"),
        pytest.param("layers", None, "field layers is missing", id="layers-None-model field layers"),
        pytest.param("layers", "two", "field layers='two' is not int", id="layers-two-model field layers"),
        pytest.param("heads", "3", r"m\.ckp: embed_dim must be divisible by heads",
                     id="heads-3-model values"),
    ])
    def test_foreign_checkpoint_rejected(self, tmp_path, rng, field, value, message):
        params = ar_model.init_ar_params(self.CFG, rng)
        path = tmp_path / "m.ckp"
        lm_core.save_model(path, "ar", self.CFG, params)
        if field == "format":
            path.write_bytes(path.read_bytes().replace(b"format=1\n", f"format={value}\n".encode()))
        else:
            header, params = formats.read_artifact(path, "ar", {})
            if value is None:
                del header[field]
            else:
                header[field] = value
            formats.write_artifact(path, "ar", header, params)
        with pytest.raises(ValidationError, match=message):
            lm_core.load_model(path, "ar")

    def test_other_kind_rejected(self, tmp_path, rng):
        path = tmp_path / "m.ckp"
        lm_core.save_model(path, "nar", self.CFG, nar_model.init_nar_params(self.CFG, rng))
        with pytest.raises(ValidationError, match="kind is 'nar', expected 'ar'"):
            lm_core.load_model(path, "ar")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_softmax_rows_sum_to_one_property(seed):
    """Under the causal mask of any chunk, every row's weights sum to one."""
    rng = np.random.default_rng(seed)
    n, start = int(rng.integers(1, 8)), int(rng.integers(0, 5))
    q = rng.normal(size=(n, 4)) * 5
    k = rng.normal(size=(start + n, 4)) * 5
    _, probs = lm_core._attention_forward(q, k, rng.normal(size=(start + n, 4)),
                                          _causal(n, start))
    np.testing.assert_allclose(probs.sum(axis=-1), np.ones(n), atol=1e-6)
