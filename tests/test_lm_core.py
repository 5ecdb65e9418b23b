import math
from dataclasses import dataclass

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

    def test_window_equals_table_row(self):
        """A one-row window at position p is bitwise the last row of the
        table of positions 0..p."""
        d = ModelConfig().embed_dim
        for p in (0, 1, 299, 4095):
            np.testing.assert_array_equal(
                lm_core.sinusoidal_positions(1, d, start=p),
                lm_core.sinusoidal_positions(p + 1, d)[-1:],
            )


class TestSegmentedPositions:
    def test_encoding_blocks(self):
        enc = lm_core.segment_position_encoding([3, 2], 8)
        single = lm_core.sinusoidal_positions(3, 8)
        np.testing.assert_array_equal(enc[:3], single)
        np.testing.assert_array_equal(enc[3:], single[:2])


def _attend(q, k, v, mask):
    """The context output of the trunk's attention."""
    return lm_core._attention_forward(q, k, v, mask)[0]


class TestAttention:
    def test_identity_mask_returns_v(self, rng):
        q = rng.normal(size=(4, 8))
        k = rng.normal(size=(4, 8))
        v = rng.normal(size=(4, 8))
        out = _attend(q, k, v, np.eye(4, dtype=bool))
        np.testing.assert_allclose(out, v, atol=1e-12)

    def test_uniform_scores_average_v(self, rng):
        q = np.zeros((3, 8))
        k = rng.normal(size=(3, 8))
        v = rng.normal(size=(3, 8))
        out = _attend(q, k, v, np.ones((3, 3), dtype=bool))
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
        out = _attend(q, k, v, np.ones((3, 3), dtype=bool))
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_fully_masked_row_rejected(self, rng):
        mask = np.ones((3, 3), dtype=bool)
        mask[1] = False
        with pytest.raises(ValidationError):
            _attend(rng.normal(size=(3, 4)), rng.normal(size=(3, 4)),
                    rng.normal(size=(3, 4)), mask)

    def test_masked_positions_are_ignored(self, rng):
        q = rng.normal(size=(4, 8))
        k = rng.normal(size=(4, 8))
        v = rng.normal(size=(4, 8))
        mask = lm_core.causal_mask(4)
        base = _attend(q, k, v, mask)
        k2, v2 = k.copy(), v.copy()
        k2[3] = 99.0
        v2[3] = -99.0
        out = _attend(q, k2, v2, mask)
        np.testing.assert_array_equal(base[:3], out[:3])

    def test_softmax_rows_sum_to_one(self, rng):
        q = rng.normal(size=(5, 6))
        k = rng.normal(size=(5, 6))
        _, probs = lm_core._attention_forward(q, k, rng.normal(size=(5, 6)),
                                              lm_core.causal_mask(5))
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(5), atol=1e-6)


class TestAdaLayerNorm:
    """AdaLN as the trunk runs it: stack_forward with a stage vector."""

    CFG = ModelConfig(layers=2, heads=2, embed_dim=8, ffn_dim=16, dropout=0.0, quantizers=4)

    def _trunks(self, rng, c, e):
        """An AdaLN trunk with pa = pb = 0, ba = c, bb = e at every norm site,
        and the plain-LN trunk with g = c, b = e and the same weights."""
        ada = lm_core.init_stack_params(self.CFG, rng, adaln=True)
        plain = {}
        for name, value in ada.items():
            site, _, leaf = name.rpartition(".")
            if leaf in ("pa", "pb"):
                ada[name] = np.zeros_like(value)
            elif leaf == "ba":
                ada[name] = np.full_like(value, c)
                plain[f"{site}.g"] = ada[name]
            elif leaf == "bb":
                ada[name] = np.full_like(value, e)
                plain[f"{site}.b"] = ada[name]
            else:
                plain[name] = value
        return ada, plain

    def _check_reduces_to_layernorm(self, rng, c, e):
        ada, plain = self._trunks(rng, c, e)
        x = rng.normal(size=(5, 8))
        mask = lm_core.causal_mask(5)
        out, _ = lm_core.stack_forward(ada, self.CFG, x, mask, stage_vec=rng.normal(size=8))
        ref, _ = lm_core.stack_forward(plain, self.CFG, x, mask)
        np.testing.assert_array_equal(out, ref)

    def test_identity_modulation_is_layernorm(self, rng):
        self._check_reduces_to_layernorm(rng, 1.0, 0.0)

    def test_scalar_affine_composition(self, rng):
        """Oracle: a = 2, b = 0.5 is the plain trunk with g = 2, b = 0.5, and
        per-channel a, b are the plain trunk with those gains and biases."""
        self._check_reduces_to_layernorm(rng, 2.0, 0.5)
        self._check_reduces_to_layernorm(rng, rng.normal(size=8), rng.normal(size=8))

    def test_distinct_stages_differ(self, rng):
        params = lm_core.init_stack_params(self.CFG, rng, adaln=True)
        x = rng.normal(size=(5, 8))
        mask = lm_core.full_mask(5)
        a, _ = lm_core.stack_forward(params, self.CFG, x, mask, stage_vec=rng.normal(size=8))
        b, _ = lm_core.stack_forward(params, self.CFG, x, mask, stage_vec=rng.normal(size=8))
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


class TestPastKV:
    def test_chunked_forward_matches_one_pass(self, rng):
        """Rows 3..4 run against the cached keys/values of rows 0..2 equal
        the same rows of one causal pass over all five."""
        cfg = ModelConfig(layers=2, heads=2, embed_dim=8, ffn_dim=16, dropout=0.0)
        params = lm_core.init_stack_params(cfg, rng, adaln=False)
        x = rng.normal(size=(5, 8))
        mask = lm_core.causal_mask(5)
        full, _ = lm_core.stack_forward(params, cfg, x, mask)
        _, head = lm_core.stack_forward(params, cfg, x[:3], mask[:3, :3])
        past = [(lc["kh"], lc["vh"]) for lc in head["layers"]]
        tail, cache = lm_core.stack_forward(params, cfg, x[3:], mask[3:], past_kv=past)
        np.testing.assert_allclose(tail, full[3:], atol=1e-12)
        assert all(lc["kh"].shape == (2, 5, 4) for lc in cache["layers"])


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
            ar_model.SamplingSpec(temperature=math.nan).validate()


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
            return nar_model.nar_loss(p, cfg, batch, None, train=False, stage=stage)[:2]

        report = grad_check(loss_fn, params, n_probe=200, rng=rng)
        assert report.max_rel_error < 1e-4, report.worst


class TestCheckpointHelpers:
    def test_model_round_trip(self, tmp_path, rng):
        cfg = ModelConfig(layers=1, heads=2, embed_dim=8, ffn_dim=16, dropout=0.0,
                          codebook_size=7, quantizers=3)
        params = ar_model.init_ar_params(cfg, rng)
        path = tmp_path / "m.ckp"
        lm_core.save_model(path, "ar", cfg, params)
        kind, cfg2, params2, raw = lm_core.load_model(path)
        assert kind == "ar"
        assert cfg2 == cfg
        assert set(params2) == set(params)
        assert "phoneme_table" in raw
        for name in params:
            np.testing.assert_allclose(params2[name], params[name].astype(np.float32))

    @pytest.mark.parametrize("field, value, message", [
        ("format", "2", "format"),
        ("phoneme_table", "a,b,c", "phoneme inventory"),
        ("layers", None, "model field layers"),
        ("layers", "two", "model field layers"),
    ])
    def test_foreign_checkpoint_rejected(self, tmp_path, rng, field, value, message):
        cfg = ModelConfig(layers=1, heads=2, embed_dim=8, ffn_dim=16, dropout=0.0,
                          codebook_size=7, quantizers=3)
        params = ar_model.init_ar_params(cfg, rng)
        path = tmp_path / "m.ckp"
        lm_core.save_model(path, "ar", cfg, params)
        config, _ = formats.read_checkpoint(path)
        if value is None:
            del config[field]
        else:
            config[field] = value
        formats.write_checkpoint(path, config, params)
        with pytest.raises(ValidationError, match=message):
            lm_core.load_model(path)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_softmax_rows_sum_to_one_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    q = rng.normal(size=(n, 4)) * 5
    k = rng.normal(size=(n, 4)) * 5
    mask = lm_core.causal_mask(n)
    _, probs = lm_core._attention_forward(q, k, rng.normal(size=(n, 4)), mask)
    np.testing.assert_allclose(probs.sum(axis=-1), np.ones(n), atol=1e-6)
