import math

import numpy as np
import pytest

from codec_lm import lm_core, nar_model
from codec_lm.errors import ValidationError
from codec_lm.lm_core import ModelConfig


def count_params(params):
    return sum(int(v.size) for v in params.values())


@pytest.fixture(scope="module")
def cfg():
    return ModelConfig(layers=2, heads=2, embed_dim=32, ffn_dim=64, dropout=0.0,
                       codebook_size=17, quantizers=4)


@pytest.fixture(scope="module")
def params(cfg):
    return nar_model.init_nar_params(cfg, np.random.default_rng(0))


@pytest.fixture(scope="module")
def inputs(cfg):
    rng = np.random.default_rng(1)
    phon = [2, 9, 4]
    prompt = rng.integers(0, cfg.codebook_size, size=(8, cfg.quantizers))
    target = rng.integers(0, cfg.codebook_size, size=(6, cfg.quantizers))
    return phon, prompt, target


@pytest.fixture
def summed_inputs(trunk_inputs, monkeypatch):
    """A function (params, cfg, phon, prompt, partial, stage) -> the rows
    nar_forward hands the trunk, with the sinusoid positions zeroed: the
    phoneme rows, then the prompt's and the known stages' summed stage
    embeddings."""
    monkeypatch.setattr(lm_core, "sinusoidal_positions",
                        lambda length, dim, start=0: np.zeros((length, dim)))

    def run(*args):
        nar_model.nar_forward(*args)
        return trunk_inputs[-1]

    return run


class TestTargetEmbedding:
    def test_stage2_is_single_table(self, params, cfg, inputs, summed_inputs):
        phon, prompt, target = inputs
        x = summed_inputs(params, cfg, phon, prompt, target[:, :1], 2)
        np.testing.assert_array_equal(x[-len(target):], params["acoustic_emb.0"][target[:, 0]])
        np.testing.assert_array_equal(x[: len(phon)], params["phoneme_emb"][phon])

    def test_cancellation(self, cfg, inputs, summed_inputs):
        phon, prompt, target = inputs
        params = nar_model.init_nar_params(cfg, np.random.default_rng(2))
        params["acoustic_emb.1"] = -params["acoustic_emb.0"]
        pt = np.stack([target[:, 0], target[:, 0]], axis=1)
        x = summed_inputs(params, cfg, phon, prompt, pt, 3)
        np.testing.assert_allclose(x[-len(target):], 0.0, atol=1e-12)

    def test_matches_manual_three_table_sum(self, params, cfg, inputs, summed_inputs):
        """Oracle: explicit lookup-and-add over three tables."""
        phon, prompt, _ = inputs
        rng = np.random.default_rng(3)
        pt = rng.integers(0, cfg.codebook_size, size=(3, 3))
        x = summed_inputs(params, cfg, phon, prompt, pt, 4)
        for t in range(3):
            manual = sum(params[f"acoustic_emb.{j}"][pt[t, j]] for j in range(3))
            np.testing.assert_allclose(x[-3 + t], manual, atol=1e-12)

    def test_wrong_column_count_rejected(self, params, cfg, inputs):
        phon, prompt, target = inputs
        with pytest.raises(ValidationError, match="exactly 1 columns"):
            nar_model.nar_forward(params, cfg, phon, prompt, target[:, :2], 2)


class TestPromptEmbedding:
    def test_single_quantizer_degenerate(self, params, cfg, inputs, summed_inputs):
        """A prompt whose codes are 0 at every stage after the first sums to
        table 0 plus one constant row per frame."""
        phon, prompt, target = inputs
        one = prompt * np.eye(1, cfg.quantizers, dtype=prompt.dtype)
        x = summed_inputs(params, cfg, phon, one, target[:, :1], 2)
        rest = sum(params[f"acoustic_emb.{j}"][0] for j in range(1, cfg.quantizers))
        rows = x[len(phon) : len(phon) + len(prompt)]
        np.testing.assert_allclose(rows, params["acoustic_emb.0"][prompt[:, 0]] + rest,
                                   atol=1e-6)

    def test_equal_rows_give_equal_outputs(self, params, cfg, inputs, summed_inputs):
        phon, _, target = inputs
        prompt = np.tile([[3, 1, 4, 1]], (5, 1))
        x = summed_inputs(params, cfg, phon, prompt, target[:, :1], 2)
        for t in range(1, 5):
            np.testing.assert_array_equal(x[len(phon) + t], x[len(phon)])

    def test_matches_manual_sum(self, params, cfg, inputs, summed_inputs):
        """Oracle: explicit Q-table summation."""
        phon, prompt, target = inputs
        x = summed_inputs(params, cfg, phon, prompt, target[:, :1], 2)
        for t in range(prompt.shape[0]):
            manual = sum(
                params[f"acoustic_emb.{j}"][prompt[t, j]] for j in range(cfg.quantizers)
            )
            np.testing.assert_allclose(x[len(phon) + t], manual, atol=1e-12)

    def test_out_of_range_code_rejected(self, params, cfg, inputs):
        phon, _, target = inputs
        with pytest.raises(ValidationError, match="prompt code id out of range"):
            nar_model.nar_forward(params, cfg, phon, np.full((2, 4), 99), target[:, :1], 2)
        with pytest.raises(ValidationError, match="target code id out of range"):
            nar_model.nar_forward(params, cfg, phon, np.zeros((2, 4), int), [[-1], [0]], 2)

    def test_missing_columns_rejected(self, params, cfg, inputs):
        phon, prompt, target = inputs
        with pytest.raises(ValidationError, match="exactly 4 columns"):
            nar_model.nar_forward(params, cfg, phon, prompt[:, :2], target[:, :1], 2)


class TestForward:
    def test_logits_shape_no_eos_class(self, params, cfg, inputs):
        phon, prompt, target = inputs
        logits = nar_model.nar_forward(params, cfg, phon, prompt, target[:, :1], 2)
        assert logits.shape == (target.shape[0], cfg.codebook_size)

    def test_full_attention_liveness(self, params, cfg, inputs):
        """Contrast with AR causality: a change at the last target frame can
        move the logits at target position 0."""
        phon, prompt, target = inputs
        base = nar_model.nar_forward(params, cfg, phon, prompt, target[:, :1], 2)
        pt = target[:, :1].copy()
        pt[-1, 0] = (pt[-1, 0] + 7) % cfg.codebook_size
        out = nar_model.nar_forward(params, cfg, phon, prompt, pt, 2)
        assert np.abs(base[0] - out[0]).max() > 0

    def test_stage_conditioning_liveness(self, params, cfg, inputs):
        phon, prompt, target = inputs
        a = nar_model.nar_forward(params, cfg, phon, prompt, target[:, :2], 3)
        pt = np.concatenate([target[:, :2], target[:, 2:3]], axis=1)
        b = nar_model.nar_forward(params, cfg, phon, prompt, pt, 4)
        # different stages use different AdaLN modulation and heads
        assert a.shape == b.shape
        assert np.abs(a - b).max() > 1e-6

    def test_stage_out_of_range(self, params, cfg, inputs):
        phon, prompt, target = inputs
        with pytest.raises(ValidationError):
            nar_model.nar_forward(params, cfg, phon, prompt, target[:, :0], 1)
        with pytest.raises(ValidationError):
            nar_model.nar_forward(params, cfg, phon, prompt, target, cfg.quantizers + 1)

    def test_phoneme_eos_rejected(self, params, cfg, inputs):
        """The phoneme-EOS id is not a phoneme, as in the AR model."""
        _, prompt, target = inputs
        with pytest.raises(ValidationError):
            nar_model.nar_forward(params, cfg, [2, cfg.phoneme_eos], prompt, target[:, :1], 2)

    def test_head_ties_to_stage_table(self, params, cfg, inputs):
        """Zeroing table Q makes stage-Q logits exactly zero (the head is that
        same array), while the input path for stage Q only uses tables < Q."""
        phon, prompt, target = inputs
        q = cfg.quantizers
        mutated = dict(params)
        mutated[f"acoustic_emb.{q - 1}"] = np.zeros_like(params[f"acoustic_emb.{q - 1}"])
        logits = nar_model.nar_forward(mutated, cfg, phon, prompt, target[:, : q - 1], q)
        np.testing.assert_array_equal(logits, 0.0)

    def test_parameter_audit_tying_difference(self, params, cfg):
        """Untied heads would add (Q-1) * K * d parameters."""
        untied = dict(params)
        for j in range(1, cfg.quantizers):
            untied[f"head.{j}"] = params[f"acoustic_emb.{j}"].copy()
        diff = count_params(untied) - count_params(params)
        assert diff == (cfg.quantizers - 1) * cfg.codebook_size * cfg.embed_dim


class TestLoss:
    def test_stage_draw_reproducible(self, cfg):
        a = [nar_model.draw_stage(np.random.default_rng(9), cfg.quantizers) for _ in range(20)]
        b = [nar_model.draw_stage(np.random.default_rng(9), cfg.quantizers) for _ in range(20)]
        assert a == b

    def test_stage_histogram_uniform(self):
        """7000 draws: each stage count within 3 sigma of the multinomial
        expectation n*p with p = 1/7."""
        rng = np.random.default_rng(42)
        n = 7000
        draws = [nar_model.draw_stage(rng, 8) for _ in range(n)]
        counts = np.bincount(draws, minlength=9)[2:9]
        p = 1.0 / 7.0
        sigma = math.sqrt(n * p * (1 - p))
        assert set(draws) == set(range(2, 9))
        for c in counts:
            assert abs(c - n * p) <= 3 * sigma

    def test_uniform_logits_ln_k(self, cfg, inputs):
        phon, prompt, target = inputs
        params = nar_model.init_nar_params(cfg, np.random.default_rng(0))
        for j in range(cfg.quantizers):
            params[f"acoustic_emb.{j}"] = np.zeros_like(params[f"acoustic_emb.{j}"])
        for stage in range(2, cfg.quantizers + 1):
            loss, _, count = nar_model.nar_loss(params, cfg, [(phon, prompt, target)], stage)
            assert count == target.shape[0]
            assert loss == pytest.approx(math.log(cfg.codebook_size), abs=1e-9)

    def test_loss_decreases_with_perfect_head(self, cfg, inputs):
        """Making the head strongly prefer the true class drives loss near 0."""
        phon, prompt, target = inputs
        params = nar_model.init_nar_params(cfg, np.random.default_rng(0))
        loss0, grads, _ = nar_model.nar_loss(params, cfg, [(phon, prompt, target)], 2)
        assert loss0 > 0.5
        assert f"acoustic_emb.1" in grads


class TestGenerateAll:
    def test_column_one_passthrough(self, params, cfg, inputs):
        phon, prompt, _ = inputs
        first = np.array([3, 1, 4, 1, 5])
        codes = nar_model.nar_generate_all(params, cfg, phon, prompt, first)
        np.testing.assert_array_equal(codes[:, 0], first)
        assert codes.shape == (5, cfg.quantizers)

    def test_exactly_q_minus_one_forward_passes(self, params, cfg, inputs, monkeypatch):
        phon, prompt, _ = inputs
        stages = []
        forward = nar_model.nar_forward

        def counting(*args, **kwargs):
            stages.append(args[5])
            return forward(*args, **kwargs)

        monkeypatch.setattr(nar_model, "nar_forward", counting)
        nar_model.nar_generate_all(params, cfg, phon, prompt, np.array([1, 2, 3]))
        assert stages == list(range(2, cfg.quantizers + 1))

    def test_deterministic(self, params, cfg, inputs):
        phon, prompt, _ = inputs
        first = np.array([2, 7, 2])
        a = nar_model.nar_generate_all(params, cfg, phon, prompt, first)
        b = nar_model.nar_generate_all(params, cfg, phon, prompt, first)
        np.testing.assert_array_equal(a, b)

    def test_output_length_follows_first_layer(self, params, cfg, inputs):
        phon, prompt, _ = inputs
        for n in (1, 4, 9):
            first = np.arange(n) % cfg.codebook_size
            codes = nar_model.nar_generate_all(params, cfg, phon, prompt, first)
            assert codes.shape == (n, cfg.quantizers)

    def test_empty_first_layer_rejected(self, params, cfg, inputs):
        phon, prompt, _ = inputs
        with pytest.raises(ValidationError):
            nar_model.nar_generate_all(params, cfg, phon, prompt, np.array([], dtype=int))


class TestAdaLNIdentityReduction:
    def test_forced_identity_matches_plain_layernorm_stack(self, cfg, inputs):
        """With every AdaLN projection forced to a=1, b=0, the NAR trunk equals
        the plain-LayerNorm trunk with unit gain and zero bias."""
        phon, prompt, target = inputs
        params = nar_model.init_nar_params(cfg, np.random.default_rng(4))
        forced = dict(params)
        plain = {}
        for name in list(params):
            if name.endswith(".pa") or name.endswith(".pb"):
                forced[name] = np.zeros_like(params[name])
            if name.endswith(".ba"):
                forced[name] = np.ones_like(params[name])
                plain[name[:-3] + ".g"] = np.ones_like(params[name])
            if name.endswith(".bb"):
                forced[name] = np.zeros_like(params[name])
                plain[name[:-3] + ".b"] = np.zeros_like(params[name])
            if ".attn." in name or ".ffn." in name:
                plain[name] = params[name]

        p, tp, tt = len(phon), prompt.shape[0], target.shape[0]
        emb = np.concatenate([
            params["phoneme_emb"][np.asarray(phon)],
            sum(params[f"acoustic_emb.{j}"][prompt[:, j]] for j in range(cfg.quantizers)),
            params["acoustic_emb.0"][target[:, 0]],
        ])
        emb[:p] += lm_core.sinusoidal_positions(p, cfg.embed_dim)
        emb[p:] += lm_core.sinusoidal_positions(tp + tt, cfg.embed_dim)
        adaln_out, _ = lm_core.stack_forward(
            forced, cfg, emb, False, stage_vec=params["stage_emb"][0]
        )
        plain_out, _ = lm_core.stack_forward(plain, cfg, emb, False)
        np.testing.assert_allclose(adaln_out, plain_out, atol=1e-6)
