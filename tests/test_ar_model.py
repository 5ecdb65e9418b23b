import math

import numpy as np
import pytest

from codec_lm import ar_model, lm_core
from codec_lm.ar_model import SamplingSpec
from codec_lm.errors import ValidationError
from codec_lm.lm_core import ModelConfig


@pytest.fixture(scope="module")
def cfg():
    return ModelConfig(layers=2, heads=2, embed_dim=32, ffn_dim=64, dropout=0.0,
                       codebook_size=17, quantizers=4)


@pytest.fixture(scope="module")
def params(cfg):
    return ar_model.init_ar_params(cfg, np.random.default_rng(0))


@pytest.fixture(scope="module")
def seq(cfg):
    rng = np.random.default_rng(1)
    return [2, 9, 4], rng.integers(0, cfg.codebook_size, size=10)


class TestForward:
    def test_logits_shape(self, params, cfg, seq):
        phon, ac = seq
        logits = ar_model.ar_forward(params, cfg, phon, ac)
        assert logits.shape == (len(ac) + 1, cfg.codebook_size + 1)

    def test_causality_bitwise(self, params, cfg, seq):
        phon, ac = seq
        base = ar_model.ar_forward(params, cfg, phon, ac)
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = int(rng.integers(1, len(ac)))
            perturbed = np.array(ac)
            perturbed[t] = (perturbed[t] + 1 + rng.integers(cfg.codebook_size - 1)) % cfg.codebook_size
            out = ar_model.ar_forward(params, cfg, phon, perturbed)
            assert np.array_equal(base[:t], out[:t])

    def test_phoneme_conditioning_is_live(self, params, cfg, seq):
        phon, ac = seq
        base = ar_model.ar_forward(params, cfg, phon, ac)
        other = ar_model.ar_forward(params, cfg, [5, 9, 4], ac)
        assert np.abs(base[0] - other[0]).max() > 0

    def test_over_length_rejected(self, params, cfg):
        with pytest.raises(ValidationError):
            ar_model.ar_forward(params, cfg, [1], np.zeros(cfg.max_len, dtype=int))

    def test_id_range_checked(self, params, cfg):
        with pytest.raises(ValidationError):
            ar_model.ar_forward(params, cfg, [1], [cfg.codebook_size + 5])
        with pytest.raises(ValidationError):
            ar_model.ar_forward(params, cfg, [cfg.phoneme_vocab], [1])


class TestWeightTying:
    def test_parameter_count_reflects_sharing(self, params, cfg):
        # one (K+1) x d table serves as both embedding and output projection
        d = cfg.embed_dim
        stack = lm_core.init_stack_params(cfg, np.random.default_rng(9), adaln=False)
        expected = (
            lm_core.count_params(stack)
            + (cfg.phoneme_vocab + 1) * d
            + (cfg.codebook_size + 1) * d
        )
        assert lm_core.count_params(params) == expected

    def test_write_through_probe(self, params, cfg):
        """Mutating the embedding table must move the output projection too:
        for a sequence that never uses token r, only logit column r changes."""
        phon, ac = [2, 9], [1, 3, 5]
        r = 11  # not in ac
        base = ar_model.ar_forward(params, cfg, phon, ac)
        mutated = dict(params)
        mutated["acoustic_emb"] = params["acoustic_emb"].copy()
        mutated["acoustic_emb"][r] += 0.25
        out = ar_model.ar_forward(mutated, cfg, phon, ac)
        others = [c for c in range(cfg.codebook_size + 1) if c != r]
        assert np.array_equal(base[:, others], out[:, others])
        assert np.abs(base[:, r] - out[:, r]).max() > 0


class TestLoss:
    def test_uniform_logits_analytic(self, cfg, seq):
        phon, ac = seq
        params = ar_model.init_ar_params(cfg, np.random.default_rng(0))
        params["acoustic_emb"] = np.zeros_like(params["acoustic_emb"])
        loss, _, count = ar_model.ar_loss(params, cfg, [(phon, ac)])
        assert count == len(ac) + 1
        assert loss == pytest.approx(math.log(cfg.codebook_size + 1), abs=1e-9)

    def test_matches_manual_sum(self, params, cfg):
        """Oracle: manual sum of -log softmax terms over a 3-token sequence."""
        phon, ac = [4, 7], np.array([2, 8, 13])
        logits = ar_model.ar_forward(params, cfg, phon, ac)
        targets = np.concatenate([ac, [cfg.acoustic_eos]])
        manual = 0.0
        for row, tgt in zip(logits, targets):
            shifted = row - row.max()
            manual -= (shifted[tgt] - math.log(np.exp(shifted).sum()))
        manual /= targets.size
        loss, _, _ = ar_model.ar_loss(params, cfg, [(phon, ac)])
        assert loss == pytest.approx(manual, abs=1e-6)

    def test_empty_acoustic_part_rejected(self, params, cfg):
        with pytest.raises(ValidationError):
            ar_model.ar_loss(params, cfg, [([1, 2], [])])

    def test_empty_batch_rejected(self, params, cfg):
        with pytest.raises(ValidationError):
            ar_model.ar_loss(params, cfg, [])

    def test_loss_excludes_phoneme_positions(self, params, cfg, seq):
        """The number of loss terms equals the acoustic length alone."""
        phon, ac = seq
        _, _, count = ar_model.ar_loss(params, cfg, [(phon, ac)])
        assert count == len(ac) + 1  # not len(phon) + ...


class TestGeneration:
    def test_temperature_zero_equals_greedy(self, params, cfg, seq):
        phon, _ = seq
        prefix = np.array([3, 1, 4])
        sampled = ar_model.ar_generate(
            params, cfg, phon, prefix,
            SamplingSpec(temperature=0.0, top_p=0.9, seed=11, max_new_tokens=12),
        )
        dec = ar_model.ArDecoder(params, cfg, phon, prefix)
        expected = []
        for _ in range(12):
            token = int(np.argmax(dec.next_logits()))
            if token == cfg.acoustic_eos:
                break
            expected.append(token)
            dec.push(token)
        assert sampled.tolist() == expected

    def test_seeded_determinism(self, params, cfg, seq):
        phon, _ = seq
        spec = SamplingSpec(temperature=1.0, top_p=0.9, seed=123, max_new_tokens=15)
        a = ar_model.ar_generate(params, cfg, phon, [2, 5], spec)
        b = ar_model.ar_generate(params, cfg, phon, [2, 5], spec)
        np.testing.assert_array_equal(a, b)

    def test_length_cap_and_no_eos_inside(self, params, cfg, seq):
        phon, _ = seq
        for seed in range(5):
            out = ar_model.ar_generate(
                params, cfg, phon, [],
                SamplingSpec(temperature=1.5, top_p=1.0, seed=seed, max_new_tokens=9),
            )
            assert len(out) <= 9
            assert cfg.acoustic_eos not in out.tolist()

    def test_nonpositive_max_new_tokens_rejected(self, params, cfg):
        with pytest.raises(ValidationError):
            ar_model.ar_generate(params, cfg, [1], [], SamplingSpec(max_new_tokens=0))

    def test_prefix_consistency_one_pass_vs_incremental(self, params, cfg):
        """Cache correctness: logits at the first generated position agree
        whether the prefix is consumed in one pass or token by token."""
        phon = [2, 9, 4]
        prefix = [3, 1, 4, 1, 5]
        one_pass = ar_model.ArDecoder(params, cfg, phon, prefix)
        stepped = ar_model.ArDecoder(params, cfg, phon, prefix[:1])
        for tok in prefix[1:]:
            stepped.push(tok)
        np.testing.assert_allclose(
            one_pass.next_logits(), stepped.next_logits(), atol=1e-10
        )

    def test_decoder_matches_teacher_forced_rows(self, params, cfg):
        phon = [2, 9, 4]
        ac = [3, 1, 4, 1]
        logits = ar_model.ar_forward(params, cfg, phon, ac)
        dec = ar_model.ArDecoder(params, cfg, phon, [])
        for i, tok in enumerate(ac):
            np.testing.assert_allclose(dec.next_logits(), logits[i], atol=1e-10)
            dec.push(tok)
        np.testing.assert_allclose(dec.next_logits(), logits[len(ac)], atol=1e-10)

    def test_push_past_max_len_rejected(self, params):
        """The decoder's context stops one short of max_len, the longest
        ar_forward accepts (it appends the acoustic EOS); the push that would
        pass it raises and leaves the decoder as it was."""
        small = ModelConfig(layers=2, heads=2, embed_dim=32, ffn_dim=64, dropout=0.0,
                            codebook_size=17, quantizers=4, max_len=9)
        phon, codes = [2, 9, 4], [3, 1]
        dec = ar_model.ArDecoder(params, small, phon, codes)
        while dec.p + dec.ac_len + 1 < small.max_len:
            dec.push(5)
            codes.append(5)
        assert dec.p + dec.ac_len == small.max_len - 1
        held, logits = dec.ac_len, dec.next_logits()
        with pytest.raises(ValidationError):
            dec.push(5)
        assert dec.ac_len == held
        np.testing.assert_array_equal(dec.next_logits(), logits)
        ar_model.ar_forward(params, small, phon, codes)
        with pytest.raises(ValidationError):
            ar_model.ar_forward(params, small, phon, codes + [5])


class TestDropoutPaths:
    def test_training_forward_needs_rng(self, cfg, seq):
        phon, ac = seq
        params = ar_model.init_ar_params(
            ModelConfig(layers=1, heads=2, embed_dim=32, ffn_dim=64, dropout=0.5,
                        codebook_size=17, quantizers=4),
            np.random.default_rng(0),
        )
        cfg_dropout = ModelConfig(layers=1, heads=2, embed_dim=32, ffn_dim=64, dropout=0.5,
                                  codebook_size=17, quantizers=4)
        with pytest.raises(ValidationError):
            ar_model.ar_forward(params, cfg_dropout, phon, ac, train=True)
        out = ar_model.ar_forward(params, cfg_dropout, phon, ac, train=True,
                                  rng=np.random.default_rng(5))
        assert np.isfinite(out).all()
