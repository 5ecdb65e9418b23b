import math
from dataclasses import replace

import numpy as np
import pytest

from codec_lm import ar_model, lm_core
from codec_lm.ar_model import SamplingSpec
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
    return ar_model.init_ar_params(cfg, np.random.default_rng(0))


@pytest.fixture(scope="module")
def params64(params):
    """The same weights in float64, for comparisons at float64 tolerances."""
    return {name: p.astype(np.float64) for name, p in params.items()}


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

    def test_exactly_max_len_positions_accepted(self, params, cfg):
        """The input is the phonemes, their EOS and the codes: 4 + 5 positions
        fill max_len 9, and one more code is the trunk's to refuse."""
        small = replace(cfg, max_len=9)
        logits = ar_model.ar_forward(params, small, [2, 9, 4], [3, 1, 4, 1, 5])
        assert logits.shape == (6, cfg.codebook_size + 1)
        with pytest.raises(ValidationError, match="sequence length 10 exceeds max_len 9"):
            ar_model.ar_forward(params, small, [2, 9, 4], [3, 1, 4, 1, 5, 9])

    @pytest.mark.parametrize("n_phon, n_codes", [(1, 1), (3, 10), (7, 2), (12, 25)])
    def test_matches_the_layout_with_an_eos_input_row(self, params64, cfg, n_phon, n_codes):
        """Oracle: the logits equal those of a pass that also feeds the
        acoustic EOS as a last input row and reads the same rows, since under
        the causal mask no read row attends to that row."""
        rng = np.random.default_rng(n_phon * 100 + n_codes)
        phon = rng.integers(0, cfg.phoneme_vocab, size=n_phon)
        codes = rng.integers(0, cfg.codebook_size, size=n_codes)
        phon_part = np.append(phon, cfg.phoneme_eos)
        ac_part = np.append(codes, cfg.acoustic_eos)
        p = len(phon_part)
        old, _ = lm_core.lm_forward(
            params64, cfg, [("phoneme_emb", phon_part, 0), ("acoustic_emb", ac_part, p)],
            [(p, 0), (len(ac_part), 0)], "acoustic_emb", slice(p - 1, p + n_codes), causal=True)
        new = ar_model.ar_forward(params64, cfg, phon, codes)
        assert new.dtype == np.float64
        np.testing.assert_allclose(new, old, rtol=1e-12)

    def test_id_range_checked(self, params, cfg):
        with pytest.raises(ValidationError):
            ar_model.ar_forward(params, cfg, [1], [cfg.codebook_size + 5])
        with pytest.raises(ValidationError):
            ar_model.ar_forward(params, cfg, [cfg.phoneme_vocab], [1])


class TestWeightTying:
    def test_parameter_count_reflects_sharing(self, params, cfg):
        # one (K+1) x d table serves as both embedding and output projection
        d = cfg.embed_dim
        stack = lm_core.init_params(lm_core.stack_layout(cfg, adaln=False),
                                    np.random.default_rng(9))
        expected = (
            count_params(stack)
            + (cfg.phoneme_vocab + 1) * d
            + (cfg.codebook_size + 1) * d
        )
        assert count_params(params) == expected

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

    def test_generation_ends_at_the_context_limit(self, params, cfg):
        """Generation stops after as many codes as the context still holds,
        so ar_forward accepts the prompt plus the output, and the codes are
        those of a context with room whose max_new_tokens ends at the same
        place. Every hidden state is ln_f's shift, which scores the acoustic
        EOS far below every code."""
        params = {**params, "ln_f.affine": params["ln_f.affine"].copy(),
                  "acoustic_emb": params["acoustic_emb"].copy()}
        params["ln_f.affine"][0] = 0.0
        params["ln_f.affine"][1] = 1.0
        params["acoustic_emb"][cfg.acoustic_eos] = -10.0
        small = replace(cfg, max_len=9)
        phon, prefix = [2, 9, 4], [3, 1]
        spec = SamplingSpec(temperature=1.0, top_p=1.0, seed=4, max_new_tokens=9)
        out = ar_model.ar_generate(params, small, phon, prefix, spec)
        assert len(out) == small.max_len - (len(phon) + 1) - len(prefix) == 3
        ar_model.ar_forward(params, small, phon, prefix + out.tolist())
        roomy = ar_model.ar_generate(params, cfg, phon, prefix, replace(spec, max_new_tokens=3))
        np.testing.assert_array_equal(out, roomy)

    @pytest.mark.parametrize("draws, max_len, codes, pushes", [
        ([3, 5, 1, 2, 0, 4, 4, 6, 7, 9], 4096, 9, 8),
        ([3, 5, 1, 17, 2], 4096, 3, 3),
        ([3, 5, 1, 2], 9, 3, 2),
    ], ids=["max_new_tokens", "eos", "context_limit"])
    def test_pushes_only_codes_whose_logits_are_read(self, params, cfg, monkeypatch, draws,
                                                     max_len, codes, pushes):
        """A code is pushed only when another token will be drawn: a stop at
        max_new_tokens (9) or at the context limit pushes one code fewer than
        it returns, and an EOS stop (17 = K) pushes every code. Each push is
        the code just drawn, in order."""
        script, pushed = iter(draws), []
        monkeypatch.setattr(lm_core, "nucleus_sample", lambda *a: next(script))
        push = ar_model.ArDecoder.push
        monkeypatch.setattr(ar_model.ArDecoder, "push",
                            lambda dec, tok: (pushed.append(tok), push(dec, tok)))
        out = ar_model.ar_generate(params, replace(cfg, max_len=max_len), [2, 9, 4], [3, 1],
                                   SamplingSpec(max_new_tokens=9))
        assert out.tolist() == draws[:codes]
        assert pushed == draws[:pushes]

    def test_nonpositive_max_new_tokens_rejected(self, params, cfg):
        with pytest.raises(ValidationError):
            ar_model.ar_generate(params, cfg, [1], [], SamplingSpec(max_new_tokens=0))

    def test_prefix_consistency_one_pass_vs_incremental(self, params64, cfg):
        """Cache correctness: logits at the first generated position agree
        whether the prefix is consumed in one pass or token by token."""
        phon = [2, 9, 4]
        prefix = [3, 1, 4, 1, 5]
        one_pass = ar_model.ArDecoder(params64, cfg, phon, prefix)
        stepped = ar_model.ArDecoder(params64, cfg, phon, prefix[:1])
        for tok in prefix[1:]:
            stepped.push(tok)
        np.testing.assert_allclose(
            one_pass.next_logits(), stepped.next_logits(), atol=1e-10
        )

    @staticmethod
    def _check_decoder_rows(params, cfg, tol):
        phon = [2, 9, 4]
        ac = [3, 1, 4, 1]
        logits = ar_model.ar_forward(params, cfg, phon, ac)
        dec = ar_model.ArDecoder(params, cfg, phon, [])
        for i, tok in enumerate(ac):
            np.testing.assert_allclose(dec.next_logits(), logits[i], **tol)
            dec.push(tok)
        np.testing.assert_allclose(dec.next_logits(), logits[len(ac)], **tol)

    def test_decoder_matches_teacher_forced_rows(self, params64, cfg):
        self._check_decoder_rows(params64, cfg, dict(atol=1e-10))

    def test_decoder_matches_teacher_forced_rows_float32(self, params, cfg):
        """The float32 trunk: a one-row step and the one-shot pass round
        differently, within float32 precision."""
        self._check_decoder_rows(params, cfg, dict(rtol=1e-5, atol=1e-5))

    def test_push_past_max_len_rejected(self, params):
        """The decoder's context fills max_len, the longest ar_forward
        accepts; the trunk refuses the push that would pass it, and the
        decoder is left as it was."""
        small = ModelConfig(layers=2, heads=2, embed_dim=32, ffn_dim=64, dropout=0.0,
                            codebook_size=17, quantizers=4, max_len=9)
        phon, codes = [2, 9, 4], [3, 1]
        dec = ar_model.ArDecoder(params, small, phon, codes)
        while dec.p + dec.ac_len < small.max_len:
            dec.push(5)
            codes.append(5)
        assert dec.p + dec.ac_len == dec.kv.length == small.max_len
        assert dec.room == 0
        held, logits = dec.ac_len, dec.next_logits()
        keys = [k.copy() for k in dec.kv.keys]
        with pytest.raises(ValidationError, match="sequence length 10 exceeds max_len 9"):
            dec.push(5)
        assert dec.ac_len == held and dec.kv.length == small.max_len and dec.room == 0
        assert all(np.array_equal(a, b) for a, b in zip(dec.kv.keys, keys))
        np.testing.assert_array_equal(dec.next_logits(), logits)
        ar_model.ar_forward(params, small, phon, codes)
        with pytest.raises(ValidationError):
            ar_model.ar_forward(params, small, phon, codes + [5])

    @pytest.mark.parametrize("token", [-1, 17])
    def test_push_out_of_range_token_rejected(self, params, cfg, token):
        """Only a code in [0, K) can be pushed (K = 17 here): -1 would read the
        acoustic EOS row as the last table row, and K is the EOS itself. The
        refused push leaves the decoder as it was."""
        dec = ar_model.ArDecoder(params, cfg, [2, 9, 4], [3, 1])
        held, logits = dec.ac_len, dec.next_logits()
        with pytest.raises(ValidationError, match=f"acoustic token {token} out of range"):
            dec.push(token)
        assert dec.ac_len == held
        np.testing.assert_array_equal(dec.next_logits(), logits)


class TestDropoutPaths:
    def test_dropout_is_on_exactly_with_an_rng(self, seq):
        """Without a dropout rng the pass is the deterministic one; with one
        it draws its masks from that rng."""
        phon, ac = seq
        cfg_dropout = ModelConfig(layers=1, heads=2, embed_dim=32, ffn_dim=64, dropout=0.5,
                                  codebook_size=17, quantizers=4)
        params = ar_model.init_ar_params(cfg_dropout, np.random.default_rng(0))
        plain = ar_model.ar_forward(params, cfg_dropout, phon, ac)
        assert np.array_equal(ar_model.ar_forward(params, cfg_dropout, phon, ac, rng=None), plain)
        drop = [ar_model.ar_forward(params, cfg_dropout, phon, ac, rng=np.random.default_rng(5))
                for _ in range(2)]
        assert np.isfinite(drop[0]).all() and not np.array_equal(drop[0], plain)
        assert np.array_equal(drop[0], drop[1])
