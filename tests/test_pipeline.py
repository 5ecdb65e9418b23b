import logging

import numpy as np
import pytest

from codec_lm import ar_model, codec, corpus, lm_core, nar_model, pipeline
from codec_lm.ar_model import SamplingSpec
from codec_lm.errors import ValidationError
from codec_lm.lm_core import ModelConfig


def _small_cfg(cs):
    return ModelConfig(layers=1, heads=2, embed_dim=16, ffn_dim=32, dropout=0.0,
                       codebook_size=cs.codebook_size, quantizers=cs.quantizers)


def _bundles(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return (pipeline.ModelBundle(ar_model.init_ar_params(cfg, rng), cfg),
            pipeline.ModelBundle(nar_model.init_nar_params(cfg, rng), cfg))


@pytest.mark.parametrize("train", [pipeline.train_ar, pipeline.train_nar])
def test_checkpoint_every_needs_out_path(train, tmp_path, monkeypatch, tiny_corpus_dir,
                                         tiny_codec):
    """Step checkpoints are named after out_path; without one, training is
    refused before the first step and nothing is written."""
    monkeypatch.chdir(tmp_path)
    model_cfg = ModelConfig(layers=1, heads=2, embed_dim=16, ffn_dim=32, dropout=0.0,
                            codebook_size=tiny_codec.codebook_size,
                            quantizers=tiny_codec.quantizers)
    train_cfg = pipeline.TrainConfig(total_steps=2, warmup_steps=1, batch_tokens=64,
                                     checkpoint_every=1)
    with pytest.raises(ValidationError, match="checkpoint_every"):
        train(tiny_corpus_dir, tiny_codec, model_cfg, train_cfg)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("drop_kind, expected", [(True, "ar"), (False, "nar")])
def test_bundle_checks_checkpoint_kind(tmp_path, drop_kind, expected):
    """An AR checkpoint loads as 'ar'. Without its `kind` line, or loaded as
    'nar', it is refused with a ValidationError, not a KeyError."""
    cfg = ModelConfig(layers=1, heads=2, embed_dim=8, ffn_dim=16, dropout=0.0,
                      codebook_size=7, quantizers=3)
    path = tmp_path / "ar.ckp"
    lm_core.save_model(path, "ar", cfg, ar_model.init_ar_params(cfg, np.random.default_rng(0)))
    assert pipeline.ModelBundle.load(path, "ar").cfg == cfg
    if drop_kind:  # same length, so the header length still holds
        path.write_bytes(path.read_bytes().replace(b"\nkind=ar\n", b"\nkxnd=ar\n"))
    with pytest.raises(ValidationError, match="kind"):
        pipeline.ModelBundle.load(path, expected)


@pytest.mark.parametrize("kind, edit, message", [
    ("ar", lambda p: p.pop("ln_f.g"), "block ln_f.g is missing"),
    ("nar", lambda p: p.update(extra=np.zeros(2)), "unexpected block extra"),
    ("nar", lambda p: p.update({"stage_emb": np.zeros((3, 8))}),
     r"block stage_emb has shape \(3, 8\), expected \(2, 8\)"),
], ids=["missing", "unexpected", "wrong-shape"])
def test_bundle_checks_parameter_blocks(tmp_path, kind, edit, message):
    """A checkpoint whose blocks differ from its config's parameters is
    refused on load, naming the block, instead of failing in synthesis."""
    cfg = ModelConfig(layers=1, heads=2, embed_dim=8, ffn_dim=16, dropout=0.0,
                      codebook_size=7, quantizers=3)
    init = ar_model.init_ar_params if kind == "ar" else nar_model.init_nar_params
    params = init(cfg, np.random.default_rng(0))
    edit(params)
    path = tmp_path / "m.ckp"
    lm_core.save_model(path, kind, cfg, params)
    with pytest.raises(ValidationError, match=message):
        pipeline.ModelBundle.load(path, kind)


def test_evaluate_encodes_each_record_once(tiny_corpus_dir, tiny_codec, monkeypatch):
    """The split is tokenized once, and the codec SNR rows decode those
    tokens instead of encoding the audio again."""
    encoded = []
    encode = codec.encode

    def counting_encode(w, cs):
        encoded.append(w.samples.size)
        return encode(w, cs)

    monkeypatch.setattr(codec, "encode", counting_encode)
    ar, nar = _bundles(_small_cfg(tiny_codec))
    rows = pipeline.evaluate(tiny_corpus_dir, tiny_codec, ar, nar, with_synthesis=False)
    records = corpus.load_corpus(tiny_corpus_dir).split_records("eval")
    assert len(encoded) == len(records) == 2
    q = tiny_codec.quantizers
    assert [m for m, _, _ in rows[-q:]] == [f"codec_snr_stages_{j}" for j in range(1, q + 1)]


def _nar_train_cfg():
    return pipeline.TrainConfig(total_steps=2, warmup_steps=1, batch_tokens=64, log_every=1)


def test_train_nar_skips_utterances_shorter_than_the_prompt(tmp_path, tiny_codec, caplog,
                                                            monkeypatch):
    """Utterances without room for the 3 s prompt plus one frame are logged
    and never sampled; the others train."""
    corpus.build_corpus(corpus.CorpusConfig(
        out_dir=tmp_path, speakers=3, held_out_speakers=0, utterances_per_speaker=2,
        duration_min=2.0, duration_max=4.5, seed=1))
    need = int(pipeline.NAR_PROMPT_SECONDS * tiny_codec.frame_rate) + 1
    frames = {tu.record.utt_id: tu.num_frames for tu in pipeline.tokenize_split(
        corpus.load_corpus(tmp_path), tiny_codec, "train")}
    short = {u for u, n in frames.items() if n < need}
    assert short and len(short) < len(frames)
    sampled = []
    sample = pipeline.sample_nar_item

    def recording_sample(tu, *args):
        sampled.append(tu.record.utt_id)
        return sample(tu, *args)

    monkeypatch.setattr(pipeline, "sample_nar_item", recording_sample)
    with caplog.at_level(logging.WARNING, logger="codec_lm.pipeline"):
        summary = pipeline.train_nar(tmp_path, tiny_codec, _small_cfg(tiny_codec),
                                     _nar_train_cfg())
    assert len(summary["rows"]) == 2
    assert sampled and short.isdisjoint(sampled)
    for utt_id in short:
        assert f"skipping {utt_id}" in caplog.text


def test_train_nar_needs_an_utterance_longer_than_the_prompt(tmp_path, tiny_codec):
    corpus.build_corpus(corpus.CorpusConfig(
        out_dir=tmp_path, speakers=2, held_out_speakers=0, utterances_per_speaker=1,
        duration_min=1.0, duration_max=2.0, seed=1))
    with pytest.raises(ValidationError, match="longer than the NAR prompt"):
        pipeline.train_nar(tmp_path, tiny_codec, _small_cfg(tiny_codec), _nar_train_cfg())


def test_empty_synthesis_is_logged(tiny_corpus_dir, tiny_codec, caplog):
    """An AR model whose first token is the acoustic EOS gives an empty
    waveform, and a warning says so."""
    cfg = _small_cfg(tiny_codec)
    ar, nar = _bundles(cfg)
    # every hidden state becomes ln_f's bias, whose largest logit is the EOS row's
    ar.params["ln_f.g"][:] = 0.0
    ar.params["ln_f.b"][:] = 1.0
    ar.params["acoustic_emb"][cfg.acoustic_eos] = 10.0
    rec = corpus.load_corpus(tiny_corpus_dir).split_records("eval")[0]
    spec = pipeline.PromptSpec(mode="standard", enrolled_waveform=corpus.read_waveform(rec.path),
                               enrolled_text=rec.text, target_text="abdo")
    with caplog.at_level(logging.WARNING, logger="codec_lm.pipeline"):
        wav = pipeline.synthesize(spec, ar, nar, tiny_codec, SamplingSpec(temperature=0.0))
    assert "acoustic EOS first" in caplog.text
    assert wav.samples.size == 0 and wav.sample_rate == tiny_codec.sample_rate
