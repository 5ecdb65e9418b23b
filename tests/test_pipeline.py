import logging
from dataclasses import replace

import numpy as np
import pytest

from codec_lm import ar_model, codec, corpus, formats, frontend, lm_core, nar_model, pipeline
from codec_lm.ar_model import SamplingSpec
from codec_lm.errors import ValidationError
from codec_lm.lm_core import ModelConfig


def _small_cfg(cs):
    return ModelConfig(layers=1, heads=2, embed_dim=16, ffn_dim=32, dropout=0.0,
                       codebook_size=cs.codebook_size, quantizers=cs.quantizers)


# evaluate's settings as `eval --seeds 0` passes them
NO_PROXY = dict(split="eval", seeds=range(0), sampling=SamplingSpec())


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
    ("ar", lambda p: p.pop("ln_f.affine"), "block ln_f.affine is missing"),
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


@pytest.mark.parametrize("kind", ["ar", "nar"])
def test_bundle_refuses_the_per_projection_layout(tmp_path, kind):
    """A checkpoint with separate q/k/v and gain/bias blocks (the layout
    before the stacked `wqkv` and `affine` blocks) is refused on load, and
    the error names one of its blocks."""
    cfg = ModelConfig(layers=1, heads=2, embed_dim=8, ffn_dim=16, dropout=0.0,
                      codebook_size=7, quantizers=3)
    init = ar_model.init_ar_params if kind == "ar" else nar_model.init_nar_params
    params = init(cfg, np.random.default_rng(0))
    old = {}
    for name, value in params.items():
        site, _, leaf = name.rpartition(".")
        if leaf == "wqkv":
            old.update({f"{site}.{w}": v for w, v in zip(("wq", "wk", "wv"), value)})
        elif leaf == "bqkv":
            old.update({f"{site}.{b}": v for b, v in zip(("bq", "bk", "bv"), value)})
        elif leaf == "affine" and kind == "ar":
            old.update({f"{site}.g": value[0], f"{site}.b": value[1]})
        elif leaf == "affine":
            old.update({f"{site}.ba": value[0], f"{site}.bb": value[1]})
        elif leaf == "proj":
            old.update({f"{site}.pa": value[0], f"{site}.pb": value[1]})
        else:
            old[name] = value
    assert "layers.0.attn.wq" in old
    path = tmp_path / "old.ckp"
    lm_core.save_model(path, kind, cfg, old)
    with pytest.raises(ValidationError, match=r"unexpected block layers\.0\.attn\.bk$"):
        pipeline.ModelBundle.load(path, kind)


_TINY = ModelConfig(layers=2, heads=2, embed_dim=8, ffn_dim=16, dropout=0.0,
                    codebook_size=7, quantizers=3)


@pytest.mark.parametrize("kind", ["ar", "nar"])
def test_bundle_load_draws_no_model(tmp_path, monkeypatch, kind):
    """Loading a checkpoint checks its blocks without drawing parameters."""
    init = ar_model.init_ar_params if kind == "ar" else nar_model.init_nar_params
    params = init(_TINY, np.random.default_rng(0))
    path = tmp_path / "m.ckp"
    lm_core.save_model(path, kind, _TINY, params)

    def refuse(*args):
        raise AssertionError("normal_init called")

    monkeypatch.setattr(lm_core, "normal_init", refuse)
    bundle = pipeline.ModelBundle.load(path, kind)
    for name, p in params.items():
        np.testing.assert_array_equal(bundle.params[name], p)


@pytest.mark.parametrize("init, layout", [
    (ar_model.init_ar_params, ar_model.ar_layout),
    (nar_model.init_nar_params, nar_model.nar_layout),
], ids=["ar", "nar"])
def test_layout_is_what_init_draws(init, layout):
    """Names, order, shapes and constants of the init equal its layout."""
    params = init(_TINY, np.random.default_rng(0))
    spec = layout(_TINY)
    assert list(params) == list(spec)
    for name, (shape, how, value) in spec.items():
        assert params[name].shape == shape and params[name].dtype == np.float32
        if how == "fill":
            assert (params[name] == value).all()


def test_step_checkpoints_record_their_step(tmp_path, tiny_corpus_dir, tiny_codec):
    """4 steps at checkpoint_every=2 write .step2 and .step4 next to the
    final checkpoint. Each header holds its step, and .step4 holds the final
    checkpoint's blocks."""
    out = tmp_path / "ar.ckp"
    train_cfg = pipeline.TrainConfig(total_steps=4, warmup_steps=1, batch_tokens=64,
                                     checkpoint_every=2)
    pipeline.train_ar(tiny_corpus_dir, tiny_codec, _small_cfg(tiny_codec), train_cfg,
                      out_path=out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ar.ckp", "ar.ckp.step2",
                                                          "ar.ckp.step4"]
    read = {p.name: formats.read_artifact(p, "ar", {"trained_steps": int})
            for p in tmp_path.iterdir()}
    steps = {name: header["trained_steps"] for name, (header, _) in read.items()}
    assert steps == {"ar.ckp": 4, "ar.ckp.step2": 2, "ar.ckp.step4": 4}
    assert _same_params(read["ar.ckp.step4"][1], read["ar.ckp"][1])
    assert not _same_params(read["ar.ckp.step2"][1], read["ar.ckp"][1])


def test_loaded_checkpoint_is_the_trained_model(tmp_path, tiny_corpus_dir, tiny_codec):
    """Training, saving and loading keep the weights exactly: the loaded
    params are the float32 arrays training left in memory, so synthesis with
    a loaded model runs the same weights as with the one just trained."""
    train_cfg = pipeline.TrainConfig(total_steps=2, warmup_steps=1, batch_tokens=64)
    summary = pipeline.train_ar(tiny_corpus_dir, tiny_codec, _small_cfg(tiny_codec), train_cfg,
                                out_path=tmp_path / "ar.ckp")
    loaded = pipeline.ModelBundle.load(tmp_path / "ar.ckp", "ar")
    assert loaded.params.keys() == summary["params"].keys()
    for name, trained in summary["params"].items():
        assert trained.dtype == loaded.params[name].dtype == np.float32, name
        assert np.array_equal(loaded.params[name], trained), name


# -- what training records ----------------------------------------------------------

def _record_cfg(**kw):
    return pipeline.TrainConfig(**{"total_steps": 4, "warmup_steps": 1, "batch_tokens": 64,
                                   "log_every": 1, **kw})


def _same_params(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[name], b[name]) for name in a)


@pytest.mark.parametrize("train", [pipeline.train_ar, pipeline.train_nar], ids=["ar", "nar"])
def test_training_is_a_function_of_its_seed(train, tiny_corpus_dir, tiny_codec):
    """The same TrainConfig.seed gives bitwise the same params, loss rows and
    NAR stage draws (dropout on, so its stream counts too); another seed
    changes each of them."""
    model_cfg = replace(_small_cfg(tiny_codec), dropout=0.1)
    a, b, other = (train(tiny_corpus_dir, tiny_codec, model_cfg, _record_cfg(seed=seed))
                   for seed in (5, 5, 6))
    assert _same_params(a["params"], b["params"])
    assert a["rows"] == b["rows"]
    assert a.get("stage_draws") == b.get("stage_draws")
    assert not _same_params(a["params"], other["params"])
    assert a["rows"] != other["rows"]
    if train is pipeline.train_nar:
        assert a["stage_draws"] != other["stage_draws"]


def test_loss_rows_are_every_log_every_steps_and_the_last(tmp_path, tiny_corpus_dir,
                                                           tiny_codec):
    """7 steps logged every 5 keep rows for steps 5 and 7 only, in the
    summary and in the loss log."""
    summary = pipeline.train_ar(tiny_corpus_dir, tiny_codec, _small_cfg(tiny_codec),
                                _record_cfg(total_steps=7, log_every=5),
                                log_path=tmp_path / "ar.log")
    assert [step for step, _, _ in summary["rows"]] == [5, 7]
    steps = [line.split("\t")[0] for line in (tmp_path / "ar.log").read_text().splitlines()]
    assert steps == ["5", "7"]


@pytest.mark.parametrize("train", [pipeline.train_ar, pipeline.train_nar], ids=["ar", "nar"])
def test_first_and_final_loss_are_the_first_and_last_rows(train, tiny_corpus_dir, tiny_codec):
    summary = train(tiny_corpus_dir, tiny_codec, _small_cfg(tiny_codec), _record_cfg())
    rows = summary["rows"]
    assert [step for step, _, _ in rows] == [1, 2, 3, 4]
    assert summary["first_loss"] == rows[0][1]
    assert summary["final_loss"] == rows[-1][1]
    assert rows[0][1] != rows[-1][1]


def test_stage_draws_are_one_per_step_in_2_to_q(tiny_corpus_dir, tiny_codec):
    summary = pipeline.train_nar(tiny_corpus_dir, tiny_codec, _small_cfg(tiny_codec),
                                 _record_cfg(total_steps=12))
    draws = summary["stage_draws"]
    assert len(draws) == 12
    assert all(2 <= stage <= tiny_codec.quantizers for stage in draws)


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
    rows = pipeline.evaluate(tiny_corpus_dir, tiny_codec, ar, nar, **NO_PROXY)
    records = corpus.load_corpus(tiny_corpus_dir).split_records("eval")
    assert len(encoded) == len(records) == 2
    q = tiny_codec.quantizers
    assert [m for m, _, _ in rows[-q:]] == [f"codec_snr_stages_{j}" for j in range(1, q + 1)]


def test_evaluate_rows_without_synthesis(tiny_corpus_dir, tiny_codec):
    """The rows are AR accuracy, NAR accuracy per live stage in 2..Q (the
    tiny codec's last stage has a zero book) and codec SNR per stage count
    1..Q, in that order, all on the split and all finite; a later stage never
    lowers the SNR."""
    ar, nar = _bundles(_small_cfg(tiny_codec))
    rows = pipeline.evaluate(tiny_corpus_dir, tiny_codec, ar, nar, **NO_PROXY)
    q = tiny_codec.quantizers
    assert tiny_codec.live_stages == tuple(range(1, q))
    assert [name for name, _, _ in rows] == (
        ["ar_teacher_forced_accuracy"]
        + [f"nar_stage{j}_accuracy" for j in range(2, q)]
        + [f"codec_snr_stages_{j}" for j in range(1, q + 1)])
    assert {split for _, split, _ in rows} == {"eval"}
    assert all(np.isfinite(value) for _, _, value in rows)
    snr = [value for _, _, value in rows[-q:]]
    assert all(later >= earlier for earlier, later in zip(snr, snr[1:]))


def test_evaluate_skips_zero_book_stages(tiny_corpus_dir, tiny_codec, caplog, monkeypatch):
    """A stage whose book is all zero codes every frame 0: evaluation runs no
    NAR pass for it, gives it no accuracy row and logs that it skipped it.
    Stage 3 is forced dead here; the tiny codec's last stage is dead as fitted."""
    q = tiny_codec.quantizers
    books = tiny_codec.books.copy()
    books[2] = 0.0
    cs = replace(tiny_codec, books=books)
    dead = [j for j in range(1, q + 1) if not books[j - 1].any()]
    assert dead == [3, q]
    assert cs.live_stages == tuple(j for j in range(1, q + 1) if j not in dead)
    stages = []
    forward = nar_model.nar_forward

    def counting_forward(*args, **kwargs):
        stages.append(args[5])
        return forward(*args, **kwargs)

    monkeypatch.setattr(nar_model, "nar_forward", counting_forward)
    ar, nar = _bundles(_small_cfg(cs))
    with caplog.at_level(logging.INFO, logger="codec_lm.pipeline"):
        rows = pipeline.evaluate(tiny_corpus_dir, cs, ar, nar, **NO_PROXY)
    assert sorted(set(stages)) == list(cs.live_stages[1:])
    nar_rows = [name for name, _, _ in rows if name.startswith("nar_stage")]
    assert nar_rows == [f"nar_stage{j}_accuracy" for j in cs.live_stages[1:]]
    assert f"no NAR accuracy for stages [3, {q}]: their codebooks are all zero" in caplog.text


def _nar_train_cfg():
    return pipeline.TrainConfig(total_steps=2, warmup_steps=1, batch_tokens=64, log_every=1)


def test_train_nar_skips_utterances_shorter_than_the_prompt(tmp_path, tiny_codec, caplog,
                                                            monkeypatch):
    """Utterances without room for the 3 s prompt plus one frame are logged
    and never sampled; the others train."""
    corpus.build_corpus(corpus.CorpusConfig(
        out_dir=tmp_path, speakers=3, held_out_speakers=0, utterances_per_speaker=2,
        duration_min=2.0, duration_max=4.5, seed=1))
    need = int(pipeline.PROMPT_SECONDS * tiny_codec.frame_rate) + 1
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
    # every hidden state becomes ln_f's shift, whose largest logit is the EOS row's
    ar.params["ln_f.affine"][0] = 0.0
    ar.params["ln_f.affine"][1] = 1.0
    ar.params["acoustic_emb"][cfg.acoustic_eos] = 10.0
    rec = corpus.load_corpus(tiny_corpus_dir).split_records("eval")[0]
    text = "".join(frontend.ID_TO_SYMBOL[u.symbol_id] for u in rec.units)
    spec = pipeline.PromptSpec(mode="standard", enrolled_waveform=corpus.read_waveform(rec.path),
                               enrolled_text=text, target_text="abdo")
    with caplog.at_level(logging.WARNING, logger="codec_lm.pipeline"):
        wav = pipeline.synthesize(spec, ar, nar, tiny_codec, SamplingSpec(temperature=0.0))
    assert "acoustic EOS first" in caplog.text
    assert wav.samples.size == 0 and wav.sample_rate == tiny_codec.sample_rate


def _prompt_of_known_length(corpus_dir, cs):
    """A standard prompt of 50 frames, and its AR length: the phonemes, their
    EOS and the 50 codes."""
    wav = corpus.read_waveform(corpus.load_corpus(corpus_dir).split_records("eval")[0].path)
    frames = 50
    spec = pipeline.PromptSpec(
        mode="standard", enrolled_text="abd", target_text="abdo",
        enrolled_waveform=corpus.Waveform(wav.samples[: frames * cs.stride], wav.sample_rate))
    return spec, len(pipeline.build_phoneme_prompt(spec)) + 1 + frames


def test_synthesis_of_a_prompt_that_fills_max_len_is_logged(tiny_corpus_dir, tiny_codec,
                                                             caplog):
    """A prompt that leaves the AR context no room for a code gives an empty
    waveform, and the warning says so."""
    spec, length = _prompt_of_known_length(tiny_corpus_dir, tiny_codec)
    cfg = replace(_small_cfg(tiny_codec), max_len=length)
    ar, nar = _bundles(cfg)
    with caplog.at_level(logging.WARNING, logger="codec_lm.pipeline"):
        out = pipeline.synthesize(spec, ar, nar, tiny_codec, SamplingSpec(seed=1))
    assert "the prompt fills max_len" in caplog.text
    assert out.samples.size == 0


def test_a_prompt_one_short_of_max_len_synthesizes_one_code(tiny_corpus_dir, tiny_codec,
                                                            caplog):
    """A prompt of max_len - 1 positions leaves room for one code: the
    synthesis is one frame long, and no warning is given. Every AR hidden
    state is ln_f's shift, which scores the acoustic EOS far below every
    code."""
    spec, length = _prompt_of_known_length(tiny_corpus_dir, tiny_codec)
    cfg = replace(_small_cfg(tiny_codec), max_len=length + 1)
    ar, nar = _bundles(cfg)
    ar.params["ln_f.affine"][0] = 0.0
    ar.params["ln_f.affine"][1] = 1.0
    ar.params["acoustic_emb"][cfg.acoustic_eos] = -10.0
    with caplog.at_level(logging.WARNING, logger="codec_lm.pipeline"):
        out = pipeline.synthesize(spec, ar, nar, tiny_codec, SamplingSpec(seed=1))
    assert caplog.text == ""
    assert out.samples.size == tiny_codec.stride


def _ramp(n, sample_rate=100):
    return corpus.Waveform(samples=np.linspace(-0.5, 0.5, n), sample_rate=sample_rate)


def test_continual_prompt_is_the_first_n_samples():
    """The enrolled audio is the first int(PROMPT_SECONDS * rate) samples,
    bit for bit, and the whole transcription is the target."""
    full = _ramp(800)
    spec = pipeline.continual_prompt(full, "abdo")
    assert pipeline.PROMPT_SECONDS == 3.0
    assert spec.mode == "continual" and spec.enrolled_text is None
    assert spec.target_text == "abdo"
    assert spec.enrolled_waveform.sample_rate == 100
    np.testing.assert_array_equal(spec.enrolled_waveform.samples, full.samples[:300])


@pytest.mark.parametrize("seconds, message", [
    (0.1, "covers the full utterance"),
    (0.2, "covers the full utterance"),
    (3.0, "covers the full utterance"),
])
def test_continual_prompt_refuses_an_empty_or_whole_prompt(seconds, message):
    """An utterance of `seconds`, no longer than the 3 s prompt, leaves no
    target and is refused."""
    with pytest.raises(ValidationError, match=message):
        pipeline.continual_prompt(_ramp(int(seconds * 100)), "abdo")


def test_standard_phoneme_prompt_is_enrolled_then_target():
    """Each text is deduplicated on its own; a symbol that ends the enrolled
    text and starts the target appears twice."""
    a, b, d = (frontend.symbol_id(c) for c in "abd")
    spec = pipeline.PromptSpec(mode="standard", enrolled_waveform=_ramp(80),
                               enrolled_text="aabb", target_text="bbda")
    assert pipeline.build_phoneme_prompt(spec) == [a, b, b, d, a]


def test_continual_phoneme_prompt_is_the_target_once():
    a, b, d = (frontend.symbol_id(c) for c in "abd")
    spec = pipeline.continual_prompt(_ramp(800), "aabbda")
    assert pipeline.build_phoneme_prompt(spec) == [a, b, d, a]
