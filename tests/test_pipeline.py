import pytest

from codec_lm import pipeline
from codec_lm.errors import ValidationError
from codec_lm.lm_core import ModelConfig


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
