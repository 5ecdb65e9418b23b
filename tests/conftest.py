import numpy as np
import pytest

from codec_lm import codec, corpus, lm_core


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def trunk_inputs(monkeypatch):
    """A list that gets a copy of the `x` of every later `lm_core.stack_forward`
    call: the summed embeddings (+ positions) a model hands the trunk."""
    seen = []
    trunk = lm_core.stack_forward

    def capture(params, cfg, x, *args, **kwargs):
        seen.append(x.copy())
        return trunk(params, cfg, x, *args, **kwargs)

    monkeypatch.setattr(lm_core, "stack_forward", capture)
    return seen


def _tiny_rows(rng):
    """Residuals at rounding level, as the last codec stages fit."""
    return rng.normal(size=(400, 7)) * 1e-13


def _duplicate_and_zero_rows(rng):
    data = rng.normal(size=(300, 5))
    data[150:250] = data[rng.integers(0, 150, size=100)]
    data[rng.integers(0, 300, size=60)] = 0.0
    return data


def _mixed_scale_rows(rng):
    return rng.normal(size=(500, 9)) * rng.choice([1e-12, 1.0, 1e3], size=(500, 1))


@pytest.fixture(params=[_tiny_rows, _duplicate_and_zero_rows, _mixed_scale_rows],
                ids=["tiny", "duplicate_zero", "mixed_scale"])
def make_rows(request):
    """A function rng -> (N, D) data that the expanded squared distance
    ||x||^2 - 2x.c + ||c||^2 gets wrong by rounding."""
    return request.param


@pytest.fixture(scope="session")
def tiny_corpus_dir(tmp_path_factory):
    """Small deterministic corpus shared by read-only tests."""
    out = tmp_path_factory.mktemp("corpus")
    cfg = corpus.CorpusConfig(
        out_dir=out,
        speakers=4,
        held_out_speakers=1,
        utterances_per_speaker=2,
        duration_min=3.5,
        duration_max=4.5,
        seed=7,
    )
    corpus.build_corpus(cfg)
    return out


@pytest.fixture(scope="session")
def tiny_codec(tiny_corpus_dir):
    """Codebooks trained on the tiny corpus (small K for speed)."""
    data = corpus.load_corpus(tiny_corpus_dir)
    waves = [corpus.read_waveform(r.path) for r in data.split_records("train")]
    cfg = codec.CodecConfig(codebook_size=64, kmeans_iters=8, seed=3, pitch_augment=0.0)
    return codec.train_codebooks(waves, cfg)
