"""End to end through `cli.main`: every command on a tiny corpus, codec and
model, in process."""

import shutil

import pytest

from codec_lm import cli, formats

SMALL_CORPUS = ["corpus.speakers=4", "corpus.held_out=1", "corpus.duration_min=3.5",
                "corpus.duration_max=4.5"]
SMALL_CODEC = ["codec.codebook_size=16", "codec.quantizers=3", "codec.kmeans_iters=4",
               "codec.pitch_augment=0.0"]
SMALL_MODEL = ["model.layers=2", "model.heads=2", "model.embed_dim=16", "model.ffn_dim=32",
               "train.total_steps=10", "train.warmup_steps=2", "train.batch_tokens=64",
               "train.log_every=5"]
SMALL_SAMPLING = ["sampling.max_new_tokens=40"]


def _sets(items):
    return [arg for item in items for arg in ("--set", item)]


def _run(argv):
    code = cli.main([str(a) for a in argv])
    assert code == 0, f"{argv[0]} exited {code}"


def run_chain(root, seed=3):
    """gen-corpus -> train-codec -> train-ar -> train-nar -> synthesize (both
    modes) -> eval; returns the paths it wrote."""
    corpus_dir, cbk = root / "corpus", root / "codec.cbk"
    ar, nar = root / "ar.ckp", root / "nar.ckp"
    seed_args = ["--seed", seed]
    _run(["gen-corpus", "--out", corpus_dir, *seed_args, *_sets(SMALL_CORPUS)])
    _run(["train-codec", "--corpus", corpus_dir, "--out", cbk, *seed_args, *_sets(SMALL_CODEC)])
    for kind, out in (("ar", ar), ("nar", nar)):
        _run([f"train-{kind}", "--corpus", corpus_dir, "--codec", cbk, "--out", out,
              *seed_args, *_sets(SMALL_MODEL)])
    utt_id, _, _, rel, text = next(
        e for e in formats.read_manifest(corpus_dir / "manifest.tsv") if e[2] == "eval"
    )
    models = ["--ar", ar, "--nar", nar, "--codec", cbk, *seed_args, *_sets(SMALL_SAMPLING)]
    _run(["synthesize", *models, "--out", root / "standard.clm", "--text", "abdo",
          "--enrolled-audio", corpus_dir / rel, "--enrolled-text", text])
    _run(["synthesize", *models, "--out", root / "continual.clm", "--mode", "continual",
          "--text", text, "--enrolled-audio", corpus_dir / rel, "--prompt-seconds", "1.5"])
    _run(["eval", *models, "--corpus", corpus_dir, "--out", root / "report.tsv",
          "--seeds", "1"])
    return {"corpus": corpus_dir, "codec": cbk, "ar": ar, "nar": nar,
            "audio": corpus_dir / rel, "report": root / "report.tsv"}


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    return run_chain(tmp_path_factory.mktemp("run_a"))


def test_report_has_every_metric_family(chain):
    metrics = [line.split("\t")[0] for line in chain["report"].read_text().splitlines()]
    assert "ar_teacher_forced_accuracy" in metrics
    assert {"nar_stage2_accuracy", "nar_stage3_accuracy"} <= set(metrics)
    assert {f"codec_snr_stages_{j}" for j in (1, 2, 3)} <= set(metrics)
    assert "speaker_f0_match" in metrics


def test_train_writes_loss_log_next_to_checkpoint(chain):
    for kind in ("ar", "nar"):
        log_path = chain[kind].with_name(chain[kind].name + ".log")
        steps = [line.split("\t")[0] for line in log_path.read_text().splitlines()]
        assert steps == ["5", "10"]


@pytest.mark.parametrize("artifact, kind, block", [
    ("codec", "codebooks", "books [3x16x80]"), ("ar", "ar", "acoustic_emb"),
    ("nar", "nar", "stage_emb [2x16]"), ("audio", "audio", "samples"),
], ids=["codec", "ar", "nar", "audio"])
def test_inspect_prints_each_kind(chain, capsys, artifact, kind, block):
    _run(["inspect", chain[artifact]])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == f"{kind} artifact"
    assert "  format=1" in lines
    assert f"  block {block}" in out


def test_same_seed_gives_identical_artifacts(chain, tmp_path):
    run_chain(tmp_path)
    root_a = chain["corpus"].parent
    files_a = sorted(p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    assert files_a == files_b
    assert len(files_a) > 10
    for rel in files_a:
        assert (root_a / rel).read_bytes() == (tmp_path / rel).read_bytes(), rel


def test_existing_output_needs_force(chain, capsys):
    argv = ["train-codec", "--corpus", chain["corpus"], "--out", chain["codec"],
            *_sets(SMALL_CODEC)]
    before = chain["codec"].read_bytes()
    assert cli.main([str(a) for a in argv]) == 2
    assert "--force" in capsys.readouterr().err
    assert chain["codec"].read_bytes() == before


def test_unknown_set_key_exits_2(chain, tmp_path, capsys):
    argv = ["train-codec", "--corpus", chain["corpus"], "--out", tmp_path / "c.cbk",
            "--set", "codec.bogus=1"]
    assert cli.main([str(a) for a in argv]) == 2
    assert "unknown key 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "c.cbk").exists()


def test_eval_refuses_swapped_checkpoints(chain, tmp_path, capsys):
    """Each checkpoint must be of the kind its flag names: swapped, eval
    exits 2 with a one-line error and writes no report."""
    argv = ["eval", "--ar", chain["nar"], "--nar", chain["ar"], "--codec", chain["codec"],
            "--corpus", chain["corpus"], "--out", tmp_path / "report.tsv", "--no-synthesis"]
    assert cli.main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "kind is 'nar', expected 'ar'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.tsv").exists()


def _drop_last_field(text):
    return "".join(line.rsplit("\t", 1)[0] + "\n" for line in text.splitlines())


def _bad_first_f0(text):
    sid, _, rest = text.split("\t", 2)
    return f"{sid}\tfast\t{rest}"


def _drop_first_line(text):
    return text.split("\n", 1)[1]


@pytest.mark.parametrize("name, corrupt, where", [
    ("speakers.tsv", _drop_last_field, ":1: expected 6 fields, got 5"),
    ("alignments.tsv", _drop_last_field, ":1: expected 2 fields, got 1"),
    ("speakers.tsv", _bad_first_f0, ":1: could not convert string to float: 'fast'"),
    ("alignments.tsv", _drop_first_line, ": no alignment for utt_000_000"),
    ("speakers.tsv", _drop_first_line, ": no row for speaker 0"),
], ids=["short-speakers-line", "short-alignments-line", "bad-number", "missing-alignment",
        "missing-speaker"])
def test_malformed_corpus_exits_2(chain, tmp_path, capsys, name, corrupt, where):
    """A corpus file that does not parse, or lacks the row of a manifest
    entry, gives a one-line error naming the file and line (or the missing
    utterance or speaker), not a traceback."""
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(chain["corpus"], corpus_dir)
    path = corpus_dir / name
    path.write_text(corrupt(path.read_text()))
    argv = ["train-codec", "--corpus", corpus_dir, "--out", tmp_path / "c.cbk",
            *_sets(SMALL_CODEC)]
    assert cli.main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}{where}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "c.cbk").exists()


@pytest.mark.parametrize("setting, message", [
    ("train.log_every=0", "train.log_every must be >= 1"),
    ("train.checkpoint_every=-1", "train.checkpoint_every must be >= 0"),
], ids=["log-every-0", "negative-checkpoint-every"])
def test_bad_train_interval_exits_2(chain, tmp_path, capsys, setting, message):
    argv = ["train-ar", "--corpus", chain["corpus"], "--codec", chain["codec"],
            "--out", tmp_path / "ar.ckp", *_sets(SMALL_MODEL), "--set", setting]
    assert cli.main([str(a) for a in argv]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["eval", "--seeds", "0"], "the speaker-f0 proxy needs at least one synthesis seed"),
    (["train-codec", "--set", "codec.pitch_augment=-0.5"],
     "codec.pitch_augment must lie in [0, 1)"),
    (["train-codec", "--set", "codec.pitch_augment=1.0"],
     "codec.pitch_augment must lie in [0, 1)"),
], ids=["eval-seeds-0", "negative-pitch-augment", "pitch-augment-1"])
def test_bad_setting_exits_2(chain, tmp_path, capsys, argv, message):
    """Settings that would give nan rows, or silently no augmentation, or a
    failure that does not name its key, are refused up front."""
    models = {"eval": ["--ar", chain["ar"], "--nar", chain["nar"], "--codec", chain["codec"]],
              "train-codec": [*_sets(SMALL_CODEC)]}[argv[0]]
    out = tmp_path / "out"
    code = cli.main([str(a) for a in [argv[0], *models, *argv[1:],
                                      "--corpus", chain["corpus"], "--out", out]])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()
