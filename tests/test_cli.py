"""End to end through `cli.main`: every command on a tiny corpus, codec and
model, in process."""

import shutil
from pathlib import Path

import pytest

from codec_lm import cli, codec, corpus, formats, frontend, pipeline

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
    rec = corpus.load_corpus(corpus_dir).split_records("eval")[0]
    text = "".join(frontend.ID_TO_SYMBOL[u.symbol_id] for u in rec.units)
    models = ["--ar", ar, "--nar", nar, "--codec", cbk, *seed_args, *_sets(SMALL_SAMPLING)]
    _run(["synthesize", *models, "--out", root / "standard.clm", "--text", "abdo",
          "--enrolled-audio", rec.path, "--enrolled-text", text])
    _run(["synthesize", *models, "--out", root / "continual.clm", "--mode", "continual",
          "--text", text, "--enrolled-audio", rec.path])
    _run(["eval", *models, "--corpus", corpus_dir, "--out", root / "report.tsv",
          "--seeds", "1"])
    return {"corpus": corpus_dir, "codec": cbk, "ar": ar, "nar": nar,
            "audio": rec.path, "report": root / "report.tsv"}


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
    ("codec", "frame_codebooks", "books [3x16x80]"), ("ar", "ar", "acoustic_emb"),
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


def _tree(root):
    """Every file under `root`: relative path -> contents."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_gen_corpus_force_leaves_what_a_fresh_build_writes(tmp_path):
    """Regenerating a corpus with 3 utterances per speaker as one with 2
    removes the audio the new manifest does not name and an older layout's
    alignments.tsv; a file of no corpus layout is left alone."""
    small = ["corpus.speakers=2", "corpus.held_out=1", "corpus.duration_min=2.0",
             "corpus.duration_max=2.5"]
    old, fresh = tmp_path / "old", tmp_path / "fresh"

    def gen(out, utterances, *flags):
        _run(["gen-corpus", "--out", out, "--seed", 1, *flags,
              *_sets([*small, f"corpus.utterances_per_speaker={utterances}"])])

    gen(old, 3)
    (old / "alignments.tsv").write_text("utt_000_000\t0\n")
    (old / "notes.txt").write_text("kept\n")
    gen(old, 2, "--force")
    gen(fresh, 2)
    got, want = _tree(old), _tree(fresh)
    assert got.pop("notes.txt") == b"kept\n"
    assert sorted(got) == sorted(want)
    assert got == want


def test_unknown_set_key_exits_2(chain, tmp_path, capsys):
    argv = ["train-codec", "--corpus", chain["corpus"], "--out", tmp_path / "c.cbk",
            "--set", "codec.bogus=1"]
    assert cli.main([str(a) for a in argv]) == 2
    assert "unknown key 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "c.cbk").exists()


def test_codec_takes_the_corpus_sample_rate(tmp_path, capsys):
    """A 16 kHz corpus trains a 16 kHz codec with no codec setting, and the
    codec's rate cannot be set apart from the audio's."""
    corpus_dir, out = tmp_path / "corpus", tmp_path / "c.cbk"
    _run(["gen-corpus", "--out", corpus_dir, "--seed", 1,
          *_sets([*SMALL_CORPUS, "corpus.sample_rate=16000"])])
    _run(["train-codec", "--corpus", corpus_dir, "--out", out, *_sets(SMALL_CODEC)])
    assert codec.CodebookSet.load(out).sample_rate == 16000
    argv = ["train-codec", "--corpus", corpus_dir, "--out", tmp_path / "d.cbk",
            *_sets(SMALL_CODEC), "--set", "codec.sample_rate=16000"]
    capsys.readouterr()
    assert cli.main([str(a) for a in argv]) == 2
    assert "unknown key 'sample_rate' in section [codec]" in capsys.readouterr().err
    assert not (tmp_path / "d.cbk").exists()


def test_eval_refuses_swapped_checkpoints(chain, tmp_path, capsys):
    """Each checkpoint must be of the kind its flag names: swapped, eval
    exits 2 with a one-line error and writes no report."""
    argv = ["eval", "--ar", chain["nar"], "--nar", chain["ar"], "--codec", chain["codec"],
            "--corpus", chain["corpus"], "--out", tmp_path / "report.tsv", "--seeds", 0]
    assert cli.main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "kind is 'nar', expected 'ar'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.tsv").exists()


def test_codec_of_the_dct_layout_exits_2(chain, tmp_path, capsys):
    """A codebook file of the older layout (DCT coefficients, a `stride`
    header field) is refused with a one-line error naming it."""
    old = tmp_path / "old.cbk"
    books = codec.CodebookSet.load(chain["codec"]).books
    formats.write_artifact(old, "codebooks", {"stride": 80, "sample_rate": 8000},
                           {"books": books})
    argv = ["train-ar", "--corpus", chain["corpus"], "--codec", old,
            "--out", tmp_path / "ar.ckp", *_sets(SMALL_MODEL)]
    assert cli.main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert f"error: {old}: kind is 'codebooks', expected 'frame_codebooks'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "ar.ckp").exists()


def _drop_last_field(text):
    return "".join(line.rsplit("\t", 1)[0] + "\n" for line in text.splitlines())


def _bad_first_f0(text):
    sid, _, rest = text.split("\t", 2)
    return f"{sid}\tfast\t{rest}"


def _drop_first_line(text):
    return text.split("\n", 1)[1]


def _old_speakers_layout(text):
    """Rows as they were with the vibrato rate and depth and the split."""
    rows = (line.split("\t") for line in text.splitlines())
    return "".join(f"{sid}\t{f0}\t5.0\t0.0\t{amps}\ttrain\n" for sid, f0, amps in rows)


def _old_units_layout(text):
    """Units as they were, `symbol:duration:pitch_offset`."""
    rows = (line.rsplit("\t", 1) for line in text.splitlines())
    return "".join(f"{head}\t{units.replace(' ', ':0.0 ')}:0.0\n" for head, units in rows)


def _old_manifest_layout(text):
    """Rows as they were with the audio path and the text, the units kept in
    alignments.tsv."""
    rows = (line.split("\t") for line in text.splitlines())
    return "".join(f"{utt}\t{sid}\t{split}\taudio/{utt}.clm\t"
                   + "".join(u.split(":")[0] for u in units.split(" ")) + "\n"
                   for utt, sid, split, units in rows)


@pytest.mark.parametrize("name, corrupt, where", [
    ("speakers.tsv", _drop_last_field, ":1: expected 3 fields, got 2"),
    ("manifest.tsv", _drop_last_field, ":1: expected 4 fields, got 3"),
    ("speakers.tsv", _bad_first_f0, ":1: could not convert string to float: 'fast'"),
    ("speakers.tsv", _drop_first_line, ": no row for speaker 0"),
    ("speakers.tsv", _old_speakers_layout, ":1: expected 3 fields, got 6"),
    ("manifest.tsv", _old_units_layout, ":1: units are symbol:duration pairs, not '"),
    ("manifest.tsv", _old_manifest_layout, ":1: expected 4 fields, got 5"),
], ids=["short-speakers-line", "short-manifest-line", "bad-number", "missing-speaker",
        "old-speakers-layout", "old-units-layout", "old-manifest-layout"])
def test_malformed_corpus_exits_2(chain, tmp_path, capsys, name, corrupt, where):
    """A corpus file that does not parse, or lacks the speaker row of a
    manifest entry, gives a one-line error naming the file and line (or the
    missing speaker), not a traceback. A corpus in an older layout (vibrato
    and pitch-offset columns, or the manifest's audio-path and text columns
    with the units in alignments.tsv) is refused alike."""
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


def test_non_finite_training_audio_exits_2(chain, tmp_path, capsys):
    """A NaN sample in a training utterance is refused with a one-line error,
    not a traceback from inside the k-means++ draw."""
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(chain["corpus"], corpus_dir)
    path = corpus.load_corpus(corpus_dir).split_records("train")[0].path
    samples, sample_rate = formats.read_audio(path)
    samples[100] = float("nan")
    formats.write_audio(path, samples, sample_rate)
    argv = ["train-codec", "--corpus", corpus_dir, "--out", tmp_path / "c.cbk",
            *_sets(SMALL_CODEC)]
    assert cli.main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "non-finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "c.cbk").exists()


def test_eval_without_a_nar_usable_utterance_exits_2(chain, tmp_path, capsys):
    """When no utterance of the split is longer than the NAR prompt, eval
    refuses with a one-line error instead of writing nan accuracy rows."""
    short = tmp_path / "short"
    _run(["gen-corpus", "--out", short, "--seed", 1, *_sets(
        ["corpus.speakers=2", "corpus.held_out=1", "corpus.utterances_per_speaker=2",
         "corpus.duration_min=1.0", "corpus.duration_max=2.0"])])
    argv = ["eval", "--ar", chain["ar"], "--nar", chain["nar"], "--codec", chain["codec"],
            "--corpus", short, "--out", tmp_path / "report.tsv", "--seeds", 0]
    capsys.readouterr()
    assert cli.main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "error: no utterance is longer than the NAR prompt" in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.tsv").exists()


def test_failed_command_creates_no_directory(chain, tmp_path):
    """The parents of --out are made when the output is written, so a
    command that fails before that leaves nothing behind."""
    argv = ["eval", "--ar", tmp_path / "nope.ckp", "--nar", tmp_path / "nope.ckp",
            "--codec", tmp_path / "nope.cbk", "--corpus", chain["corpus"],
            "--out", tmp_path / "nd" / "sub" / "r.tsv"]
    assert cli.main([str(a) for a in argv]) == 1
    assert list(tmp_path.iterdir()) == []


def test_output_parents_made_at_write_time(chain, tmp_path):
    out = tmp_path / "nd" / "sub" / "c.cbk"
    _run(["train-codec", "--corpus", chain["corpus"], "--out", out, *_sets(SMALL_CODEC)])
    assert codec.CodebookSet.load(out).quantizers == 3


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


def _forbid_corpus_reads(monkeypatch):
    def no_corpus(*args):
        raise AssertionError("the corpus was read")

    monkeypatch.setattr(corpus, "load_corpus", no_corpus)
    monkeypatch.setattr(pipeline, "load_corpus", no_corpus)


@pytest.mark.parametrize("argv, message", [
    (["eval", "--seeds", "-1"], "--seeds must be >= 0"),
    (["train-codec", "--set", "codec.pitch_augment=-0.5"],
     "codec.pitch_augment must lie in [0, 1)"),
    (["train-codec", "--set", "codec.pitch_augment=1.0"],
     "codec.pitch_augment must lie in [0, 1)"),
], ids=["eval-negative-seeds", "negative-pitch-augment", "pitch-augment-1"])
def test_bad_setting_exits_2(chain, tmp_path, capsys, monkeypatch, argv, message):
    """Settings that would give nan rows, or silently no augmentation, or a
    failure that does not name its key, are refused up front: before the
    corpus is read."""
    _forbid_corpus_reads(monkeypatch)
    models = {"eval": ["--ar", chain["ar"], "--nar", chain["nar"], "--codec", chain["codec"]],
              "train-codec": [*_sets(SMALL_CODEC)]}[argv[0]]
    out = tmp_path / "out"
    code = cli.main([str(a) for a in [argv[0], *models, *argv[1:],
                                      "--corpus", chain["corpus"], "--out", out]])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_seeds_0_writes_no_proxy_rows(chain, tmp_path):
    """`--seeds 0` writes the chain's report (whose eval ran one seed) less
    its speaker-f0 proxy rows. `--seed` changes no row: the chain's eval ran
    at --seed 3, and -1 is accepted here, as the sampling seed may be any int."""
    out = tmp_path / "report.tsv"
    _run(["eval", "--ar", chain["ar"], "--nar", chain["nar"], "--codec", chain["codec"],
          "--corpus", chain["corpus"], "--out", out, "--seeds", 0, "--seed", -1])
    rows = chain["report"].read_text().splitlines()
    proxy = [row for row in rows if row.startswith("speaker_f0_match")]
    assert proxy
    assert out.read_text().splitlines() == [row for row in rows if row not in proxy]


def _error_lines(err):
    return [line for line in err.splitlines() if line.startswith("error:")]


@pytest.mark.parametrize("command, key", [
    ("gen-corpus", "corpus.seed"), ("train-codec", "codec.seed"),
    ("train-ar", "train.seed"), ("train-nar", "train.seed"),
])
def test_negative_seed_exits_2(chain, tmp_path, capsys, monkeypatch, command, key):
    """A seed below 0 would reach np.random.SeedSequence, which raises: each
    command refuses it with one line naming the key, before it reads the
    corpus, and writes nothing."""
    inputs = {"gen-corpus": _sets(SMALL_CORPUS),
              "train-codec": ["--corpus", chain["corpus"], *_sets(SMALL_CODEC)],
              "train-ar": ["--corpus", chain["corpus"], "--codec", chain["codec"],
                           *_sets(SMALL_MODEL)]}
    inputs["train-nar"] = inputs["train-ar"]
    _forbid_corpus_reads(monkeypatch)
    argv = [command, *inputs[command], "--seed", -1, "--out", tmp_path / "out"]
    assert cli.main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert _error_lines(err) == [f"error: {key} must be >= 0"]
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("settings, message", [
    (["model.embed_dim=7", "model.heads=7"], "model.embed_dim must be even"),
    (["model.max_len=0"], "model.max_len must be >= 1"),
], ids=["odd-embed-dim", "max-len-0"])
def test_bad_model_setting_exits_2_before_the_corpus_is_read(chain, tmp_path, capsys,
                                                             monkeypatch, settings, message):
    """A model setting that the first forward pass would refuse, without
    naming its key, is refused when the config is built: the corpus is not
    read and nothing is written."""
    _forbid_corpus_reads(monkeypatch)
    argv = ["train-ar", "--corpus", chain["corpus"], "--codec", chain["codec"],
            "--out", tmp_path / "ar.ckp", *_sets([*SMALL_MODEL, *settings])]
    assert cli.main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    errors = _error_lines(err)
    assert len(errors) == 1 and errors[0].startswith(f"error: {message}")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_diverging_run_exits_1(chain, tmp_path, capsys):
    """A non-finite gradient ends training with one error line, not a
    traceback or numpy's warnings about the overflow that leads to it, and
    no checkpoint or loss log is written."""
    argv = ["train-ar", "--corpus", chain["corpus"], "--codec", chain["codec"],
            "--out", tmp_path / "ar.ckp", *_sets([*SMALL_MODEL, "train.peak_lr=1e30"])]
    assert cli.main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert _error_lines(err) == [
        "error: non-finite gradient in parameter block 'acoustic_emb'"]
    assert "RuntimeWarning" not in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_existing_step_checkpoint_needs_force(chain, tmp_path, capsys):
    """A rerun whose final checkpoint and loss log are gone still refuses to
    overwrite the step checkpoints it would write, before the first step."""
    out = tmp_path / "ar.ckp"
    argv = ["train-ar", "--corpus", chain["corpus"], "--codec", chain["codec"], "--out", out,
            *_sets([*SMALL_MODEL, "train.checkpoint_every=5"])]
    _run([*argv, "--seed", 1])
    out.unlink()
    Path(f"{out}.log").unlink()
    steps = {name: (tmp_path / name).read_bytes() for name in ("ar.ckp.step5", "ar.ckp.step10")}
    capsys.readouterr()
    assert cli.main([str(a) for a in [*argv, "--seed", 2]]) == 2
    assert _error_lines(capsys.readouterr().err) == [
        f"error: output {out}.step5 already exists; pass --force to overwrite"]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == steps


def _synthesize_argv(chain, out, *flags):
    return [str(a) for a in ["synthesize", "--ar", chain["ar"], "--nar", chain["nar"],
                             "--codec", chain["codec"], "--out", out, "--text", "abdo", *flags]]


@pytest.mark.parametrize("mode", ["standard", "continual"])
def test_synthesize_without_enrolled_audio_exits_2(chain, tmp_path, capsys, mode):
    """--enrolled-audio is required in either mode; argparse refuses its
    absence and nothing is written."""
    with pytest.raises(SystemExit) as exit_:
        cli.main(_synthesize_argv(chain, tmp_path / "out.clm", "--mode", mode,
                                  "--enrolled-text", "abd"))
    assert exit_.value.code == 2
    assert "the following arguments are required: --enrolled-audio" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_standard_synthesis_without_enrolled_text_exits_2(chain, tmp_path, capsys,
                                                           monkeypatch):
    """Standard mode needs the enrolled transcription: one error line, given
    before any checkpoint is read, and nothing written."""
    def no_checkpoint(*args):
        raise AssertionError("a checkpoint was read")

    monkeypatch.setattr(pipeline.ModelBundle, "load", no_checkpoint)
    argv = _synthesize_argv(chain, tmp_path / "out.clm", "--enrolled-audio", chain["audio"])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert _error_lines(err) == ["error: standard mode requires enrolled_text"]
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
