"""Smoke tests for the benchmark at toy size (K=16, Q=3, 2 layers, 3 steps,
30-frame synthesis).

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section):
    return [m["name"] for m in SPEC[section]]


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == (
        tracing.metric_specs()
    )


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_end_to_end_metric_is_emitted(workload, seed, tmp_path):
    result, detail = run.run_workload(workload, seed, 0, False, size=run.TOY,
                                      work_root=tmp_path / "work")
    assert result["correct"], detail["failures"]
    # seconds=0: one cycle, a fit, two trainings and a synthesis per pair
    assert result["failed"] == 0 and result["attempted"] == 7
    assert detail["operations"] == {"codec_fit": 1, "synth": 4, "ar_train": 1, "nar_train": 1}
    assert list(result["metrics"]) == _names("end_to_end")
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
    assert detail["host"]["nproc"] >= 1
    assert not (tmp_path / "work").exists()


def test_traced_run_emits_every_layer_metric(tmp_path):
    result, detail = run.run_workload("lloyd20", 1, 0, True, size=run.TOY,
                                      work_root=tmp_path / "work")
    assert result["correct"], detail["failures"]
    assert result["attempted"] == 14  # an untraced and a traced cycle
    assert detail["skipped_trace_targets"] == []
    assert set(detail["time_shares"]) == {"codec_fit", "ar_train", "nar_train"} | {
        f"synth[{k}]" for k in range(4)}
    assert 0 < sum(detail["time_shares"]["codec_fit"].values()) <= 1.001
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert list(metrics) == _names("per_layer")
    for target in tracing.TRACED:
        base = tracing.metric_name(target)
        assert metrics[f"{base}.calls"] > 0, target
        assert 0 <= metrics[f"{base}.self_s"] <= metrics[f"{base}.total_s"] + 1e-9
    assert metrics["lm_core.stack_forward.positions"] > 0
    assert metrics["kernels.nearest_codeword.flops"] > metrics["kernels.nearest_codeword.rows"]
    assert 0 < metrics["trace_overhead_s"] < metrics["codec.train_codebooks.total_s"]


def test_tracer_skips_missing_names_and_restores(monkeypatch):
    from codec_lm import codec, corpus

    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + ("codec.no_such_fn",))
    original = codec.kmeans_fit
    tracer = tracing.Tracer()
    assert tracer.install() == ["codec.no_such_fn"]
    try:
        assert codec.kmeans_fit is not original
        cs = codec.initial_codebooks(codec.CodecConfig(codebook_size=4, quantizers=2))
        wave = corpus.Waveform(samples=np.full(800, 0.1), sample_rate=8000)
        codec.decode(codec.encode(wave, cs), cs)
    finally:
        tracer.uninstall()
    assert codec.kmeans_fit is original
    calls = {k: v for k, (v, _) in tracer.metrics(0.0).items() if k.endswith(".calls")}
    assert calls["codec.rvq_encode.calls"] == 1
    assert calls["kernels.nearest_codeword.calls"] == 2
    assert calls["codec.no_such_fn.calls"] == 0


def test_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "lloyd2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_raising_operation_fails_what_needs_it(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(run.pipeline, "train_ar", broken)
    result, detail = run.run_workload("lloyd2", 1, 5, False, size=run.TOY,
                                      work_root=tmp_path / "work")
    assert not result["correct"]
    # the AR training raised, so the rest of the cycle did not run and no
    # further cycle started
    assert result["attempted"] == 7 and result["failed"] == 5
    assert detail["failures"][0] == "ar_train: RuntimeError: boom"
    assert detail["failures"][1] == "synth[1]: not run, ar_train raised"
    assert "ar_train_loss" not in result["metrics"]
    assert result["metrics"]["synth_rtf"]["value"] > 0


def test_a_cycle_that_differs_from_the_first_fails(monkeypatch, tmp_path):
    fit = run.codec.train_codebooks
    fits = []

    def drifting(waves, cfg):
        cs = fit(waves, cfg)
        fits.append(cs)
        if len(fits) > 1:
            cs.books[0, 1] += 1e-6
        return cs

    monkeypatch.setattr(run.codec, "train_codebooks", drifting)
    runner = run.Runner(run.setup(tmp_path / "c", 1, run.TOY), 1, "lloyd2", run.TOY)
    runner.run_cycle()
    assert not runner.failures
    runner.run_cycle(until=0.0)  # stops after its first operation
    assert runner.failures == ["codec_fit: output differs from the first cycle's"]
    assert runner.attempted == 8


@pytest.mark.parametrize("kind, losses, failed", [
    ("ar", [2.0 + 0.2 * i for i in range(15)], True),  # climbs by 1.5 nats
    ("ar", [3.0 if i % 2 else 2.6 for i in range(15)], False),  # flat, near ln(17)
    ("nar", [3.0] + [2.0] * 14, False),
    ("nar", [2.0] * 15, True),  # does not fall
])
def test_loss_checks(monkeypatch, tmp_path, kind, losses, failed):
    runner = run.Runner(run.setup(tmp_path / "c", 1, run.TOY), 1, "lloyd2", run.TOY)
    runner.train_cfg = dataclasses.replace(runner.train_cfg, total_steps=15)
    rows = [(i + 1, x, 1e-3) for i, x in enumerate(losses)]
    monkeypatch.setattr(run.pipeline, f"train_{kind}", lambda *a: {"params": {}, "rows": rows})
    check = run.Checks()
    runner.train(check, {"cs": None}, kind)
    assert bool(check) == failed, check
