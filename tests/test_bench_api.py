"""The benchmark (`perfbench/run.py`) drives this package through its public
names: `corpus.build_corpus`, `pipeline.load_corpus`, `train_ar`, `train_nar`,
`TrainConfig`, `PromptSpec`, `build_phoneme_prompt`, the codec and the AR
decoder. A refactor that renames one of them, or changes how it is called,
would break the benchmark only when it runs. This test runs one toy-size cycle
of it, about a second, so that the tests fail instead."""

import importlib.util
import os
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
RUN_ENV = ("OPENBLAS_NUM_THREADS", "CODEC_LM_THREADS")


def _load_run():
    """run.py, loaded by path. On import it sets RUN_ENV where unset and puts
    perfbench/ on sys.path; both are put back."""
    env = {name: os.environ.get(name) for name in RUN_ENV}
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for name, value in env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        sys.path[:] = path
    return module


run = _load_run()


def test_toy_cycle_passes_its_checks(tmp_path):
    result, detail = run.run_workload("lloyd2", 1, 0, False, size=run.TOY,
                                      work_root=tmp_path / "w")
    assert result["correct"] and result["failed"] == 0, detail["failures"]
