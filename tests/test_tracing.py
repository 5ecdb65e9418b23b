"""The per-layer bench (`perfbench/tracing.py`) wraps functions of this
package by name and reads some of their arguments for work counters. A
refactor that renames or moves one of those functions, or one of those
arguments, would silently drop a layer from a traced run; these tests read
the bench's own lists, without changing them, and fail instead."""

import ast
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _subscripts(work: ast.Lambda):
    """The constant keys `work` looks up in its argument, e.g. {"batch"} for
    `lambda a: len(a["batch"])`."""
    arg = work.args.args[0].arg
    return {
        sub.slice.value
        for sub in ast.walk(work.body)
        if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
        and sub.value.id == arg and isinstance(sub.slice, ast.Constant)
    }


def _counter_reads():
    """target -> the argument names its COUNTERS entry subscripts, read from
    the source of tracing.py."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "COUNTERS" for t in node.targets
        ):
            return {key.value: _subscripts(value.elts[0])
                    for key, value in zip(node.value.keys, node.value.values)}
    raise AssertionError("tracing.py has no COUNTERS assignment")


def test_every_traced_target_resolves():
    tracer = tracing.Tracer()
    try:
        skipped = tracer.install()
    finally:
        tracer.uninstall()
    assert skipped == []


def test_counter_arguments_are_parameters_of_their_target():
    reads = _counter_reads()
    assert set(reads) == set(tracing.COUNTERS)
    for target, names in reads.items():
        assert names, f"no argument read found for {target}"
        _, _, fn = tracing._resolve(target)
        params = set(inspect.signature(fn).parameters)
        assert names <= params, f"{target} has no parameter {sorted(names - params)}"
