"""Per-layer timing by wrapping the package's public functions.

`Tracer.install()` replaces each named function with a timing wrapper, on its
module or class. That catches every call because the package calls across
modules through `module.fn` and within a module through its globals; a
function imported by name (`from .corpus import f`) would be missed, and none
of the traced ones is. `Tracer.uninstall()` puts the originals back. Names
the code no longer has are skipped and listed, so a later version that
renames or deletes a function can still be measured.

Each wrapped function gets `calls`, `total_s` and `self_s`, where self time is
total time minus the time of nested wrapped calls. Work counters are computed
from argument shapes before the call.
"""

import functools
import importlib
import inspect
import math
import time

PACKAGE = "codec_lm"

TRACED = (
    "codec.train_codebooks",
    "codec.kmeans_fit",
    "codec.frame_encode",
    "codec.rvq_encode",
    "codec.rvq_decode",
    "codec.frame_decode",
    "_kernels.nearest_codeword",
    "_kernels.cluster_accumulate",
    "lm_core.stack_forward",
    "lm_core.stack_backward",
    "lm_core.cross_entropy",
    "lm_core.adamw_step",
    "lm_core.nucleus_sample",
    "lm_core.sinusoidal_positions",
    "ar_model.ar_loss",
    "ar_model.ar_forward",
    "ar_model.ar_backward",
    "ar_model.ArDecoder.__init__",
    "ar_model.ArDecoder.push",
    "ar_model.ArDecoder.next_logits",
    "nar_model.nar_loss",
    "nar_model.nar_forward",
    "nar_model.nar_backward",
    "nar_model.nar_generate_all",
    "pipeline.tokenize_split",
    "pipeline.sample_ar_item",
    "pipeline.sample_nar_item",
)


def _nearest_codeword_work(frames, book):
    n, d = frames.shape
    return {"rows": n, "flops": 2 * n * book.shape[0] * d}


# target -> (argument name -> counter values, {counter: unit})
COUNTERS = {
    "_kernels.nearest_codeword": (
        lambda a: _nearest_codeword_work(a["frames"], a["book"]),
        {"rows": "count", "flops": "flop"},
    ),
    "lm_core.stack_forward": (
        lambda a: {"positions": a["x"].shape[0]},
        {"positions": "count"},
    ),
    "lm_core.sinusoidal_positions": (
        lambda a: {"rows": a["length"]},
        {"rows": "count"},
    ),
    "ar_model.ar_loss": (
        lambda a: {"tokens": sum(len(ac) + 1 for _, ac in a["batch"])},
        {"tokens": "count"},
    ),
    "nar_model.nar_loss": (
        lambda a: {"tokens": sum(len(target) for _, _, target in a["batch"])},
        {"tokens": "count"},
    ),
}


def metric_name(target: str) -> str:
    """Metric names must start with a letter, so `_kernels` reads `kernels`."""
    return target.lstrip("_")


def metric_specs():
    """(name, unit, better) of every per-layer metric, in output order."""
    return [(name, unit, "lower") for name, (_, unit) in Tracer().metrics(0.0).items()]


def _resolve(target):
    """(owner, attribute, original) for `module.fn` or `module.Class.method`."""
    mod_name, *path = target.split(".")
    owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    attr = path[-1]
    # vars() rather than getattr: a method inherited from `object` is not ours
    fn = vars(owner).get(attr) if inspect.isclass(owner) else getattr(owner, attr)
    if not callable(fn):
        raise AttributeError(target)
    return owner, attr, fn


class Tracer:
    def __init__(self):
        self.stats = {t: [0, 0.0, 0.0] for t in TRACED}  # calls, total, self
        self.counts = {t: dict.fromkeys(COUNTERS[t][1], 0) for t in COUNTERS}
        self.skipped = []
        self._stack = []  # time covered by wrapped children of each open call
        self._patched = []  # (owner, attr, original)

    def _wrap(self, fn, stats, counter=None):
        """`fn` timed into `stats` ([calls, total, self]); `counter` is
        (argument name -> counter values, totals to add them to)."""
        stack = self._stack
        count = None
        if counter is not None:
            sig = inspect.signature(fn)
            work, totals = counter

            def count(args, kwargs):
                for name, n in work(sig.bind(*args, **kwargs).arguments).items():
                    totals[name] += int(n)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if stack:
                    stack[-1] += dt

        return wrapper

    def install(self):
        """Wrap every traced function that exists; returns the skipped names."""
        for target in TRACED:
            try:
                owner, attr, fn = _resolve(target)
            except (ImportError, AttributeError):
                self.skipped.append(target)
                continue
            counter = (COUNTERS[target][0], self.counts[target]) if target in COUNTERS else None
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, self.stats[target], counter))
        return list(self.skipped)

    def uninstall(self):
        while self._patched:
            owner, name, fn = self._patched.pop()
            setattr(owner, name, fn)

    def self_times(self) -> dict:
        """Self seconds so far, by metric base name."""
        return {metric_name(t): s[2] for t, s in self.stats.items()}

    def overhead_s(self, n: int = 20000) -> float:
        """Time the wrappers added: what a wrapper adds to a call of a no-op,
        measured here, times the calls made, with the extra cost of a work
        counter for the counted calls. Best of 5 runs of `n` calls each."""
        def noop(x):
            return x

        def cost(fn):
            best = math.inf
            for _ in range(5):
                t0 = time.perf_counter()
                for i in range(n):
                    fn(i)
                best = min(best, time.perf_counter() - t0)
            return best / n

        bare = cost(noop)
        plain = cost(self._wrap(noop, [0, 0.0, 0.0])) - bare
        counted = cost(self._wrap(noop, [0, 0.0, 0.0], (lambda a: {"x": a["x"]}, {"x": 0}))) - bare
        calls = sum(s[0] for s in self.stats.values())
        counted_calls = sum(self.stats[t][0] for t in COUNTERS)
        return max(plain, 0.0) * calls + max(counted - plain, 0.0) * counted_calls

    def metrics(self, overhead_s: float) -> dict:
        out = {}
        for target in TRACED:
            base = metric_name(target)
            calls, total, self_s = self.stats[target]
            out[f"{base}.calls"] = (calls, "count")
            out[f"{base}.total_s"] = (total, "s")
            out[f"{base}.self_s"] = (self_s, "s")
            for counter, unit in COUNTERS.get(target, (None, {}))[1].items():
                out[f"{base}.{counter}"] = (self.counts[target][counter], unit)
        out["trace_overhead_s"] = (overhead_s, "s")
        return out
