"""Timing shims around the package's public functions, and the per-layer
metrics derived from the spans they record.

The shims live in the benchmark, outside the program: `Recorder.install`
replaces every public function of the layer modules (and `cli.main`) in
each loaded `sizebias` namespace that holds it, so calls made through
`from .model import h_index` style imports are caught too.  A span is
(id, name, start, end, parent id, thread id, attributes).  Spans stay in
memory until the command ends.

A span opened on a worker thread with no open span of its own takes the
innermost open span of the main thread as parent, which is the call that
submitted the work (`run_null_model` for the replicate pool).  A layer's
time sums its spans over all threads, including time a thread waited for
the interpreter lock, so with several workers it can exceed the wall time
of the call that started them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import resource
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("io", "model", "nullmodel", "scaling", "combinatorics", "synth")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Readings taken before a call, and attributes derived after it, for the
# spans whose per-layer metrics need more than a duration.
_BEFORE = {
    "io.read_publications": _maxrss_mb,
    "nullmodel.run_null_model": time.process_time,
}


def _null_model_attrs(args, kwargs, result, cpu_before) -> dict:
    workers = kwargs.get("workers", args[2] if len(args) > 2 else None)
    return {
        "cpu_s": time.process_time() - cpu_before,
        "replicates": int(result.h_samples.shape[0]),
        "workers": workers,
    }


_AFTER = {
    "io.read_publications": lambda a, k, result, rss: {"rows": result.pool_size, "rss_mb": _maxrss_mb() - rss},
    "io.write_samples_csv": lambda a, k, r, b: {"rows": int(_arg(a, k, 0, "result").h_samples.size)},
    "nullmodel.run_null_model": _null_model_attrs,
    "scaling.fit_power_law": lambda a, k, result, b: {"points": result.n_points},
    "scaling.competition_ranks": lambda a, k, r, b: {"n": len(_arg(a, k, 0, "values"))},
}


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.null_calls: list[tuple] = []
        self.single_worker_s: list[float] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._local.stack = self._main_stack = []
        self._patches: list[tuple] = []

    def _open(self):
        """Push a new span id; return (id, parent id, this thread's stack)."""
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    def _wrap(self, name, fn):
        spans = self.spans
        clock = time.perf_counter
        if name not in _BEFORE and name not in _AFTER:

            @functools.wraps(fn)
            def shim(*args, **kwargs):
                sid, parent, stack = self._open()
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((sid, name, start, end, parent, threading.get_ident(), None))

            return shim

        before_probe = _BEFORE.get(name)

        @functools.wraps(fn)
        def probed_shim(*args, **kwargs):
            before = before_probe() if before_probe else None
            sid, parent, stack = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            try:
                attrs = _AFTER[name](args, kwargs, result, before)
            except Exception as exc:  # a probe must never change the program's outcome
                attrs = {"probe_error": repr(exc)}
            spans.append((sid, name, start, end, parent, threading.get_ident(), attrs))
            if name == "nullmodel.run_null_model" and stack is self._main_stack:
                self.null_calls.append((fn, args, kwargs))
            return result

        return probed_shim

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"sizebias.{layer}")
            except ModuleNotFoundError:
                continue
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        cli = sys.modules["sizebias.cli"]
        targets[id(cli.main)] = ("cli.main", cli.main)
        shims = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "sizebias" and not modname.startswith("sizebias."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in targets and targets[id(obj)][1] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, shims[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def rerun_single_worker(self) -> None:
        """Repeat each top-level `run_null_model` call on one thread, untraced.

        This is the plain single-thread baseline for the same call.
        """
        for fn, args, kwargs in self.null_calls:
            params = inspect.signature(fn).parameters
            if "workers" in params:
                args = args[: list(params).index("workers")]
                kwargs = {**kwargs, "workers": 1}
            start = time.perf_counter()
            fn(*args, **kwargs)
            self.single_worker_s.append(time.perf_counter() - start)
        self.null_calls.clear()

    def write(self, path, argv, code) -> None:
        payload = {
            "argv": list(argv),
            "exit": code,
            "spans": self.spans,
            "single_worker_s": self.single_worker_s,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _union_length(intervals, lo, hi) -> float:
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def command_metrics(record: dict) -> dict[str, float]:
    """Per-layer totals for one traced command."""
    spans = {s[0]: s for s in record["spans"]}
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans.values():
        by_name[s[1]].append(s)
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))

    def total(name):
        return sum(s[3] - s[2] for s in by_name[name])

    def attrs(name, key):
        return [s[6].get(key) for s in by_name[name] if s[6]]

    def attr_sum(name, key):
        return sum(v or 0 for v in attrs(name, key))

    def self_time(name):
        return sum((s[3] - s[2]) - _union_length(children[s[0]], s[2], s[3]) for s in by_name[name])

    def under_null_model(s):
        while s[4] is not None:
            s = spans[s[4]]
            if s[1] == "nullmodel.run_null_model":
                return True
        return False

    null_h = [s for s in by_name["model.h_index"] if under_null_model(s)]
    workers = attrs("nullmodel.run_null_model", "workers")
    return {
        "io.read_publications.s": total("io.read_publications"),
        "io.read_publications.rows": attr_sum("io.read_publications", "rows"),
        "io.read_publications.rss_mb": max((v or 0.0 for v in attrs("io.read_publications", "rss_mb")), default=0.0),
        "io.write_samples_csv.s": total("io.write_samples_csv"),
        "io.write_samples_csv.rows": attr_sum("io.write_samples_csv", "rows"),
        "io.write_benchmark_csv.s": total("io.write_benchmark_csv"),
        "io.build_manifest.s": total("io.build_manifest"),
        "model.h_index.calls": len(null_h),
        "model.h_index.s": sum(s[3] - s[2] for s in null_h),
        "nullmodel.run_null_model.s": total("nullmodel.run_null_model"),
        "nullmodel.replicates": attr_sum("nullmodel.run_null_model", "replicates"),
        "nullmodel.pool.s": total("nullmodel.pool"),
        "nullmodel.reshuffle_blocks.s": total("nullmodel.reshuffle_blocks"),
        "nullmodel.reshuffle_once.self_s": self_time("nullmodel.reshuffle_once"),
        "nullmodel.cpu_s": attr_sum("nullmodel.run_null_model", "cpu_s"),
        # A run_null_model without a workers argument runs on one thread.
        "nullmodel.workers": max((1 if w is None else w for w in workers), default=0),
        "nullmodel.run_null_model.s_1worker": sum(record["single_worker_s"]),
        "nullmodel.mean_spearman_vs_real.s": total("nullmodel.mean_spearman_vs_real"),
        "scaling.fit_power_law.s": total("scaling.fit_power_law"),
        "scaling.fit_power_law.points": attr_sum("scaling.fit_power_law", "points"),
        "scaling.build_benchmark.s": total("scaling.build_benchmark"),
        "scaling.competition_ranks.s": total("scaling.competition_ranks"),
        "scaling.competition_ranks.n": attr_sum("scaling.competition_ranks", "n"),
        "scaling.normalized_scores.s": total("scaling.normalized_scores"),
        "cli.main.s": total("cli.main"),
        "cli.self_s": self_time("cli.main"),
    }


def combine(per_command: list[dict[str, float]]) -> dict[str, float]:
    """Workload totals: sums over commands, maxima for peaks and settings."""
    peaks = {"io.read_publications.rss_mb", "nullmodel.workers"}
    out: dict[str, float] = {}
    for metrics in per_command:
        for key, value in metrics.items():
            if key in peaks:
                out[key] = max(out.get(key, value), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def import_seconds(importtime_stderr: str, module: str) -> float:
    """Cumulative import time of `module` from `python -X importtime` output."""
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = [f.strip() for f in line[len("import time:") :].split("|")]
        if len(fields) == 3 and fields[2] == module:
            return int(fields[1]) / 1e6
    return 0.0
