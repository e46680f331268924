"""Spans around the library's public functions, and the per-layer metrics.

Each wrapper is installed where the caller looks the function up (for
example ``trajkit.cli.select_keyframes`` or ``trajkit.metrics.dtw``), so
the library itself is unchanged. A span records its name, start, end,
parent span and op id; spans stay in memory and are written once, when
the run ends. A layer's self time is its spans' duration minus the time
their child spans cover. A call from a span into a function that opens
a span of the same name (``splines.fit`` calling ``PositionSpline.fit``)
stays one span.
"""

import functools
import json
import os
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "fileio", "geometry", "keyframes", "tokens", "splines", "replan",
          "simulate", "metrics")

# (name, unit) of every per-layer metric. "ms" values are self time per op,
# averaged over one traced pass of the input set; counts are totals over
# that pass and repeat exactly for a seed; shares are of traced op time.
PER_LAYER = (
    [("cli.self_ms", "ms"),
     ("fileio.load.calls", "count"), ("fileio.load.ms", "ms"),
     ("fileio.load.samples", "count"), ("fileio.load.bytes", "B"),
     ("fileio.save.calls", "count"), ("fileio.save.ms", "ms"), ("fileio.save.bytes", "B"),
     ("geometry.euler_to_quat.calls", "count"), ("geometry.quat_to_euler.calls", "count"),
     ("geometry.convert.ms", "ms"),
     ("keyframes.select.ms", "ms"), ("keyframes.select.keyframes", "count"),
     ("keyframes.subframes.ms", "ms"), ("keyframes.waypoints_per_sample", "ratio"),
     ("tokens.encode.ms", "ms"), ("tokens.decode.ms", "ms"), ("tokens.blocks", "count"),
     ("splines.resample.ms", "ms"), ("splines.resample.samples", "count"),
     ("splines.fit.calls", "count"), ("splines.fit.ms", "ms"),
     ("splines.eval.calls", "count"), ("splines.eval.ms", "ms"),
     ("replan.step.calls", "count"), ("replan.step.ms", "ms"), ("replan.merges", "count"),
     ("replan.dropped_waypoints", "count"), ("replan.merge_ratio", "ratio"),
     ("simulate.planner.calls", "count"), ("simulate.planner.ms", "ms"),
     ("simulate.run.self_ms", "ms"),
     ("metrics.report.calls", "count"), ("metrics.dtw.calls", "count"),
     ("metrics.dtw.ms", "ms"), ("metrics.frechet.ms", "ms"), ("metrics.hausdorff.ms", "ms"),
     ("metrics.orth.ms", "ms"), ("metrics.cells", "count")]
    + [(f"{layer}.share", "ratio") for layer in LAYERS]
    + [("trace.overhead_frac", "ratio")]
)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.stack = []
        self.counts = defaultdict(int)
        self.op = 0

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def self_ms(self) -> dict:
        """Total self time in ms per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += 1e3 * (end - start - covered)
        return out

    def root_ms(self) -> float:
        return sum(1e3 * (end - start) for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.stack and tracer.spans[tracer.stack[-1]][0] == name:
            return fn(*args, **kwargs)
        result = tracer.call(name, fn, *args, **kwargs)
        tracer.counts[name + ".calls"] += 1
        if hook is not None:
            hook(tracer.counts, args, result)
        return result
    return traced


def _count(key: str, amount):
    """Hook adding ``amount(args, result)`` to one counter."""
    def hook(counts, args, result):
        counts[key] += amount(args, result)
    return hook


def _loaded(size_of):
    def hook(counts, args, result):
        counts["fileio.load.samples"] += size_of(result)
        counts["fileio.load.bytes"] += os.path.getsize(args[0])
    return hook


def _saved(path_arg: int):
    return _count("fileio.save.bytes", lambda a, r: os.path.getsize(a[path_arg]))


def _subframes(counts, args, result):
    counts["keyframes.waypoints"] += len(result)
    counts["keyframes.samples"] += len(args[0])


def _step(counts, args, result):
    state = args[0]
    new_state, _, diag = result
    if new_state.active is not state.active:
        counts["replan.merges"] += 1
    if diag is not None:
        counts["replan.dropped_waypoints"] += diag.dropped_count


def _targets():
    """(owner, attribute, span name, count hook) for every traced call site."""
    from trajkit import cli, fileio, metrics, replan, simulate, splines
    return [
        (fileio, "load_bundle", "fileio.load", _loaded(lambda r: len(r[0]))),
        (fileio, "load_sparse_bundle", "fileio.load", _loaded(lambda r: len(r[0]))),
        (fileio, "load_token_file", "fileio.load", _loaded(len)),
        (fileio, "load_scenario", "fileio.load", _loaded(lambda r: len(r.initial_plan))),
        (fileio, "save_bundle", "fileio.save", _saved(2)),
        (fileio, "save_sparse_bundle", "fileio.save", _saved(2)),
        (fileio, "save_token_file", "fileio.save", _saved(1)),
        (fileio, "save_execution_log", "fileio.save", _saved(1)),
        (splines, "euler_to_quaternion", "geometry.euler_to_quat", None),
        (replan, "euler_to_quaternion", "geometry.euler_to_quat", None),
        (splines, "quaternion_to_euler", "geometry.quat_to_euler", None),
        (replan, "quaternion_to_euler", "geometry.quat_to_euler", None),
        (simulate, "quaternion_to_euler", "geometry.quat_to_euler", None),
        (cli, "select_keyframes", "keyframes.select",
         _count("keyframes.select.keyframes", lambda a, r: len(r.indices))),
        (cli, "insert_sub_keyframes", "keyframes.subframes", _subframes),
        (cli, "encode_sequence", "tokens.encode", _count("tokens.blocks", lambda a, r: len(r))),
        (cli, "decode_sequence", "tokens.decode", None),
        (cli, "fit", "splines.fit", None),
        (simulate, "fit", "splines.fit", None),
        (splines.PositionSpline, "fit", "splines.fit", None),
        (cli, "resample", "splines.resample",
         _count("splines.resample.samples", lambda a, r: len(r))),
        (replan, "eval_trajectory", "splines.eval", None),
        (simulate, "eval_trajectory", "splines.eval", None),
        (simulate, "controller_step", "replan.step", _step),
        (simulate, "oracle_planner", "simulate.planner", None),
        (cli, "run_scenario", "simulate.run", None),
        (cli, "full_report", "metrics.report",
         _count("metrics.cells", lambda a, r: len(a[0]) * len(a[1]))),
        (metrics, "dtw", "metrics.dtw", None),
        (metrics, "discrete_frechet", "metrics.frechet", None),
        (metrics, "hausdorff", "metrics.hausdorff", None),
        (metrics, "coverage", "metrics.orth", None),
        (metrics, "orthogonal_distances", "metrics.orth", None),
    ]


class Patches:
    """Installs the span wrappers on demand and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.saved = []
        self.wrapped = []
        for owner, attr, name, hook in _targets():
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(_wrap(tracer, name, original.__func__, hook))
            else:
                replacement = _wrap(tracer, name, original, hook)
            self.saved.append((owner, attr, original))
            self.wrapped.append((owner, attr, replacement))

    def install(self) -> None:
        for owner, attr, replacement in self.wrapped:
            setattr(owner, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original in self.saved:
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer metrics from one traced pass of ``n_ops`` ops (no overhead)."""
    self_ms = tracer.self_ms()
    c = tracer.counts
    per_op = {name: ms / n_ops for name, ms in self_ms.items()}

    def ms(*names):
        return sum(per_op.get(n, 0.0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "cli.self_ms": ms("cli"),
        "fileio.load.ms": ms("fileio.load"),
        "fileio.save.ms": ms("fileio.save"),
        "geometry.convert.ms": ms("geometry.euler_to_quat", "geometry.quat_to_euler"),
        "keyframes.select.ms": ms("keyframes.select"),
        "keyframes.subframes.ms": ms("keyframes.subframes"),
        "keyframes.waypoints_per_sample": ratio(c["keyframes.waypoints"], c["keyframes.samples"]),
        "tokens.encode.ms": ms("tokens.encode"),
        "tokens.decode.ms": ms("tokens.decode"),
        "splines.resample.ms": ms("splines.resample"),
        "splines.fit.ms": ms("splines.fit"),
        "splines.eval.ms": ms("splines.eval"),
        "replan.step.ms": ms("replan.step"),
        "replan.merge_ratio": ratio(c["replan.merges"], c["simulate.planner.calls"]),
        "simulate.planner.ms": ms("simulate.planner"),
        "simulate.run.self_ms": ms("simulate.run"),
        "metrics.dtw.ms": ms("metrics.dtw"),
        "metrics.frechet.ms": ms("metrics.frechet"),
        "metrics.hausdorff.ms": ms("metrics.hausdorff"),
        "metrics.orth.ms": ms("metrics.orth"),
    }
    total = tracer.root_ms() / n_ops
    for layer in LAYERS:
        out[f"{layer}.share"] = ratio(
            sum(v for n, v in per_op.items() if n.split(".")[0] == layer), total)
    for name, unit in PER_LAYER:
        if unit in ("count", "B"):
            out[name] = c[name]
    return out
