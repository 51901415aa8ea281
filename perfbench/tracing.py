"""Span tracing of attractorlab's public entry points, installed from outside.

The benchmark never edits ``src/``.  ``install`` replaces each traced
function in every ``attractorlab`` module that binds it (``cli`` and
``horseshoe`` import names such as ``find_cycle`` and ``orbit`` at import
time, so patching the defining module alone would miss their calls).

A span is ``[layer, parent, start, end, counts]``.  Spans stay in memory
and are summarised once, after the run.  A forked pool worker inherits
the wrappers; its copy of the tracer starts an empty span list and dumps
it to ``worker_dir`` whenever the worker's outermost span closes, and
``load_worker_spans`` merges those dumps back.  Counts come from
arguments and results only, so they are cheap; the row and byte counts
of a written file are read from the file by ``summarize`` after the run.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path


class Tracer:
    """Spans of one pass.  Create one per pass and pass it to install."""

    def __init__(self, worker_dir: Path):
        self.owner_pid = self.pid = os.getpid()
        self.worker_dir = Path(worker_dir)
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        self.spans: list = []
        self.stack: list = []
        self._dumps = 0

    def enter(self, layer: str) -> int:
        if os.getpid() != self.pid:          # first span in a forked worker
            self.pid = os.getpid()
            self.spans, self.stack, self._dumps = [], [], 0
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, parent, time.perf_counter(), None, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def exit(self, idx: int, counts=None) -> None:
        """Close span idx; ``counts`` is a dict or a callable making one."""
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[4] = counts() if callable(counts) else counts
        self.stack.pop()
        if not self.stack and self.pid != self.owner_pid:
            self._dumps += 1
            path = self.worker_dir / f"worker-{self.pid}-{self._dumps}.json"
            path.write_text(json.dumps(self.spans))
            self.spans = []

    def load_worker_spans(self) -> None:
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            base = len(self.spans)
            for span in json.loads(path.read_text()):
                if span[1] >= 0:
                    span[1] += base
                self.spans.append(span)
            path.unlink()


# count hooks: (args, kwargs, result, exc) -> dict -------------------------


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _kernel_counts(n_name):
    def counts(args, kwargs, result, exc):
        steps = (_arg(args, kwargs, 2, "n_transient")
                 + _arg(args, kwargs, 3, n_name))
        kernels = sys.modules["attractorlab._kernels"]
        compiled = kernels._lane(args[0], kwargs.get("force_python", False))
        return {"steps": int(steps), "fallback": 0 if compiled else 1}
    return counts


# failure reasons of dynamics.find_cycle, keyed by how its
# CycleSearchError messages begin; anything else counts as "other"
FIND_CYCLE_REASONS = (("nonfinite_iterate", "iterate escaped"),
                      ("nonfinite_matrix", "Newton matrix has"),
                      ("singular", "singular"),
                      ("ill_conditioned", "ill-conditioned"),
                      ("no_convergence", "no convergence"))


def _find_cycle_counts(args, kwargs, result, exc):
    if exc is None:
        return {"converged": 1}
    msg = str(exc)
    for reason, prefix in FIND_CYCLE_REASONS:
        if msg.startswith(prefix):
            return {"failed." + reason: 1}
    return {"failed.other": 1}


def _boxcount_counts(args, kwargs, result, exc):
    cloud = _arg(args, kwargs, 0, "cloud")
    return {"points": len(getattr(cloud, "points", cloud))}


def _find_saddles_counts(args, kwargs, result, exc):
    return {"cycles": 0 if result is None else len(result)}


def _manifold_counts(args, kwargs, result, exc):
    # an explosion raised by unstable_manifold passes through trellis too;
    # the first span it leaves counts it
    if exc is None:
        return {"points": len(result), "explosions": 0}
    exploded = (type(exc).__name__ == "RefinementExplosion"
                and not getattr(exc, "_perfbench_counted", False))
    if exploded:
        exc._perfbench_counted = True
    partial = getattr(exc, "partial", None)
    return {"points": 0 if partial is None else len(partial),
            "explosions": int(exploded)}


def _write_rows_counts(args, kwargs, result, exc):
    return {"file": str(Path(_arg(args, kwargs, 0, "path")).resolve())}


def _raster_counts(args, kwargs, result, exc):
    return {"points": len(_arg(args, kwargs, 0, "points"))}


# (module, attribute, layer, count hook)
TRACED = (
    ("_kernels", "run_orbit", "_kernels.orbit", _kernel_counts("n_keep")),
    ("_kernels", "run_norm_sum", "_kernels.norm_sum", _kernel_counts("n")),
    ("_kernels", "run_qr", "_kernels.qr", _kernel_counts("n")),
    ("maps", "build_map", "maps.build", None),
    ("maps", "user_map", "maps.build", None),
    ("dynamics", "orbit", "dynamics.orbit", None),
    ("dynamics", "detect_period", "dynamics.detect_period", None),
    ("dynamics", "find_cycle", "dynamics.find_cycle", _find_cycle_counts),
    ("chaos", "max_lyapunov_norm_sum", "chaos.norm_sum", None),
    ("chaos", "lyapunov_spectrum_qr", "chaos.qr", None),
    ("chaos", "box_counting_dimension", "chaos.boxcount", _boxcount_counts),
    ("hypotheses", "run_hypothesis_report", "hypotheses.report", None),
    ("hypotheses", "estimate_sup_norm", "hypotheses.sup_norm", None),
    ("hypotheses", "az_decay_profile", "hypotheses.decay_profile", None),
    ("horseshoe", "verify_ah", "horseshoe.verify_ah", None),
    ("horseshoe", "find_saddles", "horseshoe.find_saddles",
     _find_saddles_counts),
    ("horseshoe", "unstable_manifold", "horseshoe.manifold",
     _manifold_counts),
    ("horseshoe", "trellis", "horseshoe.trellis", _manifold_counts),
    ("cli", "_write_rows", "cli.write_rows", _write_rows_counts),
    ("cli", "render_raster", "cli.raster", _raster_counts),
    ("cli", "_sweep_value", "cli.sweep_value", None),
    ("cli", "_bifurcation_value", "cli.bifurcation_value", None),
)


def _wrap(fn, layer, hook, tracer):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.exit(idx, hook and (
                lambda: hook(args, kwargs, None, exc)))
            raise
        tracer.exit(idx, hook and (
            lambda: hook(args, kwargs, result, None)))
        return result
    return traced


def install(tracer: Tracer) -> None:
    """Wrap every binding of each traced function in attractorlab."""
    from attractorlab import cli

    modules = [m for name, m in list(sys.modules.items())
               if name == "attractorlab" or name.startswith("attractorlab.")]
    for mod_name, attr, layer, hook in TRACED:
        original = getattr(sys.modules[f"attractorlab.{mod_name}"], attr)
        wrapper = _wrap(original, layer, hook, tracer)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    class TracedPool(ProcessPoolExecutor):
        """Records the pool's lifetime as the ``cli.pool`` span."""

        def __enter__(self):
            self._perfbench_span = tracer.enter("cli.pool")
            return super().__enter__()

        def __exit__(self, *exc_info):
            try:
                return super().__exit__(*exc_info)
            finally:
                tracer.exit(self._perfbench_span,
                            {"jobs": self._max_workers})

    cli.ProcessPoolExecutor = TracedPool


# the one artefact with a wall-clock column; byte counts leave it out
WALL_CLOCK_LAST_COLUMN = {"summary.csv"}


def summarize(spans) -> dict:
    """Per-layer calls, inclusive and self seconds, and summed counts.

    Also returns the number of spans that break nesting: a span left
    open, a child outside its parent's interval, or children whose
    durations sum to more than their parent's.
    """
    child_s = [0.0] * len(spans)
    bad = 0
    for layer, parent, start, end, _ in spans:
        if end is None:
            bad += 1
        elif parent >= 0:
            p_start, p_end = spans[parent][2], spans[parent][3]
            if p_end is None or start < p_start or end > p_end:
                bad += 1
            child_s[parent] += end - start
    layers: dict = {}

    def stats(layer):
        return layers.setdefault(layer, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                         "counts": collections.Counter()})

    for i, (layer, parent, start, end, counts) in enumerate(spans):
        if end is None:
            continue
        dur = end - start
        if child_s[i] > dur:
            bad += 1
        st = stats(layer)
        st["calls"] += 1
        if parent >= 0:
            stats(spans[parent][0])["counts"]["child." + layer] += 1
        st["s"] += dur
        st["self_s"] += dur - child_s[i]
        for key, value in (counts or {}).items():
            if key == "file":
                data = Path(value).read_bytes()
                if Path(value).name in WALL_CLOCK_LAST_COLUMN:
                    data = b"\n".join(line.rsplit(b",", 1)[0]
                                      for line in data.split(b"\n"))
                st["counts"]["rows"] += data.count(b"\n") - 1
                st["counts"]["bytes"] += len(data)
            else:
                st["counts"][key] += value
    return {"layers": layers, "nesting_violations": bad}
