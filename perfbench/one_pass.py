"""One pass of a workload in a fresh interpreter.

Usage: python3 one_pass.py PLAN.json T0

T0 is the parent's ``time.monotonic()`` just before it started this
interpreter, so ``setup_s`` spans interpreter start, package import and
kernel warm-up.  The pass runs the plan's commands through
``attractorlab.cli.main``, then checks and hashes their artefacts
(untimed), and writes ``result.json`` into the plan's output directory.
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads


def _cpu_and_rss():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    # ru_maxrss is in KiB on Linux; for children it is the largest child
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def _versions(kernels) -> dict:
    import numpy

    numba = sys.modules.get("numba")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba": getattr(numba, "__version__", "absent"),
            "have_numba": bool(kernels.HAVE_NUMBA),
            "use_numba": bool(kernels.USE_NUMBA)}


def _lane_microbench(kernels, maps) -> dict:
    """ns per step of each kernel on each lane; median of three calls."""
    handle = maps.gauss_rotation(4.4, maps.GOLDEN_MEAN)
    x0 = (0.3, 0.1)
    sizes = {"orbit": (1000, 20_000), "norm_sum": (1000, 4000),
             "qr": (1000, 4000)}
    calls = {
        "orbit": lambda fp, n0, n: kernels.run_orbit(
            handle, x0, n0, n, force_python=fp),
        "norm_sum": lambda fp, n0, n: kernels.run_norm_sum(
            handle, x0, n0, n, 100, force_python=fp),
        "qr": lambda fp, n0, n: kernels.run_qr(
            handle, x0, n0, n, 100, force_python=fp),
    }
    lanes = {"fallback": True}
    if kernels.USE_NUMBA:
        lanes["compiled"] = False
    out = {}
    for lane, force_python in lanes.items():
        for name, call in calls.items():
            n0, n = sizes[name]
            times = []
            for _ in range(3):
                t = time.perf_counter()
                call(force_python, n0, n)
                times.append(time.perf_counter() - t)
            out[f"{lane}.{name}"] = statistics.median(times) / (n0 + n) * 1e9
    if "compiled" not in lanes:
        out["compiled"] = ("not measured: numba absent"
                           if not kernels.HAVE_NUMBA else
                           "not measured: ATTRACTORLAB_NO_NUMBA is set")
    return out


def run(plan: dict, t0: float) -> dict:
    from attractorlab import _kernels, cli, maps

    _kernels.warmup()
    setup_s = time.monotonic() - t0

    pass_dir = Path(plan["out"])
    tracer = None
    if plan["trace"]:
        tracer = tracing.Tracer(pass_dir / "worker_spans")
        tracing.install(tracer)

    ops = []
    cpu0, _ = _cpu_and_rss()
    start = time.perf_counter()
    for name, argv in plan["ops"]:
        t = time.perf_counter()
        code, error = None, None
        try:
            code = cli.main(argv + ["--out", str(pass_dir / name)])
        except Exception as exc:  # an escaping exception is a failed op
            error = f"{type(exc).__name__}: {exc}"
        ops.append({"name": name, "exit": code, "error": error,
                    "s": time.perf_counter() - t})
    wall_s = time.perf_counter() - start
    cpu1, peak_rss_mb = _cpu_and_rss()

    checked = []
    for op in ops:
        error = op["error"]
        # sweep exits 2 when some value failed; its status column says which
        ok_codes = (0, 2) if op["name"] == "sweep" else (0,)
        if error is None and op["exit"] not in ok_codes:
            error = f"exit code {op['exit']}"
        for name, fails, digests in workloads.check_op(
                op["name"], pass_dir / op["name"]):
            checked.append({"name": name, "error": error, "fails": fails,
                            "digests": digests})
    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu1 - cpu0,
              "peak_rss_mb": peak_rss_mb, "ops": ops, "checked": checked,
              "versions": _versions(_kernels),
              "value_seconds": workloads.value_seconds(pass_dir / "sweep")}
    if tracer is not None:
        tracer.load_worker_spans()
        result["trace"] = tracing.summarize(tracer.spans)
        result["lanes"] = _lane_microbench(_kernels, maps)
    return result


def main() -> int:
    plan_path, t0 = Path(sys.argv[1]), float(sys.argv[2])
    plan = json.loads(plan_path.read_text())
    result = run(plan, t0)
    (Path(plan["out"]) / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
