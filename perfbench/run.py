"""End-to-end benchmark of the attractorlab CLI, with a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep|bifurcation|certify|all \\
        [--seed N] [--seconds S] [--trace 0|1]

A run fits as many passes of one workload into S seconds as it can, and
at least three (four when traced).  Each pass is a
fresh interpreter (``one_pass.py``), so ``setup_s`` and ``peak_rss_mb``
belong to that pass; the run reports medians over its passes.  With
``--trace 0`` every pass is untraced and the run reports the end-to-end
metrics of BENCHMARK.json.  With ``--trace 1`` untraced and traced passes
alternate and the run reports the per-layer metrics, including the
tracing overhead (traced over untraced median wall time, minus 1).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is
one swept value, the bifurcation command or one certify command.  It
fails when the command raises, exits with an unexpected code, fails an
output check, or writes a data artefact that differs from the first pass
of the run.  ``correct`` is false when an output check, an artefact
comparison or a trace self-check fails; a command that fails cleanly
only counts in ``failed``.  ``failed / attempted`` is the failed_frac of
the ROADMAP, stated with both counts.

The program is built from ``src/`` of the checkout this file sits in;
all files the run writes go under ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
HARD_LIMIT_S = 160.0           # a run must end well within 180 s
OP_NAMES = ("sweep", "bifurcation", "hypothesis", "horseshoe",
            "trellis_pioneer", "trellis_model")
COUNT_SUFFIXES = (".calls", ".steps", ".points", ".rows", ".bytes",
                  ".seeds", ".cycles", ".explosions")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spread(values) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else values * 3)
    return {"q1": q1, "median": med, "q3": q3, "n": len(values)}


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def run_pass(index: int, ops: list, traced: bool, run_dir: Path,
             env: dict, deadline: float) -> dict:
    pass_dir = run_dir / f"pass{index}"
    pass_dir.mkdir(parents=True)
    plan = pass_dir / "plan.json"
    plan.write_text(json.dumps({"ops": ops, "out": str(pass_dir),
                                "trace": traced}))
    log = pass_dir / "log.txt"
    with open(log, "wb") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "one_pass.py"), str(plan), repr(t0)],
            stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
            start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass {index} did not finish in time") from None
        finally:
            # the pass and any pool worker it left behind share this group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    result = pass_dir / "result.json"
    if code != 0 or not result.is_file():
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"pass {index} exited {code}:\n{tail}")
    return json.loads(result.read_text())


def layer_metrics(res: dict) -> dict:
    """Per-layer metrics of one traced pass; every ``.s`` is self time."""
    layers = res["trace"]["layers"]

    def st(layer):
        return layers.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                  "counts": {}})

    def count(layer, key):
        return st(layer)["counts"].get(key, 0)

    m = {}
    fallback = calls = 0
    for k in ("orbit", "norm_sum", "qr"):
        layer = f"_kernels.{k}"
        steps = count(layer, "steps")
        m[f"{layer}.calls"] = st(layer)["calls"]
        m[f"{layer}.steps"] = steps
        m[f"{layer}.s"] = st(layer)["self_s"]
        m[f"{layer}.ns_per_step"] = (st(layer)["self_s"] / steps * 1e9
                                     if steps else 0.0)
        m[f"_kernels.lane.fallback.{k}.ns_per_step"] = \
            res["lanes"][f"fallback.{k}"]
        fallback += count(layer, "fallback")
        calls += st(layer)["calls"]
    m["_kernels.fallback_frac"] = fallback / calls if calls else 0.0
    m["maps.build.calls"] = st("maps.build")["calls"]
    m["maps.build.s"] = st("maps.build")["self_s"]
    m["dynamics.orbit.s"] = st("dynamics.orbit")["self_s"]
    m["dynamics.detect_period.s"] = st("dynamics.detect_period")["self_s"]
    fc = "dynamics.find_cycle"
    m[f"{fc}.calls"] = st(fc)["calls"]
    m[f"{fc}.s"] = st(fc)["self_s"]
    m[f"{fc}.converged_frac"] = (count(fc, "converged") / st(fc)["calls"]
                                 if st(fc)["calls"] else 0.0)
    for reason, _ in tracing.FIND_CYCLE_REASONS + (("other", None),):
        m[f"{fc}.failed.{reason}"] = count(fc, f"failed.{reason}")
    m["chaos.norm_sum.s"] = st("chaos.norm_sum")["self_s"]
    m["chaos.qr.s"] = st("chaos.qr")["self_s"]
    m["chaos.boxcount.calls"] = st("chaos.boxcount")["calls"]
    m["chaos.boxcount.points"] = count("chaos.boxcount", "points")
    m["chaos.boxcount.s"] = st("chaos.boxcount")["self_s"]
    for k in ("report", "sup_norm", "decay_profile"):
        m[f"hypotheses.{k}.s"] = st(f"hypotheses.{k}")["self_s"]
    m["horseshoe.verify_ah.s"] = st("horseshoe.verify_ah")["self_s"]
    fs = "horseshoe.find_saddles"
    m[f"{fs}.s"] = st(fs)["self_s"]
    m[f"{fs}.seeds"] = count(fs, "child.dynamics.find_cycle")
    m[f"{fs}.cycles"] = count(fs, "cycles")
    m["horseshoe.manifold.s"] = st("horseshoe.manifold")["self_s"]
    m["horseshoe.manifold.points"] = count("horseshoe.manifold", "points")
    m["horseshoe.manifold.explosions"] = (
        count("horseshoe.manifold", "explosions")
        + count("horseshoe.trellis", "explosions"))
    m["horseshoe.trellis.s"] = st("horseshoe.trellis")["self_s"]
    wr = "cli.write_rows"
    rows = count(wr, "rows")
    m[f"{wr}.s"] = st(wr)["self_s"]
    m[f"{wr}.rows"] = rows
    m[f"{wr}.bytes"] = count(wr, "bytes")
    m[f"{wr}.ns_per_row"] = st(wr)["self_s"] / rows * 1e9 if rows else 0.0
    m["cli.raster.s"] = st("cli.raster")["self_s"]
    m["cli.raster.points"] = count("cli.raster", "points")
    secs = res["value_seconds"]
    pool_s, jobs = st("cli.pool")["s"], count("cli.pool", "jobs")
    m["cli.pool.value_s"] = statistics.median(secs) if secs else 0.0
    m["cli.pool.utilisation"] = (sum(secs) / (jobs * pool_s)
                                 if secs and jobs and pool_s else 0.0)
    for name in OP_NAMES:
        m[f"cli.run.{name}.s"] = sum(op["s"] for op in res["ops"]
                                     if op["name"] == name)
    return m


def is_count(metric: str) -> bool:
    return metric.endswith(COUNT_SUFFIXES) or ".failed." in metric


def trace_self_checks(workload: str, traced: list) -> list:
    """Identical counts across traced passes, nesting, derived counts."""
    problems = []
    per_pass = [layer_metrics(r) for r in traced]
    counts = [{k: v for k, v in m.items() if is_count(k)}
              for m in per_pass]
    for i, c in enumerate(counts[1:], 1):
        diff = sorted(k for k in c if c[k] != counts[0][k])
        if diff:
            problems.append(f"traced pass {i} counts differ from pass 0: "
                            + ", ".join(f"{k} {counts[0][k]} -> {c[k]}"
                                        for k in diff))
    for i, r in enumerate(traced):
        bad = r["trace"]["nesting_violations"]
        if bad:
            problems.append(f"traced pass {i}: {bad} spans break nesting")
    for key, want in workloads.expected_counts(workload).items():
        got = per_pass[0][key]
        if got != want:
            problems.append(f"{key} = {got}, configs imply {want}")
    return problems


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 spec: dict) -> dict:
    run_dir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    try:
        return _measure(workload, seed, seconds, trace, spec, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(workload, seed, seconds, trace, spec, run_dir) -> dict:
    ops = workloads.make_ops(workload, seed, run_dir / "inputs")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    # every pass compiles src/ afresh and writes no bytecode anywhere
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["TMPDIR"] = str(run_dir / "tmp")
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    min_passes = 4 if trace else 3
    untraced, traced = [], []
    reference = None
    attempted = failed = 0
    problems, failures = [], []
    took = []
    index = 0
    while True:
        # start a pass only if it fits in the run, once min_passes are done
        now = time.monotonic()
        typical = statistics.mean(took) if took else 0.0
        if index >= min_passes and now + typical - start > seconds:
            break
        if took and now + 1.5 * max(took) > deadline:
            break
        is_traced = trace and index % 2 == 1
        res = run_pass(index, ops, is_traced, run_dir, env, deadline)
        took.append(time.monotonic() - now)
        digests = {op["name"]: op["digests"] for op in res["checked"]}
        if reference is None:
            reference = digests
        for op in res["checked"]:
            attempted += 1
            why = ([op["error"]] if op["error"] else []) + op["fails"]
            if op["fails"]:
                problems.append(f"pass {index} {op['name']}: "
                                + "; ".join(op["fails"]))
            if op["digests"] != reference.get(op["name"]):
                why.append("artefacts differ from the first pass")
                problems.append(f"pass {index} {op['name']}: artefacts "
                                f"differ from the first pass")
            if why:
                failed += 1
                failures.append({"pass": index, "op": op["name"],
                                 "why": "; ".join(why)})
        (traced if is_traced else untraced).append(res)
        shutil.rmtree(run_dir / f"pass{index}", ignore_errors=True)
        index += 1

    e2e = {k: spread([r[k] for r in untraced])
           for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
    if trace:
        problems += trace_self_checks(workload, traced)
        per_pass = [layer_metrics(r) for r in traced]
        # counts repeat exactly (trace_self_checks); timings are medians
        computed = {k: per_pass[0][k] if is_count(k)
                    else statistics.median(m[k] for m in per_pass)
                    for k in per_pass[0]}
        computed["trace.overhead"] = (
            statistics.median(r["wall_s"] for r in traced)
            / e2e["wall_s"]["median"] - 1.0)
        wanted = spec["per_layer"]
    else:
        computed = {k: q["median"] for k, q in e2e.items()}
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if set(names) != set(computed):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(names) - set(computed))}, "
                         f"extra {sorted(set(computed) - set(names))}")
    versions = untraced[0]["versions"]
    provenance = {
        **versions,
        # the lane every built-in 2-D family takes (user maps: fallback)
        "builtin_lane": "compiled" if versions["use_numba"] else "fallback",
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(), "src_lines": src_lines(),
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "passes": {"untraced": len(untraced),
                                        "traced": len(traced)},
    }
    if trace:
        lanes = traced[0]["lanes"]
        calls = {k: per_pass[0][f"_kernels.{k}.calls"]
                 for k in ("orbit", "norm_sum", "qr")}
        fallback = round(per_pass[0]["_kernels.fallback_frac"]
                         * sum(calls.values()))
        provenance["lane_calls"] = {
            "fallback": fallback, "compiled": sum(calls.values()) - fallback}
        provenance["compiled_lane_ns_per_step"] = (
            lanes["compiled"] if "compiled" in lanes else
            {k: lanes[f"compiled.{k}"] for k in ("orbit", "norm_sum", "qr")})
    return {
        "workload": workload,
        "provenance": provenance,
        "e2e_spread": e2e,
        "failures": failures,
        "problems": problems,
        "result": {
            "correct": not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": computed[m["name"]],
                                    "unit": m["unit"]} for m in wanted}},
    }


def report(rec: dict) -> None:
    res = rec["result"]
    print(f"== {rec['workload']}: {json.dumps(rec['provenance']['passes'])}"
          f" passes, seed {rec['provenance']['seed']}")
    for name, q in rec["e2e_spread"].items():
        unit = "MB" if name == "peak_rss_mb" else "s"
        print(f"  {name:<14} {q['median']:>10.4f} {unit:<5} (median of "
              f"{q['n']} passes; q1 {q['q1']:.4f}, q3 {q['q3']:.4f})")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"  {'failed_frac':<14} {frac:>10.4f} ratio "
          f"({res['failed']} of {res['attempted']} operations failed)")
    if rec["provenance"]["trace"]:
        for name, m in res["metrics"].items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    seen = collections.Counter((f["op"], f["why"]) for f in rec["failures"])
    for (op, why), n in sorted(seen.items()):
        print(f"  failed operation {op} ({n} passes): {why}")
    for line in rec["problems"]:
        print(f"  CHECK FAILED: {line}")
    print("  provenance " + json.dumps(rec["provenance"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # unwind on SIGTERM too, so that a running pass is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "attractorlab" / "cli.py").is_file():
        print("perfbench: no attractorlab sources under src/ next to "
              "perfbench/", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = (workloads.WORKLOADS if args.workload == "all"
                 else [args.workload])
        records = []
        for name in names:
            rec = run_workload(name, args.seed, args.seconds,
                               bool(args.trace), spec)
            report(rec)
            records.append(rec)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    rev = records[0]["provenance"]["git_revision"]
    stem = (args.workload if args.workload != "all" else
            "BENCH_" + (rev[:12] if rev.isalnum() else "unknown"))
    (WORK / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(records, indent=1))
    if args.workload == "all":
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    else:
        print(json.dumps(records[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
