"""The benchmark's workloads: generated inputs, output checks, expected counts.

Every workload is closed loop: one driver process calls
``attractorlab.cli.main`` once per command, one command at a time, and
only ``sweep`` starts a process pool (``--jobs 2``, within ``nproc`` on
the 2-core reference machine).

The seed perturbs only generated inputs: the initial point of ``sweep``
and ``bifurcation``, the bifurcation schedule's offset (under one step),
and each trellis saddle seed inside its Newton basin.  The output checks
hold on every seed.

``radial`` is deliberately unmeasured: no CLI command and no ROADMAP item
reaches ``cantor_shells``.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

GOLDEN_MEAN = "1.6180339887498949"

SWEEP = {"start": 2.7, "step": 0.9, "values": 4, "n_transient": 2000,
         "n_keep": 50_000, "lyap_n": 20_000, "n_scales": 8, "jobs": 2}
BIF = {"start": 2.7, "step": 0.005, "values": 541, "bif_transient": 1000,
       "bif_keep": 200}
HORSESHOE = {"n_seeds": 12, "k_max": 2}
PIONEER_SADDLE = (2.498, 5.007)
MODEL_SADDLE = (0.05, 0.02)
MIN_PIONEER_TRELLIS_ROWS = 1000

WORKLOADS = ("sweep", "bifurcation", "certify")


def _cfg(pairs: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


def _vec(x, y) -> str:
    return f"{x!r},{y!r}"


def make_ops(workload: str, seed: int, in_dir: Path) -> list:
    """Write the generated configs; return [(operation name, argv)]."""
    rng = random.Random(f"{workload}:{seed}")

    def jitter(v, r):
        return v + rng.uniform(-r, r)

    in_dir.mkdir(parents=True, exist_ok=True)
    ops = []

    def op(name, command, pairs, *extra):
        path = in_dir / f"{name}.cfg"
        path.write_text(_cfg(pairs))
        ops.append((name, [command, "--config", str(path), *extra]))

    if workload == "sweep":
        s = SWEEP
        op("sweep", "sweep", {
            "map": "gauss_rotation", "theta": GOLDEN_MEAN, "param": "a",
            "start": s["start"],
            "stop": round(s["start"] + (s["values"] - 1) * s["step"], 10),
            "step": s["step"], "n_transient": s["n_transient"],
            "n_keep": s["n_keep"], "lyap_n": s["lyap_n"],
            "n_scales": s["n_scales"],
            "x0": _vec(jitter(0.3, 0.05), jitter(0.1, 0.05))},
           "--jobs", str(s["jobs"]))
    elif workload == "bifurcation":
        b = BIF
        start = b["start"] + rng.uniform(0.0, b["step"])
        # half a step of slack keeps the value count exact under rounding
        op("bifurcation", "bifurcation", {
            "map": "gauss_rotation", "theta": GOLDEN_MEAN, "param": "a",
            "start": repr(start),
            "stop": repr(start + (b["values"] - 0.5) * b["step"]),
            "step": b["step"], "bif_transient": b["bif_transient"],
            "bif_keep": b["bif_keep"],
            "x0": _vec(jitter(0.3, 0.05), jitter(0.1, 0.05))},
           "--jobs", "1")
    elif workload == "certify":
        op("hypothesis", "hypothesis",
           {"map": "pioneer_climax_full", "a": 3, "b": 3})
        op("horseshoe", "horseshoe",
           {"map": "model_horseshoe", "box": "-6,2,-5,13",
            "k_max": HORSESHOE["k_max"], "n_seeds": HORSESHOE["n_seeds"]})
        op("trellis_pioneer", "trellis", {
            "map": "pioneer_climax_full", "a": 3, "b": 3,
            "saddle_seed": _vec(jitter(PIONEER_SADDLE[0], 0.02),
                                jitter(PIONEER_SADDLE[1], 0.02)),
            "arc_budget": 300, "tol": 2e-3})
        # the README default arc_budget; this command ends in
        # RefinementExplosion at this revision (ROADMAP item 4) and is
        # kept so that the fix shows up in the failure count
        op("trellis_model", "trellis", {
            "map": "model_horseshoe",
            "saddle_seed": _vec(jitter(MODEL_SADDLE[0], 0.02),
                                jitter(MODEL_SADDLE[1], 0.02))})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> list:
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


def check_op(name: str, out: Path) -> list:
    """Check one command's artefacts.

    Returns [(operation, [failed output checks], {artefact: sha256})]; a
    sweep command yields one operation per swept value.
    """
    if name == "sweep":
        return _check_sweep(out)
    files = sorted(p for p in out.iterdir() if p.is_file()) \
        if out.is_dir() else []
    digests = {p.name: _digest(p) for p in files}
    try:
        fails = _content_checks(name, out)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        fails = [f"unreadable artefact: {exc}"]
    return [(name, fails, digests)]


def _content_checks(name: str, out: Path) -> list:
    fails = []
    if name == "bifurcation":
        rows = (out / "bifurcation.csv").read_bytes().count(b"\n")
        want = BIF["values"] * BIF["bif_keep"] + 1
        if rows != want:
            fails.append(f"bifurcation.csv has {rows} lines, want {want}")
    elif name == "hypothesis":
        if "sup_norm\tpass" not in (out / "hypothesis.txt").read_text():
            fails.append("hypothesis.txt lacks 'sup_norm pass'")
    elif name == "horseshoe":
        if "foliation_rates\tpass" not in (out / "ahreport.txt").read_text():
            fails.append("ahreport.txt lacks 'foliation_rates pass'")
        kinds = {r["stability"] for r in _rows(out / "saddles.csv")}
        if not {"saddle", "sink"} <= kinds:
            fails.append(f"saddles.csv stabilities {sorted(kinds)} lack "
                         f"saddle or sink")
    elif name == "trellis_pioneer":
        rows = (out / "trellis.csv").read_bytes().count(b"\n") - 1
        if rows <= MIN_PIONEER_TRELLIS_ROWS:
            fails.append(f"pioneer trellis has {rows} rows, want more "
                         f"than {MIN_PIONEER_TRELLIS_ROWS}")
    return fails


def _check_sweep(out: Path) -> list:
    # one operation per swept value: its summary row without the
    # wall-clock seconds column, and its cloud CSV and PGM
    n = SWEEP["values"]
    try:
        lines = (out / "summary.csv").read_text().splitlines()
        rows = _rows(out / "summary.csv")
    except (OSError, IndexError) as exc:
        return [(f"sweep[{i}]", [f"unreadable summary.csv: {exc}"], {})
                for i in range(n)]
    result = []
    for i in range(n):
        if i >= len(rows):
            result.append((f"sweep[{i}]", ["missing summary row"], {}))
            continue
        row = rows[i]
        fails = []
        digests = {"summary.csv": hashlib.sha256(
            lines[i + 1].rsplit(",", 1)[0].encode()).hexdigest()}
        for ext in ("csv", "pgm"):
            path = out / f"cloud_{i:03d}.{ext}"
            if path.is_file():
                digests[path.name] = _digest(path)
            else:
                fails.append(f"missing {path.name}")
        if row["status"] != "ok":
            fails.append(f"status {row['status']}")
        qr, box = float(row["lyap_qr_max"]), float(row["boxdim"])
        if i == 0 and not (qr <= 0.02 and abs(box - 1.0) <= 0.1):
            fails.append(f"a={row['param']}: lyap_qr_max={qr} boxdim={box}, "
                         f"want <= 0.02 and 1 +- 0.1")
        if i == n - 1 and not (qr > 0.05 and 1.0 < box < 2.0):
            fails.append(f"a={row['param']}: lyap_qr_max={qr} boxdim={box}, "
                         f"want > 0.05 and within (1, 2)")
        result.append((f"sweep[{i}]", fails, digests))
    return result


def value_seconds(out: Path) -> list:
    """The wall-clock ``seconds`` column of a sweep's summary.csv."""
    try:
        return [float(r["seconds"]) for r in _rows(out / "summary.csv")]
    except (OSError, IndexError, KeyError, ValueError):
        return []


def expected_counts(workload: str) -> dict:
    """Traced counts that follow from the generated configs alone."""
    zero_kernels = {f"_kernels.{k}.calls": 0 for k in ("norm_sum", "qr")}
    if workload == "sweep":
        s = SWEEP
        v = s["values"]
        return {
            "maps.build.calls": v,
            "_kernels.orbit.calls": v,
            "_kernels.orbit.steps": (s["n_transient"] + s["n_keep"]) * v,
            "_kernels.norm_sum.calls": v,
            "_kernels.norm_sum.steps": (s["n_transient"] + s["lyap_n"]) * v,
            "_kernels.qr.calls": v,
            "_kernels.qr.steps": (s["n_transient"] + s["lyap_n"]) * v,
            "chaos.boxcount.calls": v,
            "chaos.boxcount.points": s["n_keep"] * v,
            "cli.raster.points": s["n_keep"] * v,
            "cli.write_rows.rows": (s["n_keep"] + 1) * v,
        }
    if workload == "bifurcation":
        b = BIF
        v = b["values"]
        return {
            **zero_kernels,
            "chaos.boxcount.calls": 0,
            "maps.build.calls": v,
            "_kernels.orbit.calls": v,
            "_kernels.orbit.steps": (b["bif_transient"] + b["bif_keep"]) * v,
            "cli.write_rows.rows": b["bif_keep"] * v,
        }
    if workload == "certify":
        return {
            **zero_kernels,
            "_kernels.orbit.calls": 0,
            "horseshoe.find_saddles.seeds":
                HORSESHOE["n_seeds"] ** 2 * HORSESHOE["k_max"],
        }
    raise ValueError(f"unknown workload {workload!r}")
