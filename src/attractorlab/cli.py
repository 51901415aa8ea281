"""Command line front end: sweeps, orbits, exponents, reports, rasters.

Configs are flat ``key = value`` files; ``#`` starts a comment.  Every
command writes its artifacts into the output directory: clouds as CSV
(columns ``i,x1,...,xm``, 17 significant digits, LF line endings) and
rasters as binary PGM with a log(1 + count) tone map, so two runs of
the same config produce byte-identical data artifacts.

Exit codes: 0 success, 1 config error, 2 numeric failure (any
per-value failure in batch mode), 3 I/O error.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .maps import (MapHandle, gauss_rotation, pioneer_climax_full,
                   pioneer_climax_mixed)
from .dynamics import (DivergenceError, CycleSearchError, PointCloud,
                       orbit, detect_period, find_cycle)
from .chaos import (max_lyapunov_norm_sum, lyapunov_spectrum_qr,
                    box_counting_dimension)
from .hypotheses import run_hypothesis_report
from .radial import radial_tent_map, MODE_SOURCE, MODE_SINK
from .horseshoe import (HorseshoeRegion, RefinementExplosion,
                        model_horseshoe_map, verify_ah, find_saddles,
                        trellis as trace_trellis)

MAX_RASTER_SIDE = 8192
FLOAT_FMT = "%.17g"
CSV_CHUNK_ROWS = 1024  # rows per write: keeps the writer's memory small
SUMMARY_COLUMNS = ("param", "period", "lyap_normsum", "lyap_qr_max",
                   "boxdim", "boxdim_r2", "status", "seconds")

DEFAULTS = {
    "n_transient": 10_000,
    "n_keep": 100_000,
    "lyap_n": 100_000,
    "n_scales": 8,
    "resolution": 1024,
    "bif_transient": 1_000,
    "bif_keep": 200,
    "arc_budget": 50.0,
    "tol": 1e-3,
}

COMMANDS = ("sweep", "orbit", "lyapunov", "boxdim", "hypothesis",
            "horseshoe", "trellis", "bifurcation")


class ConfigError(ValueError):
    """Bad config file, bad schedule, or bad command line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def parse_config(path) -> dict:
    """Flat key = value pairs; '#' comments; later keys win."""
    raw = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def _get(raw, key, default=None):
    if key in raw:
        return raw[key]
    if default is not None or key in DEFAULTS:
        return raw.get(key, default if default is not None
                       else DEFAULTS[key])
    raise ConfigError(f"missing config key {key!r}")


def _get_float(raw, key, default=None) -> float:
    val = _get(raw, key, default)
    try:
        return float(val)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r} is not a number: {val!r}")


def _get_int(raw, key, default=None) -> int:
    val = _get(raw, key, default)
    try:
        return int(str(val), 10)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r} is not an integer: {val!r}")


def _get_bool(raw, key, default=False) -> bool:
    val = str(_get(raw, key, str(default))).lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"config key {key!r} is not a boolean: {val!r}")


def _get_vec(raw, key, default=None) -> np.ndarray:
    val = _get(raw, key, default)
    try:
        return np.array([float(t) for t in str(val).split(",")])
    except ValueError:
        raise ConfigError(f"config key {key!r} is not a vector: {val!r}")


def build_handle(raw: dict) -> MapHandle:
    family = _get(raw, "map")
    if family == "gauss_rotation":
        return gauss_rotation(_get_float(raw, "a"),
                              _get_float(raw, "theta"),
                              literal_eq=_get_bool(raw, "literal_rotation"))
    if family == "pioneer_climax_full":
        return pioneer_climax_full(_get_float(raw, "a"),
                                   _get_float(raw, "b"))
    if family == "pioneer_climax_mixed":
        return pioneer_climax_mixed(_get_float(raw, "a"),
                                    _get_float(raw, "b"))
    if family == "radial_tent":
        mode = _get(raw, "mode", MODE_SOURCE)
        if mode not in (MODE_SOURCE, MODE_SINK):
            raise ConfigError(f"unknown radial mode {mode!r}")
        alpha0 = None
        if "alpha0" in raw:
            alpha0 = _get_float(raw, "alpha0")
        rt = radial_tent_map(slopes=(_get_float(raw, "slope_in", "3"),
                                     _get_float(raw, "slope_out", "3")),
                             zeta=_get_float(raw, "zeta", "1"),
                             theta=_get_float(raw, "theta", "0"),
                             mode=mode, alpha0=alpha0)
        return rt.handle
    if family == "model_horseshoe":
        return model_horseshoe_map(region=_region_from(raw))
    raise ConfigError(f"unknown map family {family!r}")


def _region_from(raw: dict) -> HorseshoeRegion:
    matrix = None
    offset = None
    if "frame" in raw:
        matrix = _get_vec(raw, "frame").reshape(2, 2)
    if "frame_offset" in raw:
        offset = _get_vec(raw, "frame_offset")
    try:
        return HorseshoeRegion(matrix=matrix, offset=offset)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _default_x0(raw: dict) -> np.ndarray:
    if "x0" in raw:
        return _get_vec(raw, "x0")
    family = _get(raw, "map")
    if family.startswith("pioneer"):
        return np.array([0.5, 0.5])
    return np.array([0.3, 0.1])


def _schedule(raw: dict, minimum: int = 1) -> tuple:
    name = _get(raw, "param")
    start = _get_float(raw, "start")
    stop = _get_float(raw, "stop")
    step = _get_float(raw, "step")
    if step <= 0:
        raise ConfigError("schedule step must be positive")
    if stop < start:
        raise ConfigError("schedule stop must be at least start")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    values = start + step * np.arange(count)
    if count < minimum:
        raise ConfigError(f"schedule must contain at least {minimum} "
                          f"values, got {count}")
    return name, values


# artifact writers ------------------------------------------------------


def _write_rows(path: Path, header: str, rows) -> None:
    """Write a CSV: floats as FLOAT_FMT, anything else as str().

    The line format is built once from the first row's column types, so
    every row must share them.  Lines go out in bounded chunks.
    """
    rows = iter(rows)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        first = next(rows, None)
        if first is None:
            return
        fmt = ",".join(FLOAT_FMT if isinstance(v, float) else "%s"
                       for v in first) + "\n"
        fh.write(fmt % tuple(first))
        while chunk := list(itertools.islice(rows, CSV_CHUNK_ROWS)):
            fh.write("".join([fmt % tuple(row) for row in chunk]))


def write_cloud_csv(path, points: np.ndarray) -> None:
    points = np.atleast_2d(points)
    header = "i," + ",".join(f"x{j + 1}" for j in range(points.shape[1]))

    def rows():
        for k in range(0, len(points), CSV_CHUNK_ROWS):
            block = points[k:k + CSV_CHUNK_ROWS].astype(float, copy=False)
            for i, p in enumerate(block.tolist(), k):
                yield (i, *p)

    _write_rows(Path(path), header, rows())


def render_raster(points: np.ndarray, bounds, resolution, path) -> None:
    """Binary PGM (P5) density plot with a log(1 + count) tone map.

    bounds is ((xmin, xmax), (ymin, ymax)); points outside are dropped.
    An empty cloud renders uniform black and emits a warning.
    """
    if np.isscalar(resolution):
        w = h = int(resolution)
    else:
        w, h = (int(r) for r in resolution)
    if not (0 < w <= MAX_RASTER_SIDE and 0 < h <= MAX_RASTER_SIDE):
        raise ConfigError(f"raster resolution must be within "
                          f"{MAX_RASTER_SIDE}^2")
    (xmin, xmax), (ymin, ymax) = bounds
    if not (xmax > xmin and ymax > ymin):
        raise ConfigError("raster bounds must have positive extent")
    pts = np.atleast_2d(points)
    counts = np.zeros((h, w), dtype=np.int64)
    if len(pts) and pts.shape[1] >= 2:
        x, y = pts[:, 0], pts[:, 1]
        keep = (x >= xmin) & (x <= xmax) & (y >= ymin) & (y <= ymax)
        x, y = x[keep], y[keep]
        col = np.clip(((x - xmin) / (xmax - xmin) * w).astype(np.int64),
                      0, w - 1)
        row = np.clip(((ymax - y) / (ymax - ymin) * h).astype(np.int64),
                      0, h - 1)
        np.add.at(counts, (row, col), 1)
    total = int(counts.sum())
    if total == 0:
        warnings.warn("raster rendered from an empty cloud")
        gray = np.zeros((h, w), dtype=np.uint8)
    else:
        # in place, in the order of tone / tone.max() * 255.0, so that at
        # most two full-size float arrays are alive at once
        tone = np.log1p(counts)
        del counts
        tone /= tone.max()
        tone *= 255.0
        gray = np.round(tone, out=tone).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())


def _cloud_bounds(points: np.ndarray, raw: dict):
    if all(k in raw for k in ("xmin", "xmax", "ymin", "ymax")):
        return ((_get_float(raw, "xmin"), _get_float(raw, "xmax")),
                (_get_float(raw, "ymin"), _get_float(raw, "ymax")))
    pts = np.atleast_2d(points)
    if len(pts) == 0:
        return ((0.0, 1.0), (0.0, 1.0))
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    pad = np.maximum(0.05 * (hi - lo), 1e-9)
    return ((float(lo[0] - pad[0]), float(hi[0] + pad[0])),
            (float(lo[1] - pad[1]), float(hi[1] + pad[1])))


# per-command drivers ----------------------------------------------------


def _sweep_value(args) -> dict:
    raw, name, value, idx, out_dir = args
    raw = dict(raw)
    raw[name] = repr(float(value))
    out = Path(out_dir)
    row = {"param": float(value), "period": 0, "lyap_normsum": float("nan"),
           "lyap_qr_max": float("nan"), "boxdim": float("nan"),
           "boxdim_r2": float("nan"), "status": "ok", "seconds": 0.0}
    t0 = time.perf_counter()
    try:
        handle = build_handle(raw)
        x0 = _default_x0(raw)
        cloud = orbit(handle, x0, _get_int(raw, "n_transient"),
                      _get_int(raw, "n_keep"))
        period = detect_period(cloud)
        row["period"] = 0 if period == "aperiodic" else int(period)
        ns = max_lyapunov_norm_sum(handle, x0, _get_int(raw, "lyap_n"),
                                   _get_int(raw, "n_transient"))
        row["lyap_normsum"] = float(ns.max_exponent)
        qr = lyapunov_spectrum_qr(handle, x0, _get_int(raw, "lyap_n"),
                                  _get_int(raw, "n_transient"))
        row["lyap_qr_max"] = float(qr.max_exponent)
        box = box_counting_dimension(cloud, _get_int(raw, "n_scales"))
        row["boxdim"] = float(box.dimension)
        row["boxdim_r2"] = float(box.r2)
        write_cloud_csv(out / f"cloud_{idx:03d}.csv", cloud.points)
        render_raster(cloud.points, _cloud_bounds(cloud.points, raw),
                      _get_int(raw, "resolution"),
                      out / f"cloud_{idx:03d}.pgm")
    except (DivergenceError, CycleSearchError, FloatingPointError,
            ValueError, RuntimeError) as exc:
        row["status"] = f"error:{type(exc).__name__}"
    row["seconds"] = time.perf_counter() - t0
    return row


def run_sweep(raw: dict, out: Path, jobs: int) -> int:
    name, values = _schedule(raw)
    tasks = [(raw, name, float(v), i, str(out))
             for i, v in enumerate(values)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_value, tasks))
    else:
        rows = [_sweep_value(t) for t in tasks]
    _write_rows(out / "summary.csv", ",".join(SUMMARY_COLUMNS),
                ([r[c] for c in SUMMARY_COLUMNS] for r in rows))
    return 0 if all(r["status"] == "ok" for r in rows) else 2


def run_orbit(raw: dict, out: Path) -> int:
    handle = build_handle(raw)
    cloud = orbit(handle, _default_x0(raw), _get_int(raw, "n_transient"),
                  _get_int(raw, "n_keep"))
    write_cloud_csv(out / "orbit.csv", cloud.points)
    render_raster(cloud.points, _cloud_bounds(cloud.points, raw),
                  _get_int(raw, "resolution"), out / "orbit.pgm")
    period = detect_period(cloud)
    (out / "orbit.txt").write_text(f"period={period}\n")
    return 0


def run_lyapunov(raw: dict, out: Path) -> int:
    handle = build_handle(raw)
    x0 = _default_x0(raw)
    ns = max_lyapunov_norm_sum(handle, x0, _get_int(raw, "lyap_n"),
                               _get_int(raw, "n_transient"))
    qr = lyapunov_spectrum_qr(handle, x0, _get_int(raw, "lyap_n"),
                              _get_int(raw, "n_transient"))
    rows = [("norm_sum", 0, float(ns.max_exponent))]
    rows += [("qr", j, float(v)) for j, v in enumerate(qr.spectrum)]
    rows += [("n_used", 0, float(qr.n_used))]
    _write_rows(out / "lyapunov.csv", "method,component,value", rows)
    return 0


def run_boxdim(raw: dict, out: Path) -> int:
    handle = build_handle(raw)
    cloud = orbit(handle, _default_x0(raw), _get_int(raw, "n_transient"),
                  _get_int(raw, "n_keep"))
    box = box_counting_dimension(cloud, _get_int(raw, "n_scales"))
    used = set(int(j) for j in np.asarray(box.scale_window).ravel())
    rows = [(float(s), int(c), int(j in used))
            for j, (s, c) in enumerate(zip(box.scales, box.counts))]
    _write_rows(out / "boxdim.csv", "eps,count,used", rows)
    (out / "boxdim.txt").write_text(
        f"dimension={box.dimension:.17g}\nr2={box.r2:.17g}\n"
        f"degenerate={box.degenerate}\n")
    return 0


def run_hypothesis(raw: dict, out: Path) -> int:
    handle = build_handle(raw)
    report = run_hypothesis_report(
        handle, search_radius=_get_float(raw, "search_radius", "8"),
        grid=_get_int(raw, "grid", "256"))
    (out / "hypothesis.txt").write_text(report.as_text())
    return 0


def run_horseshoe(raw: dict, out: Path) -> int:
    handle = build_handle(raw)
    region = _region_from(raw)
    report = verify_ah(handle, region,
                       sampling=_get_int(raw, "sampling", "48"))
    (out / "ahreport.txt").write_text(report.as_text())
    if "box" in raw:
        box = _get_vec(raw, "box").reshape(2, 2)
        cycles = find_saddles(handle, box, _get_int(raw, "k_max", "1"),
                              n_seeds=_get_int(raw, "n_seeds", "12"))
        rows = []
        for cyc in cycles:
            p = cyc.points[0]
            mods = np.abs(cyc.multipliers)
            rows.append((cyc.period, float(p[0]), float(p[1]),
                         float(mods.max()), float(mods.min()),
                         cyc.stability))
        _write_rows(out / "saddles.csv",
                    "period,x1,x2,mod_max,mod_min,stability", rows)
    return 0


def run_trellis(raw: dict, out: Path) -> int:
    handle = build_handle(raw)
    seed = _get_vec(raw, "saddle_seed")
    cycle = find_cycle(handle, _get_int(raw, "period", "1"), seed)
    if cycle.stability != "saddle":
        raise DivergenceError("seed did not converge to a saddle")
    cloud = trace_trellis(handle, cycle,
                          arc_budget=_get_float(raw, "arc_budget"),
                          tol=_get_float(raw, "tol"))
    write_cloud_csv(out / "trellis.csv", cloud.points)
    render_raster(cloud.points, _cloud_bounds(cloud.points, raw),
                  _get_int(raw, "resolution"), out / "trellis.pgm")
    meta = cloud.meta
    lines = [f"component {i}: [{a}, {b})\n"
             for i, (a, b) in enumerate(meta["component_slices"])]
    lines += [f"branch {name}: {reason} points={n} arclength={arc:.17g}\n"
              for name, reason, n, arc in zip(
                  ("minus", "plus"), meta["stop_reasons"],
                  meta["branch_sizes"], meta["branch_arclength"])]
    (out / "trellis.txt").write_text("".join(lines))
    return 0


def _bifurcation_value(args):
    raw, name, value, projection = args
    raw = dict(raw)
    raw[name] = repr(float(value))
    handle = build_handle(raw)
    cloud = orbit(handle, _default_x0(raw), _get_int(raw, "bif_transient"),
                  _get_int(raw, "bif_keep"))
    if projection == "norm":
        proj = np.linalg.norm(cloud.points, axis=1)
    else:
        proj = cloud.points[:, int(projection)]
    return [(float(value), float(v)) for v in proj]


def run_bifurcation(raw: dict, out: Path, jobs: int) -> int:
    name, values = _schedule(raw, minimum=100)
    projection = _get(raw, "projection", "norm")
    if projection != "norm":
        try:
            idx = int(projection)
        except ValueError:
            raise ConfigError(f"projection must be a coordinate index "
                              f"or 'norm', got {projection!r}")
        if not 0 <= idx < 16:
            raise ConfigError("projection index out of range")
    tasks = [(raw, name, float(v), projection) for v in values]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_bifurcation_value, tasks))
    else:
        chunks = [_bifurcation_value(t) for t in tasks]
    rows = [row for chunk in chunks for row in chunk]
    _write_rows(out / "bifurcation.csv", "param,value", rows)
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="attractor-lab",
                     description="attractor toolkit batch runner")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--literal-rotation", action="store_true",
                        help="use the degenerate rotation form of the "
                             "gauss family")
    try:
        args = parser.parse_args(argv)
        raw = parse_config(args.config)
        out = Path(args.out if args.out is not None
                   else _get(raw, "out", "runs"))
        jobs = args.jobs if args.jobs is not None else \
            _get_int(raw, "jobs", str(len(os.sched_getaffinity(0))
                                      if hasattr(os, "sched_getaffinity")
                                      else os.cpu_count() or 1))
        if jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if args.literal_rotation:
            raw["literal_rotation"] = "true"
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "sweep":
            return run_sweep(raw, out, jobs)
        if args.command == "orbit":
            return run_orbit(raw, out)
        if args.command == "lyapunov":
            return run_lyapunov(raw, out)
        if args.command == "boxdim":
            return run_boxdim(raw, out)
        if args.command == "hypothesis":
            return run_hypothesis(raw, out)
        if args.command == "horseshoe":
            return run_horseshoe(raw, out)
        if args.command == "trellis":
            return run_trellis(raw, out)
        if args.command == "bifurcation":
            return run_bifurcation(raw, out, jobs)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (DivergenceError, CycleSearchError, FloatingPointError,
            np.linalg.LinAlgError, RefinementExplosion, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
