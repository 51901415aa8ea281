"""Command line front end: sweeps, orbits, exponents, reports, rasters.

Configs are flat ``key = value`` files; ``#`` starts a comment.  Every
command writes its artifacts into the output directory: tables and clouds
as CSV (LF line endings, floats exactly as ``'%.17g' % x`` but formatted a
column at a time in NumPy) and rasters as binary PGM with a log(1 + count)
tone map, so two runs of a config produce byte-identical data artifacts.

Exit codes: 0 success, 1 config error, 2 numeric failure (any
per-value failure in batch mode), 3 I/O error.
"""

from __future__ import annotations

import argparse
import difflib
import math
import os
import sys
import time
import warnings
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from .maps import (MapHandle, gauss_rotation, pioneer_climax_full,
                   pioneer_climax_mixed)
from .dynamics import (DivergenceError, CycleSearchError, orbit,
                       detect_period, find_cycle)
from .chaos import (max_lyapunov_norm_sum, lyapunov_spectrum_qr,
                    box_counting_dimension, MAX_SCALES, MIN_BOX_POINTS)
from .hypotheses import run_hypothesis_report
from .radial import radial_tent_map, MODE_SOURCE, MODE_SINK
from .horseshoe import (HorseshoeRegion, RefinementExplosion,
                        model_horseshoe_map, verify_ah, find_saddles,
                        trellis as trace_trellis)

MAX_RASTER_SIDE = 8192
BOUNDS = ("xmin", "xmax", "ymin", "ymax")  # the raster window, if set
FLOAT_FMT = "%.17g"
CSV_CHUNK_ROWS = 1 << 14  # rows per block: bounds the writer's memory
SUMMARY_COLUMNS = ("param", "period", "lyap_normsum", "lyap_qr_max",
                   "boxdim", "boxdim_r2", "status", "seconds")
DIM = 2  # every map family the CLI builds is planar


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


# config schema ----------------------------------------------------------
# A command takes the keys of COMMON, its own keys and its map family's
# keys, and no others.  A key's default is a value, REQUIRED, None (the
# key may stay unset), or a function of the config resolved so far whose
# docstring says what it computes.  A type's parse raises ValueError or
# KeyError on a bad value, and its ok checks the parsed value.
Type = namedtuple("Type", "name parse ok", defaults=(lambda value: True,))


def _vec(n: int) -> Type:
    return Type(f"float[{n}]",
                lambda text: np.array([float(t) for t in text.split(",")]),
                lambda v: v.shape == (n,) and np.isfinite(v).all())


def _choice(*names: str) -> Type:
    return Type("one of " + ", ".join(names), str, names.__contains__)


def _at_least(n: int) -> Type:
    return Type(f"int >= {n}", INT.parse, (n).__le__)


def _between(lo: int, hi: int) -> Type:
    return Type(f"int {lo}..{hi}", INT.parse, range(lo, hi + 1).__contains__)


_BOOLS = dict.fromkeys(("1", "true", "yes", "on"), True) | \
    dict.fromkeys(("0", "false", "no", "off"), False)
FLOAT, STR = Type("float", float, math.isfinite), Type("str", str)
POSITIVE = Type("finite float > 0", float, lambda v: 0 < v < math.inf)
INT = Type("int", partial(int, base=10))
BOOL = Type("bool", lambda text: _BOOLS[text.lower()])
REQUIRED = object()
Key = namedtuple("Key", "type default", defaults=(REQUIRED,))
Family = namedtuple("Family", "build keys x0")  # x0: orbits' start point
FRAME_KEYS = {"frame": Key(_vec(4), None), "frame_offset": Key(_vec(2), None)}
_AB = {"a": Key(FLOAT), "b": Key(FLOAT)}
FAMILIES = {
    "gauss_rotation": Family(
        lambda cfg: gauss_rotation(cfg["a"], cfg["theta"],
                                   literal_eq=cfg["literal_rotation"]),
        {"a": Key(FLOAT), "theta": Key(FLOAT),
         "literal_rotation": Key(BOOL, False)}, (0.3, 0.1)),
    "pioneer_climax_full": Family(
        lambda cfg: pioneer_climax_full(cfg["a"], cfg["b"]), _AB, (0.5, 0.5)),
    "pioneer_climax_mixed": Family(
        lambda cfg: pioneer_climax_mixed(cfg["a"], cfg["b"]), _AB,
        (0.5, 0.5)),
    "radial_tent": Family(
        lambda cfg: radial_tent_map(
            (cfg["slope_in"], cfg["slope_out"]),
            **{k: cfg[k] for k in ("zeta", "theta", "mode", "alpha0")}).handle,
        {"mode": Key(_choice(MODE_SOURCE, MODE_SINK), MODE_SOURCE),
         "alpha0": Key(FLOAT, None), "slope_in": Key(FLOAT, 3.0),
         "slope_out": Key(FLOAT, 3.0), "zeta": Key(FLOAT, 1.0),
         "theta": Key(FLOAT, 0.0)}, (0.3, 0.1)),
    "model_horseshoe": Family(
        lambda cfg: model_horseshoe_map(region=_region_from(cfg)),
        FRAME_KEYS, (0.3, 0.1)),
}


def _available_cpus(cfg) -> int:
    """CPUs available"""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1


def _start_point(cfg) -> np.ndarray:
    """start point of the map family"""
    return np.array(FAMILIES[cfg["map"]].x0)


COMMON = {"map": Key(_choice(*FAMILIES)), "out": Key(STR, "runs"),
          "jobs": Key(_at_least(1), _available_cpus)}
# keys that several commands take
_SCHEDULE = {"param": Key(Type("float key of map", str)),
             "start": Key(FLOAT), "stop": Key(FLOAT), "step": Key(FLOAT)}
_ORBIT = {"n_transient": Key(_at_least(0), 10_000),
          "x0": Key(_vec(DIM), _start_point)}
_RASTER = {"resolution": Key(_between(1, MAX_RASTER_SIDE), 1024),
           **dict.fromkeys(BOUNDS, Key(FLOAT, None))}
# lyap_n >= 100, the least horizon the Lyapunov estimators accept
N_KEEP, LYAP_N = Key(_at_least(1), 100_000), Key(_at_least(100), 100_000)
N_SCALES = Key(_between(5, MAX_SCALES), 8)


def resolve(command: str, raw: dict) -> dict:
    """Check a parsed config against its command's schema and return the
    schema's keys with typed values or defaults; an unknown key is a
    ConfigError naming the closest known key."""
    cfg = {}

    def value(name: str, key: Key):
        if name not in raw:
            if key.default is not REQUIRED:
                return key.default(cfg) if callable(key.default) \
                    else key.default
            if name == raw.get("param"):  # the schedule sets it
                return None
            raise ConfigError(f"missing config key {name!r}")
        try:
            parsed = key.type.parse(raw[name])
            if key.type.ok(parsed):
                return parsed
        except (KeyError, ValueError):
            pass
        raise ConfigError(f"config key {name!r} must be {key.type.name}; "
                          f"got {raw[name]!r}")

    cfg["map"] = value("map", COMMON["map"])
    family = FAMILIES[cfg["map"]]
    keys = {**COMMON, **COMMANDS[command].keys, **family.keys}
    for name in (k for k in raw if k not in keys):
        near = difflib.get_close_matches(name, keys, n=1)
        raise ConfigError(f"unknown config key {name!r} for {command} with "
                          f"map {cfg['map']}" + (f"; did you mean {near[0]!r}?"
                                                 if near else ""))
    if "param" in keys:  # it names a float key of the map family
        keys["param"] = Key(_choice(*(k for k, key in family.keys.items()
                                      if key.type is FLOAT)))
    for name, key in keys.items():
        cfg[name] = value(name, key)
    if 0 < sum(cfg.get(k) is not None for k in BOUNDS) < len(BOUNDS):
        raise ConfigError("set all or none of xmin, xmax, ymin and ymax")
    return cfg


def build_handle(cfg: dict) -> MapHandle:
    return FAMILIES[cfg["map"]].build(cfg)


def _region_from(cfg: dict) -> HorseshoeRegion:
    try:
        return HorseshoeRegion(matrix=cfg["frame"], offset=cfg["frame_offset"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _schedule(cfg: dict, minimum: int = 1) -> tuple:
    start, stop, step = cfg["start"], cfg["stop"], cfg["step"]
    if step <= 0:
        raise ConfigError("schedule step must be positive")
    if stop < start:
        raise ConfigError("schedule stop must be at least start")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    values = start + step * np.arange(count)
    if count < minimum:
        raise ConfigError(f"schedule must contain at least {minimum} "
                          f"values, got {count}")
    return cfg["param"], values


# artifact writers ------------------------------------------------------


_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact doubles
_ROW = np.arange(22, dtype=np.int8)[:, None]


def _digits(v, rows) -> None:
    """Write the ASCII digits of the ints v >= 0 into rows, last row last."""
    for row in rows[::-1]:
        q = v // 10  # several times faster than np.divmod
        row[:] = v - q * 10 + 48
        v = q


def _text_fields(values, fmt: str = "%s", width: int = 1) -> np.ndarray:
    """fmt % v of each value as NUL-padded uint8 fields, width or wider."""
    b = np.array([(fmt % v).encode() for v in values] + [bytes(width)])[:-1]
    return b.view(np.uint8).reshape(len(b), b.itemsize).T


def _round_scaled(a, e):
    """a * 10**(16 - e) rounded half-even to an int64: Dekker's TwoProduct
    gives it exactly as hi + lo, and hi is even wherever it has 17 digits."""
    p = _POW10[np.clip(16 - e, 0, 22)]
    hi = a * p
    ah, ph = [(c - (c - v)) for v in (a, p) for c in [134217729.0 * v]]
    al, pl = a - ah, p - ph  # 26-bit halves: their products are exact
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _float_fields(x) -> np.ndarray:
    """FLOAT_FMT of each float64 of x as (24, len(x)) uint8 fields: from the
    17 digits of round(|x| * 10**(16 - E)) where the rounded exponent E is
    in [-4, 16] (%g's fixed notation), else by FLOAT_FMT itself."""
    a = np.abs(x)
    fast = (a >= 9e-5) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    d = _round_scaled(a, e)
    up, down = d >= 10 ** 17, d < 10 ** 16  # E was one off: retry
    e = e + up - down
    d[up | down] = _round_scaled(a[up | down], e[up | down])
    fast &= (e >= -4) & (e <= 16)  # one retry puts d in [1e16, 1e17)
    # the 21 digits of d * 10**4, with the units digit of x at row p, then
    # '.', then the fraction; leading and trailing zeros become NUL
    p = (4 + e).astype(np.int8)
    digits = np.full((22, len(x)), 48, np.uint8)
    _digits(d, digits[4:21])
    left, dot = _ROW <= p, _ROW == p + 1
    out = np.zeros((24, len(x)), np.uint8)
    body = out[1:23]
    body[1:] = digits[:21] * (_ROW[1:] > p + 1)
    body += digits * left + np.uint8(46) * dot
    keep = body > 48  # a nonzero digit at or after this row
    for j in range(20, -1, -1):
        keep[j] |= keep[j + 1]
    body *= (keep | left) & (_ROW >= np.minimum(p, 4))
    out[0] = 45 * (x < 0)
    slow = ~fast
    out[:, slow] = _text_fields(x[slow], FLOAT_FMT, 24)
    return out


def _fields(column: np.ndarray) -> np.ndarray:
    """A column as (width, len) uint8 text fields: float64 as FLOAT_FMT,
    integers in decimal, anything else as %s."""
    if column.dtype == np.float64:
        return _float_fields(column)
    if column.dtype.kind not in "iu":
        return _text_fields(column)
    u = np.abs(column.astype(np.int64)).astype(np.uint64)
    n = len(str(u.max(initial=0)))
    out = np.empty((n + 1, len(u)), np.uint8)
    out[0] = 45 * (column < 0)
    _digits(u, out[1:])
    out[1:-1] *= u >= 10 ** np.arange(n - 1, 0, -1, dtype=np.uint64)[:, None]
    return out


def _write_rows(path: Path, header: str, columns) -> None:
    """Write a CSV of equal-length columns: per chunk, stack each column's
    fields and a ',' or newline row, transpose, drop the NUL padding."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0]) if columns else 0
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        for k in range(0, n, CSV_CHUNK_ROWS):
            m = min(CSV_CHUNK_ROWS, n - k)
            sep = np.full((len(columns), 1, m), 44, np.uint8)
            sep[-1] = 10
            block = [part for c, s in zip(columns, sep)
                     for part in (_fields(c[k:k + m]), s)]
            fh.write(np.vstack(block).T.tobytes().translate(None, b"\0"))


def write_cloud_csv(path, points: np.ndarray) -> None:
    points = np.atleast_2d(points).astype(float, copy=False)
    header = "i," + ",".join(f"x{j + 1}" for j in range(points.shape[1]))
    _write_rows(Path(path), header, [np.arange(len(points)), *points.T])


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
        counts = np.bincount(row * w + col,
                             minlength=h * w).reshape(h, w)
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


def _cloud_bounds(points: np.ndarray, cfg: dict):
    if cfg["xmin"] is not None:  # then resolve() saw all four set
        return (cfg["xmin"], cfg["xmax"]), (cfg["ymin"], cfg["ymax"])
    pts = np.atleast_2d(points)
    if len(pts) == 0:
        return ((0.0, 1.0), (0.0, 1.0))
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    pad = np.maximum(0.05 * (hi - lo), 1e-9)
    return ((float(lo[0] - pad[0]), float(hi[0] + pad[0])),
            (float(lo[1] - pad[1]), float(hi[1] + pad[1])))


# per-command drivers ----------------------------------------------------


def _map_values(fn, tasks: list, jobs: int) -> list:
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _sweep_value(args) -> dict:
    cfg, name, value, idx, out_dir = args
    cfg = {**cfg, name: float(value)}
    out = Path(out_dir)
    row = dict.fromkeys(SUMMARY_COLUMNS, float("nan")) | {
        "param": float(value), "period": 0, "status": "ok", "seconds": 0.0}
    t0 = time.perf_counter()
    try:
        handle = build_handle(cfg)
        cloud = orbit(handle, cfg["x0"], cfg["n_transient"], cfg["n_keep"])
        try:
            period = detect_period(cloud)
        except ValueError:  # the cloud is too short to tell
            period = "undetermined"
        row["period"] = 0 if period == "aperiodic" else period
        ns = max_lyapunov_norm_sum(handle, cfg["x0"], cfg["lyap_n"],
                                   cfg["n_transient"])
        row["lyap_normsum"] = float(ns.max_exponent)
        qr = lyapunov_spectrum_qr(handle, cfg["x0"], cfg["lyap_n"],
                                  cfg["n_transient"])
        row["lyap_qr_max"] = float(qr.max_exponent)
        if len(cloud.points) >= MIN_BOX_POINTS:  # else boxdim stays nan
            box = box_counting_dimension(cloud, cfg["n_scales"])
            row["boxdim"] = float(box.dimension)
            row["boxdim_r2"] = float(box.r2)
        write_cloud_csv(out / f"cloud_{idx:03d}.csv", cloud.points)
        render_raster(cloud.points, _cloud_bounds(cloud.points, cfg),
                      cfg["resolution"], out / f"cloud_{idx:03d}.pgm")
    except (DivergenceError, CycleSearchError, FloatingPointError,
            ValueError, RuntimeError) as exc:
        row["status"] = f"error:{type(exc).__name__}"
    row["seconds"] = time.perf_counter() - t0
    return row


def run_sweep(cfg: dict, out: Path) -> int:
    name, values = _schedule(cfg)
    rows = _map_values(_sweep_value, [(cfg, name, float(v), i, str(out))
                                      for i, v in enumerate(values)],
                       cfg["jobs"])
    _write_rows(out / "summary.csv", ",".join(SUMMARY_COLUMNS),
                [[r[c] for r in rows] for c in SUMMARY_COLUMNS])
    return 0 if all(r["status"] == "ok" for r in rows) else 2


def run_orbit(cfg: dict, out: Path) -> int:
    cloud = orbit(build_handle(cfg), cfg["x0"], cfg["n_transient"],
                  cfg["n_keep"])
    write_cloud_csv(out / "orbit.csv", cloud.points)
    render_raster(cloud.points, _cloud_bounds(cloud.points, cfg),
                  cfg["resolution"], out / "orbit.pgm")
    try:
        period = detect_period(cloud)
    except ValueError:  # the cloud is too short to tell
        period = "undetermined"
    (out / "orbit.txt").write_text(f"period={period}\n")
    return 0


def run_lyapunov(cfg: dict, out: Path) -> int:
    handle = build_handle(cfg)
    ns = max_lyapunov_norm_sum(handle, cfg["x0"], cfg["lyap_n"],
                               cfg["n_transient"])
    qr = lyapunov_spectrum_qr(handle, cfg["x0"], cfg["lyap_n"],
                              cfg["n_transient"])
    rows = [("norm_sum", 0, float(ns.max_exponent))]
    rows += [("qr", j, float(v)) for j, v in enumerate(qr.spectrum)]
    rows += [("n_used", 0, float(qr.n_used))]
    _write_rows(out / "lyapunov.csv", "method,component,value", zip(*rows))
    return 0


def run_boxdim(cfg: dict, out: Path) -> int:
    cloud = orbit(build_handle(cfg), cfg["x0"], cfg["n_transient"],
                  cfg["n_keep"])
    box = box_counting_dimension(cloud, cfg["n_scales"])
    used = np.isin(np.arange(len(box.counts)), box.scale_window)
    _write_rows(out / "boxdim.csv", "eps,count,used",
                [box.scales, box.counts, used.astype(int)])
    (out / "boxdim.txt").write_text(
        f"dimension={box.dimension:.17g}\nr2={box.r2:.17g}\n"
        f"degenerate={box.degenerate}\n")
    return 0


def run_hypothesis(cfg: dict, out: Path) -> int:
    report = run_hypothesis_report(build_handle(cfg),
                                   search_radius=cfg["search_radius"],
                                   grid=cfg["grid"])
    (out / "hypothesis.txt").write_text(report.as_text())
    return 0


def run_horseshoe(cfg: dict, out: Path) -> int:
    handle = build_handle(cfg)
    report = verify_ah(handle, _region_from(cfg), sampling=cfg["sampling"])
    (out / "ahreport.txt").write_text(report.as_text())
    if cfg["box"] is not None:
        cycles = find_saddles(handle, cfg["box"].reshape(2, 2),
                              cfg["k_max"], n_seeds=cfg["n_seeds"])
        rows = [(c.period, *map(float, c.points[0]),
                 float(np.abs(c.multipliers).max()),
                 float(np.abs(c.multipliers).min()), c.stability)
                for c in cycles]
        _write_rows(out / "saddles.csv",
                    "period,x1,x2,mod_max,mod_min,stability", zip(*rows))
    return 0


def run_trellis(cfg: dict, out: Path) -> int:
    handle = build_handle(cfg)
    cycle = find_cycle(handle, cfg["period"], cfg["saddle_seed"])
    if cycle.stability != "saddle":
        raise DivergenceError("seed did not converge to a saddle")
    cloud = trace_trellis(handle, cycle, arc_budget=cfg["arc_budget"],
                          tol=cfg["tol"])
    write_cloud_csv(out / "trellis.csv", cloud.points)
    render_raster(cloud.points, _cloud_bounds(cloud.points, cfg),
                  cfg["resolution"], out / "trellis.pgm")
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
    cfg, name, value = args
    cfg = {**cfg, name: float(value)}
    cloud = orbit(build_handle(cfg), cfg["x0"], cfg["bif_transient"],
                  cfg["bif_keep"])
    pts = cloud.points
    proj = np.linalg.norm(pts, axis=1) if cfg["projection"] == "norm" \
        else pts[:, int(cfg["projection"])]
    return np.column_stack((np.full(len(proj), float(value)), proj))


def run_bifurcation(cfg: dict, out: Path) -> int:
    name, values = _schedule(cfg, minimum=100)
    chunks = _map_values(_bifurcation_value,
                         [(cfg, name, float(v)) for v in values], cfg["jobs"])
    _write_rows(out / "bifurcation.csv", "param,value",
                np.concatenate(chunks).T)
    return 0


# run(cfg, out) carries out the command and returns its exit code
Command = namedtuple("Command", "run keys")
COMMANDS = {
    "sweep": Command(run_sweep, {
        **_SCHEDULE, **_ORBIT, "n_keep": N_KEEP, "lyap_n": LYAP_N,
        "n_scales": N_SCALES, **_RASTER}),
    "orbit": Command(run_orbit, {**_ORBIT, "n_keep": N_KEEP, **_RASTER}),
    "lyapunov": Command(run_lyapunov, {**_ORBIT, "lyap_n": LYAP_N}),
    "boxdim": Command(run_boxdim, {**_ORBIT, "n_keep": N_KEEP,
                                   "n_scales": N_SCALES}),
    "hypothesis": Command(run_hypothesis, {
        "search_radius": Key(POSITIVE, 8.0),
        "grid": Key(_at_least(2), 256)}),
    "horseshoe": Command(run_horseshoe, {
        "sampling": Key(_at_least(2), 48), "box": Key(_vec(4), None),
        "k_max": Key(_at_least(1), 1), "n_seeds": Key(_at_least(1), 12),
        **FRAME_KEYS}),
    "trellis": Command(run_trellis, {
        "saddle_seed": Key(_vec(DIM)), "period": Key(_at_least(1), 1),
        "arc_budget": Key(POSITIVE, 50.0), "tol": Key(POSITIVE, 1e-3),
        **_RASTER}),
    "bifurcation": Command(run_bifurcation, {
        **_SCHEDULE, "bif_transient": Key(_at_least(0), 1_000),
        "bif_keep": Key(_at_least(1), 200), "x0": _ORBIT["x0"],
        "projection": Key(_choice("norm", *map(str, range(DIM))), "norm")}),
}


def main(argv=None) -> int:
    parser = _Parser(prog="attractor-lab",
                     description="attractor toolkit batch runner")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", help="sets the config key out")
    parser.add_argument("--jobs", help="sets the config key jobs")
    parser.add_argument("--literal-rotation", action="store_const",
                        const="true", help="use the degenerate rotation "
                        "form of the gauss family")
    try:
        args = parser.parse_args(argv)
        raw = parse_config(args.config)
        raw.update((k, v) for k in ("out", "jobs", "literal_rotation")
                   if (v := getattr(args, k)) is not None)
        cfg = resolve(args.command, raw)
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command].run(cfg, out)
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
