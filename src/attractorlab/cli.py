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
import importlib.util
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

from . import _kernels
from .maps import (MapHandle, gauss_rotation, pioneer_climax_full,
                   pioneer_climax_mixed)
from .dynamics import (DivergenceError, CycleSearchError, RefinementExplosion,
                       orbit, detect_period, find_cycle, planar_bounds,
                       planar_points)
from .chaos import (max_lyapunov_norm_sum, lyapunov_spectrum_qr,
                    box_counting_dimension, MAX_SCALES, MIN_BOX_POINTS)


def _lazy(name: str):
    """attractorlab.<name>, in sys.modules and on the package at once but
    run on its first attribute access, which before Python 3.12 only the
    main thread may make (LazyLoader is not thread-safe there)."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[fullname]


hypotheses, radial, horseshoe = map(_lazy, ("hypotheses", "radial",
                                            "horseshoe"))

MAX_RASTER_SIDE = 8192
MAX_SCHEDULE = 1_000_000  # values of a sweep or bifurcation schedule
FLOAT_FMT = "%.17g"
CSV_CHUNK_ROWS = 1 << 13  # rows per block: bounds the writer's memory
SUMMARY_COLUMNS = ("param", "period", "lyap_normsum", "lyap_qr_max",
                   "boxdim", "boxdim_r2", "status", "seconds")
# a numeric failure: exit code 2, or a swept value's error status
NUMERIC_FAILURES = (DivergenceError, CycleSearchError, RefinementExplosion,
                    FloatingPointError, ValueError)


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


def _above(lo: float) -> Type:
    return Type(f"finite float > {lo:g}", float, lambda v: lo < v < math.inf)


_BOOLS = dict.fromkeys(("1", "true", "yes", "on"), True) | \
    dict.fromkeys(("0", "false", "no", "off"), False)
FLOAT, STR = Type("float", float, math.isfinite), Type("str", str)
POSITIVE = _above(0)
# a search box of positive extent: each axis's lo, hi with lo < hi
BOX = Type("float[4] lo,hi,lo,hi with lo < hi", _vec(4).parse,
           lambda v: _vec(4).ok(v) and bool((v[::2] < v[1::2]).all()))
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
        {"a": Key(POSITIVE), "theta": Key(FLOAT),
         "literal_rotation": Key(BOOL, False)}, (0.3, 0.1)),
    "pioneer_climax_full": Family(
        lambda cfg: pioneer_climax_full(cfg["a"], cfg["b"]), _AB, (0.5, 0.5)),
    "pioneer_climax_mixed": Family(
        lambda cfg: pioneer_climax_mixed(cfg["a"], cfg["b"]), _AB,
        (0.5, 0.5)),
    "radial_tent": Family(
        lambda cfg: radial.radial_tent_map(
            (cfg["slope_in"], cfg["slope_out"]),
            **{k: cfg[k] for k in ("zeta", "theta", "alpha0")}).handle,
        {"alpha0": Key(POSITIVE, None), "slope_in": Key(_above(1), 3.0),
         "slope_out": Key(_above(1), 3.0), "zeta": Key(POSITIVE, 1.0),
         "theta": Key(FLOAT, 0.0)}, (0.3, 0.1)),
    "model_horseshoe": Family(
        lambda cfg: horseshoe.model_horseshoe_map(region=_region_from(cfg)),
        FRAME_KEYS, (0.3, 0.1)),
}


def _available_cpus(cfg) -> int:
    """CPUs available"""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1


def _start_point(cfg) -> np.ndarray:
    """start point of the map family"""
    return np.array(FAMILIES[cfg["map"]].x0)


COMMON = {"map": Key(_choice(*FAMILIES))}
# set on the command line only; jobs never changes an artifact
FLAGS = {"out": Key(STR, "runs"), "jobs": Key(_at_least(1), _available_cpus)}
# keys that several commands take
_SCHEDULE = {"param": Key(Type("float key of map", str)),
             "start": Key(FLOAT), "stop": Key(FLOAT), "step": Key(FLOAT)}
_ORBIT = {"n_transient": Key(_at_least(0), 10_000),
          "x0": Key(_vec(2), _start_point)}
_RASTER = {"resolution": Key(_between(1, MAX_RASTER_SIDE), 1024),
           "window": Key(BOX, None)}
# lyap_n >= 100, the least horizon the Lyapunov estimators accept
N_KEEP, LYAP_N = Key(_at_least(1), 100_000), Key(_at_least(100), 100_000)
N_SCALES = Key(_between(5, MAX_SCALES), 8)


def resolve(command: str, raw: dict, flags: dict | None = None) -> dict:
    """Check a parsed config against its command's schema, and the given
    flags against FLAGS, and return the keys of both with typed values or
    defaults; an unknown key is a ConfigError naming the closest known key."""
    cfg = {}

    def value(name: str, key: Key, given: dict = raw):
        if name not in given:
            if key.default is not REQUIRED:
                return key.default(cfg) if callable(key.default) \
                    else key.default
            if name == raw.get("param"):  # the schedule sets it
                return None
            raise ConfigError(f"missing config key {name!r}")
        try:
            parsed = key.type.parse(given[name])
            if key.type.ok(parsed):
                return parsed
        except (KeyError, ValueError):
            pass
        raise ConfigError(f"{'config key' if given is raw else 'flag'} "
                          f"{name!r} must be {key.type.name}; "
                          f"got {given[name]!r}")

    cfg["map"] = value("map", COMMON["map"])
    family = FAMILIES[cfg["map"]]
    keys = {**COMMON, **COMMANDS[command].keys, **family.keys}
    for name in (k for k in raw if k not in keys):
        import difflib  # only this path needs it
        near = difflib.get_close_matches(name, keys, n=1)
        raise ConfigError(f"unknown config key {name!r} for {command} with "
                          f"map {cfg['map']}" + (f"; did you mean {near[0]!r}?"
                                                 if near else ""))
    if "param" in keys:  # it names a float key of the map family
        keys["param"] = Key(_choice(*(k for k, key in family.keys.items()
                                      if key.type.parse is float)))
    for name, key in {**keys, **FLAGS}.items():
        cfg[name] = value(name, key, (flags or {}) if name in FLAGS else raw)
    if cfg.get("box") is None and {"k_max", "n_seeds"} & raw.keys():
        raise ConfigError("k_max and n_seeds need the config key 'box'")
    if cfg.get("frame") is not None:
        _region_from(cfg)  # a singular frame is a ConfigError
    if "param" in keys:
        _schedule(cfg, COMMANDS[command].min_values)
    return cfg


def build_handle(cfg: dict) -> MapHandle:
    return FAMILIES[cfg["map"]].build(cfg)


def _region_from(cfg: dict) -> horseshoe.HorseshoeRegion:
    try:
        return horseshoe.HorseshoeRegion(matrix=cfg["frame"],
                                         offset=cfg["frame_offset"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _schedule(cfg: dict, minimum: int = 1) -> tuple:
    start, stop, step = cfg["start"], cfg["stop"], cfg["step"]
    if step <= 0:
        raise ConfigError("schedule step must be positive")
    if stop < start:
        raise ConfigError("schedule stop must be at least start")
    span = (stop - start) / step + 1e-9
    if not span < MAX_SCHEDULE:  # an infinite span too
        raise ConfigError(f"schedule must contain at most {MAX_SCHEDULE} "
                          f"values; (stop - start) / step is {span:.6g}")
    count = int(span) + 1
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
    in [-4, 16] (%g's fixed notation), '0' after the sign for +-0, else by
    FLOAT_FMT itself."""
    a = np.abs(x)
    fast = (a >= 9e-5) & (a < 1e17)
    zero = a == 0.0
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    d = _round_scaled(a, e)
    up, down = d >= 10 ** 17, d < 10 ** 16  # E was one off: retry
    e = e + up - down
    d[up | down] = _round_scaled(a[up | down], e[up | down])
    fast &= (e >= -4) & (e <= 16)  # one retry puts d in [1e16, 1e17)
    d[zero] = 0  # with e = 0 from a = 1.0, the fields below read '0'
    # the 21 digits of d * 10**4, with the units digit of x at row p, then
    # '.', then the fraction; leading and trailing zeros become NUL
    p = (4 + e).astype(np.int8)
    digits = np.full((22, len(x)), 48, np.uint8)
    _digits(d, digits[4:21])
    out = np.zeros((24, len(x)), np.uint8)
    body = out[1:23]  # each (22, n) term is added in place, then dropped
    np.multiply(digits[:21], _ROW[1:] > p + 1, out=body[1:])
    body += np.multiply(digits, _ROW <= p, out=digits)
    del digits
    body += np.uint8(46) * (_ROW == p + 1)  # '.'
    keep = body > 48  # a nonzero digit at or after this row
    for j in range(20, -1, -1):
        keep[j] |= keep[j + 1]
    keep |= _ROW <= p
    keep &= _ROW >= np.minimum(p, 4)
    body *= keep
    out[0] = 45 * np.signbit(x)
    slow = ~(fast | zero)
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


def _write_rows(path: Path, header: str, columns=(), blocks=None) -> None:
    """Write a CSV of equal-length columns, or of the column blocks from
    blocks as each arrives: per block of CSV_CHUNK_ROWS rows or fewer, stack
    each column's fields and a ',' or newline row, transpose, drop the NUL
    padding.  A failure, in making a block too, removes the file."""
    if blocks is None:
        columns = [np.asarray(c) for c in columns]
        n = len(columns[0]) if columns else 0
        blocks = ([c[k:k + CSV_CHUNK_ROWS] for c in columns]
                  for k in range(0, n, CSV_CHUNK_ROWS))
    with open(path, "wb") as fh:
        try:
            fh.write(f"{header}\n".encode())
            for block in blocks:
                sep = np.full((len(block), 1, len(block[0])), 44, np.uint8)
                sep[-1] = 10
                fh.write(np.vstack([part for c, s in zip(block, sep)
                                    for part in (_fields(c), s)])
                         .T.tobytes().translate(None, b"\0"))
        except BaseException:
            fh.close()  # some platforms cannot remove an open file
            path.unlink()
            raise


def write_cloud_csv(path, points: np.ndarray) -> None:
    x, y = planar_points(points).T
    _write_rows(Path(path), "i,x1,x2", [np.arange(len(x)), x, y])


def render_raster(points: np.ndarray, bounds, side: int, path) -> None:
    """Square binary PGM (P5) density plot, side pixels a side, with a
    log(1 + count) tone map of an (n, 2) cloud.

    bounds is ((xmin, xmax), (ymin, ymax)); points outside are dropped.
    An empty cloud renders uniform black and emits a warning.  Only the
    occupied cells are counted and tone-mapped, so memory is one byte per
    pixel plus O(points) at any side.
    """
    if not 0 < side <= MAX_RASTER_SIDE:
        raise ConfigError(f"raster side must be in 1..{MAX_RASTER_SIDE}")
    (xmin, xmax), (ymin, ymax) = bounds
    if not (xmax > xmin and ymax > ymin):
        raise ConfigError("raster bounds must have positive extent")
    x, y = planar_points(points).T
    keep = (x >= xmin) & (x <= xmax) & (y >= ymin) & (y <= ymax)
    x, y = x[keep], y[keep]
    # the cell index row * side + col, each operation done in place
    x -= xmin
    x /= xmax - xmin
    x *= side
    cells = x.astype(np.int64)
    del x
    np.clip(cells, 0, side - 1, out=cells)
    np.subtract(ymax, y, out=y)
    y /= ymax - ymin
    y *= side
    row = y.astype(np.int64)
    del y
    np.clip(row, 0, side - 1, out=row)
    row *= side
    cells += row
    del row
    gray = np.zeros(side * side, dtype=np.uint8)
    if len(cells) == 0:
        warnings.warn("raster rendered from an empty cloud")
    else:
        # sorted in place, equal cells form runs: count them by their starts
        cells.sort()
        first = np.empty(len(cells), dtype=bool)
        first[0] = True
        np.not_equal(cells[1:], cells[:-1], out=first[1:])
        counts = np.flatnonzero(first)
        n_kept = len(cells)
        cells = cells[counts]
        counts[:-1] = np.diff(counts)
        counts[-1] = n_kept - counts[-1]
        # an empty cell tones to log1p(0) = 0, so mapping only the
        # occupied cells, in the order of the full-size map, gives its bytes
        tone = np.log1p(counts)
        tone /= tone.max()
        tone *= 255.0
        gray[cells] = np.round(tone, out=tone).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{side} {side}\n255\n".encode("ascii"))
        fh.write(gray)


def _write_cloud(out: Path, stem: str, points: np.ndarray, cfg: dict) -> None:
    """stem.csv and its raster stem.pgm, over _cloud_bounds."""
    write_cloud_csv(out / f"{stem}.csv", points)
    render_raster(points, _cloud_bounds(points, cfg), cfg["resolution"],
                  out / f"{stem}.pgm")


def _period(cloud):
    try:
        return detect_period(cloud)
    except ValueError:  # the cloud is too short to tell
        return "undetermined"


def _cloud_bounds(points: np.ndarray, cfg: dict):
    if cfg["window"] is not None:
        return cfg["window"].reshape(2, 2)
    if len(points) == 0:
        return ((0.0, 1.0), (0.0, 1.0))
    lo, hi = planar_bounds(points)
    # the floor scales with the coordinates, so a cloud collapsed far from
    # the origin still gets bounds of positive extent
    pad = np.maximum(0.05 * (hi - lo),
                     1e-9 * np.maximum(1.0, np.maximum(abs(lo), abs(hi))))
    return ((float(lo[0] - pad[0]), float(hi[0] + pad[0])),
            (float(lo[1] - pad[1]), float(hi[1] + pad[1])))


# per-command drivers ----------------------------------------------------


def _map_values(fn, tasks, jobs: int):
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(fn, tasks)
    else:
        yield from map(fn, tasks)


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
        period = _period(cloud)
        row["period"] = 0 if period == "aperiodic" else period
        ns = max_lyapunov_norm_sum(handle, cfg["x0"], cfg["lyap_n"],
                                   cfg["n_transient"], orbit=cloud)
        row["lyap_normsum"] = float(ns.max_exponent)
        qr = lyapunov_spectrum_qr(handle, cfg["x0"], cfg["lyap_n"],
                                  cfg["n_transient"], orbit=cloud)
        row["lyap_qr_max"] = float(qr.max_exponent)
        if len(cloud.points) >= MIN_BOX_POINTS:  # else boxdim stays nan
            box = box_counting_dimension(cloud, cfg["n_scales"])
            row["boxdim"] = float(box.dimension)
            row["boxdim_r2"] = float(box.r2)
        _write_cloud(out, f"cloud_{idx:03d}", cloud.points, cfg)
    except NUMERIC_FAILURES as exc:
        row["status"] = f"error:{type(exc).__name__}"
    row["seconds"] = time.perf_counter() - t0
    return row


def run_sweep(cfg: dict, out: Path) -> int:
    name, values = _schedule(cfg)
    rows = [*_map_values(_sweep_value, [(cfg, name, float(v), i, str(out))
                                        for i, v in enumerate(values)],
                         cfg["jobs"])]
    _write_rows(out / "summary.csv", ",".join(SUMMARY_COLUMNS),
                [[r[c] for r in rows] for c in SUMMARY_COLUMNS])
    return 0 if all(r["status"] == "ok" for r in rows) else 2


def run_orbit(handle: MapHandle, cfg: dict, out: Path) -> int:
    cloud = orbit(handle, cfg["x0"], cfg["n_transient"], cfg["n_keep"])
    _write_cloud(out, "orbit", cloud.points, cfg)
    (out / "orbit.txt").write_text(f"period={_period(cloud)}\n")
    return 0


def run_lyapunov(handle: MapHandle, cfg: dict, out: Path) -> int:
    ns = max_lyapunov_norm_sum(handle, cfg["x0"], cfg["lyap_n"],
                               cfg["n_transient"])
    qr = lyapunov_spectrum_qr(handle, cfg["x0"], cfg["lyap_n"],
                              cfg["n_transient"])
    rows = [("norm_sum", 0, float(ns.max_exponent))]
    rows += [("qr", j, float(v)) for j, v in enumerate(qr.spectrum)]
    rows += [("n_used", 0, float(qr.n_used))]
    _write_rows(out / "lyapunov.csv", "method,component,value", zip(*rows))
    return 0


def run_boxdim(handle: MapHandle, cfg: dict, out: Path) -> int:
    cloud = orbit(handle, cfg["x0"], cfg["n_transient"], cfg["n_keep"])
    box = box_counting_dimension(cloud, cfg["n_scales"])
    used = np.isin(np.arange(len(box.counts)), box.scale_window)
    _write_rows(out / "boxdim.csv", "eps,count,used",
                [box.scales, box.counts, used.astype(int)])
    (out / "boxdim.txt").write_text(
        f"dimension={box.dimension:.17g}\nr2={box.r2:.17g}\n"
        f"degenerate={box.degenerate}\n")
    return 0


def run_hypothesis(handle: MapHandle, cfg: dict, out: Path) -> int:
    report = hypotheses.run_hypothesis_report(
        handle, search_radius=cfg["search_radius"], grid=cfg["grid"])
    (out / "hypothesis.txt").write_text(report.as_text())
    return 0


def run_horseshoe(handle: MapHandle, cfg: dict, out: Path) -> int:
    report = horseshoe.verify_ah(handle, _region_from(cfg),
                                 sampling=cfg["sampling"])
    (out / "ahreport.txt").write_text(report.as_text())
    if cfg["box"] is not None:
        cycles = horseshoe.find_saddles(handle, cfg["box"].reshape(2, 2),
                                        cfg["k_max"], n_seeds=cfg["n_seeds"])
        rows = [(c.period, *map(float, c.points[0]),
                 float(np.abs(c.multipliers).max()),
                 float(np.abs(c.multipliers).min()), c.stability)
                for c in cycles]
        _write_rows(out / "saddles.csv",
                    "period,x1,x2,mod_max,mod_min,stability", zip(*rows))
    return 0


def run_trellis(handle: MapHandle, cfg: dict, out: Path) -> int:
    cycle = find_cycle(handle, cfg["period"], cfg["saddle_seed"])
    if cycle.stability != "saddle":
        raise DivergenceError("seed did not converge to a saddle")
    cloud = horseshoe.trellis(handle, cycle, arc_budget=cfg["arc_budget"],
                              tol=cfg["tol"])
    _write_cloud(out, "trellis", cloud.points, cfg)
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
    proj = _kernels.row_norms(pts) if cfg["projection"] == "norm" \
        else pts[:, int(cfg["projection"])]
    return np.column_stack((np.full(len(proj), float(value)), proj))


def _row_blocks(parts):
    """(rows, 2) arrays regrouped as blocks of two columns of CSV_CHUNK_ROWS
    rows, the last one shorter.  Every block is a view of one buffer, so
    read it before asking for the next."""
    block, m = np.empty((2, CSV_CHUNK_ROWS)), 0
    for part in parts:
        while len(part):
            take = min(CSV_CHUNK_ROWS - m, len(part))
            block[:, m:m + take], part = part[:take].T, part[take:]
            if (m := (m + take) % CSV_CHUNK_ROWS) == 0:
                yield block
    if m:
        yield block[:, :m]


def run_bifurcation(cfg: dict, out: Path) -> int:
    name, values = _schedule(cfg)
    parts = _map_values(_bifurcation_value,
                        ((cfg, name, float(v)) for v in values), cfg["jobs"])
    _write_rows(out / "bifurcation.csv", "param,value",
                blocks=_row_blocks(parts))
    return 0


# run(cfg, out) carries out a command with a schedule of at least
# min_values values, and run(handle, cfg, out) one without; both return
# the exit code
Command = namedtuple("Command", "run keys min_values", defaults=(1,))
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
        "sampling": Key(_at_least(2), 48), "box": Key(BOX, None),
        "k_max": Key(_at_least(1), 1), "n_seeds": Key(_at_least(1), 12),
        **FRAME_KEYS}),
    "trellis": Command(run_trellis, {
        "saddle_seed": Key(_vec(2)), "period": Key(_at_least(1), 1),
        "arc_budget": Key(POSITIVE, 50.0), "tol": Key(POSITIVE, 1e-3),
        **_RASTER}),
    "bifurcation": Command(run_bifurcation, {
        **_SCHEDULE, "bif_transient": Key(_at_least(0), 1_000),
        "bif_keep": Key(_at_least(1), 200), "x0": _ORBIT["x0"],
        "projection": Key(_choice("norm", "0", "1"), "norm")},
        min_values=100),
}


def main(argv=None) -> int:
    parser = _Parser(prog="attractor-lab",
                     description="attractor toolkit batch runner")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", help="output directory (default runs)")
    parser.add_argument("--jobs", help="worker processes (default: CPUs)")
    try:
        args = parser.parse_args(argv)
        cfg = resolve(args.command, parse_config(args.config),
                      {k: v for k in FLAGS
                       if (v := getattr(args, k)) is not None})
        run = COMMANDS[args.command].run
        # a command without a schedule builds its map before any output,
        # so a value only the family rejects is a config error
        if "param" not in cfg:
            try:
                run = partial(run, build_handle(cfg))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        return run(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except NUMERIC_FAILURES as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
