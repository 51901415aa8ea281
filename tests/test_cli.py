"""End-to-end command tests through main(); artifact and exit-code checks."""

import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import attractorlab
from attractorlab import _kernels, chaos, cli, dynamics, horseshoe, maps
from attractorlab.cli import (ConfigError, main, parse_config, render_raster,
                              _schedule)


def write_cfg(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_config_comments_and_overrides(tmp_path):
    cfg = write_cfg(tmp_path, "a.cfg", """
# full-line comment
map = gauss_rotation   # trailing comment
a = 2.7
a = 4.4
theta=0.5
""")
    raw = parse_config(cfg)
    assert raw == {"map": "gauss_rotation", "a": "4.4", "theta": "0.5"}
    bad = write_cfg(tmp_path, "b.cfg", "map gauss\n")
    with pytest.raises(ConfigError):
        parse_config(bad)
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "missing.cfg")


def test_schedule_counts():
    name, vals = _schedule({"param": "a", "start": 2.7, "stop": 5.4,
                            "step": 0.9})
    assert name == "a"
    np.testing.assert_allclose(vals, [2.7, 3.6, 4.5, 5.4])
    _, vals = _schedule({"param": "a", "start": 2.7, "stop": 5.39,
                         "step": 0.9})
    assert len(vals) == 3
    with pytest.raises(ConfigError):
        _schedule({"param": "a", "start": 1.0, "stop": 2.0, "step": 0.0})
    with pytest.raises(ConfigError):
        _schedule({"param": "a", "start": 3.0, "stop": 2.0, "step": 1.0})
    most = cli.MAX_SCHEDULE
    _, vals = _schedule({"param": "a", "start": 0.0, "stop": most - 1.0,
                         "step": 1.0})
    assert len(vals) == most
    with pytest.raises(ConfigError, match=f"at most {most} values"):
        _schedule({"param": "a", "start": 0.0, "stop": float(most),
                   "step": 1.0})


def test_render_raster_geometry(tmp_path):
    path = tmp_path / "one.pgm"
    render_raster(np.array([[0.0, 0.0]]), ((-1.0, 1.0), (-1.0, 1.0)), 8, path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n8 8\n255\n")
    gray = np.frombuffer(data[len(b"P5\n8 8\n255\n"):],
                         dtype=np.uint8).reshape(8, 8)
    assert gray[4, 4] == 255
    assert gray.sum() == 255

    with pytest.warns(UserWarning):
        render_raster(np.empty((0, 2)), ((0.0, 1.0), (0.0, 1.0)), 8,
                      tmp_path / "empty.pgm")
    empty = (tmp_path / "empty.pgm").read_bytes()
    assert empty.endswith(bytes(64))

    with pytest.raises(ConfigError):
        render_raster(np.array([[0.0, 0.0]]), ((0, 1), (0, 1)), 9000,
                      tmp_path / "big.pgm")
    with pytest.raises(ConfigError):
        render_raster(np.array([[0.0, 0.0]]), ((1, 1), (0, 1)), 8,
                      tmp_path / "flat.pgm")


def dense_raster(points, bounds, side) -> bytes:
    """Reference PGM: count and tone-map every pixel of the window."""
    (xmin, xmax), (ymin, ymax) = bounds
    x, y = points[:, 0], points[:, 1]
    keep = (x >= xmin) & (x <= xmax) & (y >= ymin) & (y <= ymax)
    x, y = x[keep], y[keep]
    col = np.clip(((x - xmin) / (xmax - xmin) * side).astype(np.int64), 0,
                  side - 1)
    row = np.clip(((ymax - y) / (ymax - ymin) * side).astype(np.int64), 0,
                  side - 1)
    counts = np.bincount(row * side + col, minlength=side * side)
    tone = np.log1p(counts)
    if counts.sum():
        tone /= tone.max()
        tone *= 255.0
    header = f"P5\n{side} {side}\n255\n".encode("ascii")
    return header + np.round(tone).astype(np.uint8).tobytes()


RASTER_BOUNDS = ((-1.0, 1.0), (-2.0, 3.0))
# window edges, non-finite values and points just outside, so that draws
# land exactly on xmax/ymin, off the window and on repeated cells
raster_coords = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([-1.0, 1.0, -2.0, 3.0, 1.0000000000000002, -2.5,
                     float("nan"), float("inf"), float("-inf")]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(raster_coords, raster_coords), max_size=30),
       st.integers(1, 4), st.integers(1, 9))
@example([(0.25, 0.5)], 1, 7)
@example([(1.0, -2.0)], 3, 5)
@example([(5.0, 0.0), (0.0, float("nan")), (float("inf"), 1.0)], 1, 6)
def test_render_raster_matches_the_dense_reference(tmp_path_factory, pts,
                                                    repeat, side):
    cloud = np.repeat(np.array(pts, dtype=float).reshape(-1, 2), repeat,
                      axis=0)
    path = tmp_path_factory.getbasetemp() / "parity.pgm"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        render_raster(cloud, RASTER_BOUNDS, side, path)
    assert path.read_bytes() == dense_raster(cloud, RASTER_BOUNDS, side)
    (xmin, xmax), (ymin, ymax) = RASTER_BOUNDS
    inside = ((cloud[:, 0] >= xmin) & (cloud[:, 0] <= xmax)
              & (cloud[:, 1] >= ymin) & (cloud[:, 1] <= ymax)).any()
    assert [str(c.message) for c in caught] == (
        [] if inside else ["raster rendered from an empty cloud"])


def test_render_raster_memory_is_one_byte_per_pixel(tmp_path):
    side = 2048
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (1000, 2))
    tracemalloc.start()
    try:
        render_raster(pts, ((-1.0, 1.0), (-1.0, 1.0)), side,
                      tmp_path / "big.pgm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * side * side
    assert (tmp_path / "big.pgm").stat().st_size == 17 + side * side


def test_render_raster_memory_per_point(tmp_path):
    # the cell index is built in place and sorted in place, so the peak is
    # a few arrays of one word per in-window point plus the image
    pts = np.random.default_rng(0).normal(size=(200_000, 2))
    bounds = ((-4.0, 4.0), (-4.0, 4.0))
    inside = int((np.abs(pts) <= 4.0).all(axis=1).sum())
    tracemalloc.start()
    try:
        render_raster(pts, bounds, 1024, tmp_path / "cloud.pgm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * inside
    assert (tmp_path / "cloud.pgm").read_bytes() == dense_raster(
        pts, bounds, 1024)


def test_traced_names_are_attractorlab_functions():
    # perfbench wraps these by name; a rename must fail here, not in the
    # benchmark's traced passes
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing",
        Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for mod_name, attr, _, _ in tracing.TRACED:
        module = importlib.import_module(f"attractorlab.{mod_name}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn), (mod_name, attr)
        assert fn.__module__ == module.__name__, (mod_name, attr)


def test_orbit_command_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, "orbit.cfg", """
map = gauss_rotation
a = 2.7
theta = 0.6180339887498949
n_transient = 200
n_keep = 1000
resolution = 64
""")
    out = tmp_path / "run"
    assert main(["orbit", "--config", cfg, "--out", str(out)]) == 0
    csv = (out / "orbit.csv").read_bytes()
    assert b"\r" not in csv
    lines = csv.decode().splitlines()
    assert lines[0] == "i,x1,x2"
    assert len(lines) == 1001
    # 17 significant digits survive a round trip
    x1 = float(lines[1].split(",")[1])
    assert "%.17g" % x1 == lines[1].split(",")[1]
    pgm = (out / "orbit.pgm").read_bytes()
    assert pgm.startswith(b"P5\n64 64\n255\n") and len(pgm) == 13 + 64 * 64
    assert (out / "orbit.txt").read_text().startswith("period=")


def test_orbit_literal_rotation_duplicates_components(tmp_path):
    cfg = write_cfg(tmp_path, "lit.cfg", """
map = gauss_rotation
a = 2.7
theta = 0.6180339887498949
literal_rotation = true
n_transient = 50
n_keep = 300
resolution = 16
""")
    out = tmp_path / "run"
    assert main(["orbit", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "orbit.csv").read_text().splitlines()[1:]
    for row in rows:
        _, x1, x2 = row.split(",")
        assert x1 == x2


def test_orbit_literal_rotation_flag(tmp_path, capsys):
    # literal_rotation is a config key only: the flag is no longer one
    text = """
map = gauss_rotation
a = 2.7
theta = 0.6180339887498949
n_transient = 50
n_keep = 300
resolution = 16
"""
    out = tmp_path / "run"
    assert main(["orbit", "--config", write_cfg(tmp_path, "flag.cfg", text),
                 "--out", str(out), "--literal-rotation"]) == 1
    assert "unrecognized arguments: --literal-rotation" in \
        capsys.readouterr().err
    assert not out.exists()
    cfg = write_cfg(tmp_path, "key.cfg", text + "literal_rotation = true\n")
    assert main(["orbit", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "orbit.csv").read_text().splitlines()[1:]
    assert len(rows) == 300
    for row in rows:
        _, x1, x2 = row.split(",")
        assert x1 == x2


def per_value_csv(header, rows):
    # the per-value formatting every CSV artefact must keep, byte for byte
    lines = [header]
    for row in rows:
        lines.append(",".join(cli.FLOAT_FMT % v if isinstance(v, float)
                              else str(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


def field_texts(values):
    # the column writer's text of each float64, NUL padding dropped
    fields = cli._fields(np.asarray(values, dtype=np.float64))
    return [f.tobytes().replace(b"\0", b"").decode() for f in fields.T]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_float_fields_equal_percent_17g(values):
    assert field_texts(values) == [cli.FLOAT_FMT % v for v in values]


def adversarial_floats():
    rng = np.random.default_rng(11)
    values = []
    # exact ties: |x| * 10**(16 - E) ends in .5 when x = k * 2**(E - 17)
    # with k odd, for every fixed-notation exponent E that has them
    for e in range(-4, 16):
        lo = int(np.ceil(10.0 ** e * 2.0 ** (17 - e)))
        hi = min(2 ** 53, int(10.0 ** (e + 1) * 2.0 ** (17 - e)))
        k = rng.integers(lo, hi, 200) | 1
        values += list(np.ldexp(k.astype(float), e - 17))
    # ties of 52- and 53-bit odd k at the scale where they occur
    for bits in (52, 53):
        k = rng.integers(2 ** (bits - 1), 2 ** bits, 500) | 1
        values += list(np.ldexp(k.astype(float), -2))
    for edge in (1e-4, 1e-5, 1e16, 1e17):
        values += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]
    # the exponent estimate floor(log10|x|) is one off for these
    values += [9.9999999999999995e-05, 9999999999999998.0,
               99999999999999984.0, 999999999999999.88, 0.99999999999999989]
    values += [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               np.inf, np.nan, 0.1, 0.5, 1.0, 123.0, 1e15 + 0.5]
    values += list(rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64)
                   .view(np.float64))
    values = np.array(values)
    return np.concatenate([values, -values])


def test_float_fields_adversarial_table():
    values = adversarial_floats()
    texts = field_texts(values)
    bad = [(v, t) for v, t in zip(values, texts) if t != cli.FLOAT_FMT % v]
    assert not bad, bad[:5]


def test_write_rows_matches_per_value_format(tmp_path):
    n = 2 * cli.CSV_CHUNK_ROWS + 5
    rows = [(i - 7, 0.1 * i, 1.0 / (i + 3), f"s{i}") for i in range(n)]
    rows[1] = (1, float("nan"), -0.0, "")
    rows[2] = (2, 1e300, float("-inf"), "x y")
    rows[3] = (-2 ** 63, 5e-324, 1e16, "\u00e9t\u00e9")
    path = tmp_path / "mixed.csv"
    for table in (rows, rows[:1], [(1, 2.5, "ok", True, np.float32(0.1))]):
        cli._write_rows(path, "h", zip(*table))
        assert path.read_bytes() == per_value_csv("h", table)
    cli._write_rows(path, "i,a,b,s", [])
    assert path.read_bytes() == b"i,a,b,s\n"


def test_write_cloud_csv_matches_per_value_format(tmp_path):
    rng = np.random.default_rng(3)
    clouds = [rng.normal(size=(cli.CSV_CHUNK_ROWS + 7, 2)),
              adversarial_floats()[:30_000].reshape(-1, 2),
              rng.integers(-5, 5, size=(40, 2)),
              np.array([[0.25, -1e-7]]),
              np.empty((0, 2))]
    path = tmp_path / "cloud.csv"
    for pts in clouds:
        cli.write_cloud_csv(path, pts)
        rows = [(i, *map(float, p)) for i, p in enumerate(pts)]
        assert path.read_bytes() == per_value_csv("i,x1,x2", rows)


@pytest.mark.parametrize("shape", [(6,), (6, 1), (6, 3)])
def test_cloud_writers_take_planar_points_only(tmp_path, shape):
    pts = np.zeros(shape)
    with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
        cli.write_cloud_csv(tmp_path / "cloud.csv", pts)
    with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
        render_raster(pts, ((-1.0, 1.0), (-1.0, 1.0)), 8,
                      tmp_path / "cloud.pgm")
    assert not any(tmp_path.iterdir())


def test_lyapunov_command_values(tmp_path):
    cfg = write_cfg(tmp_path, "lyap.cfg", """
map = gauss_rotation
a = 0.5
theta = 0.6180339887498949
lyap_n = 20000
n_transient = 200
""")
    out = tmp_path / "run"
    assert main(["lyapunov", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "lyapunov.csv").read_text().splitlines()
    assert lines[0] == "method,component,value"
    vals = {}
    for line in lines[1:]:
        method, comp, value = line.split(",")
        vals[(method, int(comp))] = float(value)
    expect = np.log(0.5)
    assert vals[("norm_sum", 0)] == pytest.approx(expect, abs=1e-4)
    assert vals[("qr", 0)] == pytest.approx(expect, abs=1e-4)
    assert vals[("qr", 1)] == pytest.approx(expect, abs=1e-4)
    assert vals[("n_used", 0)] == 20000


# the four built-in variants: the family's keys, and the start and step
# of a four-value schedule of its `a`
_VARIANTS = {
    "gauss": ("map = gauss_rotation\ntheta = 1.6180339887498949\n", 2.7, 0.9),
    "literal": ("map = gauss_rotation\ntheta = 1.6180339887498949\n"
                "literal_rotation = true\n", 2.7, 0.9),
    "full": ("map = pioneer_climax_full\nb = 3\n", 2.0, 0.5),
    "mixed": ("map = pioneer_climax_mixed\nb = 3\n", 2.0, 0.5),
}


def assert_qr_within_norm_sum(qr, ns):
    # both estimators walk the same orbit from the same start, so QR's
    # lambda1 = (1/n) log|J_n...J_1 e1| is at most (1/n) sum log|J_k|
    assert qr <= ns + 1e-12 * abs(ns), (qr, ns)


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
def test_artefacts_keep_qr_lambda1_within_the_norm_sum(tmp_path, variant):
    family, start, step = _VARIANTS[variant]
    walk = "n_transient = 200\nlyap_n = 2000\n"
    cfg = write_cfg(tmp_path, "sweep.cfg", family + walk + (
        f"param = a\nstart = {start}\nstop = {start + 3 * step}\n"
        f"step = {step}\nn_keep = 2000\nresolution = 8\n"))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                 "--jobs", "1"]) == 0
    rows = (tmp_path / "s" / "summary.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    for row in rows:
        _, _, ns, qr, *_ = row.split(",")
        assert_qr_within_norm_sum(float(qr), float(ns))
    cfg = write_cfg(tmp_path, "lyap.cfg", family + walk + f"a = {start}\n")
    assert main(["lyapunov", "--config", cfg, "--out",
                 str(tmp_path / "l")]) == 0
    vals = dict(line.rsplit(",", 1) for line in
                (tmp_path / "l" / "lyapunov.csv").read_text().splitlines())
    assert_qr_within_norm_sum(float(vals["qr,0"]), float(vals["norm_sum,0"]))
    # sweep reduces over its orbit cloud (n_keep = lyap_n), lyapunov walks
    # from x0: the same points, so the same text
    _, _, ns, qr, *_ = rows[0].split(",")
    assert (ns, qr) == (vals["norm_sum,0"], vals["qr,0"])


def test_boxdim_command(tmp_path):
    cfg = write_cfg(tmp_path, "box.cfg", """
map = gauss_rotation
a = 2.7
theta = 0.6180339887498949
n_transient = 500
n_keep = 20000
""")
    out = tmp_path / "run"
    assert main(["boxdim", "--config", cfg, "--out", str(out)]) == 0
    txt = dict(line.split("=") for line in
               (out / "boxdim.txt").read_text().splitlines())
    assert float(txt["dimension"]) == pytest.approx(1.0, abs=0.2)
    lines = (out / "boxdim.csv").read_text().splitlines()
    assert lines[0] == "eps,count,used"
    assert len(lines) == 9


def test_hypothesis_command(tmp_path):
    cfg = write_cfg(tmp_path, "hyp.cfg", """
map = gauss_rotation
a = 2.7
theta = 0.6180339887498949
grid = 128
""")
    out = tmp_path / "run"
    assert main(["hypothesis", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "hypothesis.txt").read_text().splitlines()
    assert lines[0] == "check\tstatus\twitness\ttolerance"
    names = [line.split("\t")[0] for line in lines[1:]]
    assert names == ["sup_norm", "decay_to_zero", "cutoff_strict",
                     "cutoff_numeric", "origin_contraction"]


HEADER = "check\tstatus\twitness\ttolerance\n"


@pytest.mark.parametrize("text,report", [
    ("map = radial_tent\n", HEADER +
     "sup_norm\tpass\tM=1.5 R_M=0.5\t1e-06\n"
     "decay_to_zero\tpass\tprofile ok\t1e-09\n"
     "cutoff_strict\tpass\tR=2.0\t0\n"
     "cutoff_numeric\tpass\tR=2.0\t1e-12\n"
     "origin_contraction\tfail\tmax_ratio=3 [-0.425511  0.201252]\t1e-09\n"),
    # alpha0 alone makes the origin a sink
    ("map = radial_tent\nalpha0 = 0.2\n", HEADER +
     "sup_norm\tpass\tM=1.3 R_M=0.566666667\t1e-06\n"
     "decay_to_zero\tpass\tprofile ok\t1e-09\n"
     "cutoff_strict\tpass\tR=2.0\t0\n"
     "cutoff_numeric\tpass\tR=2.0\t1e-12\n"
     "origin_contraction\tfail\tmax_ratio=2.29411765 "
     "[-0.38055   0.419872]\t1e-09\n"),
    # the sup-norm search sees only underflowed zeros: inconclusive, and
    # no contraction check without R_M
    ("map = gauss_rotation\na = 2.7\ntheta = 0.3\nsearch_radius = 1e300\n"
     "grid = 2\n", HEADER +
     "sup_norm\tinconclusive\t|f| reaches 0 on the radius-8e+300 box "
     "boundary (grid max 0); enlarge search_radius\t1e-06\n"
     "decay_to_zero\tpass\tprofile ok\t1e-09\n"
     "cutoff_strict\tfail\tnot EZ\t0\n"
     "cutoff_numeric\tpass\tR=6.0\t1e-12\n"),
])
def test_hypothesis_report_text_is_pinned(tmp_path, text, report):
    out = tmp_path / "run"
    assert main(["hypothesis", "--config", write_cfg(tmp_path, "h.cfg", text),
                 "--out", str(out)]) == 0
    assert (out / "hypothesis.txt").read_text() == report


AH_HEADER = "condition\tstatus\tmargin\twitness\n"


@pytest.mark.parametrize("text,report", [
    ("", AH_HEADER +
     "injectivity\tpass\t0.0100186551\t\n"
     "region_into_interior\tpass\t0.120172549\t[2.       3.126984]\n"
     "caps_into_sink_cap\tpass\t0.149274239\t[ 1.466667 -2.866667]\n"
     "fold_band_into_top_cap\tpass\t0.119532052\t[2.       3.133333]\n"
     "vertical_transversality\tpass\t1.56079633\t[-6.        0.333333]\n"
     "sink_cap_contraction\tpass\t0.8\t[ 0.       -4.157895]\n"
     "band_saddle\tpass\t1\t[-8.881784e-16 -5.551115e-17]\n"
     "foliation_rates\tpass\t0.8\t\n"),
    ("frame = 0.3,0.1,-0.2,0.5\nframe_offset = 1.5,-2.0\n", AH_HEADER +
     "injectivity\tpass\t0.0103815606\t\n"
     "region_into_interior\tpass\t0.120172549\t[ 2.412698 -0.836508]\n"
     "caps_into_sink_cap\tpass\t0.149274239\t[ 1.653333 -3.726667]\n"
     "fold_band_into_top_cap\tpass\t0.119532052\t[ 2.413333 -0.833333]\n"
     "vertical_transversality\tpass\t1.56079633\t[-0.266667 -0.633333]\n"
     "sink_cap_contraction\tpass\t0.8\t[ 1.084211 -4.078947]\n"
     "band_saddle\tpass\t1\t[ 1.5 -2. ]\n"
     "foliation_rates\tpass\t0.8\t\n"),
], ids=["identity", "framed"])
def test_horseshoe_report_text_is_pinned(tmp_path, text, report):
    cfg = write_cfg(tmp_path, "hs.cfg",
                    "map = model_horseshoe\nsampling = 16\n" + text)
    out = tmp_path / "run"
    assert main(["horseshoe", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "ahreport.txt").read_text() == report


def test_horseshoe_command(tmp_path):
    cfg = write_cfg(tmp_path, "hs.cfg", """
map = model_horseshoe
sampling = 32
box = -6,2,-5,13
k_max = 2
n_seeds = 9
""")
    out = tmp_path / "run"
    assert main(["horseshoe", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "ahreport.txt").read_text()
    assert "foliation_rates\tpass" in report
    lines = (out / "saddles.csv").read_text().splitlines()
    assert lines[0] == "period,x1,x2,mod_max,mod_min,stability"
    assert len(lines) == 5
    stabilities = {line.split(",")[-1] for line in lines[1:]}
    assert {"saddle", "sink"} <= stabilities


def test_horseshoe_command_at_the_coarsest_sampling(tmp_path):
    cfg = write_cfg(tmp_path, "hs.cfg",
                    "map = model_horseshoe\nsampling = 2\n")
    out = tmp_path / "run"
    assert main(["horseshoe", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "ahreport.txt").read_text().splitlines()
    # each inconclusive condition says why it has no point witness
    assert ("sink_cap_contraction\tinconclusive\t0\t"
            "no sample strictly inside C0") in report
    assert ("foliation_rates\tinconclusive\t0\t"
            "no sample strictly inside Z or a band") in report


def test_trellis_command(tmp_path):
    cfg = write_cfg(tmp_path, "tr.cfg", """
map = model_horseshoe
saddle_seed = 0.05,0.02
arc_budget = 4.0
tol = 1e-3
resolution = 64
""")
    out = tmp_path / "run"
    assert main(["trellis", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "trellis.txt").read_text().startswith("component 0: [0, ")
    lines = (out / "trellis.csv").read_text().splitlines()
    assert len(lines) > 1000
    assert (out / "trellis.pgm").read_bytes().startswith(b"P5\n64 64\n255\n")


MODEL_TRELLIS_CFG = """
map = model_horseshoe
saddle_seed = 0.05,0.02
"""


def test_trellis_model_default_budget_stops_in_sink(tmp_path):
    # the README config: default arc_budget 50 and tol 1e-3
    cfg = write_cfg(tmp_path, "tr.cfg", MODEL_TRELLIS_CFG)
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        assert main(["trellis", "--config", cfg, "--out", str(out)]) == 0
    text = (outs[0] / "trellis.txt").read_text().splitlines()
    assert text[0].startswith("component 0: [0, ")
    assert text[1].startswith("branch minus: stalled points=")
    assert text[2].startswith("branch plus: arc_budget points=")
    pts = np.loadtxt(outs[0] / "trellis.csv", delimiter=",",
                     skiprows=1)[:, 1:]
    assert len(pts) < 200_000
    assert np.linalg.norm(np.diff(pts, axis=0), axis=1).max() <= 1e-3
    assert np.linalg.norm(pts[0] - [0.0, -79.0 / 19.0]) <= 1e-3
    n_minus = int(text[1].split("points=")[1].split()[0])
    n_plus = int(text[2].split("points=")[1].split()[0])
    assert n_minus + n_plus + 1 == len(pts)
    for name in ("trellis.csv", "trellis.pgm", "trellis.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_trellis_refinement_explosion_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(horseshoe, "POINT_CAP", 5_000)
    cfg = write_cfg(tmp_path, "tr.cfg", MODEL_TRELLIS_CFG)
    assert main(["trellis", "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ")
    assert "Traceback" not in err


def test_trellis_non_saddle_seed_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "tr.cfg", """
map = model_horseshoe
saddle_seed = 0.1,-4.0
""")
    assert main(["trellis", "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 2


def test_orbit_too_short_to_tell_the_period(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "short.cfg", """
map = gauss_rotation
a = 2.7
theta = 0.5
n_transient = 10
n_keep = 191
resolution = 8
""")
    out = tmp_path / "run"
    assert main(["orbit", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "orbit.txt").read_text() == "period=undetermined\n"
    assert len((out / "orbit.csv").read_text().splitlines()) == 1 + 191
    assert (out / "orbit.pgm").is_file()


def test_orbit_renders_a_cloud_collapsed_at_a_far_point(tmp_path):
    # the framed model's sink sits near (1e8, 1e8), where an absolute
    # 1e-9 pad is lost in rounding and left the raster no extent
    cfg = write_cfg(tmp_path, "far.cfg", """
map = model_horseshoe
frame_offset = 1e8,1e8
n_keep = 300
resolution = 8
""")
    out = tmp_path / "run"
    assert main(["orbit", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "orbit.txt").read_text() == "period=1\n"
    pgm = (out / "orbit.pgm").read_bytes()
    assert pgm.startswith(b"P5\n8 8\n255\n") and pgm[-64:].count(255) == 1


@pytest.mark.parametrize("point", [(0.5, -0.25), (1e8, 1e8), (-3e15, 7.0),
                                   (1e300, -1e300)])
def test_bounds_of_a_collapsed_cloud_have_positive_extent(point):
    (x0, x1), (y0, y1) = cli._cloud_bounds(np.array([point] * 3),
                                           {"window": None})
    assert x0 < point[0] < x1 and y0 < point[1] < y1
    if max(map(abs, point)) <= 1.0:  # unit clouds keep the 1e-9 pad
        assert (x0, x1, y0, y1) == (point[0] - 1e-9, point[0] + 1e-9,
                                    point[1] - 1e-9, point[1] + 1e-9)


def axis0_bounds(pts):
    """The strided axis-0 reductions that planar_bounds replaces."""
    return pts.min(axis=0), pts.max(axis=0)


@st.composite
def planar_clouds(draw):
    """Box-countable (n, 2) clouds with none, one, half or all of their rows
    overwritten by a few drawn points: +-0.0, repeated points, or a cloud
    of one point."""
    coord = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)
    special = np.array(draw(st.lists(st.tuples(coord, coord), min_size=1,
                                     max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(chaos.MIN_BOX_POINTS, 3 * chaos.MIN_BOX_POINTS))
    pts = rng.normal(size=(n, 2)) * draw(st.sampled_from([1e-6, 1.0, 1e3]))
    rows = rng.permutation(n)[:draw(st.sampled_from([0, 1, n // 2, n]))]
    pts[rows] = special[rng.integers(0, len(special), len(rows))]
    return pts


@settings(max_examples=60, deadline=None)
@given(planar_clouds())
def test_column_bounds_equal_the_axis0_reductions(pts):
    def results():
        bounds = cli._cloud_bounds(pts, {"window": None})
        box = chaos.box_counting_dimension(pts, 6)
        return (np.array(bounds).tobytes(), box.scales.tobytes(),
                box.counts.tobytes(), box.dimension, box.r2, box.degenerate)

    lo, hi = dynamics.planar_bounds(pts)
    assert np.array_equal(lo, pts.min(axis=0))
    assert np.array_equal(hi, pts.max(axis=0))
    fast = results()
    with mock.patch.object(cli, "planar_bounds", axis0_bounds), \
            mock.patch.object(chaos, "planar_bounds", axis0_bounds):
        assert results() == fast


def hypothesis_rows_under_w_error(tmp_path, text):
    """The hypothesis.txt rows of a run of the CLI under -W error, which
    must exit 0 with nothing on stderr."""
    cfg = write_cfg(tmp_path, "h.cfg", text)
    src = str(Path(attractorlab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "attractorlab.cli",
         "hypothesis", "--config", cfg, "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stderr) == (0, "")
    return [line.split("\t") for line in
            (tmp_path / "run" / "hypothesis.txt").read_text().splitlines()]


@pytest.mark.parametrize("radius, last", [("2e307", "1.6e+308"),
                                          ("1e308", "1e+308")])
def test_hypothesis_search_box_that_overflows_is_inconclusive(tmp_path,
                                                              radius, last):
    # the box's span overflowed: NumPy warned in subtract, and the command
    # exited 2 with a zero-size reduction error; under -W error a warning
    # would escape main as an exception
    rows = hypothesis_rows_under_w_error(
        tmp_path, "map = gauss_rotation\na = 3\ntheta = 0.3\ngrid = 2\n"
        f"search_radius = {radius}\n")
    assert rows[1][:2] == ["sup_norm", "inconclusive"]
    assert rows[1][2] == (f"the radius-{last} box is too large: "
                          "2 * radius overflows")
    assert [row[0] for row in rows[2:]] == [
        "decay_to_zero", "cutoff_strict", "cutoff_numeric"]



@pytest.mark.parametrize("grid", ["2", "256"])
def test_hypothesis_grid_where_f_is_nan_is_inconclusive(tmp_path, grid):
    # from about 1e155 the pioneer map's inf * 0 makes |f| nan on the grid;
    # the command exited 2 with a zero-size reduction error
    rows = hypothesis_rows_under_w_error(
        tmp_path, PIONEER + f"search_radius = 1e160\ngrid = {grid}\n")
    assert rows[1][:3] == ["sup_norm", "inconclusive", "|f| is not finite "
                           "on the radius-8e+160 grid"]
    assert [row[0] for row in rows[2:]] == [
        "decay_to_zero", "cutoff_strict", "cutoff_numeric"]

def test_horseshoe_on_a_population_map_prints_no_warnings(tmp_path, capsys):
    # Newton iterates leave the positivity cone, where the pioneer step
    # overflows; the built-in handle returns inf/nan without warnings
    # (pyproject.toml turns any RuntimeWarning into an error)
    cfg = write_cfg(tmp_path, "hs.cfg", PIONEER + "sampling = 8\n"
                    "box = 0,8,0,8\nn_seeds = 3\n")
    assert main(["horseshoe", "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().err == ""


def test_saddle_census_with_huge_newton_residuals_prints_no_warnings(
        tmp_path, capsys):
    # a period-2 Newton step on the mixed pioneer map leaves a finite
    # residual near 1e200, whose norm overflows to inf
    cfg = write_cfg(tmp_path, "hs.cfg", "map = pioneer_climax_mixed\na = 3\n"
                    "b = 3\nbox = 0,8,0,8\nk_max = 2\n")
    assert main(["horseshoe", "--config", cfg, "--out", str(tmp_path / "run"),
                 "--jobs", "1"]) == 0
    assert capsys.readouterr().err == ""


def test_bifurcation_csv_matches_per_value_format(tmp_path):
    text = CONTRACT["bifurcation"][0] + "projection = 1\n"
    out = tmp_path / "run"
    assert main(["bifurcation", "--config", write_cfg(tmp_path, "b.cfg", text),
                 "--out", str(out), "--jobs", "1"]) == 0
    cfg = cli.resolve("bifurcation", parse_config(tmp_path / "b.cfg"))
    name, values = _schedule(cfg, minimum=100)
    rows = [(float(v), float(y)) for v in values
            for _, y in cli._bifurcation_value((cfg, name, v))]
    assert len(rows) == 200
    assert (out / "bifurcation.csv").read_bytes() == \
        per_value_csv("param,value", rows)


def test_bifurcation_command(tmp_path):
    cfg = write_cfg(tmp_path, "bif.cfg", """
map = gauss_rotation
theta = 0.6180339887498949
param = a
start = 2.0
stop = 2.99
step = 0.01
bif_transient = 50
bif_keep = 5
projection = norm
""")
    out = tmp_path / "run"
    assert main(["bifurcation", "--config", cfg, "--out", str(out),
                 "--jobs", "1"]) == 0
    lines = (out / "bifurcation.csv").read_text().splitlines()
    assert lines[0] == "param,value"
    assert len(lines) == 1 + 100 * 5
    short = write_cfg(tmp_path, "short.cfg", """
map = gauss_rotation
theta = 0.5
param = a
start = 2.0
stop = 2.5
step = 0.01
""")
    assert main(["bifurcation", "--config", short,
                 "--out", str(tmp_path / "r2")]) == 1


def test_row_blocks_regroup_parts_into_whole_chunks(tmp_path):
    # parts smaller than, straddling and longer than a block, and empty
    rng = np.random.default_rng(5)
    n = cli.CSV_CHUNK_ROWS
    parts = [rng.normal(size=(k, 2)) for k in (3, n - 3, 5, 2 * n + 7, 0, 9)]
    sizes = [b.shape[1] for b in cli._row_blocks(iter(parts))]
    assert sizes == [n, n, n, 21]
    path = tmp_path / "rows.csv"
    cli._write_rows(path, "p,v", blocks=cli._row_blocks(iter(parts)))
    assert path.read_bytes() == per_value_csv(
        "p,v", [tuple(map(float, r)) for r in np.concatenate(parts)])


BIF_STREAM = ("map = gauss_rotation\ntheta = 0.6180339887498949\nparam = a\n"
              "start = 2.7\nbif_transient = 10\n")


def test_bifurcation_jobs_write_the_same_bytes(tmp_path):
    # 100 values of 200 rows: values straddle the block boundaries
    cfg = write_cfg(tmp_path, "b.cfg",
                    BIF_STREAM + "stop = 3.69\nstep = 0.01\n")
    runs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"run{jobs}"
        assert main(["bifurcation", "--config", cfg, "--out", str(out),
                     "--jobs", jobs]) == 0
        runs.append((out / "bifurcation.csv").read_bytes())
    assert runs[0] == runs[1]
    assert runs[0].count(b"\n") == 1 + 100 * 200


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("schedule", [
    "start = 2\nstop = 3\nstep = 0.01\n",  # the first value diverges
    # a <= 0 stays finite: 101 values, two whole blocks, are written first
    "start = -10\nstop = 0.5\nstep = 0.1\n"], ids=["first", "later"])
def test_bifurcation_divergence_leaves_no_csv(tmp_path, capsys, schedule,
                                              jobs):
    cfg = write_cfg(tmp_path, "div.cfg", "map = pioneer_climax_full\nb = 3\n"
                    "param = a\nx0 = -0.01,0.5\n" + schedule)
    out = tmp_path / "run"
    assert main(["bifurcation", "--config", cfg, "--out", str(out),
                 "--jobs", jobs]) == 2
    assert capsys.readouterr().err.startswith("numeric failure: ")
    assert out.is_dir() and not (out / "bifurcation.csv").exists()


def test_bifurcation_memory_is_flat_in_the_schedule(tmp_path):
    # rows are written a block at a time as values finish, so ten times
    # the values over the same range must not take ten times the memory
    peaks = []
    for step in ("0.01", "0.001"):  # 200 and 2000 values
        cfg = write_cfg(tmp_path, "b.cfg",
                        BIF_STREAM + f"stop = 4.6995\nstep = {step}\n")
        tracemalloc.start()
        try:
            assert main(["bifurcation", "--config", cfg, "--out",
                         str(tmp_path / "run"), "--jobs", "1"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


SWEEP_CFG = """
map = gauss_rotation
theta = 0.6180339887498949
param = a
start = 2.7
stop = 4.5
step = 0.9
n_transient = 500
n_keep = 2000
lyap_n = 2000
resolution = 32
"""


def test_sweep_summary_and_reproducibility(tmp_path):
    cfg = write_cfg(tmp_path, "sweep.cfg", SWEEP_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["sweep", "--config", cfg, "--out", str(out1),
                 "--jobs", "1"]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2),
                 "--jobs", "2"]) == 0
    s1 = (out1 / "summary.csv").read_text().splitlines()
    assert s1[0] == "param,period,lyap_normsum,lyap_qr_max,boxdim," \
                    "boxdim_r2,status,seconds"
    assert len(s1) == 4
    assert all(line.split(",")[6] == "ok" for line in s1[1:])
    # artifacts are byte-identical across runs and worker counts; the
    # summary matches except for the wall-clock seconds column
    s2 = (out2 / "summary.csv").read_text().splitlines()
    strip = lambda lines: [",".join(l.split(",")[:7]) for l in lines]
    assert strip(s1) == strip(s2)
    for i in range(3):
        for suffix in ("csv", "pgm"):
            a = (out1 / f"cloud_{i:03d}.{suffix}").read_bytes()
            b = (out2 / f"cloud_{i:03d}.{suffix}").read_bytes()
            assert a == b


@pytest.mark.parametrize("n_keep, period", [(150, "undetermined"),
                                             (500, "0")])
def test_sweep_short_clouds_are_not_failures(tmp_path, n_keep, period):
    # below 192 points the period is undetermined and below 1000 the box
    # count is nan, as for `orbit`; the exponents and the cloud are kept
    cfg = write_cfg(tmp_path, "sweep.cfg", SWEEP_CFG.replace(
        "stop = 4.5", "stop = 4.4").replace("n_keep = 2000",
                                            f"n_keep = {n_keep}"))
    out = tmp_path / "run"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--jobs", "1"]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines[1:]):
        _, got, ns, qr, dim, r2, status, _ = line.split(",")
        assert (got, dim, r2, status) == (period, "nan", "nan", "ok")
        assert np.isfinite([float(ns), float(qr)]).all()
        cloud = (out / f"cloud_{i:03d}.csv").read_text().splitlines()
        assert len(cloud) == 1 + n_keep
        assert (out / f"cloud_{i:03d}.pgm").is_file()


def test_commands_keep_the_call_structure_the_benchmark_pins(tmp_path,
                                                            monkeypatch):
    # perfbench wraps these functions in every attractorlab module, as
    # here, and pins one call of each per swept value, and one norm-sum
    # and one QR walk per `lyapunov` run; an estimator that called
    # run_orbit would count as a second orbit call
    names = {"run_orbit": _kernels, "run_norm_sum": _kernels,
             "run_qr": _kernels, "build_map": maps}
    calls, stack = [], []
    modules = [m for name, m in list(sys.modules.items())
               if name == "attractorlab" or name.startswith("attractorlab.")]
    for name, home in names.items():
        original = getattr(home, name)

        def wrapper(*args, _name=name, _fn=original, **kwargs):
            calls.append((_name, tuple(stack)))
            stack.append(_name)
            try:
                return _fn(*args, **kwargs)
            finally:
                stack.pop()

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapper)

    def run(command, text):
        calls.clear()
        cfg = write_cfg(tmp_path, f"{command}.cfg", text)
        assert main([command, "--config", cfg, "--out",
                     str(tmp_path / command), "--jobs", "1"]) == 0
        assert not [inside for name, inside in calls if name == "run_orbit"
                    and {"run_norm_sum", "run_qr"} & set(inside)]
        return {name: sum(c[0] == name for c in calls) for name in names}

    assert run("sweep", SWEEP_CFG.replace("stop = 4.5", "stop = 3.6")) == \
        dict.fromkeys(names, 2)
    assert run("bifurcation", CONTRACT["bifurcation"][0]) == {
        "run_orbit": 100, "run_norm_sum": 0, "run_qr": 0, "build_map": 100}
    assert run("lyapunov", CONTRACT["lyapunov"][0]) == {
        "run_orbit": 0, "run_norm_sum": 1, "run_qr": 1, "build_map": 1}


def test_sweep_bad_value_exits_2_with_summary(tmp_path):
    cfg = write_cfg(tmp_path, "sweep.cfg", """
map = gauss_rotation
theta = 0.5
param = a
start = -0.5
stop = 2.7
step = 3.2
n_transient = 100
n_keep = 1000
lyap_n = 1000
resolution = 16
""")
    out = tmp_path / "run"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--jobs", "1"]) == 2
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 3
    assert "error:MapDefinitionError" in lines[1]
    assert lines[2].split(",")[6] == "ok"


def test_exit_codes_config_numeric_io(tmp_path):
    assert main(["orbit", "--config", str(tmp_path / "nope.cfg")]) == 1
    bad = write_cfg(tmp_path, "bad.cfg", "map = warp_drive\n")
    assert main(["orbit", "--config", bad,
                 "--out", str(tmp_path / "r")]) == 1
    with pytest.raises(ConfigError):
        # unknown command is a usage error surfaced as ConfigError
        cli._Parser(prog="x").parse_args(["--bogus"])
    # a config that is not UTF-8 is a config error, before any output
    latin = tmp_path / "latin.cfg"
    latin.write_bytes(PIONEER.replace("a = 3", "a = 3\xff").encode("latin-1"))
    assert main(["orbit", "--config", str(latin),
                 "--out", str(tmp_path / "r1")]) == 1
    assert not (tmp_path / "r1").exists()
    diverging = write_cfg(tmp_path, "diverging.cfg", PIONEER + OUTSIDE_CONE)
    # a pioneer orbit started outside its cone overflows: numeric failure
    assert main(["orbit", "--config", diverging,
                 "--out", str(tmp_path / "r2")]) == 2
    blocker = tmp_path / "file"
    blocker.write_text("x")
    ok = write_cfg(tmp_path, "ok.cfg", """
map = gauss_rotation
a = 2.7
theta = 0.5
n_transient = 10
n_keep = 300
resolution = 16
""")
    assert main(["orbit", "--config", ok,
                 "--out", str(blocker / "sub")]) == 3


def test_refused_allocation_is_a_numeric_failure(tmp_path, capsys):
    # 2**58 kept points are 4 EiB, more than any 64-bit host maps, so
    # NumPy refuses the allocation at once
    huge = "n_keep = 288230376151711744\n"
    cfg = write_cfg(tmp_path, "orbit.cfg", CONTRACT["orbit"][0] + huge)
    assert main(["orbit", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        "numeric failure: Unable to allocate")
    one_value = CONTRACT["sweep"][0].replace("stop = 3.6", "stop = 2.7")
    cfg = write_cfg(tmp_path, "sweep.cfg", one_value + huge)
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--jobs", "1"]) == 2
    rows = (out / "summary.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].split(",")[6] == "error:MemoryError"


# the config contract, command by command: (ok config, misspelt key line,
# the key its message must name, badly typed line, lines that turn the ok
# config into a numeric failure, an out-of-range value or a raster window
# of reversed or zero extent); the ok configs run at --jobs 1.  hypothesis
# and horseshoe have no numeric failure to reach: their batteries report
# fail or inconclusive rows instead of raising.
PIONEER = "map = pioneer_climax_full\na = 3\nb = 3\n"
OUTSIDE_CONE = "x0 = -1,0.5\n"   # the pioneer orbit overflows
CONTRACT = {
    "sweep": ("map = gauss_rotation\ntheta = 0.5\nparam = a\nstart = 2.7\n"
              "stop = 3.6\nstep = 0.9\nn_transient = 10\nn_keep = 1000\n"
              "lyap_n = 200\nresolution = 8\n",
              "lyap_m = 200\n", "lyap_n", "n_keep = many\n",
              "start = -0.5\n", "window = 5,-5,-5,5\n"),
    "orbit": (PIONEER + "n_transient = 10\nn_keep = 300\nresolution = 8\n",
              "n_kepe = 300\n", "n_keep", "resolution = big\n",
              OUTSIDE_CONE, "window = -5,5,2,-2\n"),
    "lyapunov": (PIONEER + "n_transient = 10\nlyap_n = 200\n",
                 "lyap_m = 200\n", "lyap_n", "lyap_n = 1.5\n",
                 OUTSIDE_CONE, "lyap_n = 50\n"),
    "boxdim": (PIONEER + "n_transient = 10\nn_keep = 1000\n",
               "n_scale = 8\n", "n_scales", "n_scales = x\n", OUTSIDE_CONE,
               "n_scales = 4\n"),
    "hypothesis": ("map = gauss_rotation\na = 2.7\ntheta = 0.5\ngrid = 16\n",
                   "gird = 16\n", "grid", "grid = 1e3\n", None,
                   "search_radius = nan\n"),
    "horseshoe": ("map = model_horseshoe\nsampling = 8\n",
                  "samplng = 8\n", "sampling", "box = 1,2\n", None,
                  "sampling = 1\n"),
    "trellis": ("map = model_horseshoe\nsaddle_seed = 0.05,0.02\n"
                "arc_budget = 4\nresolution = 8\n",
                "arc_budgte = 4\n", "arc_budget", "saddle_seed = 0.05\n",
                "saddle_seed = 0.1,-4.0\n", "window = 0,1,1,1\n"),
    "bifurcation": ("map = gauss_rotation\ntheta = 0.5\nparam = a\n"
                    "start = 2.0\nstop = 2.99\nstep = 0.01\n"
                    "bif_transient = 10\nbif_keep = 2\n",
                    "bif_kep = 2\n", "bif_keep", "projection = 5\n",
                    "start = -0.5\nstop = 0.49\n", "bif_keep = 0\n"),
}
EXIT_CODES = {"ok": 0, "unknown_key": 1, "bad_type": 1, "numeric": 2,
              "out_of_range": 1, "unwritable_out": 3}


@pytest.mark.parametrize("command, case", [
    (command, case) for command in CONTRACT for case in EXIT_CODES
    if case != "numeric" or CONTRACT[command][4] is not None])
def test_config_contract_exit_codes(tmp_path, capsys, command, case):
    ok, typo, near, bad, numeric, out_of_range = CONTRACT[command]
    text = ok + {"unknown_key": typo, "bad_type": bad, "numeric": numeric,
                 "out_of_range": out_of_range}.get(case, "")
    out = tmp_path / "run"
    if case == "unwritable_out":
        (tmp_path / "file").write_text("x")
        out = tmp_path / "file" / "sub"
    code = main([command, "--config", write_cfg(tmp_path, "c.cfg", text),
                 "--out", str(out), "--jobs", "1"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code == EXIT_CODES[case], err
    if case == "unknown_key":
        assert f"did you mean {near!r}?" in err
    if case == "bad_type":
        assert err.startswith("config error: config key ")
    if case == "out_of_range":
        assert err.startswith("config error: ") and not out.exists()


def test_sweep_config_errors_stop_before_any_value(tmp_path, capsys):
    base = CONTRACT["sweep"][0]
    for extra, message in [
            ("a = 3.0\nparam = alpha\n", "'param' must be one of a, theta"),
            ("param = n_keep\n", "'param' must be one of a, theta"),
            ("resolution = 9000\n", "'resolution' must be int 1..8192"),
            ("x0 = 1\n", "'x0' must be float[2]")]:
        out = tmp_path / "run"
        assert main(["sweep", "--config",
                     write_cfg(tmp_path, "s.cfg", base + extra),
                     "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, text", [
    ("orbit", "map = gauss_rotation\na = 2.7\ntheta = 0.5\nx0 = 1\n"),
    ("orbit", "map = gauss_rotation\na = 2.7\ntheta = 0.5\nx0 = 1,2,3\n"),
    ("bifurcation", CONTRACT["bifurcation"][0] + "projection = 2\n"),
    ("horseshoe", "map = model_horseshoe\nframe = 1,2,3\n"),
    ("horseshoe", "map = gauss_rotation\na = 2.7\ntheta = 0.5\n"
                  "frame_offset = 1\n"),
    ("trellis", "map = model_horseshoe\nsaddle_seed = 0.05,0.02,0\n"),
    ("orbit", "map = warp_drive\n"),
    ("orbit", "a = 2.7\ntheta = 0.5\n"),
    ("orbit", "map = gauss_rotation\ntheta = 0.5\n"),
    ("orbit", "map = gauss_rotation\na = 2.7\ntheta = 0.5\n"
              "literal_rotation = maybe\n"),
    # keys of another family, or of none
    ("orbit", PIONEER + "literal_rotation = true\n"),
    ("orbit", PIONEER + "theta = 0.5\n"),
    ("orbit", "map = gauss_rotation\na = 2.7\ntheta = 0.5\nseed = 3\n"),
    ("hypothesis", PIONEER + "n_keep = 300\n"),
    # out of the ranges the library states, or a raster window that is
    # not four floats
    ("horseshoe", "map = model_horseshoe\nsampling = 0\n"),
    ("horseshoe", "map = model_horseshoe\nbox = 0,1,0,1\nk_max = 0\n"),
    ("horseshoe", "map = model_horseshoe\nbox = 0,1,0,1\nn_seeds = 0\n"),
    # census settings without the census box
    ("horseshoe", "map = model_horseshoe\nk_max = 2\n"),
    ("horseshoe", "map = model_horseshoe\nn_seeds = 3\n"),
    ("hypothesis", PIONEER + "search_radius = -1\n"),
    ("hypothesis", PIONEER + "search_radius = 0\n"),
    ("hypothesis", PIONEER + "search_radius = inf\n"),
    ("hypothesis", PIONEER + "grid = 1\n"),
    ("orbit", PIONEER + "window = -5,5,-5\n"),
    ("sweep", CONTRACT["sweep"][0] + "lyap_n = 50\n"),
    ("lyapunov", PIONEER + "lyap_n = 50\n"),
    ("trellis", CONTRACT["trellis"][0] + "tol = 0\n"),
    ("trellis", CONTRACT["trellis"][0] + "arc_budget = -4\n"),
    ("trellis", CONTRACT["trellis"][0] + "period = 0\n"),
    ("orbit", PIONEER + "n_transient = -1\n"),
    ("orbit", PIONEER + "n_keep = 0\n"),
    ("orbit", "map = gauss_rotation\na = nan\ntheta = 0.5\n"),
    ("orbit", PIONEER + "x0 = nan,0.1\n"),
    ("horseshoe", "map = model_horseshoe\nframe = nan,0,0,1\n"),
    # schedules too long to hold, and family ranges the library states
    ("sweep", "map = gauss_rotation\ntheta = 0.5\nparam = a\n"
              "start = -1e308\nstop = 1e308\nstep = 1\n"),
    ("sweep", "map = gauss_rotation\ntheta = 0.5\nparam = a\n"
              "start = 0\nstop = 1\nstep = 1e-300\n"),
    ("orbit", "map = radial_tent\nslope_in = 0\n"),
    ("orbit", "map = radial_tent\nzeta = 0\n"),
    ("orbit", "map = gauss_rotation\na = -1\ntheta = 0.5\n"),
    ("orbit", "map = radial_tent\nalpha0 = 0\n"),
    ("orbit", "map = radial_tent\nalpha0 = -0.1\n"),
    ("horseshoe", "map = model_horseshoe\nbox = 0,0,0,0\n"),
    ("horseshoe", "map = model_horseshoe\nbox = 0,1,1,0\n"),
    # values that only a family builder or the frame rejects, before any
    # output: a singular frame, an alpha0 too large for the slopes
    ("orbit", "map = model_horseshoe\nframe = 1,2,2,4\n"),
    ("horseshoe", "map = model_horseshoe\nframe = 1,2,2,4\n"),
    ("trellis", "map = model_horseshoe\nframe = 1,2,2,4\n"
                "saddle_seed = 0.05,0.02\n"),
    ("horseshoe", "map = gauss_rotation\na = 2.7\ntheta = 0.5\n"
                  "frame = 1,2,2,4\n"),
    ("orbit", "map = radial_tent\nalpha0 = 0.9\n"),
    ("hypothesis", "map = radial_tent\nalpha0 = 0.9\n"),
    # a raster window of reversed bounds, before any output
    ("orbit", CONTRACT["orbit"][0] + "window = 1,0,0,1\n"),
    ("sweep", CONTRACT["sweep"][0] + "window = 1,0,0,1\n"),
    ("trellis", CONTRACT["trellis"][0] + "window = 0,1,1,1\n"),
    # a bifurcation schedule of fewer than 100 values, before any work
    ("bifurcation", "map = gauss_rotation\ntheta = 0.5\nparam = a\n"
                    "start = 2\nstop = 2.5\nstep = 0.1\n"),
])
def test_config_errors_exit_1(tmp_path, capsys, command, text):
    out = tmp_path / "run"
    assert main([command, "--config", write_cfg(tmp_path, "c.cfg", text),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not out.exists()


def test_param_may_name_a_float_key_with_a_range():
    # the schedule sets a swept key, so a value out of its range fails
    # that value only (CONTRACT's sweep "numeric" case sweeps a < 0)
    for family, key in [("gauss_rotation", "a"), ("radial_tent", "slope_in"),
                        ("radial_tent", "slope_out"), ("radial_tent", "zeta"),
                        ("radial_tent", "alpha0")]:
        cfg = cli.resolve("sweep", {"map": family, "theta": "0.5",
                                    "param": key, "start": "0", "stop": "1",
                                    "step": "1"})
        assert cfg["param"] == key


def test_flags_go_through_the_config_checks(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.cfg", PIONEER + "n_keep = 300\n"
                    "resolution = 8\n")
    out = tmp_path / "run"
    for jobs in ("0", "two"):
        assert main(["orbit", "--config", cfg, "--out", str(out),
                     "--jobs", jobs]) == 1
        assert capsys.readouterr().err == (
            f"config error: flag 'jobs' must be int >= 1; got {jobs!r}\n")
        assert not out.exists()
    assert main(["orbit", "--config", cfg, "--out", str(out),
                 "--jobs", "1"]) == 0
    assert (out / "orbit.csv").is_file()



@pytest.mark.parametrize("text, key", [
    (PIONEER + "xmin = -5\n", "xmin"),
    ("map = radial_tent\nmode = sink_origin\nalpha0 = 0.2\n", "mode"),
    (PIONEER + "out = elsewhere\n", "out"),
    (PIONEER + "jobs = 1\n", "jobs")])
def test_removed_and_flag_only_keys_are_unknown_in_a_config(tmp_path, capsys,
                                                           text, key):
    out = tmp_path / "run"
    assert main(["orbit", "--config", write_cfg(tmp_path, "c.cfg", text),
                 "--out", str(out), "--jobs", "1"]) == 1
    assert capsys.readouterr().err.startswith(
        f"config error: unknown config key {key!r} for orbit")
    assert not out.exists()


@pytest.mark.parametrize("command", ["orbit", "sweep", "trellis"])
def test_raster_window_is_one_checked_key(tmp_path, capsys, command):
    window = "-0.5,6,-1,7" if command != "trellis" else "-0.2,0.3,-0.2,0.3"
    out = tmp_path / "run"
    base = CONTRACT[command][0]
    assert main([command, "--config",
                 write_cfg(tmp_path, "c.cfg", f"{base}window = {window}\n"),
                 "--out", str(out), "--jobs", "1"]) == 0
    name = {"orbit": "orbit", "sweep": "cloud_000",
            "trellis": "trellis"}[command]
    lines = (out / f"{name}.csv").read_text().splitlines()[1:]
    pts = np.array([[float(v) for v in line.split(",")[1:]]
                    for line in lines])
    render_raster(pts, np.array(window.split(","), float).reshape(2, 2), 8,
                  tmp_path / "want.pgm")
    assert (out / f"{name}.pgm").read_bytes() == \
        (tmp_path / "want.pgm").read_bytes()
    reversed_out = tmp_path / "reversed"
    assert main([command, "--config",
                 write_cfg(tmp_path, "r.cfg", base + "window = 1,0,0,1\n"),
                 "--out", str(reversed_out)]) == 1
    assert capsys.readouterr().err == (
        "config error: config key 'window' must be float[4] "
        "lo,hi,lo,hi with lo < hi; got '1,0,0,1'\n")
    assert not reversed_out.exists()


def test_sweep_value_reports_numeric_failures_only(tmp_path, monkeypatch):
    # an error that is no numeric failure ends the run; it is not written
    # as a value's error status
    def not_implemented(*args, **kwargs):
        raise NotImplementedError("box counting")

    monkeypatch.setattr(cli, "box_counting_dimension", not_implemented)
    out = tmp_path / "run"
    with pytest.raises(NotImplementedError, match="box counting"):
        main(["sweep", "--config",
              write_cfg(tmp_path, "s.cfg", CONTRACT["sweep"][0]),
              "--out", str(out), "--jobs", "1"])
    assert not (out / "summary.csv").exists()

def test_resolve_fills_typed_defaults():
    cfg = cli.resolve("orbit", {"map": "pioneer_climax_mixed", "a": "3",
                                "b": "2.5", "n_keep": "1_000"})
    assert cfg["a"] == 3.0 and cfg["b"] == 2.5 and cfg["n_keep"] == 1000
    assert cfg["n_transient"] == 10_000 and cfg["resolution"] == 1024
    np.testing.assert_array_equal(cfg["x0"], [0.5, 0.5])
    assert cfg["window"] is None and cfg["out"] == "runs" and cfg["jobs"] >= 1
    cfg = cli.resolve("orbit", {"map": "pioneer_climax_mixed", "a": "3",
                                "b": "2.5", "window": "-1,2,0,3"},
                      {"out": "elsewhere", "jobs": "3"})
    np.testing.assert_array_equal(cfg["window"], [-1, 2, 0, 3])
    assert cfg["out"] == "elsewhere" and cfg["jobs"] == 3
    cfg = cli.resolve("sweep", {"map": "gauss_rotation", "param": "theta",
                                "a": "4.4", "start": "0", "stop": "1",
                                "step": "0.5"})
    assert cfg["theta"] is None   # the schedule sets it
    assert cfg["literal_rotation"] is False
    np.testing.assert_array_equal(cfg["x0"], [0.3, 0.1])


def readme_key_rows():
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| keys of | key | type | default |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append(tuple(c.strip().strip("`") for c in line.strip("|")
                          .split("|")))
    return rows


def test_readme_config_table_matches_schema():
    tables = [("every command", cli.COMMON)]
    tables += [(name, c.keys) for name, c in cli.COMMANDS.items()]
    tables += [(name, f.keys) for name, f in cli.FAMILIES.items()]
    want = [(owner, key) for owner, keys in tables for key in keys]
    rows = readme_key_rows()
    assert [(owner, key) for owner, key, _, _ in rows] == want
    for owner, key, type_name, default in rows:
        spec = dict(tables)[owner][key]
        assert type_name == spec.type.name, (owner, key)
        if spec.default is cli.REQUIRED:
            assert default == "required", (owner, key)
        elif spec.default is None:
            assert default == "unset", (owner, key)
        elif callable(spec.default):
            assert default == spec.default.__doc__, (owner, key)
        else:
            assert spec.type.parse(default) == spec.default, (owner, key)


def test_readme_csv_block_size_matches_the_writer():
    text = " ".join((Path(__file__).parents[1] / "README.md").read_text()
                    .split())
    sizes = re.findall(r"(\d[\d ]*) rows per block", text)
    assert [int(n.replace(" ", "")) for n in sizes] == [cli.CSV_CHUNK_ROWS]


@pytest.mark.parametrize("command, n_scales", [
    ("sweep", 3), ("sweep", 30), ("sweep", 62), ("boxdim", 4),
    ("boxdim", 30), ("boxdim", 100)])
def test_n_scales_out_of_range_exits_1_before_any_work(tmp_path, capsys,
                                                      command, n_scales):
    out = tmp_path / "run"
    text = CONTRACT[command][0] + f"n_scales = {n_scales}\n"
    assert main([command, "--config", write_cfg(tmp_path, "c.cfg", text),
                 "--out", str(out)]) == 1
    assert "'n_scales' must be int 5..29" in capsys.readouterr().err
    assert not out.exists()
