"""End-to-end command tests through main(); artifact and exit-code checks."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attractorlab import cli, horseshoe
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


def test_orbit_literal_rotation_flag(tmp_path):
    cfg = write_cfg(tmp_path, "flag.cfg", """
map = gauss_rotation
a = 2.7
theta = 0.6180339887498949
n_transient = 50
n_keep = 300
resolution = 16
""")
    out = tmp_path / "run"
    assert main(["orbit", "--config", cfg, "--out", str(out),
                 "--literal-rotation"]) == 0
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
              adversarial_floats()[:30_000].reshape(-1, 3),
              rng.integers(-5, 5, size=(40, 3)),
              np.array([[0.25, -1e-7]]),
              np.empty((0, 2))]
    path = tmp_path / "cloud.csv"
    for pts in clouds:
        cli.write_cloud_csv(path, pts)
        header = "i," + ",".join(f"x{j + 1}" for j in range(pts.shape[1]))
        rows = [(i, *map(float, p)) for i, p in enumerate(pts)]
        assert path.read_bytes() == per_value_csv(header, rows)


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


def test_horseshoe_on_a_population_map_prints_no_warnings(tmp_path, capsys):
    # Newton iterates leave the positivity cone, where the pioneer step
    # overflows; the built-in handle returns inf/nan without warnings
    # (pyproject.toml turns any RuntimeWarning into an error)
    cfg = write_cfg(tmp_path, "hs.cfg", PIONEER + "sampling = 8\n"
                    "box = 0,8,0,8\nn_seeds = 3\n")
    assert main(["horseshoe", "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().err == ""


def test_bifurcation_csv_matches_per_value_format(tmp_path):
    text = CONTRACT["bifurcation"][0] + "projection = 1\n"
    out = tmp_path / "run"
    assert main(["bifurcation", "--config",
                 write_cfg(tmp_path, "b.cfg", text), "--out", str(out)]) == 0
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


# the config contract, command by command: (ok config, misspelt key line,
# the key its message must name, badly typed line, lines that turn the ok
# config into a numeric failure, an out-of-range value or an incomplete
# raster window).  hypothesis and horseshoe have no
# numeric failure to reach: their batteries report fail or inconclusive
# rows instead of raising.
PIONEER = "map = pioneer_climax_full\na = 3\nb = 3\n"
OUTSIDE_CONE = "x0 = -1,0.5\n"   # the pioneer orbit overflows
CONTRACT = {
    "sweep": ("map = gauss_rotation\ntheta = 0.5\nparam = a\nstart = 2.7\n"
              "stop = 3.6\nstep = 0.9\nn_transient = 10\nn_keep = 1000\n"
              "lyap_n = 200\nresolution = 8\njobs = 1\n",
              "lyap_m = 200\n", "lyap_n", "n_keep = many\n",
              "start = -0.5\n", "xmin = -5\n"),
    "orbit": (PIONEER + "n_transient = 10\nn_keep = 300\nresolution = 8\n",
              "n_kepe = 300\n", "n_keep", "resolution = big\n",
              OUTSIDE_CONE, "xmin = -5\nymax = 2\n"),
    "lyapunov": (PIONEER + "n_transient = 10\nlyap_n = 200\n",
                 "lyap_m = 200\n", "lyap_n", "lyap_n = 1.5\n",
                 OUTSIDE_CONE, "jobs = 0\n"),
    "boxdim": (PIONEER + "n_transient = 10\nn_keep = 1000\n",
               "n_scale = 8\n", "n_scales", "n_scales = x\n", OUTSIDE_CONE,
               "jobs = 0\n"),
    "hypothesis": ("map = gauss_rotation\na = 2.7\ntheta = 0.5\ngrid = 16\n",
                   "gird = 16\n", "grid", "grid = 1e3\n", None,
                   "search_radius = nan\n"),
    "horseshoe": ("map = model_horseshoe\nsampling = 8\n",
                  "samplng = 8\n", "sampling", "box = 1,2\n", None,
                  "sampling = 1\n"),
    "trellis": ("map = model_horseshoe\nsaddle_seed = 0.05,0.02\n"
                "arc_budget = 4\nresolution = 8\n",
                "arc_budgte = 4\n", "arc_budget", "saddle_seed = 0.05\n",
                "saddle_seed = 0.1,-4.0\n", "ymin = 0\n"),
    "bifurcation": ("map = gauss_rotation\ntheta = 0.5\nparam = a\n"
                    "start = 2.0\nstop = 2.99\nstep = 0.01\n"
                    "bif_transient = 10\nbif_keep = 2\njobs = 1\n",
                    "bif_kep = 2\n", "bif_keep", "projection = 5\n",
                    "start = -0.5\nstop = 0.49\n", "jobs = 0\n"),
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
                 "--out", str(out)])
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
    ("orbit", "map = radial_tent\nmode = spiral\n"),
    ("orbit", "map = gauss_rotation\na = 2.7\ntheta = 0.5\n"
              "literal_rotation = maybe\n"),
    # keys of another family, or of none
    ("orbit", PIONEER + "literal_rotation = true\n"),
    ("orbit", PIONEER + "theta = 0.5\n"),
    ("orbit", "map = gauss_rotation\na = 2.7\ntheta = 0.5\nseed = 3\n"),
    ("hypothesis", PIONEER + "n_keep = 300\n"),
    # out of the ranges the library states, or an incomplete raster window
    ("horseshoe", "map = model_horseshoe\nsampling = 0\n"),
    ("horseshoe", "map = model_horseshoe\nbox = 0,1,0,1\nk_max = 0\n"),
    ("horseshoe", "map = model_horseshoe\nbox = 0,1,0,1\nn_seeds = 0\n"),
    ("hypothesis", PIONEER + "search_radius = -1\n"),
    ("hypothesis", PIONEER + "search_radius = 0\n"),
    ("hypothesis", PIONEER + "search_radius = inf\n"),
    ("hypothesis", PIONEER + "grid = 1\n"),
    ("orbit", PIONEER + "xmin = -5\nxmax = 5\nymin = -5\n"),
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
])
def test_config_errors_exit_1(tmp_path, capsys, command, text):
    out = tmp_path / "run"
    assert main([command, "--config", write_cfg(tmp_path, "c.cfg", text),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not out.exists()


def test_flags_go_through_the_config_checks(tmp_path, capsys):
    elsewhere = tmp_path / "elsewhere"
    cfg = write_cfg(tmp_path, "c.cfg", PIONEER + "n_keep = 300\n"
                    f"resolution = 8\nout = {elsewhere}\n")
    out = tmp_path / "run"
    for flags in (["--jobs", "0"], ["--jobs", "two"], ["--literal-rotation"]):
        assert main(["orbit", "--config", cfg, "--out", str(out),
                     *flags]) == 1
        assert "config key" in capsys.readouterr().err
    # --out wins over the config key
    assert main(["orbit", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "orbit.csv").is_file()
    assert not elsewhere.exists()


def test_resolve_fills_typed_defaults():
    cfg = cli.resolve("orbit", {"map": "pioneer_climax_mixed", "a": "3",
                                "b": "2.5", "n_keep": "1_000"})
    assert cfg["a"] == 3.0 and cfg["b"] == 2.5 and cfg["n_keep"] == 1000
    assert cfg["n_transient"] == 10_000 and cfg["resolution"] == 1024
    np.testing.assert_array_equal(cfg["x0"], [0.5, 0.5])
    assert cfg["xmin"] is None and cfg["out"] == "runs" and cfg["jobs"] >= 1
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


@pytest.mark.parametrize("command, n_scales", [
    ("sweep", 3), ("sweep", 62), ("boxdim", 4), ("boxdim", 100)])
def test_n_scales_out_of_range_exits_1_before_any_work(tmp_path, capsys,
                                                      command, n_scales):
    out = tmp_path / "run"
    text = CONTRACT[command][0] + f"n_scales = {n_scales}\n"
    assert main([command, "--config", write_cfg(tmp_path, "c.cfg", text),
                 "--out", str(out)]) == 1
    assert "'n_scales' must be int 5..61" in capsys.readouterr().err
    assert not out.exists()
