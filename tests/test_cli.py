"""End-to-end command tests through main(); artifact and exit-code checks."""

import numpy as np
import pytest

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
    name, vals = _schedule({"param": "a", "start": "2.7", "stop": "5.4",
                            "step": "0.9"})
    assert name == "a"
    np.testing.assert_allclose(vals, [2.7, 3.6, 4.5, 5.4])
    _, vals = _schedule({"param": "a", "start": "2.7", "stop": "5.39",
                         "step": "0.9"})
    assert len(vals) == 3
    with pytest.raises(ConfigError):
        _schedule({"param": "a", "start": "1", "stop": "2", "step": "0"})
    with pytest.raises(ConfigError):
        _schedule({"param": "a", "start": "3", "stop": "2", "step": "1"})


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


def test_write_rows_matches_per_value_format(tmp_path):
    n = 2 * cli.CSV_CHUNK_ROWS + 5
    rows = [(i, 0.1 * i, np.float64(1.0 / (i + 3)), f"s{i}")
            for i in range(n)]
    rows[1] = (1, float("nan"), np.float64(-0.0), "")
    rows[2] = (2, 1e300, np.float64(float("-inf")), "x y")
    path = tmp_path / "mixed.csv"
    cli._write_rows(path, "i,a,b,s", rows)
    assert path.read_bytes() == per_value_csv("i,a,b,s", rows)
    cli._write_rows(path, "i,a,b,s", [])
    assert path.read_bytes() == b"i,a,b,s\n"


def test_write_cloud_csv_matches_per_value_format(tmp_path):
    rng = np.random.default_rng(3)
    clouds = [rng.normal(size=(cli.CSV_CHUNK_ROWS + 7, 2)),
              rng.integers(-5, 5, size=(40, 3)),
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
    short = write_cfg(tmp_path, "short.cfg", """
map = gauss_rotation
a = 2.7
theta = 0.5
n_transient = 10
n_keep = 50
""")
    # too few points for period detection: numeric failure, not a crash
    assert main(["orbit", "--config", short,
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
