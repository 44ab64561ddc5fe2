"""Command line behaviour: files, stdout, exit codes, determinism.

All invocations go through main(argv) in process.
"""

import csv
import re
import warnings

import numpy as np
import pytest

from uavcov.cli import main
from uavcov.config import load_config
from uavcov.coverage import LinkDirection, coverage_at_altitude

TINY = """
[layout]
radius_m = 500
[sampling]
resolution = 2
altitude_min_m = 50
altitude_max_m = 150
altitude_points = 3
[algorithm]
lattice_target_c0 = 200
"""


def write_cfg(tmp_path, body, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def read_rows(path):
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, [row for row in reader if row]


def test_layout_command(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "[layout]\nradius_m = 1500\n")
    rc = main(["layout", "--config", cfg_path, "--out", str(tmp_path)])
    assert rc == 0
    out = tmp_path / "layout.csv"
    first = out.read_text().splitlines()[0]
    assert first == f"# config_sha256={load_config(cfg_path).config_hash}"
    header, rows = read_rows(out)
    assert header == ["id", "x_m", "y_m", "band"]
    assert len(rows) == 37
    assert "37 sites" in capsys.readouterr().out


def test_layout_single_site(tmp_path):
    cfg_path = write_cfg(tmp_path, "[layout]\nradius_m = 0\n")
    assert main(["layout", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    _, rows = read_rows(tmp_path / "layout.csv")
    assert len(rows) == 1
    assert rows[0][:1] == ["0"]


def test_bad_config_exits_2(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "[layout]\nradius = 5\n")
    assert main(["layout", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.ini")
    assert main(["layout", "--config", missing, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, body", [
    ("downlink-map", "[thresholds]\ndownlink_snr_db = nan\n"),
    ("layout", "[layout]\ninter_site_distance_m = nan\n"),
    ("uplink-map", "[sampling]\nresolution = 0\n"),
    ("uplink-map", "[gbs_antenna]\nelement_count = 0\n"),
    ("uplink-map", "[layout]\ninter_site_distance_m = 0\n"),
    ("uplink-map", "[layout]\nreuse_factor = 2\n"),
    ("uplink-map", "[uav_antenna]\nhalf_beamwidth_deg = 0\n"),
    ("uplink-map", "[radio]\ncarrier_hz = 0\n"),
    ("uplink-map", "[loading]\nomega_site_999 = 0.5\n"),   # default layout: ids 0..366
    ("uplink-map", "[layout]\nsites_csv = {tmp}/sites/empty.csv\n"),   # header, no sites
    ("uplink-map", "[layout]\nsites_csv = {tmp}/sites/nan.csv\n"),
    ("uplink-map", "[layout]\nsites_csv = {tmp}/sites/inf.csv\n"),
    # the spacing sizes the sampling region even where the sites come from a file
    ("uplink-map", "[layout]\nsites_csv = {tmp}/sites/three.csv\ninter_site_distance_m = 0\n"),
    ("coverage-curve", "[sampling]\naltitude_min_m = 10\n"),   # below the GBS antennas
])
def test_out_of_domain_config_values_exit_2(tmp_path, capsys, command, body):
    (tmp_path / "sites").mkdir()
    header = "id,x_m,y_m,band\n"
    for name, x in (("empty", None), ("nan", "nan"), ("inf", "inf"), ("three", "1000.0")):
        rows = "" if x is None else f"0,0.0,0.0,0\n1,500.0,0.0,1\n2,{x},0.0,2\n"
        (tmp_path / "sites" / f"{name}.csv").write_text(header + rows)
    cfg_path = write_cfg(tmp_path, body.format(tmp=tmp_path))
    assert main([command, "--config", cfg_path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert body.splitlines()[0] in err              # the message names its section
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv", [
    ["uplink-map", "--workers", "0"],
    ["uplink-map", "--workers", "-3"],
    ["coverage-curve", "--sweep", "threshold", "--points", "0"],
    ["interference-cdf", "--methods", "mc", "--seed", "1", "--samples", "0"],
    ["validate", "--mode", "la-vs-mc", "--seed", "1", "--samples", "0"],
    ["coverage-curve", "--sweep", "threshold", "--min-db", "nan"],
    ["coverage-curve", "--sweep", "threshold", "--max-db", "inf"],
    # finite, but 10^(dB/10) underflows to 0 or overflows
    ["coverage-curve", "--link", "downlink", "--sweep", "threshold", "--min-db", "-4000"],
    ["coverage-curve", "--link", "uplink", "--sweep", "threshold", "--min-db", "-4000"],
    ["coverage-curve", "--link", "downlink", "--sweep", "threshold", "--max-db", "4000"],
    ["coverage-curve", "--link", "uplink", "--sweep", "threshold", "--max-db", "4000"],
    ["coverage-curve", "--sweep", "threshold", "--altitude", "inf"],
    ["uplink-map", "--altitude", "nan"],
    ["validate", "--mode", "la-vs-mc", "--seed", "1", "--tolerance", "nan"],
    ["validate", "--mode", "la-vs-enum", "--tolerance", "-0.01"],
])
def test_out_of_range_counts_are_usage_errors(tmp_path, capsys, argv):
    # the offending option and its value close every argv above
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    want = "must be >= 1" if argv[-2] in ("--workers", "--points", "--samples") \
        else "must be a finite number"
    assert f"argument {argv[-2]}: {want}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_argparse_usage_error():
    with pytest.raises(SystemExit):
        main(["validate"])          # --mode is required


def test_uplink_map_matches_direct_call(tmp_path):
    cfg_path = write_cfg(tmp_path, "[layout]\nradius_m = 500\n[sampling]\nresolution = 1\n")
    rc = main(["uplink-map", "--config", cfg_path, "--out", str(tmp_path),
               "--altitude", "120"])
    assert rc == 0
    header, rows = read_rows(tmp_path / "uplink_map.csv")
    assert header == ["x_m", "y_m", "non_outage_prob"]
    cfg = load_config(cfg_path)
    direct = coverage_at_altitude(
        cfg, LinkDirection.UPLINK, altitude=120.0, thresholds=[cfg.uplink_threshold]
    )
    assert len(rows) == len(direct.points) == 1
    x, y, p = map(float, rows[0])
    assert (x, y) == pytest.approx(tuple(direct.points[0]), rel=1e-11)
    assert p == pytest.approx(direct.non_outage[0, 0], rel=1e-11, abs=1e-11)


def test_downlink_map_matches_direct_call(tmp_path):
    cfg_path = write_cfg(tmp_path, TINY + "[loading]\ndownlink_omega = 0.3\n")
    rc = main(["downlink-map", "--config", cfg_path, "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_rows(tmp_path / "downlink_map.csv")
    cfg = load_config(cfg_path)
    direct = coverage_at_altitude(
        cfg, LinkDirection.DOWNLINK, altitude=cfg.uav_altitude,
        thresholds=[cfg.downlink_threshold],
    )
    got = np.array([float(r[2]) for r in rows])
    np.testing.assert_allclose(got, direct.non_outage[0], rtol=1e-11, atol=1e-11)


def test_map_below_gbs_height_exits_1(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, TINY)
    rc = main(["uplink-map", "--config", cfg_path, "--out", str(tmp_path),
               "--altitude", "10"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_worker_count_does_not_change_output(tmp_path):
    cfg_path = write_cfg(tmp_path, TINY + "[loading]\nomega_site_1 = 0.9\n")
    commands = [("downlink_map.csv", ["downlink-map"])] + [
        ("coverage_curve.csv", ["coverage-curve", "--link", link, "--sweep", sweep,
                                "--min-db", "-10", "--max-db", "10", "--points", "5"])
        for link in ("uplink", "downlink") for sweep in ("threshold", "altitude")
    ]
    for i, (name, argv) in enumerate(commands):
        out1 = tmp_path / f"serial{i}"
        out2 = tmp_path / f"parallel{i}"
        assert main(argv + ["--config", cfg_path, "--out", str(out1)]) == 0
        assert main(argv + ["--config", cfg_path, "--out", str(out2), "--workers", "2"]) == 0
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), argv


def test_coverage_curve_threshold_sweep(tmp_path):
    cfg_path = write_cfg(tmp_path, "[layout]\nradius_m = 500\n[sampling]\nresolution = 1\n")
    rc = main(["coverage-curve", "--config", cfg_path, "--out", str(tmp_path),
               "--link", "uplink", "--sweep", "threshold",
               "--min-db", "-40", "--max-db", "20", "--points", "7"])
    assert rc == 0
    header, rows = read_rows(tmp_path / "coverage_curve.csv")
    assert header == ["threshold_db", "coverage"]
    cov = [float(r[1]) for r in rows]
    assert len(cov) == 7
    assert all(a >= b for a, b in zip(cov, cov[1:]))   # harder threshold, less coverage
    assert cov[0] > 0.0                                # sanity: sweep is not all-zero


def test_threshold_sweep_where_c_overflows_is_covered(tmp_path, capsys):
    # at -3200 dB the linear thresholds are subnormal, so C / y overflows
    # to c = +inf, the exact limit: P{I >= inf} = 0, coverage 1
    cfg_path = write_cfg(tmp_path, TINY)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["coverage-curve", "--config", cfg_path, "--out", str(tmp_path),
                   "--link", "downlink", "--sweep", "threshold",
                   "--min-db", "-3200", "--max-db", "-3100", "--points", "3"])
    assert rc == 0
    assert "Warning" not in capsys.readouterr().err
    _, rows = read_rows(tmp_path / "coverage_curve.csv")
    assert [float(r[0]) for r in rows] == [-3200.0, -3150.0, -3100.0]
    assert [float(r[1]) for r in rows] == [1.0, 1.0, 1.0]


def test_coverage_curve_altitude_sweep(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, TINY.replace("resolution = 2", "resolution = 1"))
    rc = main(["coverage-curve", "--config", cfg_path, "--out", str(tmp_path),
               "--link", "downlink", "--sweep", "altitude"])
    assert rc == 0
    _, rows = read_rows(tmp_path / "coverage_curve.csv")
    alts = np.array([float(r[0]) for r in rows])
    cov = np.array([float(r[1]) for r in rows])
    np.testing.assert_allclose(alts, [50.0, 100.0, 150.0])
    stdout = capsys.readouterr().out
    match = re.search(r"coverage=([0-9eE.+-]+)", stdout)
    assert match is not None
    want = np.trapezoid(cov, alts) / (alts[-1] - alts[0])
    assert float(match.group(1)) == pytest.approx(float(want), rel=1e-9, abs=1e-11)


def test_interference_cdf_methods(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, TINY)
    rc = main(["interference-cdf", "--config", cfg_path, "--out", str(tmp_path),
               "--methods", "la,enum,mc,ga", "--samples", "5000", "--seed", "3"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "event 0" in stdout
    cfg_hash = load_config(cfg_path).config_hash
    for method in ("la", "enum", "mc", "ga"):
        path = tmp_path / f"interference_cdf_{method}.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == f"# config_sha256={cfg_hash}"
        assert lines[1] == "x,cdf"
        values = [float(line.split(",")[1]) for line in lines[2:]]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-6)


def test_interference_cdf_usage_errors(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, TINY)
    assert main(["interference-cdf", "--config", cfg_path, "--out", str(tmp_path),
                 "--methods", "mc", "--samples", "100"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert main(["interference-cdf", "--config", cfg_path, "--out", str(tmp_path),
                 "--methods", "spline"]) == 2
    assert main(["interference-cdf", "--config", cfg_path, "--out", str(tmp_path),
                 "--event", "99"]) == 2


def test_validate_uplink_passes(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, TINY)
    rc = main(["validate", "--config", cfg_path, "--mode", "uplink-vs-bruteforce"])
    assert rc == 0
    assert "PASS uplink-vs-bruteforce" in capsys.readouterr().out


def test_validate_ga_vs_enum(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, TINY)
    rc = main(["validate", "--config", cfg_path, "--mode", "ga-vs-enum"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS ga-vs-enum" in out


def test_validate_tolerance_override(tmp_path, capsys):
    # 1000 samples leave the MC law 0.0127 beyond the lattice displacement
    cfg_path = write_cfg(tmp_path, TINY)
    mc = ["validate", "--config", cfg_path, "--mode", "la-vs-mc",
          "--samples", "1000", "--seed", "1"]
    assert main(mc + ["--tolerance", "1.0"]) == 0
    assert main(mc + ["--tolerance", "1e-15"]) == 1
    out = capsys.readouterr().out
    assert "PASS la-vs-mc" in out and "FAIL la-vs-mc" in out


def test_validate_la_vs_enum_passes_on_37_sites(tmp_path, capsys):
    # the plain sup distance here is 0.080, the mass of one displaced atom
    cfg_path = write_cfg(tmp_path, "[layout]\nradius_m = 1500\n")
    assert main(["validate", "--config", cfg_path, "--mode", "la-vs-enum"]) == 0
    out = capsys.readouterr().out
    assert "11 co-channel GBSs" in out and "PASS la-vs-enum" in out


def test_validate_mc_requires_seed(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, TINY)
    assert main(["validate", "--config", cfg_path, "--mode", "la-vs-mc",
                 "--samples", "1000"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_validate_downlink_joint_enum_runs(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, TINY)
    rc = main(["validate", "--config", cfg_path, "--mode", "downlink-vs-joint-enum"])
    out = capsys.readouterr().out
    assert rc in (0, 1)
    assert "downlink-vs-joint-enum: Kolmogorov distance=" in out


def test_layout_csv_feeds_sites_csv(tmp_path):
    cfg_path = write_cfg(tmp_path, "[layout]\nradius_m = 1000\n")
    first = tmp_path / "first"
    assert main(["layout", "--config", cfg_path, "--out", str(first)]) == 0
    reread = write_cfg(
        tmp_path, f"[layout]\nsites_csv = {first / 'layout.csv'}\n", name="reread.ini"
    )
    second = tmp_path / "second"
    assert main(["layout", "--config", reread, "--out", str(second)]) == 0
    a = (first / "layout.csv").read_text().splitlines()[1:]
    b = (second / "layout.csv").read_text().splitlines()[1:]
    assert a == b
