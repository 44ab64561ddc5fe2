"""Command line behaviour: files, stdout, exit codes, determinism.

All invocations go through main(argv) in process.
"""

import csv
import re
import warnings

import numpy as np
import pytest

from conftest import counted_mixture_builds
from uavcov import cli, coverage
from uavcov.cli import build_parser, main
from uavcov.config import load_config
from uavcov.coverage import LinkDirection, coverage_at_altitude
from uavcov.geometry import sample_region

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
    # a dB entry whose linear value overflows or underflows to 0
    ("layout", "[thresholds]\nuplink_snr_db = 4000\n"),
    ("layout", "[radio]\nuav_power_dbm = 4000\n"),
    ("layout", "[channel]\nexcess_loss_los_db = -4000\n"),
    ("downlink-map", "[thresholds]\ndownlink_snr_db = -4000\n"),
    # valid powers whose ratio beta0 or alpha0 overflows or underflows: the
    # first read coverage 1 and exited 0, the second exited 1
    ("uplink-map", "[radio]\nuav_power_dbm = 3000\nnoise_power_dbm = -3000\n"),
    ("downlink-map", "[radio]\ngbs_power_w = 1e300\nnoise_power_dbm = -3000\n"),
    ("uplink-map", "[radio]\nuav_power_dbm = -3000\nnoise_power_dbm = 3000\n"),
    ("downlink-map", "[radio]\ngbs_power_w = 1e-300\nnoise_power_dbm = 3000\n"),
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


@pytest.mark.parametrize("body, message", [
    ("[gbs_antenna]\nelement_count = 0\n", "[gbs_antenna] element_count must be >= 1, got 0"),
    ("[gbs_antenna]\nelement_spacing_wl = 0\n",
     "[gbs_antenna] element_spacing_wl must be positive, got 0.0"),
    ("[gbs_antenna]\ndowntilt_deg = 90\n",
     "[gbs_antenna] downtilt_deg must lie in (-90, 90), got 90.0"),
    ("[gbs_antenna]\nelement_peak_gain = 0\n",
     "[gbs_antenna] element_peak_gain must be positive, got 0.0"),
    ("[uav_antenna]\nhalf_beamwidth_deg = 95\n",
     "[uav_antenna] half_beamwidth_deg must lie in (0, 90] degrees, got 95.0"),
    ("[uav_antenna]\nmainlobe_constant = 0\n",
     "[uav_antenna] mainlobe_constant must be positive, got 0.0"),
    ("[uav_antenna]\nbacklobe_gain = -1\n",
     "[uav_antenna] backlobe_gain must be non-negative, got -1.0"),
    ("[sampling]\nresolution = 0\n", "[sampling] resolution must be >= 1, got 0"),
    ("[layout]\nradius_m = -1\n", "[layout] radius_m must be non-negative, got -1.0"),
    ("[layout]\nreuse_factor = 2\n",
     "[layout] reuse_factor must be one of (1, 3, 4, 7), got 2"),
    # a message that names several keys passes through as it is
    ("[channel]\nalpha_los = 0\n",
     "[channel] pathloss exponents must satisfy 0 < alpha_los <= alpha_nlos, got 0.0, 2.0"),
    # two keys that name one GBS
    ("[loading]\nomega_site_7 = 0.9\nomega_site_07 = 0.1\n",
     "[loading] omega_site_7 and omega_site_07 both name GBS 7"),
])
def test_constructor_errors_name_the_ini_key(tmp_path, capsys, body, message):
    cfg_path = write_cfg(tmp_path, body)
    assert main(["layout", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.strip() == f"config error: {message}"


def test_coefficients_file_errors_name_the_key(tmp_path, capsys):
    missing = tmp_path / "missing.ini"
    unknown = tmp_path / "unknown.ini"
    unknown.write_text(
        "[pathloss]\nalpha_los = 2.0\nalpha_nlos = 2.0\nref_gain_los = 1e-4\n"
        "ref_gain_nlos = 1e-6\nextra = 1\n"
        "[los_probability]\na = 9.6\nb_per_deg = 0.28\nmidpoint_deg = 9.6\n"
    )
    for path, message in (
        (missing, f"[channel] coefficients_file {missing}: cannot read the file"),
        (unknown, f"[channel] coefficients_file {unknown}: unknown key 'extra' in [pathloss] "
                  "(known: ['alpha_los', 'alpha_nlos', 'ref_gain_los', 'ref_gain_nlos'])"),
    ):
        cfg_path = write_cfg(tmp_path, f"[channel]\ncoefficients_file = {path}\n")
        assert main(["layout", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.strip() == f"config error: {message}"
    assert not list(tmp_path.glob("*.csv"))


COEFFICIENTS = (b"[pathloss]\nalpha_los = 2.1\nalpha_nlos = 2.4\nref_gain_los = 1.3e-4\n"
                b"ref_gain_nlos = 2.0e-6\n[los_probability]\na = 11.9\nb_per_deg = 0.13\n"
                b"midpoint_deg = 15.0\n")


@pytest.mark.parametrize("channel, radio, named", [
    ("los_a = 50\nexcess_loss_nlos_db = 3\n", "",
     "[channel] los_a, [channel] excess_loss_nlos_db"),
    ("", "[radio]\ncarrier_hz = 2e9\n", "[radio] carrier_hz"),   # its default, still refused
])
def test_channel_keys_next_to_a_coefficients_file_exit_2(tmp_path, capsys, channel, radio, named):
    # the coefficients file sets every channel coefficient: a shape key or
    # the carrier frequency next to it would be ignored, so it is refused
    coefficients = tmp_path / "coefficients.ini"
    coefficients.write_bytes(COEFFICIENTS)
    cfg_path = write_cfg(tmp_path, f"[channel]\ncoefficients_file = {coefficients}\n{channel}{radio}")
    assert main(["uplink-map", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.strip() == (
        f"config error: {named} cannot be set next to [channel] coefficients_file, "
        "which sets every channel coefficient"
    )
    assert not list(tmp_path.glob("*.csv"))
    # without the coefficients file the same keys shape the channel
    cfg_path = write_cfg(tmp_path, f"[channel]\ncoefficients_file =\n{channel}{radio}")
    assert main(["layout", "--config", cfg_path, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("which, body, named", [
    ("scenario", b"[channel]\nlos_midpoint_deg = inf\n", "los_midpoint_deg"),
    ("scenario", b"[channel]\nlos_a = nan\n", "los_a"),
    ("scenario", b"radius_m = 500\n", "{path}"),                        # no section header
    ("scenario", b"[layout]\nradius_m = 500\nradius_m = 600\n", "radius_m"),
    ("scenario", b"[layout]\nradius_m = 500\xff\n", "{path}"),           # not UTF-8
    ("scenario", b"[layout]\nradius = 500\n", "radius"),
    ("coefficients", COEFFICIENTS.replace(b"15.0", b"inf"), "midpoint_deg"),
    ("coefficients", COEFFICIENTS.replace(b"11.9", b"nan"), "[los_probability] a"),
    ("coefficients", COEFFICIENTS.replace(b"1.3e-4", b"inf"), "ref_gain_los"),
    ("coefficients", b"a = 11.9\n" + COEFFICIENTS, "{path}"),
    ("coefficients", COEFFICIENTS + b"a = 12\n", "'a'"),
    ("coefficients", COEFFICIENTS.replace(b"11.9", b"11.9\xff"), "{path}"),
    ("coefficients", COEFFICIENTS + b"c = 1\n", "'c'"),
    ("coefficients", COEFFICIENTS.replace(b"b_per_deg = 0.13\n", b""), "b_per_deg"),
], ids=["inf", "nan", "no-header", "duplicate", "undecodable", "unknown-key",
        "coeff-inf", "coeff-nan", "coeff-ref-gain-inf", "coeff-no-header", "coeff-duplicate",
        "coeff-undecodable", "coeff-unknown-key", "coeff-missing-key"])
def test_bad_input_file_exits_2(tmp_path, capsys, which, body, named):
    # the scenario INI and the coefficients file are read by the same rules
    path = tmp_path / f"{which}.ini"
    path.write_bytes(body)
    cfg_path = str(path) if which == "scenario" else write_cfg(
        tmp_path, f"[channel]\ncoefficients_file = {path}\n")
    assert main(["downlink-map", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert named.format(path=path) in lines[0]
    if which == "coefficients":
        assert lines[0].startswith(f"config error: [channel] coefficients_file {path}: ")
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
    ["interference-cdf", "--methods", "mc", "--seed", "-1"],
    ["validate", "--mode", "la-vs-mc", "--seed", "-1"],
])
def test_out_of_range_counts_are_usage_errors(tmp_path, capsys, argv):
    # the offending option and its value close every argv above
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    want = "must be >= 1" if argv[-2] in ("--workers", "--points", "--samples") \
        else "must be >= 0" if argv[-2] == "--seed" else "must be a finite number"
    assert f"argument {argv[-2]}: {want}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_argparse_usage_error(tmp_path, capsys):
    refused, unrecognized = [], []
    for argv in (
        ["validate"],                                   # --mode is required
        # each subcommand takes only the flags it reads
        ["layout", "--seed", "5"],
        ["validate", "--mode", "la-vs-enum", "--workers", "2"],
        # and each validate mode only the flags it reads
        ["validate", "--mode", "ga-vs-enum", "--tolerance", "0"],
        ["validate", "--mode", "uplink-vs-bruteforce", "--event", "99"],
        ["validate", "--mode", "downlink-vs-joint-enum", "--event", "0"],
        ["validate", "--mode", "la-vs-enum", "--samples", "1000"],
        ["validate", "--mode", "ga-vs-enum", "--samples", "1000"],
        ["validate", "--mode", "uplink-vs-bruteforce", "--samples", "1000"],
        ["validate", "--mode", "la-vs-enum", "--seed", "1"],
        # and an altitude sweep takes none of the threshold sweep's flags
        ["coverage-curve", "--sweep", "altitude", "--altitude", "120"],
        ["coverage-curve", "--sweep", "altitude", "--min-db", "0"],
        ["coverage-curve", "--sweep", "altitude", "--max-db", "20"],
        ["coverage-curve", "--sweep", "altitude", "--points", "10"],
        ["coverage-curve", "--link", "downlink", "--points", "3"],    # altitude by default
        ["coverage-curve", "--sweep", "altitude", "--points", "3"],
        ["validate", "--mode", "ga-vs-enum", "--tolerance", "0.1"],
        ["uplink-map", "--no-such-flag"],               # no parser defines it
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2, argv
        # every usage error is refused by the subcommand's own usage line:
        # a flag the subcommand has, the flags main refuses, and a flag
        # the subcommand's parser does not define at all
        err = capsys.readouterr().err
        assert err.startswith(f"usage: uavcov {argv[0]} [-h]"), argv
        if "unrecognized arguments" in err:
            unrecognized.append(argv)
        if "does not read" in err:
            refused.append(argv)
    assert unrecognized == [["layout", "--seed", "5"],
                            ["validate", "--mode", "la-vs-enum", "--workers", "2"],
                            ["uplink-map", "--no-such-flag"]]
    assert ["coverage-curve", "--sweep", "altitude", "--points", "3"] in refused
    assert ["validate", "--mode", "ga-vs-enum", "--tolerance", "0.1"] in refused
    assert not list(tmp_path.iterdir())


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


def test_altitude_at_or_below_gbs_height_exits_2(tmp_path, capsys):
    # as [uav] altitude_m at or below gbs_height_m does
    cfg_path = write_cfg(tmp_path, TINY)
    for argv in (["uplink-map", "--altitude", "10"], ["downlink-map", "--altitude", "20"],
                 ["coverage-curve", "--sweep", "threshold", "--altitude", "5"]):
        assert main(argv + ["--config", cfg_path, "--out", str(tmp_path)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: --altitude must exceed the GBS antenna height 20.0")
    assert not list(tmp_path.glob("*.csv"))


def test_worker_count_does_not_change_output(tmp_path, monkeypatch):
    # every pool pays, so each multi-position command goes through one
    monkeypatch.setattr(coverage, "POOL_START_S", 0.0)
    cfg_path = write_cfg(tmp_path, TINY + "[loading]\nomega_site_1 = 0.9\n")
    commands = [("downlink_map.csv", ["downlink-map"])] + [
        ("coverage_curve.csv", ["coverage-curve", "--link", link, *sweep])
        for link in ("uplink", "downlink") for sweep in (
            ["--sweep", "threshold", "--min-db", "-10", "--max-db", "10", "--points", "5"],
            ["--sweep", "altitude"],
        )
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


def test_threshold_sweep_flags_and_their_defaults(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, TINY)
    assert main(["coverage-curve", "--config", cfg_path, "--out", str(tmp_path),
                 "--sweep", "threshold"]) == 0
    _, rows = read_rows(tmp_path / "coverage_curve.csv")
    assert [float(r[0]) for r in rows] == pytest.approx(np.linspace(0.0, 20.0, 10), rel=1e-11)
    assert "at H_u=100 m" in capsys.readouterr().out      # [uav] altitude_m
    # an altitude sweep reads none of the four
    with pytest.raises(SystemExit) as exc:
        main(["coverage-curve", "--config", cfg_path, "--out", str(tmp_path / "a"),
              "--altitude", "120", "--min-db", "-5", "--max-db", "5", "--points", "3"])
    assert exc.value.code == 2
    assert ("coverage-curve --sweep altitude does not read --altitude, --min-db, --max-db, "
            "--points") in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_one_point_threshold_sweep_does_not_read_max_db(tmp_path, capsys):
    # np.linspace(min, max, 1) is [min]: a sweep of one threshold reads no
    # --max-db, so giving one is a usage error that writes nothing
    cfg_path = write_cfg(tmp_path, TINY)
    sweep = ["coverage-curve", "--config", cfg_path, "--sweep", "threshold", "--points", "1"]
    with pytest.raises(SystemExit) as exc:
        main(sweep + ["--out", str(tmp_path / "one"), "--min-db", "0", "--max-db", "20"])
    assert exc.value.code == 2
    assert "coverage-curve --points 1 does not read --max-db" in capsys.readouterr().err
    assert not (tmp_path / "one").exists()
    # negative control: without --max-db the one threshold is --min-db
    assert main(sweep + ["--out", str(tmp_path), "--min-db", "5"]) == 0
    _, rows = read_rows(tmp_path / "coverage_curve.csv")
    assert [float(r[0]) for r in rows] == [5.0]


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
        fields = [line.split(",") for line in lines[2:]]
        assert all(f"{float(v):.12g}" == v for row in fields for v in row)
        values = [float(cdf) for _, cdf in fields]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-6)
        if method != "ga":                  # stepped cdfs end at exactly 1
            assert fields[-1][1] == "1"


def test_interference_cdf_usage_errors(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, TINY)
    assert main(["interference-cdf", "--config", cfg_path, "--out", str(tmp_path),
                 "--methods", "mc", "--samples", "100"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert main(["interference-cdf", "--config", cfg_path, "--out", str(tmp_path),
                 "--methods", "spline"]) == 2
    assert main(["interference-cdf", "--config", cfg_path, "--out", str(tmp_path),
                 "--event", "99"]) == 2
    capsys.readouterr()
    assert main(["interference-cdf", "--config", cfg_path, "--out", str(tmp_path),
                 "--methods", ","]) == 2
    assert "choose from ('la', 'enum', 'mc', 'ga')" in capsys.readouterr().err
    # only the mc method reads --seed and --samples: a usage error otherwise
    for flags, unread in ((["--methods", "la", "--seed", "3", "--samples", "5"],
                           "--samples, --seed"),
                          (["--methods", "la,enum,ga", "--seed", "3"], "--seed"),
                          (["--samples", "5"], "--samples")):
        with pytest.raises(SystemExit) as exc:
            main(["interference-cdf", "--config", cfg_path, "--out", str(tmp_path), *flags])
        assert exc.value.code == 2
        assert f"without the mc method does not read {unread}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_interference_cdf_labels_the_event(tmp_path, capsys):
    # the 37-site scene at (0, 0, 100 m): event 0 is GBS 3 served in LoS,
    # event 37 the terminal event, served by GBS 3 at the best NLoS gain
    cfg_path = write_cfg(tmp_path, "[layout]\nradius_m = 1500\n[sampling]\nresolution = 1\n")
    for event, label in ((0, "LOS"), (37, "NLOS_MAX")):
        assert main(["interference-cdf", "--config", cfg_path, "--out", str(tmp_path),
                     "--methods", "la", "--event", str(event)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith(f"event {event}: serving GBS 3 ({label}),"), first
    assert main(["interference-cdf", "--config", cfg_path, "--out", str(tmp_path / "none"),
                 "--methods", "la", "--event", "38"]) == 2
    assert "38 association events" in capsys.readouterr().err
    assert not (tmp_path / "none").exists()


def test_interference_cdf_failure_writes_no_file(tmp_path, capsys):
    # the lattice law of the default scene's event 0 succeeds, but its 122
    # rows are far beyond the enumeration cap
    assert main(["interference-cdf", "--out", str(tmp_path), "--methods", "la,enum"]) == 1
    assert "above the cap" in capsys.readouterr().err
    assert not list(tmp_path.glob("interference_cdf_*.csv"))


def test_event_without_serving_gbs_exits_2(tmp_path, capsys):
    # a 1 degree beam at (250, 0) sees no site: the walk's one event has
    # no serving GBS, so no interference law exists
    cfg_path = write_cfg(
        tmp_path, "[uav_antenna]\nhalf_beamwidth_deg = 1\n[uav]\nx_m = 250\ny_m = 0\n"
    )
    for argv in (["interference-cdf"], ["validate", "--mode", "la-vs-enum"]):
        assert main(argv + ["--config", cfg_path, "--out", str(tmp_path)]) == 2, argv
        assert "selected association event has no serving GBS" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_validate_uplink_passes(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, TINY)
    rc = main(["validate", "--config", cfg_path, "--mode", "uplink-vs-bruteforce"])
    assert rc == 0
    assert "PASS uplink-vs-bruteforce" in capsys.readouterr().out


@pytest.mark.parametrize("beam, lit", [(90, 7), (75, 1), (5, 0)])
def test_validate_uplink_reads_the_block_coverage_reads(tmp_path, capsys, monkeypatch, beam,
                                                         lit):
    # the block read is of the lit links of a block of the configured
    # position, as coverage builds them: all 7 GBSs of TINY, one, or none
    built = []
    build = cli.build_lit_links
    monkeypatch.setattr(cli, "build_lit_links", lambda *args: built.append(build(*args))
                        or built[-1])
    cfg_path = write_cfg(tmp_path, TINY + f"[uav_antenna]\nhalf_beamwidth_deg = {beam}\n")
    assert main(["validate", "--config", cfg_path, "--mode", "uplink-vs-bruteforce"]) == 0
    assert capsys.readouterr().out.count("PASS uplink-vs-bruteforce") == 2
    [block] = built
    assert len(block) == 1 and int((block.gbs_id >= 0).sum()) == lit


def test_validate_enumerates_the_lit_links_of_the_default_scene(tmp_path, capsys, monkeypatch):
    # a 75-degree beam at 200 m lights 7 of the 367 GBSs: both enumerations
    # run over the 7 lit links, far below the state caps the 367 would break
    built = []
    build = cli.build_link_table
    monkeypatch.setattr(cli, "build_link_table", lambda *args: built.append(build(*args))
                        or built[-1])
    cfg_path = write_cfg(tmp_path,
                         "[uav_antenna]\nhalf_beamwidth_deg = 75\n[uav]\naltitude_m = 200\n")
    for mode in ("uplink-vs-bruteforce", "downlink-vs-joint-enum"):
        argv = ["validate", "--config", cfg_path, "--out", str(tmp_path), "--mode", mode]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"PASS {mode}") and "FAIL" not in out, out
    assert [len(table) for table in built] == [7, 7]


def test_validate_uplink_holds_the_truncated_read(tmp_path, capsys, monkeypatch):
    # at eps = 0.5 the walk on 7 sites stops early: the block read moves
    # off the exact law, by less than eps
    cfg_path = write_cfg(tmp_path, "[layout]\nradius_m = 500\n[algorithm]\nassociation_epsilon = 0.5\n")
    argv = ["validate", "--config", cfg_path, "--mode", "uplink-vs-bruteforce"]
    assert main(argv) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first.startswith("PASS uplink-vs-bruteforce: max pmf error=")
    assert second.startswith("PASS uplink-vs-bruteforce: block read at association_epsilon=0.5,")
    error = float(re.search(r"max outage error=(\S+)", second).group(1))
    assert 1e-3 < error < 0.5
    # a read that is not the law's outage fails, and the exact pmf still passes
    read = coverage.uplink_outage
    monkeypatch.setattr("uavcov.cli.uplink_outage", lambda *args: 1.0 - read(*args))
    assert main(argv) == 1
    first, second = capsys.readouterr().out.splitlines()
    assert first.startswith("PASS") and second.startswith("FAIL")


def test_validate_ga_vs_enum(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, TINY)
    rc = main(["validate", "--config", cfg_path, "--mode", "ga-vs-enum"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS ga-vs-enum" in out


def test_validate_ga_vs_enum_on_silent_interferers(tmp_path, capsys):
    # at zero loading both laws are the point mass at 0: the Gaussian
    # baseline's step is probed from the left, so its distance reads 0,
    # not 1, and the strict la < ga rule fails
    cfg_path = write_cfg(tmp_path, "[layout]\nradius_m = 1500\n[loading]\ndownlink_omega = 0\n")
    assert main(["validate", "--config", cfg_path, "--mode", "ga-vs-enum"]) == 1
    out = capsys.readouterr().out
    assert "FAIL ga-vs-enum" in out
    assert "displacement=0.000e+00 < GA distance=0.000e+00" in out


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
    assert "11 lit co-channel interferers" in out and "PASS la-vs-enum" in out


def test_shared_parser_is_not_mutated_across_calls(tmp_path, capsys):
    # every main call in a process parses with one parser, so a flag given
    # or a default resolved in one call must not reach the next
    assert build_parser() is build_parser()
    forms = (["layout"], ["downlink-map"], ["coverage-curve"], ["interference-cdf"],
             ["validate", "--mode", "la-vs-enum"])
    parsed = [vars(build_parser().parse_args(form)) for form in forms]
    cfg_path = write_cfg(tmp_path, "[layout]\nradius_m = 1500\n[sampling]\nresolution = 1\n"
                                   "altitude_points = 3\n")
    validate = ["validate", "--config", cfg_path, "--out", str(tmp_path), "--mode", "la-vs-enum"]

    def tolerance(flags):
        assert main(validate + flags) == 0
        return re.search(r"tolerance=(\S+);", capsys.readouterr().out).group(1)

    def curve(out, flags):
        return main(["coverage-curve", "--config", cfg_path, "--out", str(tmp_path / out)]
                    + flags)

    def calls():
        assert tolerance([]) == "1.000e-02"
        assert tolerance(["--tolerance", "0.5"]) == "5.000e-01"
        assert tolerance([]) == "1.000e-02"
        with pytest.raises(SystemExit) as exc:
            curve("bad", ["--sweep", "altitude", "--points", "3"])
        assert exc.value.code == 2
        assert curve("threshold", ["--link", "downlink", "--sweep", "threshold"]) == 0
        _, threshold = read_rows(tmp_path / "threshold" / "coverage_curve.csv")
        assert len(threshold) == 10
        # the threshold sweep's resolved --points must not reach this form
        assert curve("altitude", ["--sweep", "altitude"]) == 0
        _, altitude = read_rows(tmp_path / "altitude" / "coverage_curve.csv")
        capsys.readouterr()
        return threshold, altitude

    first = calls()
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--help"])
    assert exc.value.code == 0
    assert "usage: uavcov validate" in capsys.readouterr().out
    assert calls() == first
    assert not (tmp_path / "bad").exists()
    assert [vars(build_parser().parse_args(form)) for form in forms] == parsed


def test_validate_mc_requires_seed(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, TINY)
    assert main(["validate", "--config", cfg_path, "--mode", "la-vs-mc",
                 "--samples", "1000"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_missing_seed_fails_before_the_config_is_read(tmp_path, capsys, monkeypatch):
    # the forms that read --seed require it: exit 2 before the config is
    # read, so an unreadable config is not reported and no link table built
    built = []
    monkeypatch.setattr("uavcov.cli.build_link_table", lambda *args: built.append(args))
    missing = str(tmp_path / "missing.ini")
    for argv, form in ((["interference-cdf", "--methods", "la,mc"],
                        "interference-cdf with the mc method"),
                       (["validate", "--mode", "la-vs-mc", "--samples", "1000"],
                        "validate --mode la-vs-mc")):
        for config in ([], ["--config", missing]):
            assert main(argv + config + ["--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err == f"config error: --seed is required for {form}\n"
    assert built == []
    assert not list(tmp_path.iterdir())


def test_validate_downlink_joint_enum_runs(tmp_path, capsys, monkeypatch):
    built = counted_mixture_builds(monkeypatch)
    cfg_path = write_cfg(tmp_path, TINY)
    rc = main(["validate", "--config", cfg_path, "--mode", "downlink-vs-joint-enum"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS downlink-vs-joint-enum" in out
    # three law objects over one record, the approximation and its two
    # envelope mixtures, each read four times: the record builds its
    # running sums once for all of them
    assert built == [8]


def test_validate_downlink_joint_enum_where_no_gbs_is_lit(tmp_path, capsys):
    # a 5-degree beam lights none of the 7 GBSs: the exact law is the point
    # mass at SNR 0, and the envelope probes the mixture at y = 0
    cfg_path = write_cfg(tmp_path, "[layout]\nradius_m = 500\n"
                                   "[uav_antenna]\nhalf_beamwidth_deg = 5\n")
    rc = main(["validate", "--config", cfg_path, "--mode", "downlink-vs-joint-enum"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS downlink-vs-joint-enum" in out and "envelope=0.000e+00" in out


def test_validate_downlink_vs_mc(tmp_path, capsys):
    # the lattice outage at the configured position and threshold against
    # 2e5 MC draws: within the DKW radius plus the tolerance on TINY
    mc = ["validate", "--mode", "downlink-vs-mc", "--seed", "1", "--samples", "200000",
          "--out", str(tmp_path)]
    assert main(mc + ["--config", write_cfg(tmp_path, TINY)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS downlink-vs-mc: outage lattice=")
    assert "DKW radius=6.023e-03 (delta=1e-06, n=200000, seed=1) + tolerance=1.000e-02" in out
    # negative control: the default scene at map point 5 and 30 m, where
    # the lattice reads outage 0.219 against the MC's 0.62
    cfg = load_config()
    x, y = sample_region(cfg.build_region(), cfg.inter_site_distance)[5].tolist()
    low = write_cfg(tmp_path, f"[uav]\nx_m = {x!r}\ny_m = {y!r}\naltitude_m = 30\n", "low.ini")
    assert main(mc + ["--config", low]) == 1
    assert capsys.readouterr().out.startswith("FAIL downlink-vs-mc: outage lattice=0.219")
    # it reads --samples, --seed and --tolerance, not --event, and needs a seed
    with pytest.raises(SystemExit) as exc:
        main(mc + ["--event", "0"])
    assert exc.value.code == 2
    assert main(["validate", "--mode", "downlink-vs-mc", "--out", str(tmp_path)]) == 2
    assert "--seed is required for validate --mode downlink-vs-mc" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("c0", ["1e19", "1e25", "9007199254740992"])
def test_lattice_target_beyond_exact_integers_exits_2(tmp_path, capsys, c0):
    # past 2**53 the lattice points wrap in an intp: at 1e25 the map read
    # coverage 1, at 1e19 the command died in an OverflowError
    cfg_path = write_cfg(tmp_path, f"[layout]\nradius_m = 500\n[sampling]\nresolution = 1\n"
                                   f"[algorithm]\nlattice_target_c0 = {c0}\n")
    for argv in (["downlink-map"], ["validate", "--mode", "la-vs-enum"]):
        assert main(argv + ["--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [algorithm] lattice_target_c0 must be >= 1 and "
                              "below 2**53, got ")
    assert not (tmp_path / "out").exists()


def test_lattice_target_too_long_to_allocate_exits_1(tmp_path, capsys):
    # just below 2**53 the target passes the config check, but each 7-site
    # law's lattice would take 64 PiB: numpy refuses the allocation at once,
    # which is a runtime failure with one error line and no output, not a
    # traceback
    cfg_path = write_cfg(tmp_path, "[layout]\nradius_m = 500\n[sampling]\nresolution = 1\n"
                                   "[algorithm]\nlattice_target_c0 = 9007199254740991\n")
    for argv in (["downlink-map"], ["validate", "--mode", "la-vs-enum"]):
        assert main(argv + ["--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_config_load_that_cannot_allocate_exits_1(tmp_path, capsys, monkeypatch):
    # the layout is built while the config loads: an allocation it cannot
    # make (a radius_m of 1e9 asks for 155 TiB) is a runtime failure as it
    # is inside a command, with one error line, no traceback and no output
    def refuse(*args):
        raise MemoryError("Unable to allocate 155. TiB")

    monkeypatch.setattr("uavcov.config.build_hex_layout", refuse)
    out = tmp_path / "lay"
    assert main(["layout", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["downlink-map"],
    ["validate", "--mode", "downlink-vs-joint-enum"],
    ["validate", "--mode", "downlink-vs-mc", "--seed", "1"],
    ["interference-cdf"],
    ["uplink-map"],
    ["layout"],
], ids=["downlink-map", "downlink-vs-joint-enum", "downlink-vs-mc", "interference-cdf",
        "uplink-map", "layout"])
def test_negative_band_in_sites_csv_exits_2(tmp_path, capsys, argv):
    # a band below 0 used to load, and then every downlink command failed
    # at run time (exit 1) while the uplink ones ran; bands need not be
    # dense labels, so band 3 among 0..2 loads
    cfg_path = write_cfg(tmp_path, "[layout]\nradius_m = 500\n")
    assert main(["layout", "--config", cfg_path, "--out", str(tmp_path / "lay")]) == 0
    rows = (tmp_path / "lay" / "layout.csv").read_text().splitlines()
    for band, code in (("3", 0), ("-1", 2)):
        edited = [re.sub(r"^3,(.*),[0-9]+$", rf"3,\1,{band}", row) for row in rows]
        (tmp_path / "sites.csv").write_text("\n".join(edited) + "\n")
        sites = write_cfg(tmp_path, f"[layout]\nsites_csv = {tmp_path / 'sites.csv'}\n",
                          name="sites.ini")
        capsys.readouterr()
        out = tmp_path / f"out{band}"
        assert main(argv + ["--config", sites, "--out", str(out)]) == code
    assert capsys.readouterr().err == "config error: [layout] site 3 has a negative band -1\n"
    assert not out.exists()


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
