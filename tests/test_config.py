"""Configuration loading: defaults, overrides, strictness, derived units."""

import pickle
import re
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavcov.channel import ParametricAirGroundModel, default_channel
from uavcov.config import DEFAULTS, ConfigError, ScenarioConfig, load_config
from uavcov.geometry import RegionKind, write_layout_csv
from uavcov.units import dbm_to_watt


def write_ini(tmp_path, body):
    path = tmp_path / "scenario.ini"
    path.write_text(body)
    return str(path)


def test_defaults():
    cfg = load_config()
    assert cfg.inter_site_distance == 500.0
    assert len(cfg.build_layout()) == 367          # radius 5000 m
    assert cfg.gbs_height == 20.0
    assert len(set(cfg.build_layout().band.tolist())) == 3     # reuse factor 3
    assert cfg.build_gbs_pattern().element_count == 10
    assert cfg.build_gbs_pattern().downtilt_deg == -10.0
    assert cfg.build_gbs_pattern().element_peak_gain == 1.64
    assert cfg.build_uav_antenna().half_beamwidth_deg == 90.0
    assert cfg.build_uav_antenna().mainlobe_constant == 7500.0
    assert cfg.build_uav_antenna().backlobe_gain == 0.0
    assert cfg.build_channel() == default_channel(2e9, 2.0, 2.0, 1.0, 20.0, 9.6, 0.28, 9.6)
    assert cfg.loading.tolist() == [0.5] * 367    # one entry per GBS of the layout
    assert cfg.build_region().resolution == 4
    assert cfg.association_epsilon == 1e-6
    assert len(cfg.config_hash) == 12


def test_defaults_live_only_in_defaults_table():
    # a dataclass default would be a second copy of DEFAULTS that can drift
    assert all(f.default is MISSING and f.default_factory is MISSING
               for f in fields(ScenarioConfig))


def test_db_quantities_become_linear():
    cfg = load_config()
    assert cfg.uplink_threshold == 10 ** 1.2      # 12 dB
    assert cfg.downlink_threshold == 10 ** 0.2    # 2 dB
    # -20 dBm over -124 dBm, and -124 dBm over 0.1 W, each a quotient of
    # the two powers in watts
    assert cfg.beta0 == dbm_to_watt(-20.0) / dbm_to_watt(-124.0)
    assert cfg.beta0 == pytest.approx(1e-5 / 10 ** -15.4)
    assert cfg.alpha0 == dbm_to_watt(-124.0) / 0.1
    assert cfg.alpha0 == pytest.approx(10 ** -15.4 / 0.1)


def test_file_overrides(tmp_path):
    path = write_ini(tmp_path, """
[layout]
radius_m = 1500
[loading]
downlink_omega = 0.25
omega_site_2 = 0.9
omega_site_11 = 0.1
[sampling]
resolution = 2
""")
    cfg = load_config(path)
    assert len(cfg.build_layout()) == 37           # radius 1500 m
    omega = cfg.loading
    assert omega.shape == (37,)
    assert (omega[2], omega[11]) == (0.9, 0.1)
    assert np.all(np.delete(omega, [2, 11]) == 0.25)
    assert cfg.build_region().resolution == 2
    assert cfg.inter_site_distance == 500.0       # untouched default


def test_omega_scalar_or_map(tmp_path):
    assert np.all(load_config().loading == 0.5)
    path = write_ini(tmp_path, "[loading]\nomega_site_3 = 0.8\n")
    omega = load_config(path).loading
    assert omega[3] == 0.8
    assert np.all(np.delete(omega, 3) == 0.5)     # default for everyone else
    assert not omega.flags.writeable
    clone = pickle.loads(pickle.dumps(omega))
    np.testing.assert_array_equal(clone, omega)


def test_config_hash_tracks_content(tmp_path):
    base = load_config().config_hash
    same = load_config(write_ini(tmp_path, "[layout]\nradius_m = 5000\n"))
    changed = load_config(write_ini(tmp_path, "[layout]\nradius_m = 4999\n"))
    tagged = load_config(write_ini(tmp_path, "[loading]\nomega_site_0 = 0.5\n"))
    assert same.config_hash == base               # explicit default, same scenario
    assert changed.config_hash != base
    assert tagged.config_hash != base             # overrides are part of the hash
    # a file the config names is hashed by content: new content at the
    # same path is a new hash, the same content again the same hash
    coefficients = tmp_path / "coefficients.ini"
    scene = write_ini(tmp_path, f"[channel]\ncoefficients_file = {coefficients}\n")
    coefficients.write_text(COEFFICIENTS)
    first = load_config(scene).config_hash
    coefficients.write_text(COEFFICIENTS.replace("1.3e-4", "9e-3"))
    assert load_config(scene).config_hash != first
    coefficients.write_text(COEFFICIENTS)
    assert load_config(scene).config_hash == first
    layouts = [load_config(write_ini(tmp_path, f"[layout]\nradius_m = {r}\n")).build_layout()
               for r in (1000, 1500)]
    sites = tmp_path / "sites.csv"
    scene = write_ini(tmp_path, f"[layout]\nsites_csv = {sites}\n")
    write_layout_csv(layouts[0], sites)
    first = load_config(scene).config_hash
    write_layout_csv(layouts[1], sites)
    assert load_config(scene).config_hash != first
    write_layout_csv(layouts[0], sites)
    assert load_config(scene).config_hash == first


def test_strict_sections_and_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(write_ini(tmp_path, "[antenna]\ncount = 3\n"))
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write_ini(tmp_path, "[layout]\nradius = 100\n"))
    with pytest.raises(ConfigError, match="unknown key 'omega_site_3' in \\[layout\\]"):
        load_config(write_ini(tmp_path, "[layout]\nomega_site_3 = 0.5\n"))
    with pytest.raises(ConfigError, match="unknown section \\[DEFAULT\\]"):
        load_config(write_ini(tmp_path, "[DEFAULT]\nradius_m = 500\n"))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.ini"))
    with pytest.raises(ConfigError, match="^\\[layout\\] radius_m must be a number, got 'five'$"):
        load_config(write_ini(tmp_path, "[layout]\nradius_m = five\n"))
    with pytest.raises(ConfigError,
                       match="^\\[sampling\\] resolution must be an integer, got '2.5'$"):
        load_config(write_ini(tmp_path, "[sampling]\nresolution = 2.5\n"))
    with pytest.raises(ConfigError,
                       match="^\\[sampling\\] altitude_points must be an integer, got '10.0'$"):
        load_config(write_ini(tmp_path, "[sampling]\naltitude_points = 10.0\n"))


@pytest.mark.parametrize("body", [
    "[radio]\ngbs_power_w = 0\n",
    "[loading]\ndownlink_omega = 1.2\n",
    "[loading]\nomega_site_1 = -0.1\n",
    "[algorithm]\nassociation_epsilon = 1\n",
    "[algorithm]\nlattice_target_c0 = 0.5\n",
    "[sampling]\nregion = circle\n",
    "[sampling]\naltitude_min_m = 300\n",
    "[sampling]\naltitude_points = 0\n",
    "[uav]\naltitude_m = 15\n",
])
def test_value_validation(tmp_path, body):
    with pytest.raises(ConfigError):
        load_config(write_ini(tmp_path, body))


@pytest.mark.parametrize("section, key, raw", [
    # 10^(dB/10) overflows a float
    ("thresholds", "uplink_snr_db", "4000"),
    ("radio", "uav_power_dbm", "4000"),
    # a loss divides the gain, so its gain factor 10^(4000/10) overflows
    ("channel", "excess_loss_los_db", "-4000"),
    ("channel", "excess_loss_nlos_db", "-4000"),
    # 10^(dB/10) underflows to 0
    ("thresholds", "downlink_snr_db", "-4000"),
    ("radio", "noise_power_dbm", "-4000"),
])
def test_db_entry_without_positive_finite_linear_value(tmp_path, section, key, raw):
    path = write_ini(tmp_path, f"[{section}]\n{key} = {raw}\n")
    with pytest.raises(ConfigError,
                       match=rf"^\[{section}\] {key} = '{raw}': no positive finite linear value$"):
        load_config(path)


def test_subnormal_db_entry_is_valid(tmp_path):
    # 10^(-3200/10) = 1e-320 is a positive float, if a subnormal one
    cfg = load_config(write_ini(tmp_path, "[thresholds]\ndownlink_snr_db = -3200\n"))
    assert 0.0 < cfg.downlink_threshold == 10.0 ** -320


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


NUMERIC_KEYS = sorted(
    (section, key)
    for section, keys in DEFAULTS.items()
    for key, default in keys.items()
    if _is_number(default)
) + [("loading", "omega_site_3")]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(NUMERIC_KEYS),
    st.from_regex(re.compile(r"\A[+-]?(nan|inf|infinity)\Z", re.IGNORECASE)),
)
def test_non_finite_numbers_are_config_errors(entry, raw):
    section, key = entry
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.ini"
        path.write_text(f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(ConfigError):
            load_config(str(path))


def test_builders(tmp_path):
    cfg = load_config(write_ini(tmp_path, "[layout]\nradius_m = 1500\n"))
    layout = cfg.build_layout()
    assert len(layout) == 37
    pattern = cfg.build_gbs_pattern()
    assert pattern.element_count == 10
    assert pattern.downtilt_deg == -10.0
    uav = cfg.build_uav_antenna()
    assert uav.half_beamwidth_deg == 90.0
    channel = cfg.build_channel()
    assert channel.alpha_los == 2.0
    region = cfg.build_region()
    assert region.kind is RegionKind.TRIANGLE and region.resolution == 4


def test_layout_from_csv(tmp_path):
    seed_cfg = load_config(write_ini(tmp_path, "[layout]\nradius_m = 1000\n"))
    layout = seed_cfg.build_layout()
    csv_path = tmp_path / "sites.csv"
    write_layout_csv(layout, csv_path)
    cfg = load_config(write_ini(
        tmp_path, f"[layout]\nsites_csv = {csv_path}\n"
    ))
    loaded = cfg.build_layout()
    for name in ("x", "y", "band"):
        assert np.array_equal(getattr(loaded, name), getattr(layout, name))


def test_model_objects_are_built_once(tmp_path):
    cfg = load_config(write_ini(tmp_path, "[layout]\nradius_m = 1500\n"))
    for build in (cfg.build_layout, cfg.build_gbs_pattern, cfg.build_uav_antenna,
                  cfg.build_channel, cfg.build_region):
        assert build() is build()


def test_los_a_alone_leaves_the_midpoint_at_its_default(tmp_path):
    cfg = load_config(write_ini(tmp_path, "[channel]\nlos_a = 12\n"))
    assert cfg.build_channel().los_a == 12.0
    assert cfg.build_channel().los_midpoint_deg == 9.6


COEFFICIENTS = """[pathloss]
alpha_los = 2.1
alpha_nlos = 2.4
ref_gain_los = 1.3e-4
ref_gain_nlos = 2.0e-6
[los_probability]
a = 11.9
b_per_deg = 0.13
midpoint_deg = 15.0
"""


def load_coefficients(tmp_path, body):
    """The channel of a scenario whose [channel] coefficients_file holds
    ``body``."""
    path = tmp_path / "coefficients.ini"
    path.write_text(body)
    cfg_path = write_ini(tmp_path, f"[channel]\ncoefficients_file = {path}\n")
    return load_config(cfg_path).build_channel()


def test_coefficients_file_key(tmp_path):
    channel = load_coefficients(tmp_path, COEFFICIENTS)
    assert channel == ParametricAirGroundModel(2.1, 2.4, 1.3e-4, 2.0e-6, 11.9, 0.13, 15.0)
    assert channel != load_config().build_channel()


def test_coefficient_file_round_trip(tmp_path):
    m = load_coefficients(tmp_path, COEFFICIENTS)
    assert m.alpha_los == 2.1
    assert m.alpha_nlos == 2.4
    assert m.los_a == 11.9
    assert m.los_probability(15.0) == pytest.approx(1.0 / (1.0 + 11.9))


def test_coefficient_file_errors(tmp_path):
    path = tmp_path / "coefficients.ini"
    for body, message in (
        # a missing section, so a missing key
        ("[pathloss]\nalpha_los = 2.0\n", "[pathloss] alpha_nlos is required"),
        (COEFFICIENTS.replace("a = 11.9\n", ""), "[los_probability] a is required"),
        (COEFFICIENTS.replace("[los_probability]\n", "[los_probability]\nbogus = 1\n"),
         "unknown key 'bogus' in [los_probability] (known: ['a', 'b_per_deg', 'midpoint_deg'])"),
        (COEFFICIENTS + "[channel]\nlos_a = 1\n",
         "unknown section [channel] (known: ['los_probability', 'pathloss'])"),
        (COEFFICIENTS.replace("15.0", "inf"),
         "[los_probability] midpoint_deg must be finite, got 'inf'"),
        (COEFFICIENTS.replace("1.3e-4", "big"),
         "[pathloss] ref_gain_los must be a number, got 'big'"),
        # the model's own checks
        (COEFFICIENTS.replace("2.0e-6", "1.0"),
         "reference gains must satisfy 0 < ref_gain_nlos < ref_gain_los, got 1.0, 0.00013"),
    ):
        with pytest.raises(ConfigError) as exc:
            load_coefficients(tmp_path, body)
        assert str(exc.value) == f"[channel] coefficients_file {path}: {message}"
