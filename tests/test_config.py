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

from uavcov.channel import default_channel
from uavcov.config import DEFAULTS, ConfigError, ScenarioConfig, load_config
from uavcov.geometry import RegionKind, write_layout_csv


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
    assert cfg.build_gbs_pattern().tilt_deg == -10.0
    assert cfg.build_uav_antenna().beamwidth_deg == 90.0
    assert cfg.build_channel() == default_channel(2e9)
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
    assert cfg.noise_w == pytest.approx(10 ** -15.4)
    assert cfg.uav_power_w == pytest.approx(1e-5)
    assert cfg.beta0 == pytest.approx(1e-5 / 10 ** -15.4)
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


def test_strict_sections_and_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(write_ini(tmp_path, "[antenna]\ncount = 3\n"))
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write_ini(tmp_path, "[layout]\nradius = 100\n"))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.ini"))
    with pytest.raises(ConfigError, match="must be a float"):
        load_config(write_ini(tmp_path, "[layout]\nradius_m = five\n"))
    with pytest.raises(ConfigError, match="must be a int"):
        load_config(write_ini(tmp_path, "[sampling]\nresolution = 2.5\n"))


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
    assert pattern.tilt_deg == -10.0
    uav = cfg.build_uav_antenna()
    assert uav.beamwidth_deg == 90.0
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
