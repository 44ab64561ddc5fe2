"""Scenario configuration: INI file with named sections, strict keys.

Every parameter has a default in ``DEFAULTS``; a config file overrides
any subset.  Unknown sections or keys are errors, as are malformed or
out-of-range values.  The model sections (layout, antennas, channel,
sampling region) are built into their model objects straight from the
resolved entries; :class:`ScenarioConfig` holds those objects and the
parameters the rest of the package reads, each once.  dB- and
dBm-valued entries are converted to linear units here, once, and the rest
of the package only ever sees linear quantities.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import re
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .antenna import UavAntenna, UlaPattern
from .channel import ParametricAirGroundModel, default_channel, load_channel_coefficients
from .geometry import (
    NetworkLayout,
    RegionKind,
    SamplingRegion,
    build_hex_layout,
    read_layout_csv,
)
from .units import db_to_linear, dbm_to_watt


class ConfigError(ValueError):
    """Bad configuration file or values (maps to CLI exit code 2)."""


DEFAULTS: dict[str, dict[str, str]] = {
    "layout": {
        "inter_site_distance_m": "500",
        "radius_m": "5000",
        "gbs_height_m": "20",
        "reuse_factor": "3",
        "sites_csv": "",
    },
    "gbs_antenna": {
        "element_count": "10",
        "element_spacing_wl": "0.5",
        "downtilt_deg": "-10",
        "element_peak_gain": "1.64",
    },
    "uav_antenna": {
        "half_beamwidth_deg": "90",
        "mainlobe_constant": "7500",
        "backlobe_gain": "0",
    },
    "channel": {
        "coefficients_file": "",
        "alpha_los": "2.0",
        "alpha_nlos": "2.0",
        "excess_loss_los_db": "1.0",
        "excess_loss_nlos_db": "20.0",
        "los_a": "9.6",
        "los_b_per_deg": "0.28",
        "los_midpoint_deg": "9.6",
    },
    "radio": {
        "carrier_hz": "2e9",
        "noise_power_dbm": "-124",
        "gbs_power_w": "0.1",
        "uav_power_dbm": "-20",
    },
    "thresholds": {
        "uplink_snr_db": "12",
        "downlink_snr_db": "2",
    },
    "loading": {
        "downlink_omega": "0.5",
    },
    "uav": {
        "x_m": "150",
        "y_m": "50",
        "altitude_m": "100",
    },
    "sampling": {
        "region": "triangle",
        "resolution": "4",
        "altitude_min_m": "30",
        "altitude_max_m": "200",
        "altitude_points": "10",
    },
    "algorithm": {
        "association_epsilon": "1e-6",
        "lattice_target_c0": "1000",
    },
}

_OMEGA_SITE_RE = re.compile(r"^omega_site_(\d+)$")


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Resolved scenario parameters; radio quantities are linear.

    ``loading`` holds the loading factor of every GBS of the layout,
    indexed by id: ``downlink_omega`` unless an ``omega_site_N`` key
    overrides it (read-only).  ``models`` holds the model objects
    :func:`load_config` built, and checked, straight from their INI
    sections; the ``build_*`` methods return them, and the parameters
    only they read are not repeated here.
    """

    inter_site_distance: float
    gbs_height: float

    noise_w: float
    gbs_power_w: float
    uav_power_w: float

    uplink_threshold: float
    downlink_threshold: float

    loading: np.ndarray

    uav_x: float
    uav_y: float
    uav_altitude: float

    altitude_min: float
    altitude_max: float
    altitude_points: int

    association_epsilon: float
    lattice_target_c0: float

    config_hash: str

    models: dict = field(repr=False)

    @property
    def beta0(self) -> float:
        """Uplink transmit power over noise power."""
        return self.uav_power_w / self.noise_w

    @property
    def alpha0(self) -> float:
        """Noise power over downlink transmit power."""
        return self.noise_w / self.gbs_power_w

    def build_layout(self) -> NetworkLayout:
        return self.models["layout"]

    def build_gbs_pattern(self) -> UlaPattern:
        return self.models["gbs_antenna"]

    def build_uav_antenna(self) -> UavAntenna:
        return self.models["uav_antenna"]

    def build_channel(self) -> ParametricAirGroundModel:
        return self.models["channel"]

    def build_region(self) -> SamplingRegion:
        return self.models["sampling"]


# Each model builder reads the entries of its own resolved INI section
# (the channel also reads [radio] carrier_hz).  Every entry is parsed
# before the builder branches, so a malformed one fails even where the
# branch taken does not use it.

def _layout(resolved) -> NetworkLayout:
    num = partial(_number, resolved, "layout")
    spacing, radius, reuse = num("inter_site_distance_m"), num("radius_m"), num("reuse_factor", int)
    # the spacing also sizes the sampling region, whichever branch is taken
    if spacing <= 0:
        raise ConfigError(f"[layout] inter_site_distance_m must be positive, got {spacing}")
    sites_csv = resolved["layout"]["sites_csv"].strip()
    if not sites_csv:
        return build_hex_layout(spacing, radius, reuse)
    layout = read_layout_csv(sites_csv)
    if len(layout) == 0:
        raise ConfigError(f"[layout] sites_csv {sites_csv} lists no sites")
    return layout


def _gbs_antenna(resolved) -> UlaPattern:
    num = partial(_number, resolved, "gbs_antenna")
    return UlaPattern(
        num("element_count", int), num("element_spacing_wl"), num("downtilt_deg"),
        num("element_peak_gain"),
    )


def _uav_antenna(resolved) -> UavAntenna:
    num = partial(_number, resolved, "uav_antenna")
    return UavAntenna(num("half_beamwidth_deg"), num("mainlobe_constant"), num("backlobe_gain"))


def _channel(resolved) -> ParametricAirGroundModel:
    carrier_hz = _number(resolved, "radio", "carrier_hz")
    if carrier_hz <= 0:
        raise ConfigError(f"[radio] carrier_hz must be positive, got {carrier_hz}")
    keys = ("alpha_los", "alpha_nlos", "excess_loss_los_db", "excess_loss_nlos_db",
            "los_a", "los_b_per_deg", "los_midpoint_deg")
    shape = {key: _number(resolved, "channel", key) for key in keys}
    coefficients_file = resolved["channel"]["coefficients_file"].strip()
    if coefficients_file:
        return load_channel_coefficients(coefficients_file)
    return default_channel(carrier_hz, **shape)


def _region(resolved) -> SamplingRegion:
    region = resolved["sampling"]["region"].strip().lower()
    if region not in ("triangle", "cell"):
        raise ConfigError(f"[sampling] region must be 'triangle' or 'cell', got {region!r}")
    return SamplingRegion(RegionKind(region), _number(resolved, "sampling", "resolution", int))


# The model object each INI section describes, and how to build it.
_MODELS = {
    "layout": _layout,
    "gbs_antenna": _gbs_antenna,
    "uav_antenna": _uav_antenna,
    "channel": _channel,
    "sampling": _region,
}


def _resolve(path: str | None) -> tuple[dict[str, dict[str, str]], dict[int, str]]:
    resolved = {section: dict(keys) for section, keys in DEFAULTS.items()}
    omega_overrides: dict[int, str] = {}
    if path is None:
        return resolved, omega_overrides
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in resolved:
            raise ConfigError(
                f"{path}: unknown section [{section}] (known: {sorted(resolved)})"
            )
        for key, value in parser.items(section):
            if section == "loading":
                match = _OMEGA_SITE_RE.match(key)
                if match:
                    omega_overrides[int(match.group(1))] = value
                    continue
            if key not in resolved[section]:
                raise ConfigError(
                    f"{path}: unknown key '{key}' in [{section}] "
                    f"(known: {sorted(resolved[section])})"
                )
            resolved[section][key] = value
    return resolved, omega_overrides


def _number(resolved, section: str, key: str, kind=float):
    raw = resolved[section][key]
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be a {kind.__name__}, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite, got {raw!r}")
    return value


def _hash(resolved: dict[str, dict[str, str]], omega_overrides: dict[int, str]) -> str:
    lines = [
        f"{section}.{key}={resolved[section][key]}"
        for section in sorted(resolved)
        for key in sorted(resolved[section])
    ]
    lines += [f"loading.omega_site_{i}={v}" for i, v in sorted(omega_overrides.items())]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


def load_config(path: str | None = None) -> ScenarioConfig:
    """Build a :class:`ScenarioConfig` from defaults plus an optional INI
    file; raises :class:`ConfigError` on any unknown, malformed or
    out-of-range entry."""
    resolved, omega_raw = _resolve(path)
    num = partial(_number, resolved)

    overrides: dict[int, float] = {}
    for gbs_id, raw in omega_raw.items():
        try:
            overrides[gbs_id] = float(raw)
        except ValueError:
            raise ConfigError(f"[loading] omega_site_{gbs_id} must be a float, got {raw!r}") from None

    gbs_height = num("layout", "gbs_height_m")
    noise_w = dbm_to_watt(num("radio", "noise_power_dbm"))
    gbs_power_w = num("radio", "gbs_power_w")
    uav_power_w = dbm_to_watt(num("radio", "uav_power_dbm"))
    omega = num("loading", "downlink_omega")
    uav_altitude = num("uav", "altitude_m")
    altitude_min = num("sampling", "altitude_min_m")
    altitude_max = num("sampling", "altitude_max_m")
    altitude_points = num("sampling", "altitude_points", int)
    association_epsilon = num("algorithm", "association_epsilon")
    lattice_target_c0 = num("algorithm", "lattice_target_c0")

    if noise_w <= 0 or gbs_power_w <= 0 or uav_power_w <= 0:
        raise ConfigError("[radio] powers must be positive")
    if not 0.0 <= omega <= 1.0:
        raise ConfigError(f"[loading] downlink_omega must lie in [0, 1], got {omega}")
    for gbs_id, w in overrides.items():
        if not 0.0 <= w <= 1.0:
            raise ConfigError(f"[loading] omega_site_{gbs_id} must lie in [0, 1], got {w}")
    if not 0.0 <= association_epsilon < 1.0:
        raise ConfigError(
            f"[algorithm] association_epsilon must lie in [0, 1), got {association_epsilon}"
        )
    if lattice_target_c0 < 1:
        raise ConfigError(f"[algorithm] lattice_target_c0 must be >= 1, got {lattice_target_c0}")
    if altitude_points < 1:
        raise ConfigError(f"[sampling] altitude_points must be >= 1, got {altitude_points}")
    if altitude_points > 1 and altitude_max <= altitude_min:
        raise ConfigError("[sampling] altitude_max_m must exceed altitude_min_m")
    if uav_altitude <= gbs_height:
        raise ConfigError(f"[uav] altitude_m must exceed the GBS antenna height {gbs_height}")
    if altitude_min <= gbs_height:
        raise ConfigError(
            f"[sampling] altitude_min_m must exceed the GBS antenna height {gbs_height}"
        )
    # the model constructors hold the range checks of their parameters
    models = {}
    for section, build in _MODELS.items():
        try:
            models[section] = build(resolved)
        except ConfigError:
            raise
        except (ValueError, OSError) as exc:
            raise ConfigError(f"[{section}] {exc}") from exc

    n_sites = len(models["layout"])
    loading = np.full(n_sites, omega)
    for gbs_id, w in overrides.items():
        if gbs_id >= n_sites:
            raise ConfigError(
                f"[loading] omega_site_{gbs_id} names no GBS: the layout has ids 0..{n_sites - 1}"
            )
        loading[gbs_id] = w
    loading.flags.writeable = False

    return ScenarioConfig(
        inter_site_distance=num("layout", "inter_site_distance_m"),
        gbs_height=gbs_height,
        noise_w=noise_w,
        gbs_power_w=gbs_power_w,
        uav_power_w=uav_power_w,
        uplink_threshold=db_to_linear(num("thresholds", "uplink_snr_db")),
        downlink_threshold=db_to_linear(num("thresholds", "downlink_snr_db")),
        loading=loading,
        uav_x=num("uav", "x_m"),
        uav_y=num("uav", "y_m"),
        uav_altitude=uav_altitude,
        altitude_min=altitude_min,
        altitude_max=altitude_max,
        altitude_points=altitude_points,
        association_epsilon=association_epsilon,
        lattice_target_c0=lattice_target_c0,
        config_hash=_hash(resolved, omega_raw),
        models=models,
    )
