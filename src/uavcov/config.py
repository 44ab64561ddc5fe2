"""Scenario configuration: INI file with named sections, strict keys.

Every parameter has a default; a config file overrides any subset.
Unknown sections or keys are errors, as are malformed values.  dB- and
dBm-valued entries are converted to linear units here, once, and the rest
of the package only ever sees linear quantities.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import re
from dataclasses import dataclass, field, replace

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
    :func:`load_config` built, and checked, from the parameters, by INI
    section; the ``build_*`` methods return them.
    """

    inter_site_distance: float
    radius: float
    gbs_height: float
    reuse_factor: int
    sites_csv: str

    element_count: int
    element_spacing_wl: float
    downtilt_deg: float
    element_peak_gain: float

    half_beamwidth_deg: float
    mainlobe_constant: float
    backlobe_gain: float

    coefficients_file: str
    alpha_los: float
    alpha_nlos: float
    excess_loss_los_db: float
    excess_loss_nlos_db: float
    los_a: float
    los_b_per_deg: float
    los_midpoint_deg: float

    carrier_hz: float
    noise_w: float
    gbs_power_w: float
    uav_power_w: float

    uplink_threshold: float
    downlink_threshold: float

    downlink_omega: float
    loading: np.ndarray

    uav_x: float = 150.0
    uav_y: float = 50.0
    uav_altitude: float = 100.0

    region: str = "triangle"
    resolution: int = 4
    altitude_min: float = 30.0
    altitude_max: float = 200.0
    altitude_points: int = 10

    association_epsilon: float = 1e-6
    lattice_target_c0: float = 1000.0

    config_hash: str = ""

    models: dict = field(default_factory=dict, repr=False)

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

    def omega(self) -> np.ndarray:
        """Per-GBS loading array, indexed by id."""
        return self.loading


def _layout(cfg: ScenarioConfig) -> NetworkLayout:
    if cfg.sites_csv:
        return read_layout_csv(cfg.sites_csv, cfg.inter_site_distance)
    return build_hex_layout(cfg.inter_site_distance, cfg.radius, cfg.reuse_factor)


def _channel(cfg: ScenarioConfig) -> ParametricAirGroundModel:
    if cfg.coefficients_file:
        return load_channel_coefficients(cfg.coefficients_file)
    return default_channel(
        cfg.carrier_hz,
        alpha_los=cfg.alpha_los,
        alpha_nlos=cfg.alpha_nlos,
        excess_loss_los_db=cfg.excess_loss_los_db,
        excess_loss_nlos_db=cfg.excess_loss_nlos_db,
        los_a=cfg.los_a,
        los_b_per_deg=cfg.los_b_per_deg,
        los_midpoint_deg=cfg.los_midpoint_deg,
    )


# The model object each INI section describes, and how to build it.
_MODELS = {
    "layout": _layout,
    "gbs_antenna": lambda cfg: UlaPattern(
        cfg.element_count, cfg.element_spacing_wl, cfg.downtilt_deg, cfg.element_peak_gain
    ),
    "uav_antenna": lambda cfg: UavAntenna(
        cfg.half_beamwidth_deg, cfg.mainlobe_constant, cfg.backlobe_gain
    ),
    "channel": _channel,
    "sampling": lambda cfg: SamplingRegion(RegionKind(cfg.region), cfg.resolution),
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

    overrides: dict[int, float] = {}
    for gbs_id, raw in omega_raw.items():
        try:
            overrides[gbs_id] = float(raw)
        except ValueError:
            raise ConfigError(f"[loading] omega_site_{gbs_id} must be a float, got {raw!r}") from None

    region = resolved["sampling"]["region"].strip().lower()
    if region not in ("triangle", "cell"):
        raise ConfigError(f"[sampling] region must be 'triangle' or 'cell', got {region!r}")

    cfg = ScenarioConfig(
        inter_site_distance=_number(resolved, "layout", "inter_site_distance_m"),
        radius=_number(resolved, "layout", "radius_m"),
        gbs_height=_number(resolved, "layout", "gbs_height_m"),
        reuse_factor=_number(resolved, "layout", "reuse_factor", int),
        sites_csv=resolved["layout"]["sites_csv"].strip(),
        element_count=_number(resolved, "gbs_antenna", "element_count", int),
        element_spacing_wl=_number(resolved, "gbs_antenna", "element_spacing_wl"),
        downtilt_deg=_number(resolved, "gbs_antenna", "downtilt_deg"),
        element_peak_gain=_number(resolved, "gbs_antenna", "element_peak_gain"),
        half_beamwidth_deg=_number(resolved, "uav_antenna", "half_beamwidth_deg"),
        mainlobe_constant=_number(resolved, "uav_antenna", "mainlobe_constant"),
        backlobe_gain=_number(resolved, "uav_antenna", "backlobe_gain"),
        coefficients_file=resolved["channel"]["coefficients_file"].strip(),
        alpha_los=_number(resolved, "channel", "alpha_los"),
        alpha_nlos=_number(resolved, "channel", "alpha_nlos"),
        excess_loss_los_db=_number(resolved, "channel", "excess_loss_los_db"),
        excess_loss_nlos_db=_number(resolved, "channel", "excess_loss_nlos_db"),
        los_a=_number(resolved, "channel", "los_a"),
        los_b_per_deg=_number(resolved, "channel", "los_b_per_deg"),
        los_midpoint_deg=_number(resolved, "channel", "los_midpoint_deg"),
        carrier_hz=_number(resolved, "radio", "carrier_hz"),
        noise_w=dbm_to_watt(_number(resolved, "radio", "noise_power_dbm")),
        gbs_power_w=_number(resolved, "radio", "gbs_power_w"),
        uav_power_w=dbm_to_watt(_number(resolved, "radio", "uav_power_dbm")),
        uplink_threshold=db_to_linear(_number(resolved, "thresholds", "uplink_snr_db")),
        downlink_threshold=db_to_linear(_number(resolved, "thresholds", "downlink_snr_db")),
        downlink_omega=_number(resolved, "loading", "downlink_omega"),
        loading=np.zeros(0),   # resolved below, once the layout is known
        uav_x=_number(resolved, "uav", "x_m"),
        uav_y=_number(resolved, "uav", "y_m"),
        uav_altitude=_number(resolved, "uav", "altitude_m"),
        region=region,
        resolution=_number(resolved, "sampling", "resolution", int),
        altitude_min=_number(resolved, "sampling", "altitude_min_m"),
        altitude_max=_number(resolved, "sampling", "altitude_max_m"),
        altitude_points=_number(resolved, "sampling", "altitude_points", int),
        association_epsilon=_number(resolved, "algorithm", "association_epsilon"),
        lattice_target_c0=_number(resolved, "algorithm", "lattice_target_c0"),
        config_hash=_hash(resolved, omega_raw),
    )

    if cfg.carrier_hz <= 0:
        raise ConfigError(f"[radio] carrier_hz must be positive, got {cfg.carrier_hz}")
    if cfg.noise_w <= 0 or cfg.gbs_power_w <= 0 or cfg.uav_power_w <= 0:
        raise ConfigError("[radio] powers must be positive")
    if not 0.0 <= cfg.downlink_omega <= 1.0:
        raise ConfigError(f"[loading] downlink_omega must lie in [0, 1], got {cfg.downlink_omega}")
    for gbs_id, w in overrides.items():
        if not 0.0 <= w <= 1.0:
            raise ConfigError(f"[loading] omega_site_{gbs_id} must lie in [0, 1], got {w}")
    if not 0.0 <= cfg.association_epsilon < 1.0:
        raise ConfigError(
            f"[algorithm] association_epsilon must lie in [0, 1), got {cfg.association_epsilon}"
        )
    if cfg.lattice_target_c0 < 1:
        raise ConfigError(f"[algorithm] lattice_target_c0 must be >= 1, got {cfg.lattice_target_c0}")
    if cfg.altitude_points < 1:
        raise ConfigError(f"[sampling] altitude_points must be >= 1, got {cfg.altitude_points}")
    if cfg.altitude_points > 1 and cfg.altitude_max <= cfg.altitude_min:
        raise ConfigError("[sampling] altitude_max_m must exceed altitude_min_m")
    if not math.isfinite(cfg.uav_altitude) or cfg.uav_altitude <= cfg.gbs_height:
        raise ConfigError(
            f"[uav] altitude_m must exceed the GBS antenna height {cfg.gbs_height}"
        )
    # the model constructors hold the range checks of their parameters
    models = {}
    for section, build in _MODELS.items():
        try:
            models[section] = build(cfg)
        except (ValueError, OSError) as exc:
            raise ConfigError(f"[{section}] {exc}") from exc

    n_sites = len(models["layout"])
    if n_sites == 0:
        raise ConfigError(f"[layout] sites_csv {cfg.sites_csv} lists no sites")
    loading = np.full(n_sites, cfg.downlink_omega)
    for gbs_id, w in overrides.items():
        if gbs_id >= n_sites:
            raise ConfigError(
                f"[loading] omega_site_{gbs_id} names no GBS: the layout has ids 0..{n_sites - 1}"
            )
        loading[gbs_id] = w
    loading.flags.writeable = False
    return replace(cfg, loading=loading, models=models)
