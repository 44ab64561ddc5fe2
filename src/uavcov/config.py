"""Scenario configuration: INI file with named sections, strict keys.

Every parameter has a default in ``DEFAULTS``, the package's only copy;
a config file overrides any subset.  Unknown sections or keys are
errors, as are malformed, non-finite or out-of-range values.  A
``[channel] coefficients_file`` is read by the same rules, with every
key required; the scenario file that names one may set no other
``[channel]`` key and no ``[radio] carrier_hz``.  The model sections
(layout, antennas, channel, sampling region) are built into their model
objects straight from the resolved entries; :class:`ScenarioConfig`
holds those objects and the parameters the rest of the package reads,
each once.  dB- and dBm-valued entries are converted to linear units
here, once, and the rest of the package only ever sees linear
quantities.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .antenna import UavAntenna, UlaPattern
from .channel import ParametricAirGroundModel, default_channel
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

# The sections and keys of a [channel] coefficients_file, every one
# required, and the ParametricAirGroundModel field each key sets.
_COEFFICIENTS = {
    "pathloss": {"alpha_los": "alpha_los", "alpha_nlos": "alpha_nlos",
                 "ref_gain_los": "ref_gain_los", "ref_gain_nlos": "ref_gain_nlos"},
    "los_probability": {"a": "los_a", "b_per_deg": "los_b_per_deg",
                        "midpoint_deg": "los_midpoint_deg"},
}


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

    beta0: float    # uplink transmit power over noise power
    alpha0: float   # noise power over downlink transmit power

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
    shape = {key: _number(resolved, "channel", key)
             for key in DEFAULTS["channel"] if key != "coefficients_file"}
    for key in ("excess_loss_los_db", "excess_loss_nlos_db"):   # a loss divides the gain
        _number(resolved, "channel", key, linear=lambda loss: db_to_linear(-loss))
    path = resolved["channel"]["coefficients_file"].strip()
    if not path:
        return default_channel(carrier_hz, **shape)
    try:
        entries = _read_ini(path, _COEFFICIENTS)
        fields = {}
        for section, names in _COEFFICIENTS.items():
            for key, name in names.items():
                if key not in entries.get(section, {}):
                    raise ConfigError(f"[{section}] {key} is required")
                fields[name] = _number(entries, section, key)
        return ParametricAirGroundModel(**fields)
    except ValueError as exc:   # a ConfigError or a model error
        raise ConfigError(f"[channel] coefficients_file {path}: {exc}") from exc


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


def _read_ini(path: str, known) -> dict[str, dict[str, str]]:
    """The entries of the UTF-8 INI file at ``path`` by section, each
    section and key one that ``known`` lists (or, in ``[loading]``, an
    ``omega_site_N``).  The caller's error message names the file."""
    # no header names the section "", so [DEFAULT] is an unknown one
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"not a valid INI file: {' '.join(str(exc).splitlines())}") from exc
    if not read:
        raise ConfigError("cannot read the file")
    entries = {}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}] (known: {sorted(known)})")
        entries[section] = dict(parser.items(section))
        for key in entries[section]:
            if key not in known[section] and not (
                section == "loading" and _OMEGA_SITE_RE.match(key)
            ):
                raise ConfigError(
                    f"unknown key '{key}' in [{section}] (known: {sorted(known[section])})"
                )
    return entries


def _resolve(path: str | None) -> tuple[dict[str, dict[str, str]], dict[int, str]]:
    """The entries of ``DEFAULTS`` with the file's on top, and the
    ``omega_site_N`` key of each GBS id N the file overrides."""
    resolved = {section: dict(keys) for section, keys in DEFAULTS.items()}
    omega_keys: dict[int, str] = {}
    if path is None:
        return resolved, omega_keys
    try:
        entries = _read_ini(path, DEFAULTS)
    except ConfigError as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    for section, items in entries.items():
        resolved[section].update(items)
        for key in items:
            match = _OMEGA_SITE_RE.match(key)   # only [loading] admits one
            if match:
                gbs_id = int(match.group(1))
                if gbs_id in omega_keys:
                    raise ConfigError(
                        f"[loading] {omega_keys[gbs_id]} and {key} both name GBS {gbs_id}"
                    )
                omega_keys[gbs_id] = key
    # a coefficients file sets every channel coefficient, so a shape key
    # or the carrier frequency next to it would be silently ignored
    if entries.get("channel", {}).get("coefficients_file", "").strip():
        ignored = [f"[channel] {key}" for key in entries["channel"] if key != "coefficients_file"]
        ignored += ["[radio] carrier_hz"] * ("carrier_hz" in entries.get("radio", {}))
        if ignored:
            raise ConfigError(
                f"{', '.join(ignored)} cannot be set next to [channel] coefficients_file, "
                "which sets every channel coefficient"
            )
    return resolved, omega_keys


_KIND_NAMES = {float: "a number", int: "an integer"}


def _number(resolved, section: str, key: str, kind=float, linear=None):
    raw = resolved[section][key]
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be {_KIND_NAMES[kind]}, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite, got {raw!r}")
    try:
        return value if linear is None else linear(value)
    except ValueError:   # units: not a positive finite float
        raise ConfigError(f"[{section}] {key} = {raw!r}: no positive finite linear value") from None


def _hash(resolved: dict[str, dict[str, str]], omega_keys: dict[int, str]) -> str:
    lines = [
        f"{section}.{key}={resolved[section][key]}"
        for section in sorted(DEFAULTS)
        for key in sorted(DEFAULTS[section])
    ]
    lines += [f"loading.omega_site_{i}={resolved['loading'][key]}"
              for i, key in sorted(omega_keys.items())]
    # a file the scenario names is hashed by its content as well as its
    # path; a scenario that names none hashes the lines above alone
    for section, key in (("channel", "coefficients_file"), ("layout", "sites_csv")):
        path = resolved[section][key].strip()
        if path:
            content = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            lines.append(f"{section}.{key}.sha256={content}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


def load_config(path: str | None = None) -> ScenarioConfig:
    """Build a :class:`ScenarioConfig` from defaults plus an optional INI
    file; raises :class:`ConfigError` on any unknown, malformed or
    out-of-range entry."""
    resolved, omega_keys = _resolve(path)
    num = partial(_number, resolved)
    overrides = {gbs_id: num("loading", key) for gbs_id, key in omega_keys.items()}

    gbs_height = num("layout", "gbs_height_m")
    noise_power = num("radio", "noise_power_dbm", linear=dbm_to_watt)
    gbs_power = num("radio", "gbs_power_w")
    uav_power = num("radio", "uav_power_dbm", linear=dbm_to_watt)
    omega = num("loading", "downlink_omega")
    uav_altitude = num("uav", "altitude_m")
    altitude_min = num("sampling", "altitude_min_m")
    altitude_max = num("sampling", "altitude_max_m")
    altitude_points = num("sampling", "altitude_points", int)
    association_epsilon = num("algorithm", "association_epsilon")
    lattice_target_c0 = num("algorithm", "lattice_target_c0")

    if noise_power <= 0 or gbs_power <= 0 or uav_power <= 0:
        raise ConfigError("[radio] powers must be positive")
    beta0, alpha0 = uav_power / noise_power, noise_power / gbs_power
    for name, ratio, value in (("beta0", "uav_power_dbm over noise_power_dbm", beta0),
                               ("alpha0", "noise_power_dbm over gbs_power_w", alpha0)):
        if not 0.0 < value < math.inf:
            raise ConfigError(
                f"[radio] {ratio} must be a positive finite ratio, got {name} = {value}"
            )
    if not 0.0 <= omega <= 1.0:
        raise ConfigError(f"[loading] downlink_omega must lie in [0, 1], got {omega}")
    for gbs_id, w in overrides.items():
        if not 0.0 <= w <= 1.0:
            raise ConfigError(f"[loading] {omega_keys[gbs_id]} must lie in [0, 1], got {w}")
    if not 0.0 <= association_epsilon < 1.0:
        raise ConfigError(
            f"[algorithm] association_epsilon must lie in [0, 1), got {association_epsilon}"
        )
    if not 1 <= lattice_target_c0 < 2**53:
        raise ConfigError(
            f"[algorithm] lattice_target_c0 must be >= 1 and below 2**53, got {lattice_target_c0}"
        )
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
    # the model constructors hold the range checks of their parameters,
    # and their messages open with the INI key at fault
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
                f"[loading] {omega_keys[gbs_id]} names no GBS: the layout has ids 0..{n_sites - 1}"
            )
        loading[gbs_id] = w
    loading.flags.writeable = False

    return ScenarioConfig(
        inter_site_distance=num("layout", "inter_site_distance_m"),
        gbs_height=gbs_height,
        beta0=beta0,
        alpha0=alpha0,
        uplink_threshold=num("thresholds", "uplink_snr_db", linear=db_to_linear),
        downlink_threshold=num("thresholds", "downlink_snr_db", linear=db_to_linear),
        loading=loading,
        uav_x=num("uav", "x_m"),
        uav_y=num("uav", "y_m"),
        uav_altitude=uav_altitude,
        altitude_min=altitude_min,
        altitude_max=altitude_max,
        altitude_points=altitude_points,
        association_epsilon=association_epsilon,
        lattice_target_c0=lattice_target_c0,
        config_hash=_hash(resolved, omega_keys),
        models=models,
    )
