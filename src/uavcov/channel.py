"""Two-state air-to-ground channel model and per-UAV-position link tables.

Each UAV-GBS link is line-of-sight (LoS) with an elevation-dependent
probability and non-line-of-sight (NLoS) otherwise; conditioned on the
state the power channel gain is a deterministic function of distance.
The default parametric model combines

  * a logistic LoS probability  p_L(theta) = 1 / (1 + a * exp(-b*(theta - theta0)))
    in the elevation angle theta (degrees), the widely used urban
    air-to-ground fit (defaults a = 9.6, b = 0.28 per degree, theta0 = a);

  * log-distance pathloss  h = beta * d^(-alpha)  on the 3D distance, with
    the reference gains beta anchored to free space at the carrier
    frequency plus a constant excess loss per state (defaults 1 dB LoS,
    20 dB NLoS, alpha = 2 for both).

A UAV position's links are held as a :class:`LinkTable` of column arrays,
built for every site at once by :func:`build_link_table`.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .antenna import UavAntenna
from .geometry import NetworkLayout, link_geometry

SPEED_OF_LIGHT = 299792458.0


def free_space_gain(carrier_hz: float) -> float:
    """Free-space power gain at 1 m, (lambda / 4 pi)^2."""
    if carrier_hz <= 0:
        raise ValueError(f"carrier frequency must be positive, got {carrier_hz}")
    wavelength = SPEED_OF_LIGHT / carrier_hz
    return (wavelength / (4.0 * math.pi)) ** 2


@dataclass(frozen=True)
class ParametricAirGroundModel:
    """Logistic LoS probability plus per-state log-distance pathloss.

    ``ref_gain_*`` are the linear power gains at 1 m; the constructor
    enforces alpha_nlos >= alpha_los > 0 and ref_gain_nlos < ref_gain_los
    so the LoS gain strictly dominates at every distance >= 1 m.
    """

    alpha_los: float
    alpha_nlos: float
    ref_gain_los: float
    ref_gain_nlos: float
    los_a: float
    los_b_per_deg: float
    los_midpoint_deg: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha_los <= self.alpha_nlos:
            raise ValueError(
                "pathloss exponents must satisfy 0 < alpha_los <= alpha_nlos, got "
                f"{self.alpha_los}, {self.alpha_nlos}"
            )
        if not 0.0 < self.ref_gain_nlos < self.ref_gain_los:
            raise ValueError(
                "reference gains must satisfy 0 < ref_gain_nlos < ref_gain_los, got "
                f"{self.ref_gain_nlos}, {self.ref_gain_los}"
            )
        if self.los_a <= 0 or self.los_b_per_deg <= 0:
            raise ValueError(
                f"logistic parameters must be positive, got a={self.los_a}, b={self.los_b_per_deg}"
            )

    def los_probability(self, elevation_deg):
        """LoS probability at the given elevations (scalar or array)."""
        z = -self.los_b_per_deg * (elevation_deg - self.los_midpoint_deg)
        return 1.0 / (1.0 + self.los_a * np.exp(z))

    def evaluate(self, elevation_deg, distance_m):
        """(h_los, h_nlos, p_los) of links at the given elevations and 3D
        distances (scalars or equal-shape arrays)."""
        if np.any(np.asarray(distance_m) < 1.0):
            raise ValueError(f"3D distance must be >= 1 m, got {np.min(distance_m)}")
        h_los = self.ref_gain_los * distance_m ** (-self.alpha_los)
        h_nlos = self.ref_gain_nlos * distance_m ** (-self.alpha_nlos)
        return h_los, h_nlos, self.los_probability(elevation_deg)


def default_channel(
    carrier_hz: float,
    alpha_los: float = 2.0,
    alpha_nlos: float = 2.0,
    excess_loss_los_db: float = 1.0,
    excess_loss_nlos_db: float = 20.0,
    los_a: float = 9.6,
    los_b_per_deg: float = 0.28,
    los_midpoint_deg: float | None = None,
) -> ParametricAirGroundModel:
    """Urban default: free-space reference minus the per-state excess loss."""
    fs = free_space_gain(carrier_hz)
    if los_midpoint_deg is None:
        los_midpoint_deg = los_a
    return ParametricAirGroundModel(
        alpha_los=alpha_los,
        alpha_nlos=alpha_nlos,
        ref_gain_los=fs * 10.0 ** (-excess_loss_los_db / 10.0),
        ref_gain_nlos=fs * 10.0 ** (-excess_loss_nlos_db / 10.0),
        los_a=los_a,
        los_b_per_deg=los_b_per_deg,
        los_midpoint_deg=los_midpoint_deg,
    )


_COEFF_SECTIONS = {
    "pathloss": ("alpha_los", "alpha_nlos", "ref_gain_los", "ref_gain_nlos"),
    "los_probability": ("a", "b_per_deg", "midpoint_deg"),
}


def load_channel_coefficients(path) -> ParametricAirGroundModel:
    """Read a channel coefficient file (INI sections ``[pathloss]`` and
    ``[los_probability]``); every key is required and unknown keys are
    rejected, so published coefficient sets can be dropped in verbatim."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read channel coefficient file {path}")
    values: dict[str, float] = {}
    for section, keys in _COEFF_SECTIONS.items():
        if not parser.has_section(section):
            raise ValueError(f"{path}: missing [{section}] section")
        seen = set(parser.options(section))
        unknown = seen - set(keys)
        if unknown:
            raise ValueError(f"{path}: unknown keys in [{section}]: {sorted(unknown)}")
        for key in keys:
            if key not in seen:
                raise ValueError(f"{path}: [{section}] is missing key '{key}'")
            try:
                values[f"{section}.{key}"] = float(parser.get(section, key))
            except ValueError as exc:
                raise ValueError(f"{path}: [{section}] {key} is not a number") from exc
    return ParametricAirGroundModel(
        alpha_los=values["pathloss.alpha_los"],
        alpha_nlos=values["pathloss.alpha_nlos"],
        ref_gain_los=values["pathloss.ref_gain_los"],
        ref_gain_nlos=values["pathloss.ref_gain_nlos"],
        los_a=values["los_probability.a"],
        los_b_per_deg=values["los_probability.b_per_deg"],
        los_midpoint_deg=values["los_probability.midpoint_deg"],
    )


# ---------------------------------------------------------------------------
# Link tables
# ---------------------------------------------------------------------------

_COLUMNS = (("gbs_id", np.intp), ("band", np.intp),
            ("c_los", float), ("c_nlos", float), ("p_los", float))


@dataclass(frozen=True, eq=False)
class LinkTable:
    """Combined channel gains of every GBS for one UAV position, as columns.

    Row k is GBS ``gbs_id[k]`` of band ``band[k]``, with combined power
    gains C = G_uav * G_gbs * h in both channel states (``c_los[k]``,
    ``c_nlos[k]``) and LoS probability ``p_los[k]``.  Rows are sorted by
    descending LoS gain, ties by ascending id: the association walk's
    order.  The ids are 0..n-1, so per-GBS arrays are indexed by id.  GBSs
    outside the UAV mainlobe with zero backlobe gain have both gains 0
    and sit at the tail.  The columns are read-only copies.
    """

    gbs_id: np.ndarray
    band: np.ndarray
    c_los: np.ndarray
    c_nlos: np.ndarray
    p_los: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _COLUMNS:
            col = np.array(getattr(self, name), dtype=dtype)
            if col.ndim != 1:
                raise ValueError(f"link table column {name} must be 1-D, got shape {col.shape}")
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        n = len(self.gbs_id)
        if any(len(getattr(self, name)) != n for name, _ in _COLUMNS):
            raise ValueError("link table columns must have equal length")
        if not np.array_equal(np.sort(self.gbs_id), np.arange(n)):
            raise ValueError(f"link table GBS ids must be a permutation of 0..{n - 1}")
        for bad, what in (
            (~((self.p_los >= 0.0) & (self.p_los <= 1.0)), "LoS probability out of [0, 1]"),
            (~((self.c_los >= 0.0) & (self.c_nlos >= 0.0)), "negative gain"),
            ((self.c_los == 0.0) & (self.c_nlos != 0.0), "NLoS gain without LoS gain"),
        ):
            if bad.any():
                raise ValueError(f"{what} for GBS {self.gbs_id[np.argmax(bad)]}")
        c, ids = self.c_los, self.gbs_id
        if not np.all((c[:-1] > c[1:]) | ((c[:-1] == c[1:]) & (ids[:-1] < ids[1:]))):
            raise ValueError("link table rows must be sorted by descending c_los, then id")

    def __len__(self) -> int:
        return len(self.gbs_id)


def build_link_table(
    layout: NetworkLayout,
    gbs_pattern,
    uav_antenna: UavAntenna,
    channel: ParametricAirGroundModel,
    uav_xyz: Sequence[float],
    gbs_height: float,
) -> LinkTable:
    """Evaluate geometry, antennas and channel for every site at once.

    ``gbs_pattern`` is any callable mapping an array of elevation angles
    in degrees to linear power gains (a :class:`~uavcov.antenna.UlaPattern`
    works).
    """
    ids, xs, ys, bands = layout.columns
    r_h, d3, theta = link_geometry(uav_xyz, xs, ys, gbs_height)
    h_los, h_nlos, p_los = channel.evaluate(theta, d3)
    combined = uav_antenna.gain_at(r_h, uav_xyz[2], gbs_height) * gbs_pattern(theta)
    c_los = combined * h_los
    order = np.lexsort((ids, -c_los))
    return LinkTable(
        ids[order], bands[order], c_los[order], (combined * h_nlos)[order], p_los[order]
    )
