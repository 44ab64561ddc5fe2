"""Antenna gain models: tilted uniform linear array at the GBS, flat-top
cone at the UAV.

The GBS carries a vertical uniform linear array (ULA) of K elements with
spacing d_e, electrically tilted to ``tilt_deg``.  Its power gain toward
elevation angle theta is

    G(theta) = G_e * cos(theta)^2 * (sin(K*phi/2) / (sqrt(K) * sin(phi/2)))^2
    phi     = 2*pi * (d_e/lambda) * (sin(theta) - sin(tilt))

where ``G_e * cos(theta)^2`` is the element power pattern.  At phi = 2*pi*m
the array factor has a removable singularity with limit K, so the boresight
gain is exactly ``K * G_e * cos(tilt)^2``.

The UAV antenna radiates a constant mainlobe gain ``G0 / beamwidth_deg^2``
into a downward cone of half-beamwidth ``beamwidth_deg`` and a constant
backlobe gain outside it.  At UAV height H_u above GBS antennas of height
H_b the cone footprint is the disc of radius ``(H_u - H_b) * tan(beamwidth)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# |sin(phi/2)| below this is treated as the removable singularity of the
# array factor (limit K); covers boresight and grating lobes alike.
_SINGULARITY_EPS = 1e-9


def _cos_deg(theta_deg):
    # cos via the complementary sine so that theta = 90 gives exactly 0.
    return np.sin(np.deg2rad(90.0 - np.asarray(theta_deg, dtype=float)))


@dataclass(frozen=True)
class UlaPattern:
    """Tilted uniform linear array, evaluated by calling it with an
    elevation angle in degrees (scalar or array)."""

    element_count: int
    spacing_wl: float
    tilt_deg: float
    element_peak_gain: float = 1.64

    def __post_init__(self) -> None:
        if self.element_count < 1:
            raise ValueError(f"element count must be >= 1, got {self.element_count}")
        if self.spacing_wl <= 0:
            raise ValueError(f"element spacing must be positive, got {self.spacing_wl}")
        if not -90.0 < self.tilt_deg < 90.0:
            raise ValueError(f"tilt angle must lie in (-90, 90), got {self.tilt_deg}")
        if self.element_peak_gain <= 0:
            raise ValueError(f"element peak gain must be positive, got {self.element_peak_gain}")

    def __call__(self, theta_deg):
        return ula_gain(self, theta_deg)


def ula_gain(pattern: UlaPattern, theta_deg):
    """Linear power gain of the array toward elevation ``theta_deg``.

    Accepts a scalar or array of angles in (-90, 90]; the element null
    makes the gain exactly 0 at theta = 90 (straight overhead).
    """
    theta = np.asarray(theta_deg, dtype=float)
    if np.any(theta <= -90.0) or np.any(theta > 90.0):
        raise ValueError("elevation angle must lie in (-90, 90] degrees")
    k = pattern.element_count
    half = math.pi * pattern.spacing_wl * (
        np.sin(np.deg2rad(theta)) - math.sin(math.radians(pattern.tilt_deg))
    )
    s = np.sin(half)
    singular = np.abs(s) < _SINGULARITY_EPS
    denom = np.where(singular, 1.0, s)
    af2 = np.where(singular, float(k), (np.sin(k * half) / (math.sqrt(k) * denom)) ** 2)
    gain = pattern.element_peak_gain * _cos_deg(theta) ** 2 * af2
    if np.isscalar(theta_deg):
        return float(gain)
    return gain


@dataclass(frozen=True)
class UavAntenna:
    """Flat-top cone antenna pointing straight down from the UAV."""

    beamwidth_deg: float
    mainlobe_constant: float = 7500.0
    backlobe_gain: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.beamwidth_deg <= 90.0:
            raise ValueError(f"half-beamwidth must lie in (0, 90] degrees, got {self.beamwidth_deg}")
        if self.mainlobe_constant <= 0:
            raise ValueError(f"mainlobe constant must be positive, got {self.mainlobe_constant}")
        if self.backlobe_gain < 0:
            raise ValueError(f"backlobe gain must be non-negative, got {self.backlobe_gain}")

    @property
    def mainlobe_gain(self) -> float:
        """Constant in-cone gain; the 90-degree beam keeps the literal
        value mainlobe_constant / 8100 rather than snapping to isotropic."""
        return self.mainlobe_constant / self.beamwidth_deg**2

    def footprint_radius(self, uav_height: float, gbs_height: float) -> float:
        """Radius of the mainlobe disc on the GBS antenna plane."""
        dh = uav_height - gbs_height
        if dh <= 0:
            raise ValueError(
                f"UAV altitude {uav_height} must exceed the GBS antenna height {gbs_height}"
            )
        if self.beamwidth_deg == 90.0:
            return math.inf
        return dh * math.tan(math.radians(self.beamwidth_deg))

    def gain_at(self, r_h, uav_height: float, gbs_height: float):
        """Gain toward GBSs at horizontal distances ``r_h`` (scalar or
        array); points on the footprint boundary get the mainlobe gain."""
        inside = np.asarray(r_h) <= self.footprint_radius(uav_height, gbs_height)
        gain = np.where(inside, self.mainlobe_gain, self.backlobe_gain)
        if np.isscalar(r_h):
            return float(gain)
        return gain
