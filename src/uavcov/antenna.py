"""Antenna gain models: tilted uniform linear array at the GBS, flat-top
cone at the UAV.

The GBS carries a vertical uniform linear array (ULA) of K elements with
spacing d_e, electrically tilted to ``downtilt_deg``.  Its power gain
toward elevation angle theta is

    G(theta) = G_e * cos(theta)^2 * (sin(K*phi/2) / (sqrt(K) * sin(phi/2)))^2
    phi     = 2*pi * (d_e/lambda) * (sin(theta) - sin(tilt))

where ``G_e * cos(theta)^2`` is the element power pattern.  At phi = 2*pi*m
the array factor has a removable singularity with limit K, so the boresight
gain is exactly ``K * G_e * cos(tilt)^2``.

The UAV antenna radiates a constant mainlobe gain
``G0 / half_beamwidth_deg^2`` into a downward cone of that half-beamwidth
and a constant backlobe gain outside it.  At UAV height H_u above GBS
antennas of height H_b the cone footprint is the disc of radius
``(H_u - H_b) * tan(half_beamwidth)``.

Each field is named by its INI key (sections ``[gbs_antenna]`` and
``[uav_antenna]``), and each constructor error opens with that name.
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
    """Tilted uniform linear array, evaluated by calling it with an array
    of elevation angles in degrees."""

    element_count: int
    element_spacing_wl: float
    downtilt_deg: float
    element_peak_gain: float

    def __post_init__(self) -> None:
        if not 1 <= self.element_count < math.inf:
            raise ValueError(f"element_count must be >= 1, got {self.element_count}")
        if not 0 < self.element_spacing_wl < math.inf:
            raise ValueError(
                f"element_spacing_wl must be positive, got {self.element_spacing_wl}"
            )
        if not -90.0 < self.downtilt_deg < 90.0:
            raise ValueError(f"downtilt_deg must lie in (-90, 90), got {self.downtilt_deg}")
        if not 0 < self.element_peak_gain < math.inf:
            raise ValueError(f"element_peak_gain must be positive, got {self.element_peak_gain}")

    def __call__(self, theta_deg) -> np.ndarray:
        """Linear power gain toward each elevation of ``theta_deg``, an
        array of angles in (-90, 90]; the element null makes the gain
        exactly 0 at theta = 90 (straight overhead)."""
        theta = np.asarray(theta_deg, dtype=float)
        if np.any(theta <= -90.0) or np.any(theta > 90.0):
            raise ValueError("elevation angle must lie in (-90, 90] degrees")
        k = self.element_count
        half = math.pi * self.element_spacing_wl * (
            np.sin(np.deg2rad(theta)) - math.sin(math.radians(self.downtilt_deg))
        )
        s = np.sin(half)
        singular = np.abs(s) < _SINGULARITY_EPS
        denom = np.where(singular, 1.0, s)
        af2 = np.where(singular, float(k), (np.sin(k * half) / (math.sqrt(k) * denom)) ** 2)
        return self.element_peak_gain * _cos_deg(theta) ** 2 * af2


@dataclass(frozen=True)
class UavAntenna:
    """Flat-top cone antenna pointing straight down from the UAV."""

    half_beamwidth_deg: float
    mainlobe_constant: float
    backlobe_gain: float

    def __post_init__(self) -> None:
        if not 0.0 < self.half_beamwidth_deg <= 90.0:
            raise ValueError(
                f"half_beamwidth_deg must lie in (0, 90] degrees, got {self.half_beamwidth_deg}"
            )
        if not 0 < self.mainlobe_constant < math.inf:
            raise ValueError(f"mainlobe_constant must be positive, got {self.mainlobe_constant}")
        if not 0 <= self.backlobe_gain < math.inf:
            raise ValueError(f"backlobe_gain must be non-negative, got {self.backlobe_gain}")

    @property
    def mainlobe_gain(self) -> float:
        """Constant in-cone gain; the 90-degree beam keeps the literal
        value mainlobe_constant / 8100 rather than snapping to isotropic."""
        return self.mainlobe_constant / self.half_beamwidth_deg**2

    def footprint_radius(self, uav_height: float, gbs_height: float) -> float:
        """Radius of the mainlobe disc on the GBS antenna plane."""
        dh = uav_height - gbs_height
        if dh <= 0:
            raise ValueError(
                f"UAV altitude {uav_height} must exceed the GBS antenna height {gbs_height}"
            )
        if self.half_beamwidth_deg == 90.0:
            return math.inf
        return dh * math.tan(math.radians(self.half_beamwidth_deg))

    def gain_at(self, r2, uav_height, gbs_height: float) -> np.ndarray:
        """Gain toward GBSs at (P, n) squared horizontal distances ``r2``
        from UAVs at the (P,) heights ``uav_height``, one row per height.
        A GBS is inside the footprint when r2 <= radius * radius, so
        points on its boundary get the mainlobe gain."""
        r2, heights = np.asarray(r2), np.asarray(uav_height, dtype=float)
        if heights.ndim != 1 or r2.ndim != 2 or len(r2) != len(heights):
            raise ValueError(
                f"need (P, n) distances and (P,) heights, got {r2.shape} and {heights.shape}"
            )
        radius = [self.footprint_radius(h, gbs_height) for h in heights.tolist()]
        inside = r2 <= np.array([r * r for r in radius])[:, None]
        return np.where(inside, self.mainlobe_gain, self.backlobe_gain)
