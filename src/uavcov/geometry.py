"""Hexagonal ground-base-station layouts and UAV link geometry.

The network is a hexagonal grid of ground base stations (GBSs) with
inter-site distance ``D``: sites live on the lattice ``a*v1 + b*v2`` with
``v1 = (D, 0)`` and ``v2 = (D/2, D*sqrt(3)/2)``, and every lattice point
within a cutoff radius of the origin is kept.  Site 0 sits at the origin
and one first-tier neighbour lies on the positive x axis.

Frequency bands are assigned by sublattice colouring: for a reuse factor
``F`` in {1, 3, 4, 7} the co-channel sites of any site form a scaled and
rotated hexagonal sublattice of index ``F``, so the minimum co-channel
spacing is ``sqrt(F) * D``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

SUPPORTED_REUSE_FACTORS = (1, 3, 4, 7)

# Axial generator (i, j) of the co-channel sublattice for each reuse factor;
# the second generator is its 60-degree rotation (-j, i+j).  The sublattice
# index i*i + i*j + j*j equals the reuse factor.
_REUSE_GENERATOR = {1: (1, 0), 3: (1, 1), 4: (2, 0), 7: (2, 1)}


class GbsSite(NamedTuple):
    gbs_id: int
    x: float
    y: float
    band: int


@dataclass(frozen=True)
class NetworkLayout:
    """Immutable set of GBS sites plus the grid parameters that built it."""

    sites: tuple[GbsSite, ...]
    inter_site_distance: float
    radius: float
    reuse_factor: int

    def __len__(self) -> int:
        return len(self.sites)

    @cached_property
    def columns(self) -> tuple[np.ndarray, ...]:
        """The sites as read-only (gbs_id, x, y, band) arrays, built once."""
        cols = tuple(np.array([site[k] for site in self.sites]) for k in range(4))
        for col in cols:
            col.flags.writeable = False
        return cols

    def bands(self) -> np.ndarray:
        return self.columns[3]


def _band_key(a: int, b: int, reuse_factor: int) -> tuple[int, int]:
    """Coset label of axial lattice point (a, b) modulo the co-channel
    sublattice.  Two sites share a band iff their labels match."""
    i, j = _REUSE_GENERATOR[reuse_factor]
    f = reuse_factor
    return (((i + j) * a + j * b) % f, (-j * a + i * b) % f)


def build_hex_layout(
    inter_site_distance: float,
    radius: float,
    reuse_factor: int = 3,
) -> NetworkLayout:
    """Construct the hexagonal layout of all sites within ``radius`` of
    the origin.

    Sites are numbered by increasing distance from the origin, ties broken
    by angle from the positive x axis, so id 0 is always the origin site.
    Band 0 is the band of the origin site.
    """
    if inter_site_distance <= 0:
        raise ValueError(f"inter-site distance must be positive, got {inter_site_distance}")
    if radius < 0:
        raise ValueError(f"layout radius must be non-negative, got {radius}")
    if reuse_factor not in SUPPORTED_REUSE_FACTORS:
        raise ValueError(
            f"reuse factor must be one of {SUPPORTED_REUSE_FACTORS}, got {reuse_factor}"
        )

    d = inter_site_distance
    # |a*v1 + b*v2|^2 = d^2 * (a^2 + a*b + b^2); enumerate a generous
    # axial bounding box and filter by the exact integer norm.
    k_max = int(math.floor((radius / d) ** 2 * (1.0 + 1e-12)))
    n_max = int(math.ceil(radius / d * 2.0 / math.sqrt(3.0))) + 1
    entries = []
    for a in range(-n_max, n_max + 1):
        for b in range(-n_max, n_max + 1):
            k = a * a + a * b + b * b
            if k > k_max:
                continue
            x = d * (a + 0.5 * b)
            y = d * (0.5 * math.sqrt(3.0) * b)
            angle = math.atan2(y, x) % (2.0 * math.pi)
            entries.append((k, angle, a, b, x, y))
    entries.sort(key=lambda e: (e[0], e[1]))

    keys = sorted({_band_key(a, b, reuse_factor) for (_, _, a, b, _, _) in entries})
    band_index = {key: n for n, key in enumerate(keys)}
    sites = tuple(
        GbsSite(n, x, y, band_index[_band_key(a, b, reuse_factor)])
        for n, (_, _, a, b, x, y) in enumerate(entries)
    )
    return NetworkLayout(sites, d, radius, reuse_factor)


def layout_from_sites(
    sites: Sequence[tuple[int, float, float, int]],
    inter_site_distance: float,
    reuse_factor: int = 0,
) -> NetworkLayout:
    """Build a layout from an explicit (id, x, y, band) list.

    Ids must be 0..n-1 after sorting; the inter-site distance is still
    needed because it defines the reference cell used by sampling regions.
    A ``reuse_factor`` of 0 marks the banding as user-supplied.
    """
    ordered = sorted(sites, key=lambda s: s[0])
    if [s[0] for s in ordered] != list(range(len(ordered))):
        raise ValueError("site ids must be consecutive integers starting at 0")
    if inter_site_distance <= 0:
        raise ValueError(f"inter-site distance must be positive, got {inter_site_distance}")
    built = tuple(GbsSite(int(i), float(x), float(y), int(band)) for i, x, y, band in ordered)
    radius = max((math.hypot(s.x, s.y) for s in built), default=0.0)
    return NetworkLayout(built, inter_site_distance, radius, reuse_factor)


def link_geometry(
    uav_xyz: Sequence[float], xs, ys, gbs_height: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Horizontal distance, 3D distance and elevation angle (degrees) of
    the UAV seen from GBS antennas at (xs, ys, gbs_height), one entry per
    site.

    The elevation is arcsin(dh / d3) with dh the height difference and d3
    the 3D distance; the UAV must fly strictly above the GBS antennas, so
    it lies in (0, 90] with 90 exactly overhead.
    """
    dh = uav_xyz[2] - gbs_height
    if dh <= 0:
        raise ValueError(
            f"UAV altitude {uav_xyz[2]} must exceed the GBS antenna height {gbs_height}"
        )
    dx = uav_xyz[0] - np.asarray(xs, dtype=float)
    dy = uav_xyz[1] - np.asarray(ys, dtype=float)
    d3 = np.sqrt(dx**2 + dy**2 + dh**2)
    return np.hypot(dx, dy), d3, np.degrees(np.arcsin(dh / d3))


# ---------------------------------------------------------------------------
# Sampling regions
# ---------------------------------------------------------------------------

class RegionKind(Enum):
    TRIANGLE = "triangle"
    CELL = "cell"


@dataclass(frozen=True)
class SamplingRegion:
    """Where spatial averages are taken.

    ``TRIANGLE`` is one sixth of the reference hexagonal cell around site 0
    (the sextant bisected by the positive x axis); by the six-fold symmetry
    of the grid its average equals the full-cell average.  ``CELL`` is the
    whole reference hexagon.
    """

    kind: RegionKind
    resolution: int

    def __post_init__(self) -> None:
        if self.resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {self.resolution}")


def hexagon_corners(inter_site_distance: float) -> np.ndarray:
    """Corners of the reference cell around the origin site.

    The cell is the Voronoi region of the origin: edges face the six
    first-tier neighbours, corners sit at distance D/sqrt(3) at angles
    30 + 60*m degrees.
    """
    r = inter_site_distance / math.sqrt(3.0)
    ang = np.deg2rad(30.0 + 60.0 * np.arange(6))
    return np.column_stack([r * np.cos(ang), r * np.sin(ang)])


def _triangle_grid(v0: np.ndarray, v1: np.ndarray, v2: np.ndarray, res: int) -> np.ndarray:
    """Centroids of the res**2 congruent subtriangles of triangle v0-v1-v2.

    Equal-area cells make the plain arithmetic mean an unbiased area
    average; all centroids are strictly interior.
    """
    u = (v1 - v0) / res
    w = (v2 - v0) / res
    pts = []
    for i in range(res):
        for j in range(res - i):
            pts.append(v0 + (i + 1.0 / 3.0) * u + (j + 1.0 / 3.0) * w)
            if i + j <= res - 2:
                pts.append(v0 + (i + 2.0 / 3.0) * u + (j + 2.0 / 3.0) * w)
    return np.array(pts)


def sample_region(region: SamplingRegion, inter_site_distance: float) -> np.ndarray:
    """Deterministic grid of points strictly inside the region.

    The triangle and each of the cell's six sextants are tiled with
    equal-area subtriangles and sampled at their centroids (res**2 points
    per triangle).
    """
    res = region.resolution
    corners = hexagon_corners(inter_site_distance)
    origin = np.zeros(2)
    if region.kind is RegionKind.TRIANGLE:
        return _triangle_grid(origin, corners[5], corners[0], res)
    return np.vstack([
        _triangle_grid(origin, corners[m - 1], corners[m], res) for m in range(6)
    ])


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

LAYOUT_CSV_HEADER = ("id", "x_m", "y_m", "band")


def write_layout_csv(layout: NetworkLayout, path, comment: str | None = None) -> None:
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(LAYOUT_CSV_HEADER)
        for s in layout.sites:
            # repr round-trips exactly, so a written layout can feed
            # sites_csv without moving any site
            writer.writerow([s.gbs_id, repr(s.x), repr(s.y), s.band])


def read_layout_csv(path, inter_site_distance: float) -> NetworkLayout:
    """Load an explicit site list written by :func:`write_layout_csv`."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != LAYOUT_CSV_HEADER:
            raise ValueError(f"expected header {LAYOUT_CSV_HEADER} in {path}, got {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"malformed layout row in {path}: {row}")
            rows.append((int(row[0]), float(row[1]), float(row[2]), int(row[3])))
    return layout_from_sites(rows, inter_site_distance)
