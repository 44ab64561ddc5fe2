"""Hexagonal ground-base-station layouts and UAV link geometry.

A layout is three read-only columns, ``x``, ``y`` (metres) and ``band``;
a site's id is its index.  The network is a hexagonal grid of ground
base stations (GBSs) with inter-site distance ``D``: sites live on the
lattice ``a*v1 + b*v2`` with ``v1 = (D, 0)`` and
``v2 = (D/2, D*sqrt(3)/2)``, and every lattice point within a cutoff
radius of the origin is kept.  Site 0 sits at the origin and one
first-tier neighbour lies on the positive x axis.

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

import numpy as np

# Axial generator (i, j) of the co-channel sublattice for each reuse factor;
# the second generator is its 60-degree rotation (-j, i+j).  The sublattice
# index i*i + i*j + j*j equals the reuse factor.
_REUSE_GENERATOR = {1: (1, 0), 3: (1, 1), 4: (2, 0), 7: (2, 1)}


@dataclass(frozen=True, eq=False)
class NetworkLayout:
    """GBS sites as read-only 1-D columns: site n is at (``x[n]``,
    ``y[n]``) on band ``band[n]``, and its id is n.

    The constructor is where a layout is checked: equal-length 1-D
    columns, finite coordinates and integer bands >= 0.
    """

    x: np.ndarray
    y: np.ndarray
    band: np.ndarray

    def __post_init__(self) -> None:
        band = np.asarray(self.band)
        if band.dtype.kind not in "iu":
            raise ValueError(f"site bands must be integers, got dtype {band.dtype}")
        columns = {"x": np.array(self.x, dtype=float), "y": np.array(self.y, dtype=float),
                   "band": band.astype(np.intp)}
        for name, col in columns.items():
            if col.ndim != 1:
                raise ValueError(f"layout column {name} must be 1-D, got shape {col.shape}")
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        if not len(self.x) == len(self.y) == len(self.band):
            raise ValueError("layout columns must have equal length")
        bad = ~(np.isfinite(self.x) & np.isfinite(self.y))
        if bad.any():
            raise ValueError(f"site {np.argmax(bad)} has a non-finite coordinate")
        if (self.band < 0).any():
            n = int(np.argmax(self.band < 0))
            raise ValueError(f"site {n} has a negative band {self.band[n]}")

    def __len__(self) -> int:
        return len(self.x)


def build_hex_layout(
    inter_site_distance_m: float,
    radius_m: float,
    reuse_factor: int,
) -> NetworkLayout:
    """Construct the hexagonal layout of all sites within ``radius_m`` of
    the origin; the parameters are named by their ``[layout]`` INI keys.

    Sites are numbered by increasing distance from the origin, ties broken
    by angle from the positive x axis, so id 0 is always the origin site.
    Bands number the cosets of the co-channel sublattice in the order of
    their labels, so band 0 is the band of the origin site.
    """
    if not 0 < inter_site_distance_m < math.inf:
        raise ValueError(f"inter_site_distance_m must be positive, got {inter_site_distance_m}")
    if not 0 <= radius_m < math.inf:
        raise ValueError(f"radius_m must be non-negative, got {radius_m}")
    if reuse_factor not in _REUSE_GENERATOR:
        raise ValueError(
            f"reuse_factor must be one of {tuple(_REUSE_GENERATOR)}, got {reuse_factor}"
        )

    d = inter_site_distance_m
    # |a*v1 + b*v2|^2 = d^2 * (a^2 + a*b + b^2); enumerate a generous
    # axial bounding box and filter by the exact integer norm.
    k_max = int(math.floor((radius_m / d) ** 2 * (1.0 + 1e-12)))
    n_max = int(math.ceil(radius_m / d * 2.0 / math.sqrt(3.0))) + 1
    axis = np.arange(-n_max, n_max + 1)
    a, b = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
    k = a * a + a * b + b * b
    keep = k <= k_max
    a, b, k = a[keep], b[keep], k[keep]
    x = d * (a + 0.5 * b)
    y = d * (0.5 * math.sqrt(3.0) * b)
    order = np.lexsort((np.arctan2(y, x) % (2.0 * math.pi), k))
    a, b = a[order], b[order]

    # coset label of (a, b) modulo the co-channel sublattice: two sites
    # share a band iff their labels match
    i, j = _REUSE_GENERATOR[reuse_factor]
    f = reuse_factor
    # one integer per label pair (l0, l1), l0 * f + l1: as 0 <= l1 < f it
    # sorts as the pairs do
    keys = ((i + j) * a + j * b) % f * f + (-j * a + i * b) % f
    # the inverse's shape differs between numpy 2.x releases
    _, band = np.unique(keys, return_inverse=True)
    return NetworkLayout(x[order], y[order], band.reshape(-1))


def link_distances(
    positions, xs, ys, gbs_height: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared horizontal and squared 3D distances of UAVs at a (P, 3)
    block of positions (x, y, z) from GBS antennas at (xs, ys,
    gbs_height), as (P, n) arrays with one row per position and one
    entry per site, and the (P,) heights ``dh`` of the UAVs above the
    antennas.  Each UAV must be at a finite position strictly above the
    GBS antennas.

    The squared 3D distance is (dx^2 + dy^2) + dh^2, so of a position's
    links it grows with the squared horizontal distance.
    """
    block = np.asarray(positions, dtype=float)
    if block.ndim != 2 or block.shape[1] != 3:
        raise ValueError(f"UAV positions must have shape (P, 3), got {block.shape}")
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        raise ValueError(f"UAV position {block[np.argmin(finite)].tolist()} is not finite")
    heights = block[:, 2].tolist()
    for z in heights:
        if z - gbs_height <= 0:
            raise ValueError(f"UAV altitude {z} must exceed the GBS antenna height {gbs_height}")
    # each position's height terms are Python floats
    dh = [z - gbs_height for z in heights]
    dx = block[:, :1] - np.asarray(xs, dtype=float)
    dy = block[:, 1:2] - np.asarray(ys, dtype=float)
    r2 = dx**2 + dy**2
    return r2, r2 + np.array([d**2 for d in dh])[:, None], np.array(dh)


def link_elevation(d2, dh) -> tuple[np.ndarray, np.ndarray]:
    """3D distance sqrt(d2) and elevation angle arcsin(dh / d3) (degrees)
    of links at squared 3D distances ``d2`` whose UAV lies ``dh`` > 0
    above the GBS antenna, arrays that broadcast: the elevation lies in
    (0, 90], with 90 exactly overhead."""
    d3 = np.sqrt(d2)
    return d3, np.degrees(np.arcsin(dh / d3))


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
    (the sextant bisected by the positive x axis); on a layout with the
    six-fold symmetry of the hexagonal grid its average equals the
    full-cell average, but not on an arbitrary ``sites_csv`` layout.
    ``CELL`` is the whole reference hexagon.
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
    # subtriangle (i, j, k): cell (i, j), i-major, its up-triangle (k = 0)
    # before its down-triangle (k = 1); it exists when i + j + k < res
    i, rest = np.divmod(np.arange(2 * res * res), 2 * res)
    j, k = np.divmod(rest, 2)
    kept = i + j + k < res
    third = (k[kept] + 1) / 3.0
    return v0 + (i[kept] + third)[:, None] * u + (j[kept] + third)[:, None] * w


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


# Two points match when each of their sorted site distances differs by at
# most _MATCH_TOLERANCE times the largest coordinate of the points and
# sites: far above the roundoff of a distance, far below any spacing of
# sites or grid points.  Candidates pair by their distances rounded to
# multiples of _KEY_STEP times that scale, a step so coarse that roundoff
# almost never carries a distance across a rounding boundary.
_MATCH_TOLERANCE = 1e-9
_KEY_STEP = 1e-6


def point_orbits(points, layout: NetworkLayout) -> np.ndarray:
    """Index of each point's representative: the least-index point whose
    distances to the sites, sorted, match its own within the match
    tolerance.

    Two such points see the same multiset of site distances, so every
    law that depends on a point only through them (as the uplink's does)
    is the same at both.  A point is paired with the first point of its
    rounded distances and kept only if every distance matches; otherwise
    it represents itself, so a match missed to roundoff costs an
    evaluation and never moves a value.  A grid of fewer than two points
    never looks at the sites.
    """
    pts = np.asarray(points, dtype=float)
    rep = np.arange(len(pts))
    if len(pts) < 2:
        return rep
    scale = float(np.abs(np.concatenate((pts.ravel(), layout.x, layout.y))).max()) or 1.0
    dist = np.subtract.outer(pts[:, 0], layout.x) ** 2
    dist += np.subtract.outer(pts[:, 1], layout.y) ** 2
    dist.sort(axis=1)           # sorting the squares sorts the distances
    np.sqrt(dist, out=dist)
    keys = dist / (_KEY_STEP * scale)
    np.rint(keys, out=keys)
    first: dict[bytes, int] = {}
    found = np.array([first.setdefault(key.tobytes(), i) for i, key in enumerate(keys)])
    error = np.abs(dist - dist[found]).max(axis=1, initial=0.0)
    return np.where(error <= _MATCH_TOLERANCE * scale, found, rep)


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
        columns = zip(layout.x.tolist(), layout.y.tolist(), layout.band.tolist())
        for gbs_id, (x, y, band) in enumerate(columns):
            # repr of a Python float round-trips exactly, so a written
            # layout can feed sites_csv without moving any site
            writer.writerow([gbs_id, repr(x), repr(y), band])


def read_layout_csv(path) -> NetworkLayout:
    """Load an explicit site list written by :func:`write_layout_csv`.

    Rows may come in any order; their ids must be 0..n-1.
    """
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
    rows.sort(key=lambda row: row[0])
    if [row[0] for row in rows] != list(range(len(rows))):
        raise ValueError("site ids must be consecutive integers starting at 0")
    return NetworkLayout(
        np.array([row[1] for row in rows], dtype=float),
        np.array([row[2] for row in rows], dtype=float),
        np.array([row[3] for row in rows], dtype=np.intp),
    )
