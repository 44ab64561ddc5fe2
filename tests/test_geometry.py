"""Layout construction, banding, regions and the layout CSV format.

The lattice and band oracles here are independent re-derivations: sites
are counted by scanning a generous axial bounding box with plain
Euclidean distance checks, and band structure is verified through
pairwise distances rather than the coset arithmetic used internally.
``loop_layout`` is the exception: a site-by-site construction that the
array code must match exactly, order, coordinates and bands.  So are
``label_pair_bands``, the bands numbered by ``np.unique`` over the
coset label pairs, and ``loop_triangle_grid``, the region's centroids
cell by cell: the array code must match them bit for bit.
"""

import math

import numpy as np
import pytest

from uavcov import geometry
from uavcov.geometry import (
    RegionKind,
    SamplingRegion,
    build_hex_layout,
    NetworkLayout,
    hexagon_corners,
    link_geometry,
    point_orbits,
    read_layout_csv,
    sample_region,
    write_layout_csv,
)

D = 500.0


def brute_force_positions(d, radius):
    """Every lattice point within radius, by exhaustive scan."""
    n = int(radius / d) + 3
    pts = []
    for a in range(-2 * n, 2 * n + 1):
        for b in range(-2 * n, 2 * n + 1):
            x = d * (a + 0.5 * b)
            y = d * (0.5 * math.sqrt(3.0) * b)
            if math.hypot(x, y) <= radius * (1.0 + 1e-12):
                pts.append((x, y))
    return pts


@pytest.mark.parametrize("radius,expected", [(0.0, 1), (500.0, 7), (1500.0, 37)])
def test_site_counts(radius, expected):
    layout = build_hex_layout(D, radius, 3)
    assert len(layout) == expected
    assert len(brute_force_positions(D, radius)) == expected


def test_positions_match_brute_force():
    for radius in (0.0, 700.0, 1500.0, 3100.0, 5000.0):
        layout = build_hex_layout(D, radius, 3)
        got = sorted(zip(np.round(layout.x, 6).tolist(), np.round(layout.y, 6).tolist()))
        want = sorted((round(x, 6), round(y, 6)) for x, y in brute_force_positions(D, radius))
        assert got == want


def test_ordering_origin_first():
    layout = build_hex_layout(D, 1500.0, 3)
    assert (layout.x[0], layout.y[0]) == (0.0, 0.0)
    dists = np.hypot(layout.x, layout.y).tolist()
    assert dists == sorted(dists)
    # id 1 is the first-tier site on the +x axis
    assert layout.x[1] == pytest.approx(D)
    assert layout.y[1] == pytest.approx(0.0, abs=1e-9)


def test_band_partition_and_sizes():
    layout = build_hex_layout(D, 1500.0, 3)
    bands = layout.band
    sizes = sorted(int(np.sum(bands == b)) for b in set(bands.tolist()))
    assert sizes == [12, 12, 13]
    assert bands[0] == 0
    assert sorted(set(bands.tolist())) == [0, 1, 2]
    assert len(layout) == 37


def test_co_channel_interferer_count():
    layout = build_hex_layout(D, 1500.0, 3)
    bands = layout.band
    assert int(np.sum(bands == bands[1])) - 1 == 11      # site 1's band, minus itself


@pytest.mark.parametrize("reuse,min_ratio", [(1, 1.0), (3, math.sqrt(3)), (4, 2.0), (7, math.sqrt(7))])
def test_reuse_distance(reuse, min_ratio):
    """Same-band sites are at least sqrt(F) inter-site distances apart,
    and that minimum is attained."""
    layout = build_hex_layout(D, 2500.0, reuse)
    sites = list(zip(layout.x.tolist(), layout.y.tolist(), layout.band.tolist()))
    best = math.inf
    for n, (x, y, band) in enumerate(sites):
        for u, v, other in sites[n + 1:]:
            if band == other:
                best = min(best, math.hypot(x - u, y - v))
    assert best == pytest.approx(min_ratio * D, rel=1e-9)


def test_band_count_matches_reuse_factor():
    for reuse in (1, 3, 4, 7):
        layout = build_hex_layout(D, 2500.0, reuse)
        assert len(set(layout.band.tolist())) == reuse


def loop_layout(d, radius, reuse):
    """Site-by-site reference for build_hex_layout: sort every axial point
    within radius by (norm, angle), and number the coset labels of the
    co-channel sublattice in sorted order."""
    i, j = {1: (1, 0), 3: (1, 1), 4: (2, 0), 7: (2, 1)}[reuse]
    k_max = int(math.floor((radius / d) ** 2 * (1.0 + 1e-12)))
    n = int(math.ceil(radius / d * 2.0 / math.sqrt(3.0))) + 1
    entries = []
    for a in range(-n, n + 1):
        for b in range(-n, n + 1):
            if a * a + a * b + b * b <= k_max:
                x, y = d * (a + 0.5 * b), d * (0.5 * math.sqrt(3.0) * b)
                angle = math.atan2(y, x) % (2.0 * math.pi)
                label = (((i + j) * a + j * b) % reuse, (-j * a + i * b) % reuse)
                entries.append((a * a + a * b + b * b, angle, x, y, label))
    entries.sort(key=lambda e: e[:2])
    labels = sorted({e[4] for e in entries})
    return ([e[2] for e in entries], [e[3] for e in entries],
            [labels.index(e[4]) for e in entries])


@pytest.mark.parametrize("reuse", [1, 3, 4, 7])
def test_layout_matches_site_by_site_reference(reuse):
    for d in (300.0, 500.0, 1000.0 / 3.0):
        for radius in (0.0, 400.0, 1500.0, 2600.0, 5000.0):
            layout = build_hex_layout(d, radius, reuse)
            x, y, band = loop_layout(d, radius, reuse)
            assert layout.x.tolist() == x and layout.y.tolist() == y
            assert layout.band.tolist() == band


def label_pair_bands(layout, d, reuse):
    """Bands numbered by np.unique over the (label0, label1) coset label
    pairs, with each site's axial (a, b) recovered from its coordinates."""
    i, j = {1: (1, 0), 3: (1, 1), 4: (2, 0), 7: (2, 1)}[reuse]
    b = np.rint(layout.y / (0.5 * math.sqrt(3.0) * d)).astype(int)
    a = np.rint(layout.x / d - 0.5 * b).astype(int)
    keys = np.column_stack((((i + j) * a + j * b) % reuse, (-j * a + i * b) % reuse))
    _, band = np.unique(keys, axis=0, return_inverse=True)
    return band.reshape(-1)


@pytest.mark.parametrize("reuse", [1, 3, 4, 7])
def test_bands_match_the_label_pair_numbering(reuse, tmp_path):
    for radius in (0.0, 499.0, 1500.0, 5000.0, 10000.0):
        layout = build_hex_layout(D, radius, reuse)
        pairs = label_pair_bands(layout, D, reuse)
        assert layout.band.tolist() == pairs.tolist()
        assert layout.band[0] == 0
        write_layout_csv(layout, tmp_path / "layout.csv")
        write_layout_csv(NetworkLayout(layout.x, layout.y, pairs), tmp_path / "pairs.csv")
        assert (tmp_path / "layout.csv").read_bytes() == (tmp_path / "pairs.csv").read_bytes()


def test_invalid_layout_args():
    # each message opens with the parameter's [layout] INI key
    with pytest.raises(ValueError, match="^inter_site_distance_m must be positive"):
        build_hex_layout(0.0, 1000.0, 3)
    with pytest.raises(ValueError, match="^radius_m must be non-negative"):
        build_hex_layout(D, -1.0, 3)
    with pytest.raises(ValueError, match="^reuse_factor must be one of"):
        build_hex_layout(D, 1000.0, 5)


@pytest.mark.parametrize("args, message", [
    ((math.nan, 1000.0, 3), "^inter_site_distance_m must be positive, got nan"),
    ((D, math.nan, 3), "^radius_m must be non-negative, got nan"),
])
def test_layout_rejects_nan(args, message):
    with pytest.raises(ValueError, match=message):
        build_hex_layout(*args)
    # an infinite value in the same place fails with the same message
    with pytest.raises(ValueError, match=message.replace("nan", "inf")):
        build_hex_layout(*(math.inf if math.isnan(a) else a for a in args))


def test_elevation_angle():
    # sites at the origin and 100 m east, seen from straight above the origin
    _, _, theta = link_geometry([(0.0, 0.0, 120.0)], [0.0, 100.0], [0.0, 0.0], 20.0)
    assert theta == pytest.approx(np.array([[90.0, 45.0]]))   # overhead; offset = height
    # monotone in altitude at fixed horizontal offset, one row per position
    heights = (30.0, 60.0, 120.0, 240.0)
    _, _, angles = link_geometry([(300.0, 40.0, h) for h in heights], [0.0], [0.0], 20.0)
    assert angles.shape == (4, 1)
    assert angles[:, 0].tolist() == sorted(angles[:, 0].tolist())
    for h in (20.0, 10.0):
        with pytest.raises(ValueError, match="must exceed the GBS antenna height"):
            link_geometry([(0.0, 0.0, h)], [0.0], [0.0], 20.0)
    # positions come as a (P, 3) block, one or more rows
    with pytest.raises(ValueError, match=r"must have shape \(P, 3\), got \(3,\)"):
        link_geometry((0.0, 0.0, 120.0), [0.0], [0.0], 20.0)


def test_distance_3d():
    r_h, d3, _ = link_geometry([(3.0, 4.0, 32.0)], [0.0, 3.0], [0.0, 4.0], 20.0)
    assert r_h == pytest.approx(np.array([[5.0, 0.0]]))
    assert d3 == pytest.approx(np.array([[13.0, 12.0]]))


def test_hexagon_corners():
    corners = hexagon_corners(D)
    assert len(corners) == 6
    r = D / math.sqrt(3.0)
    for i, (x, y) in enumerate(corners):
        assert math.hypot(x, y) == pytest.approx(r)
        assert math.degrees(math.atan2(y, x)) % 360 == pytest.approx((30.0 + 60.0 * i) % 360)


def _in_triangle(p, a, b, c):
    """Barycentric containment, independent of the module's own tests."""
    m = np.array([[b[0] - a[0], c[0] - a[0]], [b[1] - a[1], c[1] - a[1]]])
    lam = np.linalg.solve(m, np.array([p[0] - a[0], p[1] - a[1]]))
    return lam[0] >= -1e-12 and lam[1] >= -1e-12 and lam.sum() <= 1.0 + 1e-12


def test_triangle_points_inside_and_counted():
    corners = hexagon_corners(D)
    tri = ((0.0, 0.0), corners[5], corners[0])
    for res in (1, 2, 4, 7):
        pts = sample_region(SamplingRegion(RegionKind.TRIANGLE, res), D)
        assert len(pts) == res * res
        for p in pts:
            assert _in_triangle(p, *tri)


def test_triangle_res1_is_centroid():
    corners = hexagon_corners(D)
    pts = sample_region(SamplingRegion(RegionKind.TRIANGLE, 1), D)
    cx = (corners[5][0] + corners[0][0]) / 3.0
    cy = (corners[5][1] + corners[0][1]) / 3.0
    assert pts[0][0] == pytest.approx(cx)
    assert pts[0][1] == pytest.approx(cy, abs=1e-9)


def test_cell_is_six_triangles():
    pts = sample_region(SamplingRegion(RegionKind.CELL, 3), D)
    assert len(pts) == 6 * 9
    corners = hexagon_corners(D)
    sextants = [((0.0, 0.0), corners[m - 1], corners[m]) for m in range(6)]
    for p in pts:
        assert any(_in_triangle(p, *tri) for tri in sextants)


def loop_triangle_grid(v0, v1, v2, res):
    """Cell-by-cell reference for the subtriangle centroids: i-major, each
    up-triangle before its down-triangle."""
    u = (v1 - v0) / res
    w = (v2 - v0) / res
    pts = []
    for i in range(res):
        for j in range(res - i):
            pts.append(v0 + (i + 1.0 / 3.0) * u + (j + 1.0 / 3.0) * w)
            if i + j <= res - 2:
                pts.append(v0 + (i + 2.0 / 3.0) * u + (j + 2.0 / 3.0) * w)
    return np.array(pts)


@pytest.mark.parametrize("kind", list(RegionKind))
def test_region_points_match_the_cell_by_cell_loop(kind, monkeypatch):
    regions = [SamplingRegion(kind, res) for res in range(1, 17)]
    points = [sample_region(region, D) for region in regions]
    monkeypatch.setattr(geometry, "_triangle_grid", loop_triangle_grid)
    for region, pts in zip(regions, points):
        want = sample_region(region, D)
        assert pts.shape == want.shape and pts.tobytes() == want.tobytes()


def test_cell_points_are_rotated_triangle_points():
    tri = sample_region(SamplingRegion(RegionKind.TRIANGLE, 2), D)
    cell = sample_region(SamplingRegion(RegionKind.CELL, 2), D)
    rot = math.radians(60.0)
    expect = set()
    for m in range(6):
        c, s = math.cos(m * rot), math.sin(m * rot)
        for x, y in tri:
            expect.add((round(c * x - s * y, 6), round(s * x + c * y, 6)))
    assert {(round(x, 6), round(y, 6)) for x, y in cell} == expect


@pytest.mark.parametrize("kind", list(RegionKind))
@pytest.mark.parametrize("res", [1, 2, 3, 4])
def test_point_orbits_of_a_hexagonal_layout(kind, res):
    # a built layout has the hexagon's 12 symmetries: the cell's 6 r^2
    # points fall in (r^2 + r)/2 orbits, and so do the triangle's r^2
    # under its mirror alone
    pts = sample_region(SamplingRegion(kind, res), D)
    rep = point_orbits(pts, build_hex_layout(D, 5000.0, 3))
    assert (rep <= np.arange(len(pts))).all() and (rep[rep] == rep).all()
    assert len(np.unique(rep)) == (res * res + res) // 2
    radius = np.hypot(pts[:, 0], pts[:, 1])
    np.testing.assert_allclose(radius[rep], radius, rtol=1e-12)


def test_point_orbits_of_one_point_never_read_the_layout():
    pts = sample_region(SamplingRegion(RegionKind.TRIANGLE, 1), D)
    assert point_orbits(pts, None).tolist() == [0]


def test_region_validation():
    with pytest.raises(ValueError):
        SamplingRegion(RegionKind.TRIANGLE, 0)
    with pytest.raises(ValueError):
        SamplingRegion(RegionKind.CELL, 0)


def test_layout_csv_round_trip(tmp_path):
    layout = build_hex_layout(D, 1500.0, 3)
    path = tmp_path / "layout.csv"
    write_layout_csv(layout, path, comment="config_sha256=deadbeef")
    text = path.read_text()
    assert text.startswith("# config_sha256=deadbeef\n")
    assert text.splitlines()[1] == "id,x_m,y_m,band"
    again = read_layout_csv(path)
    assert len(again) == 37
    for name in ("x", "y", "band"):
        assert np.array_equal(getattr(again, name), getattr(layout, name))


def test_layout_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,x,y,band\n0,0,0,0\n")
    with pytest.raises(ValueError):
        read_layout_csv(path)


def test_layout_csv_requires_consecutive_ids(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("id,x_m,y_m,band\n0,0.0,0.0,0\n2,500.0,0.0,1\n")
    with pytest.raises(ValueError, match="consecutive"):
        read_layout_csv(path)


def test_layout_csv_rows_in_any_id_order(tmp_path):
    path = tmp_path / "shuffled.csv"
    path.write_text("id,x_m,y_m,band\n1,500.0,0.0,1\n0,0.0,0.0,0\n")
    layout = read_layout_csv(path)
    assert layout.x.tolist() == [0.0, 500.0]
    assert layout.band.tolist() == [0, 1]


@pytest.mark.parametrize("x, y, band, match", [
    ([0.0, math.nan], [0.0, 0.0], [0, 1], "site 1 has a non-finite"),
    ([0.0, 1.0], [-math.inf, 0.0], [0, 1], "site 0 has a non-finite"),
    ([0.0, 1.0], [0.0, 0.0], [0.0, 1.0], "integers"),
    ([0.0, 1.0], [0.0], [0, 1], "equal length"),
    ([[0.0, 1.0]], [[0.0, 1.0]], [[0, 1]], "1-D"),
    ([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [0, 3, -1], "site 2 has a negative band -1"),
])
def test_layout_constructor_rejects(x, y, band, match):
    with pytest.raises(ValueError, match=match):
        NetworkLayout(np.array(x), np.array(y), np.array(band))


def test_layout_columns_are_read_only_copies():
    x = np.array([0.0, 500.0])
    layout = NetworkLayout(x, np.zeros(2), np.array([0, 1]))
    x[0] = 1.0
    assert layout.x[0] == 0.0
    with pytest.raises(ValueError):
        layout.band[0] = 2
