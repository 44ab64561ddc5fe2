"""Association walk, SNR distributions, and spatial coverage.

The oracles enumerate the joint channel-state (and interferer-activity)
space directly, which is exponential but exact; the walk and the mixture
cdf must reproduce them to float precision.
"""

import itertools
import math

import numpy as np
import pytest

from conftest import link_table, load_scenario, random_link_table
from uavcov import coverage
from uavcov.channel import LinkTable, build_link_table
from uavcov.coverage import (
    AssociationState,
    DownlinkSnrCdf,
    LinkDirection,
    UplinkSnrPmf,
    association_pmf,
    conditional_interference_spec,
    coverage_at_altitude,
    coverage_over_altitudes,
    downlink_snr_cdf,
    uplink_snr_pmf,
)
from uavcov.gpm import SteppedCdf, enumerate_cdf, kolmogorov_distance, la_cdf


def brute_force_uplink(table, beta0):
    """Uplink SNR atoms by enumerating every LoS/NLoS configuration."""
    acc = {}
    rows = list(zip(table.c_los.tolist(), table.c_nlos.tolist(), table.p_los.tolist()))
    for mask in itertools.product((False, True), repeat=len(table)):
        prob = 1.0
        best = 0.0
        for (c_los, c_nlos, p_los), is_los in zip(rows, mask):
            prob *= p_los if is_los else 1.0 - p_los
            best = max(best, c_los if is_los else c_nlos)
        if prob > 0.0:
            key = beta0 * best
            acc[key] = acc.get(key, 0.0) + prob
    return acc


def joint_downlink_oracle(table, omega, alpha0):
    """Downlink SNR cdf by enumerating channel states and activity jointly.

    Serving pick mirrors the walk: the first row (in table order) with the
    largest realised gain.  Needs every outcome to keep a positive serving
    gain.
    """
    n = len(table)
    ids, band = table.gbs_id.tolist(), table.band.tolist()
    c_los, c_nlos, p_los = table.c_los.tolist(), table.c_nlos.tolist(), table.p_los.tolist()
    atoms: dict[float, float] = {}
    for los_mask in itertools.product((False, True), repeat=n):
        p_state = math.prod(
            p if los else 1.0 - p for p, los in zip(p_los, los_mask)
        )
        if p_state == 0.0:
            continue
        gains = [c_los[i] if los else c_nlos[i] for i, los in enumerate(los_mask)]
        serving = max(range(n), key=gains.__getitem__)
        co = [
            i for i in range(n)
            if i != serving and band[i] == band[serving]
        ]
        for act_mask in itertools.product((False, True), repeat=len(co)):
            prob = p_state
            interference = 0.0
            for i, on in zip(co, act_mask):
                w = float(omega[ids[i]]) if np.ndim(omega) else omega
                prob *= w if on else 1.0 - w
                if on:
                    interference += gains[i]
            if prob == 0.0:
                continue
            snr = gains[serving] / (alpha0 + interference)
            atoms[snr] = atoms.get(snr, 0.0) + prob
    values = sorted(atoms)
    return SteppedCdf.from_pmf(values, [atoms[v] for v in values])


def assert_matches_stepped(model: DownlinkSnrCdf, oracle: SteppedCdf, tol=1e-9):
    """Probe just off each oracle jump so one-sided limits compare cleanly."""
    for x, lo, hi in zip(oracle.xs, np.append(0.0, oracle.cum[:-1]), oracle.cum):
        assert model.eval(x * (1 - 1e-7)) == pytest.approx(lo, abs=tol)
        assert model.eval(x * (1 + 1e-7)) == pytest.approx(hi, abs=tol)


# three-row single-band table whose per-event interference lattices are
# exact at c0 = 960 (every event span divides it)
MICRO_ROWS = (
    (0, 0, 8.0, 4.0, 0.6),
    (1, 0, 6.0, 3.0, 0.5),
    (2, 0, 2.0, 1.0, 0.5),
)


# ---------------------------------------------------------------------------
# Association walk
# ---------------------------------------------------------------------------

def test_association_frozen_two_rows():
    table = link_table(((0, 0, 10.0, 1.0, 0.6), (1, 0, 8.0, 2.0, 0.5)))
    events = association_pmf(table)
    assert [(e.serving_id, e.state, e.gain) for e in events] == [
        (0, AssociationState.LOS, 10.0),
        (1, AssociationState.LOS, 8.0),
        (1, AssociationState.NLOS_MAX, 2.0),
    ]
    assert [e.probability for e in events] == pytest.approx([0.6, 0.2, 0.2])
    assert [e.forced_rows for e in events] == [0, 1, 2]


def test_association_all_zero_table():
    table = link_table(((0, 0, 0.0, 0.0, 0.4), (1, 0, 0.0, 0.0, 0.9)))
    (event,) = association_pmf(table)
    assert event.serving_id is None
    assert event.state is AssociationState.NONE
    assert event.gain == 0.0 and event.probability == 1.0


def test_association_walk_stops_below_nlos_max():
    # third row's LoS gain sits under the NLoS cap, so it can never serve
    table = link_table(MICRO_ROWS)
    events = association_pmf(table)
    assert {e.serving_id for e in events} == {0, 1}
    terminal = events[-1]
    assert terminal.state is AssociationState.NLOS_MAX
    assert terminal.gain == 4.0
    assert terminal.forced_rows == 2          # rows 0 and 1: c_los >= 4


def test_association_validation():
    table = link_table(MICRO_ROWS)
    with pytest.raises(ValueError):
        association_pmf(table, eps=1.0)
    with pytest.raises(ValueError):
        association_pmf(table, eps=-0.1)
    with pytest.raises(ValueError):
        association_pmf(link_table(()))


def test_association_truncation_modes():
    rows = tuple(
        (i, 0, 10.0 - i, 1.0, 0.5) for i in range(3)
    )
    table = link_table(rows)
    full = association_pmf(table)
    assert [e.probability for e in full] == pytest.approx([0.5, 0.25, 0.125, 0.125])

    cut = association_pmf(table, eps=0.3)     # walk stops at prefix 0.25
    assert [(e.serving_id, e.state) for e in cut] == [
        (0, AssociationState.LOS),
        (1, AssociationState.LOS),
        (0, AssociationState.NLOS_MAX),
    ]
    assert [e.probability for e in cut] == pytest.approx([0.5, 0.25, 0.25])
    assert sum(e.probability for e in cut) == pytest.approx(1.0, abs=1e-12)


def test_association_truncation_mass_bound():
    rng = np.random.default_rng(83)
    for _ in range(30):
        table = random_link_table(rng, int(rng.integers(2, 10)))
        exact = {
            (e.serving_id, e.state): e.probability for e in association_pmf(table)
        }
        for eps in (1e-3, 1e-2, 0.2):
            cut = association_pmf(table, eps=eps)
            assert sum(e.probability for e in cut) == pytest.approx(1.0, abs=1e-12)
            moved = sum(
                abs(e.probability - exact.get((e.serving_id, e.state), 0.0))
                for e in cut
            )
            assert moved <= 2 * eps + 1e-12     # remainder leaves one atom, lands on another


# ---------------------------------------------------------------------------
# Uplink
# ---------------------------------------------------------------------------

def test_uplink_matches_brute_force():
    rng = np.random.default_rng(89)
    for _ in range(50):
        table = random_link_table(rng, int(rng.integers(1, 11)))
        beta0 = float(10 ** rng.uniform(-2, 4))
        pmf = uplink_snr_pmf(table, beta0)
        want = brute_force_uplink(table, beta0)
        assert set(pmf.values.tolist()) == set(want)
        for v, p in zip(pmf.values, pmf.probs):
            assert abs(p - want[float(v)]) <= 1e-12


def test_uplink_merges_equal_gains():
    rows = (
        (0, 0, 5.0, 1.0, 0.5),
        (1, 0, 5.0, 1.0, 0.5),
        (2, 0, 3.0, 1.0, 0.5),
    )
    pmf = uplink_snr_pmf(link_table(rows), 2.0)
    assert pmf.values.tolist() == [2.0, 6.0, 10.0]
    assert pmf.probs.tolist() == pytest.approx([0.125, 0.125, 0.75])


def test_uplink_outage_is_strict():
    pmf = uplink_snr_pmf(link_table(MICRO_ROWS), 1.0)
    assert 8.0 in pmf.values
    at_atom = pmf.outage(8.0)
    assert pmf.outage(8.0 * (1 + 1e-12)) > at_atom   # atom counts only above it


def test_uplink_truncation_outage_bound():
    rng = np.random.default_rng(97)
    for _ in range(30):
        table = random_link_table(rng, int(rng.integers(2, 10)))
        beta0 = 1.0
        exact = uplink_snr_pmf(table, beta0)
        threshold = float(10 ** rng.uniform(-2, 1))
        for eps in (1e-3, 0.05):
            cut = uplink_snr_pmf(table, beta0, eps=eps)
            assert abs(cut.outage(threshold) - exact.outage(threshold)) <= eps + 1e-12


def test_uplink_scale_invariance():
    rng = np.random.default_rng(101)
    kappa = 3.7
    for _ in range(20):
        table = random_link_table(rng, int(rng.integers(1, 9)))
        scaled = LinkTable(
            table.gbs_id, table.band, table.c_los * kappa, table.c_nlos * kappa, table.p_los
        )
        a = uplink_snr_pmf(table, 2.0)
        b = uplink_snr_pmf(scaled, 2.0 / kappa)
        np.testing.assert_allclose(b.values, a.values, rtol=1e-12)
        np.testing.assert_array_equal(b.probs, a.probs)


def test_uplink_rejects_bad_beta0():
    with pytest.raises(ValueError):
        uplink_snr_pmf(link_table(MICRO_ROWS), 0.0)


# ---------------------------------------------------------------------------
# Conditional interference
# ---------------------------------------------------------------------------

def test_interference_summand_shapes():
    table = link_table(MICRO_ROWS)
    events = association_pmf(table)
    los0 = events[0]                     # serving 0, nothing forced
    spec = conditional_interference_spec(los0, table, 0.5)
    assert (spec.probs > 0).sum(axis=1).tolist() == [3, 3]
    term = events[-1]                    # serving 0, rows 0 and 1 forced NLoS
    spec = conditional_interference_spec(term, table, 0.5)
    assert (spec.probs > 0).sum(axis=1).tolist() == [2, 3]
    assert spec.values[0][spec.probs[0] > 0].tolist() == [0.0, 3.0]


def test_interference_mean_oracle():
    table = link_table(MICRO_ROWS)
    omega = np.array([0.3, 0.6, 0.9])
    for event in association_pmf(table):
        # MICRO_ROWS lists ids 0, 1, 2 in walk order
        forced = set(range(event.forced_rows))
        spec = conditional_interference_spec(event, table, omega)
        want = 0.0
        for gbs_id, _, c_los, c_nlos, p_los in MICRO_ROWS:
            if gbs_id == event.serving_id:
                continue
            if gbs_id in forced:
                mean_gain = c_nlos
            else:
                mean_gain = p_los * c_los + (1 - p_los) * c_nlos
            want += omega[gbs_id] * mean_gain
        assert spec.mean() == pytest.approx(want, rel=1e-12)


def test_interferers_are_the_serving_band_without_the_server():
    # bands 0 and 1 interleaved in the walk order; every event's rows must
    # be the other members of its server's band, in ascending id order
    rows = (
        (3, 1, 9.0, 4.5, 0.6),
        (0, 0, 8.0, 4.0, 0.6),
        (4, 1, 6.0, 3.0, 0.5),
        (1, 0, 5.0, 2.5, 0.5),
        (2, 0, 2.0, 1.0, 0.5),
    )
    table = link_table(rows)
    c_nlos = {r[0]: r[3] for r in rows}
    band = {r[0]: r[1] for r in rows}
    events = association_pmf(table)
    assert {e.serving_id for e in events} == {0, 1, 3, 4}
    for event in events:
        want = sorted(i for i in band if band[i] == band[event.serving_id] and i != event.serving_id)
        spec = conditional_interference_spec(event, table, 1.0)
        assert spec.values[:, 1].tolist() == [c_nlos[i] for i in want]


def test_interference_edge_cases():
    table = link_table(MICRO_ROWS)
    first = association_pmf(table)[0]
    silent = conditional_interference_spec(first, table, 0.0)
    assert silent.span == 0.0            # omega 0: everyone is off
    with pytest.raises(ValueError):
        conditional_interference_spec(first, table, 1.5)
    # a GBS alone in its band has no interferer: the zero spec
    alone = link_table(((0, 0, 8.0, 4.0, 0.6), (1, 1, 6.0, 3.0, 0.5)))
    for event in association_pmf(alone):
        empty = conditional_interference_spec(event, alone, 0.5)
        assert len(empty) == 0 and empty.span == 0.0 and empty.offset == 0.0
        _, cdf = la_cdf(empty)
        assert cdf.xs.tolist() == [0.0] and cdf.cum.tolist() == [1.0]
    (no_server,) = association_pmf(link_table(((0, 0, 0.0, 0.0, 0.5),)))
    with pytest.raises(ValueError):
        conditional_interference_spec(no_server, table, 0.5)


# ---------------------------------------------------------------------------
# Downlink
# ---------------------------------------------------------------------------

def test_downlink_matches_joint_enumeration_scalar_omega():
    table = link_table(MICRO_ROWS)
    model = downlink_snr_cdf(table, 0.5, 0.5, c0=960.0)
    oracle = joint_downlink_oracle(table, 0.5, 0.5)
    assert_matches_stepped(model, oracle)


def test_downlink_matches_joint_enumeration_mapped_omega():
    table = link_table(MICRO_ROWS)
    omega = np.array([0.3, 0.6, 0.9])
    model = downlink_snr_cdf(table, omega, 0.5, c0=960.0)
    oracle = joint_downlink_oracle(table, omega, 0.5)
    assert_matches_stepped(model, oracle)


def test_downlink_zero_loading_equals_interference_free():
    # with nobody transmitting the downlink cdf is the uplink atom cdf
    # under beta0 = 1 / alpha0
    table = link_table(MICRO_ROWS)
    alpha0 = 0.25
    model = downlink_snr_cdf(table, 0.0, alpha0)
    atoms = uplink_snr_pmf(table, 1.0 / alpha0)
    for lo, hi in zip(atoms.values[:-1], atoms.values[1:]):
        mid = math.sqrt(lo * hi)
        assert model.eval(mid) == pytest.approx(
            float(atoms.probs[atoms.values <= mid].sum()), abs=1e-12
        )
        assert model.outage(mid) == pytest.approx(
            atoms.outage(mid), abs=1e-12
        )


def test_downlink_eval_left_is_the_left_limit():
    # the micro table's lattices are exact and its snr atoms invert to
    # their interference values, so both one-sided limits match the
    # oracle at every jump
    table = link_table(MICRO_ROWS)
    model = downlink_snr_cdf(table, 0.5, 0.5, c0=960.0)
    oracle = joint_downlink_oracle(table, 0.5, 0.5)
    np.testing.assert_allclose(model.eval(oracle.xs), oracle.eval(oracle.xs), atol=1e-12)
    np.testing.assert_allclose(
        model.eval_left(oracle.xs), oracle.eval_left(oracle.xs), atol=1e-12
    )
    assert all(model.outage(x) == model.eval_left(x) for x in oracle.xs)
    assert kolmogorov_distance(oracle, model) <= 1e-12


def test_downlink_outage_monotone_in_loading():
    table = link_table(MICRO_ROWS)
    threshold = 3.0
    outages = [
        downlink_snr_cdf(table, w, 0.5, c0=960.0).outage(threshold)
        for w in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    assert outages == sorted(outages)
    assert outages[-1] > outages[0]


def test_downlink_cdf_monotone_in_threshold():
    table = link_table(MICRO_ROWS)
    model = downlink_snr_cdf(table, 0.4, 0.5, c0=960.0)
    grid = np.geomspace(1e-2, 1e2, 301)    # snr lies in [4/8.5, 16]
    vals = model.eval(grid)
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[0] == 0.0 and vals[-1] == 1.0


def test_downlink_scale_invariance_binary_exact():
    # scaling gains and alpha0 by a power of two changes no rounding
    kappa = 1024.0
    table = link_table(MICRO_ROWS)
    scaled = LinkTable(
        table.gbs_id, table.band, table.c_los * kappa, table.c_nlos * kappa, table.p_los
    )
    a = downlink_snr_cdf(table, 0.5, 0.5, c0=960.0)
    b = downlink_snr_cdf(scaled, 0.5, 0.5 * kappa, c0=960.0)
    for y in (0.3, 1.0, 2.7, 5.0, 11.0):
        assert a.outage(y) == b.outage(y)
        assert a.eval(y) == b.eval(y)


def test_downlink_zero_gain_term():
    table = link_table(((0, 0, 0.0, 0.0, 0.5),))
    model = downlink_snr_cdf(table, 0.5, 1.0)
    assert model.eval(1e-6) == 1.0
    assert model.outage(123.0) == 1.0


def test_outage_is_exact_at_both_ends():
    # in float arithmetic these probabilities add up to 1 - 2^-53
    pmf = UplinkSnrPmf(np.array([1.0, 2.0, 3.0]), np.array([0.7, 0.2, 0.1]))
    assert pmf.outage(10.0) == 1.0 and pmf.outage(0.5) == 0.0
    rng = np.random.default_rng(2718)
    for _ in range(30):
        table = random_link_table(rng, int(rng.integers(2, 9)), n_bands=2, zero_row_prob=0.0)
        for model in (uplink_snr_pmf(table, 1.0), downlink_snr_cdf(table, 0.5, 0.1)):
            assert model.outage(1e-12) == 0.0      # every atom above the threshold
            assert model.outage(1e12) == 1.0       # every atom below it


def test_downlink_grid_and_validation():
    table = link_table(MICRO_ROWS)
    model = downlink_snr_cdf(table, 0.5, 0.5, c0=960.0)
    grid = np.geomspace(0.1, 20.0, 51)
    vals = model.eval(grid)
    assert vals.shape == model.eval_left(grid).shape == (51,)
    assert [model.eval(y) for y in grid[::10]] == vals[::10].tolist()
    with pytest.raises(ValueError):
        model.eval(0.0)
    with pytest.raises(ValueError):
        model.outage(-1.0)
    with pytest.raises(ValueError):
        downlink_snr_cdf(table, 0.5, 0.0)


def test_downlink_truncation_outage_bound():
    table = link_table(tuple(
        (i, 0, 10.0 - i, 1.0, 0.3) for i in range(6)
    ))
    exact = downlink_snr_cdf(table, 0.5, 0.5, c0=960.0)
    for eps in (1e-3, 0.05):
        cut = downlink_snr_cdf(table, 0.5, 0.5, eps=eps, c0=960.0)
        for y in (0.5, 2.0, 8.0):
            assert abs(cut.outage(y) - exact.outage(y)) <= eps + 1e-12


# ---------------------------------------------------------------------------
# Spatial coverage
# ---------------------------------------------------------------------------

def scene(tmp_path, link=LinkDirection.UPLINK, radius=500, region="triangle", resolution=2):
    """A 500 m hex grid of the default antennas and channel with the exact
    association walk (eps = 0); downlink adds noise_power_dbm = -120
    (alpha0 = 1e-14), loading 0.4 and c0 = 200."""
    body = f"""
[layout]
radius_m = {radius}
[sampling]
region = {region}
resolution = {resolution}
"""
    if link is LinkDirection.DOWNLINK:
        return load_scenario(tmp_path, body + """
[radio]
noise_power_dbm = -120
[loading]
downlink_omega = 0.4
[algorithm]
association_epsilon = 0
lattice_target_c0 = 200
""")
    return load_scenario(tmp_path, body + "[algorithm]\nassociation_epsilon = 0\n")


def configured_table(cfg, uav_xyz):
    return build_link_table(
        cfg.build_layout(), cfg.build_gbs_pattern(), cfg.build_uav_antenna(),
        cfg.build_channel(), uav_xyz, cfg.gbs_height,
    )


def test_rotation_symmetry_of_uplink_outage(tmp_path):
    cfg = scene(tmp_path, radius=1500)
    c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
    x, y = 137.0, 41.0
    base = uplink_snr_pmf(configured_table(cfg, (x, y, 120.0)), cfg.beta0)
    rotated = uplink_snr_pmf(
        configured_table(cfg, (c * x - s * y, s * x + c * y, 120.0)), cfg.beta0
    )
    threshold = float(np.median(base.values))
    assert 0.0 < base.outage(threshold) < 1.0
    assert rotated.outage(threshold) == pytest.approx(base.outage(threshold), abs=1e-9)


def test_cell_average_equals_triangle_average(tmp_path):
    tri_cfg = scene(tmp_path, radius=1500, region="triangle")
    cell_cfg = scene(tmp_path, radius=1500, region="cell")
    centroid_pmf = uplink_snr_pmf(configured_table(tri_cfg, (150.0, 50.0, 100.0)), tri_cfg.beta0)
    threshold = float(np.median(centroid_pmf.values)) * 0.999
    kwargs = dict(altitude=100.0, thresholds=[threshold])
    tri = coverage_at_altitude(tri_cfg, LinkDirection.UPLINK, **kwargs)
    cell = coverage_at_altitude(cell_cfg, LinkDirection.UPLINK, **kwargs)
    assert len(tri.points) == 4 and len(cell.points) == 24
    assert 0.0 < tri.coverage[0] < 1.0
    assert cell.coverage[0] == pytest.approx(tri.coverage[0], abs=1e-9)


def test_parallel_workers_match_serial(tmp_path):
    cfg = scene(tmp_path, LinkDirection.DOWNLINK)
    kwargs = dict(altitude=100.0, thresholds=[1.5849])
    serial = coverage_at_altitude(cfg, LinkDirection.DOWNLINK, workers=1, **kwargs)
    parallel = coverage_at_altitude(cfg, LinkDirection.DOWNLINK, workers=2, **kwargs)
    np.testing.assert_array_equal(parallel.non_outage, serial.non_outage)
    assert parallel.coverage[0] == serial.coverage[0]


def test_coverage_over_altitudes_aggregate(tmp_path):
    cfg = scene(tmp_path, resolution=1)
    kwargs = dict(thresholds=[10.0])
    alts = [40.0, 80.0, 160.0]
    results, aggregate = coverage_over_altitudes(
        cfg, LinkDirection.UPLINK, altitudes=alts, **kwargs
    )
    values = [r.coverage[0] for r in results]
    want = np.trapezoid(values, alts) / (alts[-1] - alts[0])
    assert aggregate[0] == pytest.approx(float(want), rel=1e-12)
    single, agg1 = coverage_over_altitudes(cfg, LinkDirection.UPLINK, altitudes=[90.0], **kwargs)
    assert agg1[0] == single[0].coverage[0]
    with pytest.raises(ValueError):
        coverage_over_altitudes(cfg, LinkDirection.UPLINK, altitudes=[], **kwargs)
    with pytest.raises(ValueError):
        coverage_over_altitudes(cfg, LinkDirection.UPLINK, altitudes=[100.0, 50.0], **kwargs)


def sweep_scene(tmp_path, link):
    """A 24-point cell raster (so each mean adds more than 8 points) and
    thresholds that split the points on both links."""
    db = (-40.0, -15.0, 0.0, 5.0, 30.0) if link is LinkDirection.UPLINK \
        else (-10.0, -2.0, 0.0, 3.0, 10.0)
    return scene(tmp_path, link, region="cell"), [10.0 ** (t / 10.0) for t in db]


@pytest.mark.parametrize("link, law", [
    (LinkDirection.UPLINK, "uplink_snr_pmf"),
    (LinkDirection.DOWNLINK, "downlink_snr_cdf"),
])
def test_threshold_sweep_builds_each_law_once(tmp_path, monkeypatch, link, law):
    calls = {"build_link_table": 0, law: 0}
    for name in calls:
        original = getattr(coverage, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(coverage, name, counted)
    cfg, thresholds = sweep_scene(tmp_path, link)
    result = coverage_at_altitude(cfg, link, altitude=100.0, thresholds=thresholds)
    assert result.non_outage.shape == (5, 24)
    assert calls == {"build_link_table": 24, law: 24}


@pytest.mark.parametrize("link", list(LinkDirection))
def test_one_pass_sweep_equals_single_threshold_calls(tmp_path, link):
    cfg, thresholds = sweep_scene(tmp_path, link)
    sweep = coverage_at_altitude(cfg, link, altitude=100.0, thresholds=thresholds)
    assert sweep.non_outage.flags.c_contiguous
    assert sweep.thresholds.tolist() == thresholds
    assert ((sweep.coverage > 0.0) & (sweep.coverage < 1.0)).sum() >= 2
    for i, t in enumerate(thresholds):
        single = coverage_at_altitude(cfg, link, altitude=100.0, thresholds=[t])
        assert sweep.non_outage[i].tolist() == single.non_outage[0].tolist()
        assert sweep.coverage[i] == single.coverage[0]


def test_altitude_sweep_starts_one_pool(tmp_path, monkeypatch):
    started = []

    class CountedPool(coverage.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(coverage, "ProcessPoolExecutor", CountedPool)
    cfg, thresholds = sweep_scene(tmp_path, LinkDirection.UPLINK)
    alts = [40.0, 80.0, 120.0, 160.0]
    parallel, agg2 = coverage_over_altitudes(cfg, LinkDirection.UPLINK, altitudes=alts,
                                             thresholds=thresholds, workers=2)
    assert started == [{"max_workers": 2}]
    serial, agg1 = coverage_over_altitudes(cfg, LinkDirection.UPLINK, altitudes=alts,
                                           thresholds=thresholds)
    assert len(started) == 1
    assert agg2.tolist() == agg1.tolist()
    for p, s, h in zip(parallel, serial, alts):
        assert p.altitude == s.altitude == h
        assert p.non_outage.tolist() == s.non_outage.tolist()
