"""Air-to-ground channel model and link tables."""

import math
import operator
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import default_models, link_table
from uavcov import channel
from uavcov.channel import (
    LinkTable,
    ParametricAirGroundModel,
    build_link_columns,
    build_link_table,
    default_channel,
    free_space_gain,
)
from uavcov.config import load_config
from uavcov.geometry import NetworkLayout, build_hex_layout, link_geometry

PATTERN, UAV_ANTENNA, CHANNEL = default_models()


def test_free_space_reference():
    assert free_space_gain(2e9) == pytest.approx(0.00014228584142858625, rel=1e-12)


def test_default_channel_frozen_values():
    m = load_config().build_channel()
    assert m.ref_gain_los == pytest.approx(0.00011302166124822795, rel=1e-12)
    assert m.ref_gain_nlos == pytest.approx(1.4228584142858625e-06, rel=1e-12)
    assert m.los_probability(0.0) == pytest.approx(0.007035241895929345, rel=1e-12)
    assert m.los_probability(9.6) == pytest.approx(0.09433962264150944, rel=1e-12)
    assert m.los_probability(30.0) == pytest.approx(0.9692382047672473, rel=1e-12)
    assert m.los_probability(90.0) == pytest.approx(0.9999999983951522, rel=1e-12)
    h_los, h_nlos, p = m.evaluate(9.6, 200.0)
    assert h_los == pytest.approx(2.825541531205699e-09, rel=1e-12)
    assert h_nlos == pytest.approx(h_los * 10.0 ** (-1.9), rel=1e-12)
    assert p == pytest.approx(0.09433962264150944, rel=1e-12)


def test_default_reference_gains_subtract_the_excess_loss():
    fs = free_space_gain(2e9)
    m = default_channel(2e9, 2.0, 2.0, 1.0, 20.0, 9.6, 0.28, 9.6)
    assert (m.ref_gain_los, m.ref_gain_nlos) == (fs * 10.0 ** (-1.0 / 10.0), fs * 10.0 ** -2.0)
    # a loss so negative that the gain factor overflows is refused
    with pytest.raises(ValueError, match="positive finite float"):
        default_channel(2e9, 2.0, 2.0, -4000.0, 20.0, 9.6, 0.28, 9.6)


def test_midpoint_is_half_saturation():
    # at theta0 the logistic sits at 1/(1+a); a and theta0 both default to 9.6
    m = CHANNEL
    assert m.los_midpoint_deg == m.los_a == 9.6
    assert m.los_probability(m.los_midpoint_deg) == pytest.approx(1.0 / (1.0 + 9.6))


def test_los_probability_monotone():
    m = CHANNEL
    thetas = np.linspace(0.0, 90.0, 91)
    probs = [m.los_probability(float(t)) for t in thetas]
    assert all(b > a for a, b in zip(probs, probs[1:]))


def test_pathloss_monotone_in_distance():
    m = CHANNEL
    hs = [m.evaluate(30.0, d)[0] for d in (1.0, 10.0, 100.0, 1000.0)]
    assert all(b < a for a, b in zip(hs, hs[1:]))


def test_model_validation():
    ok = dict(alpha_los=2.0, alpha_nlos=2.2, ref_gain_los=1e-4, ref_gain_nlos=1e-6,
              los_a=9.6, los_b_per_deg=0.28, los_midpoint_deg=9.6)
    ParametricAirGroundModel(**ok)
    for corrupt in (
        dict(alpha_los=0.0),
        dict(alpha_nlos=1.9),          # NLoS decays slower than LoS
        dict(ref_gain_nlos=2e-4),      # NLoS stronger than LoS
        dict(ref_gain_los=0.0),
        dict(los_a=0.0),
        dict(los_b_per_deg=-0.1),
    ):
        with pytest.raises(ValueError):
            ParametricAirGroundModel(**{**ok, **corrupt})


@pytest.mark.parametrize("field, message", [
    ("los_a", "logistic parameters must be positive"),
    ("los_b_per_deg", "logistic parameters must be positive"),
    ("los_midpoint_deg", "logistic midpoint must be finite"),
    ("alpha_nlos", "pathloss exponents must satisfy"),
    ("ref_gain_los", "reference gains must satisfy"),
])
def test_model_rejects_nan(field, message):
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match=message):
            replace(CHANNEL, **{field: value})


def test_free_space_gain_rejects_nan():
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"carrier frequency must be positive, got {value}"):
            free_space_gain(value)


def test_evaluate_rejects_tiny_distance():
    with pytest.raises(ValueError):
        CHANNEL.evaluate(45.0, 0.5)


def _default_table(uav=(150.0, 50.0, 100.0)):
    layout = build_hex_layout(500.0, 1500.0, 3)
    return build_link_table(layout, PATTERN, UAV_ANTENNA, CHANNEL, uav, 20.0)


def test_link_table_shape_and_order():
    table = _default_table()
    assert len(table) == 37
    assert np.all(np.diff(table.c_los) <= 0)
    assert np.all(table.c_nlos <= table.c_los)
    assert np.all((table.p_los >= 0) & (table.p_los <= 1))
    assert sorted(table.gbs_id.tolist()) == list(range(37))
    for col in (table.gbs_id, table.band, table.c_los, table.c_nlos, table.p_los):
        assert col.shape == (37,) and not col.flags.writeable


def test_link_table_narrow_beam_zero_rows():
    # 45-degree cone at 100 m covers an 80 m disc: only the origin site
    # can be inside from this position, everything else must be zeroed
    table = _default_table()
    narrow = build_link_table(
        build_hex_layout(500.0, 1500.0, 3), PATTERN,
        replace(UAV_ANTENNA, half_beamwidth_deg=45.0), CHANNEL, (30.0, 0.0, 100.0), 20.0,
    )
    zero = narrow.c_los == 0.0
    assert zero.sum() == 36
    assert np.all(narrow.c_nlos[zero] == 0.0)
    # zero rows keep the true LoS probability of their geometry
    assert np.all((narrow.p_los[zero] > 0.0) & (narrow.p_los[zero] < 1.0))
    assert narrow.gbs_id[~zero].tolist() == [0]
    assert table.c_los[0] > 0.0


def test_link_table_band_members():
    table = _default_table()
    sizes = sorted(np.bincount(table.band).tolist())
    assert sizes == [12, 12, 13]


def test_link_table_validation():
    link_table([(1, 0, 2.0, 0.5, 0.5), (0, 0, 1.0, 0.5, 0.5), (2, 0, 1.0, 0.0, 0.0)])
    with pytest.raises(ValueError, match="out of"):
        link_table([(0, 0, 1.0, 0.5, 1.5)])
    with pytest.raises(ValueError, match="out of"):
        link_table([(0, 0, 1.0, 0.5, -0.1)])
    with pytest.raises(ValueError, match="out of"):
        link_table([(0, 0, 1.0, 0.5, np.nan)])
    with pytest.raises(ValueError, match="without LoS"):
        link_table([(0, 0, 0.0, 0.5, 0.5)])
    with pytest.raises(ValueError, match="negative"):
        link_table([(0, 0, 1.0, -0.5, 0.5)])
    with pytest.raises(ValueError, match="sorted"):
        link_table([(0, 0, 1.0, 0.5, 0.5), (1, 0, 2.0, 0.5, 0.5)])
    with pytest.raises(ValueError, match="sorted"):      # tie broken by descending id
        link_table([(1, 0, 1.0, 0.5, 0.5), (0, 0, 1.0, 0.5, 0.5)])
    for ids in ((0, 2), (1, 1), (-1, 0)):                 # not a permutation of 0..n-1
        with pytest.raises(ValueError, match="permutation"):
            link_table([(ids[0], 0, 2.0, 0.5, 0.5), (ids[1], 0, 1.0, 0.5, 0.5)])
    with pytest.raises(ValueError, match="equal length"):
        LinkTable([0, 1], [0, 0], [2.0, 1.0], [0.5, 0.5], [0.5])
    # (P, n) columns are a block of P tables, its length P
    block = LinkTable([[0]], [[0]], [[2.0]], [[0.5]], [[0.5]])
    assert len(block) == 1 and block.c_los.shape == (1, 1)


def test_build_rejects_low_altitude():
    layout = build_hex_layout(500.0, 500.0, 3)
    with pytest.raises(ValueError):
        build_link_table(layout, PATTERN, UAV_ANTENNA, CHANNEL, (0.0, 0.0, 20.0), 20.0)


def test_gain_consistency_with_manual_evaluation():
    layout = build_hex_layout(500.0, 500.0, 3)
    pattern, ant, m = PATTERN, UAV_ANTENNA, CHANNEL
    table = build_link_table(layout, pattern, ant, m, (120.0, -40.0, 90.0), 20.0)
    for gbs_id, c_los, c_nlos, p_los in zip(
        table.gbs_id.tolist(), table.c_los.tolist(), table.c_nlos.tolist(), table.p_los.tolist()
    ):
        dh = math.hypot(120.0 - layout.x[gbs_id], -40.0 - layout.y[gbs_id])
        d3 = math.hypot(dh, 70.0)
        theta = math.degrees(math.asin(70.0 / d3))
        h_los, h_nlos, p = m.evaluate(theta, d3)
        g = ant.mainlobe_gain * pattern(theta)
        assert c_los == pytest.approx(g * h_los, rel=1e-12)
        assert c_nlos == pytest.approx(g * h_nlos, rel=1e-12)
        assert p_los == pytest.approx(p, rel=1e-12)


COLUMNS = ("gbs_id", "band", "c_los", "c_nlos", "p_los")


@pytest.mark.parametrize("uav_antenna", [
    dict(half_beamwidth_deg=90.0),                      # infinite footprint
    dict(half_beamwidth_deg=75.0),
    # every site outside the cone keeps a gain
    dict(half_beamwidth_deg=20.0, backlobe_gain=0.01),
], ids=["beam90", "beam75", "beam20-backlobe"])
def test_block_tables_equal_single_position_tables(uav_antenna):
    layout = build_hex_layout(500.0, 1500.0, 3)
    args = (layout, PATTERN, replace(UAV_ANTENNA, **uav_antenna), CHANNEL)
    rng = np.random.default_rng(3)
    block = np.column_stack([rng.uniform(-800.0, 800.0, 12), rng.uniform(-800.0, 800.0, 12),
                             rng.uniform(26.0, 300.0, 12)])        # mixed altitudes
    block[4] = (layout.x[5], layout.y[5], 61.0)    # straight above site 5
    table = build_link_columns(*args, block, 20.0)
    assert len(table) == 12
    assert [getattr(table, name).shape for name in COLUMNS] == [(12, 37)] * 5
    for p, xyz in enumerate(block):
        single = build_link_table(*args, tuple(xyz.tolist()), 20.0)
        for name in COLUMNS:
            got, want = getattr(table, name)[p], getattr(single, name)
            assert got.shape == want.shape == (37,), name
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            assert not got.flags.writeable
    # elevation 90 degrees: the GBS element null leaves site 5 no gain
    gbs_id, _, c_los, c_nlos, _ = (getattr(table, name)[4] for name in COLUMNS)
    k = gbs_id.tolist().index(5)
    assert c_los[k] == c_nlos[k] == 0.0


def test_block_shapes():
    layout = build_hex_layout(500.0, 500.0, 3)
    args = (layout, PATTERN, replace(UAV_ANTENNA, half_beamwidth_deg=75.0), CHANNEL)
    one = build_link_columns(*args, [(10.0, 20.0, 100.0)], 20.0)
    assert len(one) == 1 and [getattr(one, name).shape for name in COLUMNS] == [(1, 7)] * 5
    none = build_link_columns(*args, np.empty((0, 3)), 20.0)
    assert len(none) == 0 and [getattr(none, name).shape for name in COLUMNS] == [(0, 7)] * 5
    for bad in ((10.0, 20.0, 100.0), [[(10.0, 20.0, 100.0)]], [(10.0, 20.0)]):
        with pytest.raises(ValueError, match=r"shape \(P, 3\)"):
            build_link_columns(*args, bad, 20.0)
    with pytest.raises(ValueError, match="must exceed"):    # one low position in the block
        build_link_columns(*args, [(0.0, 0.0, 100.0), (0.0, 0.0, 20.0)], 20.0)
    no_sites = NetworkLayout(np.empty(0), np.empty(0), np.empty(0, dtype=int))
    empty = build_link_columns(no_sites, *args[1:], [(0.0, 0.0, 100.0), (1.0, 1.0, 120.0)], 20.0)
    assert len(empty) == 2 and [getattr(empty, name).shape for name in COLUMNS] == [(2, 0)] * 5


SCENE = build_hex_layout(500.0, 1500.0, 3)


def _reference_columns(uav_antenna, positions, inside=operator.le):
    """The five walk-order columns of a block over ``SCENE``, the GBS
    pattern and the pathloss evaluated on every link, the UAV cone's
    footprint test ``inside(r_h, radius)``, then one stable sort."""
    block = np.asarray(positions, dtype=float)
    r_h, d3, theta = link_geometry(block, SCENE.x, SCENE.y, 20.0)
    h_los, h_nlos, p_los = CHANNEL.evaluate(theta, d3)
    radius = np.array([uav_antenna.footprint_radius(z, 20.0) for z in block[:, 2]])[:, None]
    uav_gain = np.where(inside(r_h, radius), uav_antenna.mainlobe_gain, uav_antenna.backlobe_gain)
    combined = uav_gain * PATTERN(theta)
    c_los = combined * h_los
    order = np.argsort(-c_los, axis=-1, kind="stable")
    walk = (np.take_along_axis(col, order, axis=-1) for col in (c_los, combined * h_nlos, p_los))
    return dict(zip(COLUMNS, (order, SCENE.band[order], *walk))), int((uav_gain != 0.0).sum())


def _same_bits(table, want):
    return all(getattr(table, name).dtype == want[name].dtype
               and getattr(table, name).tobytes() == want[name].tobytes() for name in COLUMNS)


BOUNDARY_BEAM = 40.0
# site 0, at the origin, exactly on the footprint boundary at 100 m
BOUNDARY = [(replace(UAV_ANTENNA, half_beamwidth_deg=BOUNDARY_BEAM).footprint_radius(100.0, 20.0),
             0.0, 100.0)]
ABOVE_SITE_5 = [(SCENE.x[5], SCENE.y[5], 61.0)]


@st.composite
def link_blocks(draw):
    """1 to 5 positions over ``SCENE``, each anywhere over it at 25-400 m
    or straight above one of its sites."""
    height = st.floats(25.0, 400.0)
    anywhere = st.tuples(st.floats(-1600.0, 1600.0), st.floats(-1600.0, 1600.0), height)
    above = st.tuples(st.integers(0, len(SCENE) - 1), height).map(
        lambda at: (SCENE.x[at[0]], SCENE.y[at[0]], at[1]))
    return draw(st.lists(anywhere | above, min_size=1, max_size=5))


@settings(max_examples=150, deadline=None)
@example(10.0, 0.0, [(250.0, 0.0, 100.0)])          # no link lit
@example(90.0, 0.0, [(120.0, -40.0, 90.0)])         # every link lit, by the mainlobe
@example(20.0, 0.01, [(300.0, 200.0, 150.0)])       # every link lit, at two gain levels
@example(30.0, 0.0, ABOVE_SITE_5)                   # lit, but in the GBS element null
@example(BOUNDARY_BEAM, 0.0, BOUNDARY)
@example(BOUNDARY_BEAM, 0.0, BOUNDARY + ABOVE_SITE_5 + [(250.0, 0.0, 30.0)])
@given(st.sampled_from([90.0, 75.0, 45.0]) | st.floats(1e-3, 90.0),
       st.just(0.0) | st.floats(1e-6, 1.0), link_blocks())
def test_lit_links_equal_every_link_evaluated(half_beamwidth, backlobe, positions):
    # pattern and pathloss on lit links only move no bit of any column,
    # and the GBS pattern sees the lit links alone
    uav_antenna = replace(UAV_ANTENNA, half_beamwidth_deg=half_beamwidth, backlobe_gain=backlobe)
    seen = []
    pattern = lambda theta: seen.append(np.size(theta)) or PATTERN(theta)   # noqa: E731
    table = build_link_columns(SCENE, pattern, uav_antenna, CHANNEL, positions, 20.0)
    want, lit = _reference_columns(uav_antenna, positions)
    assert _same_bits(table, want)
    assert sum(seen) == lit


def test_lit_link_gate_sees_the_footprint_boundary():
    uav_antenna = replace(UAV_ANTENNA, half_beamwidth_deg=BOUNDARY_BEAM)
    table = build_link_columns(SCENE, PATTERN, uav_antenna, CHANNEL, BOUNDARY, 20.0)
    # site 0 on the boundary takes the mainlobe gain, and serves
    assert table.gbs_id[0, 0] == 0 and table.c_los[0, 0] > 0.0
    assert (table.c_los[0, 1:] == 0.0).all()
    assert _same_bits(table, _reference_columns(uav_antenna, BOUNDARY)[0])
    # negative control: a strict footprint test leaves site 0 unlit
    assert not _same_bits(table, _reference_columns(uav_antenna, BOUNDARY, operator.lt)[0])


def _block_columns():
    block = build_link_columns(
        build_hex_layout(500.0, 1500.0, 3), PATTERN, UAV_ANTENNA, CHANNEL,
        [(150.0, 50.0, 100.0), (-220.0, 310.0, 60.0), (0.0, 700.0, 180.0)], 20.0,
    )
    return {name: np.array(getattr(block, name)) for name in COLUMNS}   # writable copies


def _corrupt_row_1(cols, how):
    c_los, p_los, ids = cols["c_los"][1], cols["p_los"][1], cols["gbs_id"][1]
    if how == "unsorted":
        c_los[[0, 1]] = c_los[[1, 0]]
    elif how == "p_los":
        p_los[4] = 1.5
    else:
        ids[2] = ids[3]


@pytest.mark.parametrize("how, message", [
    ("unsorted", r"sorted by descending c_los, then id; out of order: GBS {ids[1]}"),
    ("p_los", r"LoS probability out of \[0, 1\] for GBS {ids[4]}"),
    ("ids", r"permutation of 0\.\.36: GBS {ids[3]} repeats or is out of range"),
])
def test_block_check_names_the_corrupt_row(how, message):
    cols = _block_columns()
    LinkTable(**cols)                               # the untouched block passes
    ids = cols["gbs_id"][1].tolist()
    _corrupt_row_1(cols, how)
    with pytest.raises(ValueError, match=message.format(ids=ids) + " in block row 1$"):
        LinkTable(**cols)
    # the same row as one table raises the same error, without the row
    with pytest.raises(ValueError, match=message.format(ids=ids) + "$"):
        LinkTable(**{name: col[1] for name, col in cols.items()})


def test_block_check_shapes():
    cols = _block_columns()
    # columns are (n,) for one table or (P, n) for a block, never 3-D or 0-D
    LinkTable(**{name: col[0] for name, col in cols.items()})
    LinkTable(**cols)
    for cut in (lambda col: col[None], lambda col: col[0, 0]):
        with pytest.raises(ValueError, match=r"shape \(n,\) or \(P, n\)"):
            LinkTable(**{name: cut(col) for name, col in cols.items()})
    with pytest.raises(ValueError, match="equal length"):
        LinkTable(**dict(cols, p_los=cols["p_los"][:2]))


def test_table_holds_its_own_columns(monkeypatch):
    # a writable column is copied: the caller mutating it moves no table
    cols = _block_columns()
    table = LinkTable(**cols)
    before = {name: getattr(table, name).tobytes() for name in COLUMNS}
    for col in cols.values():
        col[...] = 0
    assert {name: getattr(table, name).tobytes() for name in COLUMNS} == before
    assert not any(np.shares_memory(getattr(table, name), cols[name]) for name in COLUMNS)
    # a read-only view does not own its data, so it is copied too
    frozen = {name: col[1] for name, col in _block_columns().items()}
    for col in frozen.values():
        col.flags.writeable = False
    row = LinkTable(**frozen)
    assert not any(np.shares_memory(getattr(row, name), frozen[name]) for name in COLUMNS)
    # a block table holds the columns the block evaluation built, no copy
    built = []
    evaluate = channel._link_columns
    monkeypatch.setattr(channel, "_link_columns", lambda *args: built.append(evaluate(*args))
                        or built[-1])
    block = build_link_columns(build_hex_layout(500.0, 1500.0, 3), PATTERN, UAV_ANTENNA,
                               CHANNEL, [(150.0, 50.0, 100.0), (-220.0, 310.0, 60.0)], 20.0)
    held = [getattr(block, name) for name in COLUMNS]
    assert [a is b for a, b in zip(held, built[0])] == [True] * 5
    assert all(np.shares_memory(a, b) for a, b in zip(held, built[0]))
