"""Air-to-ground channel model and link tables."""

import math
import operator
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import complete_table, default_models, every_link_columns, link_table
from uavcov import channel
from uavcov.channel import (
    LinkTable,
    ParametricAirGroundModel,
    build_link_table,
    build_lit_links,
    default_channel,
    free_space_gain,
)
from uavcov.config import load_config
from uavcov.geometry import NetworkLayout, build_hex_layout

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
    (h_los, h_nlos), p = m.pathloss(200.0), m.los_probability(9.6)
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
    hs = [m.pathloss(d)[0] for d in (1.0, 10.0, 100.0, 1000.0)]
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


def test_pathloss_rejects_tiny_distance():
    with pytest.raises(ValueError):
        CHANNEL.pathloss(0.5)


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
    # can be inside from this position, so the table lists it alone; the
    # table of every link has the other 36 as rows of gain 0
    layout, cone = build_hex_layout(500.0, 1500.0, 3), replace(UAV_ANTENNA, half_beamwidth_deg=45.0)
    narrow = build_link_table(layout, PATTERN, cone, CHANNEL, (30.0, 0.0, 100.0), 20.0)
    assert narrow.gbs_id.tolist() == [0] and narrow.c_los[0] > 0.0
    every = complete_table(layout, cone, (30.0, 0.0, 100.0))
    zero = every.c_los == 0.0
    assert zero.sum() == 36 and np.all(every.c_nlos[zero] == 0.0)
    assert every.gbs_id[~zero].tolist() == [0]
    for name in COLUMNS:
        assert getattr(narrow, name).tobytes() == getattr(every, name)[:1].tobytes(), name


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
    # a table lists the lit links alone, so its ids need not be 0..n-1;
    # they must be distinct, and padding (id -1) has no gain and sits last
    link_table([(0, 0, 2.0, 0.5, 0.5), (2, 0, 1.0, 0.5, 0.5)])
    with pytest.raises(ValueError, match=r"ids must be distinct; repeated: GBS 1$"):
        link_table([(1, 0, 2.0, 0.5, 0.5), (1, 0, 1.0, 0.5, 0.5)])
    with pytest.raises(ValueError, match=r"padding row of nonzero gain .* GBS -1$"):
        link_table([(-1, 0, 2.0, 0.5, 0.5), (0, 0, 1.0, 0.5, 0.5)])
    with pytest.raises(ValueError, match="equal shapes"):
        LinkTable([0, 1], [0, 0], [2.0, 1.0], [0.5, 0.5], [0.5])
    # a position's table has at least one row, a padding row when no link
    # is lit
    with pytest.raises(ValueError, match=r"k >= 1 .*, got \(0,\)"):
        link_table(())


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
        (h_los, h_nlos), p = m.pathloss(d3), m.los_probability(theta)
        g = ant.mainlobe_gain * pattern(theta)
        assert c_los == pytest.approx(g * h_los, rel=1e-12)
        assert c_nlos == pytest.approx(g * h_nlos, rel=1e-12)
        assert p_los == pytest.approx(p, rel=1e-12)


COLUMNS = ("gbs_id", "band", "c_los", "c_nlos", "p_los")
PADDING = (-1, -1, 0.0, 0.0, 0.0)


def _lit_ids(uav_antenna, layout, xyz):
    """The sites the UAV antenna at ``xyz`` gives a nonzero gain: those
    inside its footprint, r^2 <= radius^2, or every one with a backlobe."""
    x, y, z = xyz
    radius = uav_antenna.footprint_radius(z, 20.0)
    inside = (layout.x - x) ** 2 + (layout.y - y) ** 2 <= radius * radius
    return np.flatnonzero(inside | (uav_antenna.backlobe_gain > 0.0)).tolist()


def _lit_rows(columns, lit):
    """Row p of each of the walk-order ``columns``, (P, n) arrays, cut to
    the rows where ``lit[p]`` holds, then padded with id -1, band -1,
    gains 0 and LoS probability 0 to the most lit rows of any position,
    at least 1."""
    width = max(1, max(int(row.sum()) for row in lit))
    return {name: np.array([np.pad(col[row], (0, width - int(row.sum())), constant_values=pad)
                            for col, row in zip(columns[name], lit)])
            for name, pad in zip(COLUMNS, PADDING)}


@pytest.mark.parametrize("uav_antenna", [
    dict(half_beamwidth_deg=90.0),                      # infinite footprint
    dict(half_beamwidth_deg=75.0),
    # every site outside the cone keeps a gain
    dict(half_beamwidth_deg=20.0, backlobe_gain=0.01),
], ids=["beam90", "beam75", "beam20-backlobe"])
def test_block_tables_equal_single_position_tables(uav_antenna):
    # each row of a block holds its position's table, bit for bit and in
    # the table's order, then padding; a table lists the sites the
    # footprint lights
    layout = build_hex_layout(500.0, 1500.0, 3)
    ant = replace(UAV_ANTENNA, **uav_antenna)
    args = (layout, PATTERN, ant, CHANNEL)
    rng = np.random.default_rng(3)
    block = np.column_stack([rng.uniform(-800.0, 800.0, 12), rng.uniform(-800.0, 800.0, 12),
                             rng.uniform(26.0, 300.0, 12)])        # mixed altitudes
    block[4] = (layout.x[5], layout.y[5], 61.0)    # straight above site 5
    lit = build_lit_links(*args, block, 20.0)
    assert len(lit) == 12
    tables = [build_link_table(*args, tuple(xyz.tolist()), 20.0) for xyz in block]
    for table, xyz in zip(tables, block):
        assert sorted(table.gbs_id[table.gbs_id >= 0].tolist()) == _lit_ids(ant, layout, xyz)
    want = _lit_rows({name: [getattr(table, name) for table in tables] for name in COLUMNS},
                     [table.gbs_id >= 0 for table in tables])
    for name in COLUMNS:
        got = getattr(lit, name)
        assert got.shape == want[name].shape and got.dtype == want[name].dtype, name
        assert got.tobytes() == want[name].tobytes() and not got.flags.writeable, name
    if ant.half_beamwidth_deg == 90.0 or ant.backlobe_gain:
        assert lit.gbs_id.shape == (12, 37)       # every link lit, no padding
    # elevation 90 degrees: the GBS element null leaves lit site 5 no gain
    k = lit.gbs_id[4].tolist().index(5)
    assert lit.c_los[4, k] == lit.c_nlos[4, k] == 0.0


def test_block_shapes():
    layout = build_hex_layout(500.0, 500.0, 3)
    args = (layout, PATTERN, replace(UAV_ANTENNA, half_beamwidth_deg=75.0), CHANNEL)
    # a 299 m footprint at 100 m lights site 0 alone
    one = build_lit_links(*args, [(10.0, 20.0, 100.0)], 20.0)
    assert len(one) == 1 and [getattr(one, name).shape for name in COLUMNS] == [(1, 1)] * 5
    assert one.gbs_id.tolist() == [[0]]
    # a 5-degree beam lights no site from between them: one padding row
    dark = build_lit_links(layout, PATTERN, replace(UAV_ANTENNA, half_beamwidth_deg=5.0),
                           CHANNEL, [(250.0, 0.0, 100.0), (250.0, 0.0, 150.0)], 20.0)
    assert [getattr(dark, name).tolist() for name in COLUMNS] == [
        [[pad]] * 2 for pad in PADDING]
    none = build_lit_links(*args, np.empty((0, 3)), 20.0)
    assert len(none) == 0 and [getattr(none, name).shape for name in COLUMNS] == [(0, 1)] * 5
    for bad in ((10.0, 20.0, 100.0), [[(10.0, 20.0, 100.0)]], [(10.0, 20.0)]):
        with pytest.raises(ValueError, match=r"shape \(P, 3\)"):
            build_lit_links(*args, bad, 20.0)
    with pytest.raises(ValueError, match="must exceed"):    # one low position in the block
        build_lit_links(*args, [(0.0, 0.0, 100.0), (0.0, 0.0, 20.0)], 20.0)
    # the distance check covers unlit links: 0.5 m above and 0.5 m beside
    # site 1, outside the 5-degree beam's 4 cm footprint
    with pytest.raises(ValueError, match=r"3D distance must be >= 1 m, got 0\.7071"):
        build_lit_links(layout, PATTERN, replace(UAV_ANTENNA, half_beamwidth_deg=5.0), CHANNEL,
                        [(250.0, 0.0, 100.0), (layout.x[1] + 0.5, layout.y[1], 20.5)], 20.0)
    # a layout of no sites has no link to list, not even an unlit one to
    # pad a table with
    no_sites = NetworkLayout(np.empty(0), np.empty(0), np.empty(0, dtype=int))
    with pytest.raises(ValueError, match=r"k >= 1 .*, got \(2, 0\)"):
        build_lit_links(no_sites, *args[1:], [(0.0, 0.0, 100.0), (1.0, 1.0, 120.0)], 20.0)


SCENE = build_hex_layout(500.0, 1500.0, 3)


def _reference_columns(uav_antenna, positions, inside=operator.le):
    """Every link of a block over ``SCENE`` evaluated, the GBS pattern and
    the pathloss too: the five (P, n) walk-order columns, and their lit
    rows as a block's columns."""
    every, lit = every_link_columns(SCENE, uav_antenna, positions, inside)
    return every, _lit_rows(every, lit)


def _same_bits(table, want):
    return all(getattr(table, name).dtype == want[name].dtype
               and getattr(table, name).shape == want[name].shape
               and getattr(table, name).tobytes() == want[name].tobytes() for name in want)


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
    # evaluating the lit links alone, of a block or of one position,
    # moves no bit of any column from every link evaluated and the lit
    # rows cut out after; the GBS pattern sees the block's (P, k) links
    # alone
    uav_antenna = replace(UAV_ANTENNA, half_beamwidth_deg=half_beamwidth, backlobe_gain=backlobe)
    seen = []
    pattern = lambda theta: seen.append(np.size(theta)) or PATTERN(theta)   # noqa: E731
    block = build_lit_links(SCENE, pattern, uav_antenna, CHANNEL, positions, 20.0)
    every, want = _reference_columns(uav_antenna, positions)
    assert _same_bits(block, want)
    assert seen == [block.gbs_id.size]
    for xyz in positions:
        table = build_link_table(SCENE, PATTERN, uav_antenna, CHANNEL, xyz, 20.0)
        assert _same_bits(table, {name: col[0] for name, col in
                                  _reference_columns(uav_antenna, [xyz])[1].items()})


def test_lit_link_gate_sees_the_footprint_boundary():
    uav_antenna = replace(UAV_ANTENNA, half_beamwidth_deg=BOUNDARY_BEAM)
    block = build_lit_links(SCENE, PATTERN, uav_antenna, CHANNEL, BOUNDARY, 20.0)
    # site 0 on the boundary takes the mainlobe gain, and serves; it is
    # the one site lit
    assert block.gbs_id.tolist() == [[0]] and block.c_los[0, 0] > 0.0
    assert _same_bits(block, _reference_columns(uav_antenna, BOUNDARY)[1])
    # negative control: a strict footprint test leaves site 0 unlit
    assert not _same_bits(block, _reference_columns(uav_antenna, BOUNDARY, operator.lt)[1])


def _block_columns():
    block = build_lit_links(
        build_hex_layout(500.0, 1500.0, 3), PATTERN, UAV_ANTENNA, CHANNEL,
        [(150.0, 50.0, 100.0), (-220.0, 310.0, 60.0), (0.0, 700.0, 180.0)], 20.0,
    )
    return {name: np.array(getattr(block, name)) for name in COLUMNS}   # writable copies


def _corrupt_row_1(cols, how):
    c_los, p_los = cols["c_los"][1], cols["p_los"][1]
    if how == "unsorted":
        c_los[[0, 1]] = c_los[[1, 0]]
    else:
        p_los[4] = 1.5


@pytest.mark.parametrize("how, message", [
    ("unsorted", r"sorted by descending c_los, then id; out of order: GBS {ids[1]}"),
    ("p_los", r"LoS probability out of \[0, 1\] for GBS {ids[4]}"),
])
def test_block_check_names_the_corrupt_row(how, message):
    # every link of the default 90-degree beam is lit: no row of the
    # block has padding
    cols = _block_columns()
    LinkTable(**cols)                              # the untouched block passes
    ids = cols["gbs_id"][1].tolist()
    _corrupt_row_1(cols, how)
    with pytest.raises(ValueError, match=message.format(ids=ids) + " in block row 1$"):
        LinkTable(**cols)
    # the same row as one position's table raises the same error, without the row
    with pytest.raises(ValueError, match=message.format(ids=ids) + "$"):
        LinkTable(**{name: col[1] for name, col in cols.items()})


@pytest.mark.parametrize("row", [
    # a lit link after padding, and padding with a gain or a LoS probability
    [(-1, -1, 0.0, 0.0, 0.0), (3, 0, 0.0, 0.0, 0.5)],
    [(3, 0, 2.0, 1.0, 0.5), (-1, -1, 1.0, 0.0, 0.0)],
    [(3, 0, 0.0, 0.0, 0.5), (-1, -1, 0.0, 0.0, 0.5)],
], ids=["lit-after-padding", "padding-gain", "padding-p_los"])
def test_block_check_keeps_padding_at_the_tail(row):
    ok = [(3, 0, 2.0, 1.0, 0.5), (5, 1, 0.0, 0.0, 0.5), (-1, -1, 0.0, 0.0, 0.0),
          (-1, -1, 0.0, 0.0, 0.0)]
    LinkTable(*([list(col)] for col in zip(*ok)))
    with pytest.raises(ValueError, match=r"(out of order|padding row).* GBS -?\d in block row 0$"):
        LinkTable(*([list(col)] for col in zip(*row)))


def test_block_check_shapes():
    cols = _block_columns()
    # a block's columns are (P, k) and a position's (k,), never 3-D, and
    # k >= 1
    LinkTable(**cols)
    LinkTable(**{name: col[0] for name, col in cols.items()})
    for cut in (lambda col: col[None], lambda col: col[:, :0]):
        with pytest.raises(ValueError, match=r"shape \(k,\) or \(P, k\) with k >= 1"):
            LinkTable(**{name: cut(col) for name, col in cols.items()})
    with pytest.raises(ValueError, match="equal shapes"):
        LinkTable(**dict(cols, p_los=cols["p_los"][:2]))
    with pytest.raises(ValueError, match="equal shapes"):
        LinkTable(**dict(cols, band=cols["band"][0]))


def test_block_check_names_a_repeated_gbs():
    # a position lists each GBS once; the error names the GBS and its row
    cols = _block_columns()
    cols["gbs_id"][2, 7] = cols["gbs_id"][2, 3]
    with pytest.raises(ValueError, match=rf"distinct; repeated: GBS {cols['gbs_id'][2, 3]} "
                                         r"in block row 2$"):
        LinkTable(**cols)
    # padding rows repeat id -1: no fault
    LinkTable(*([list(col)] for col in zip((3, 0, 2.0, 1.0, 0.5), *[PADDING] * 2)))


def test_table_holds_its_own_columns(monkeypatch):
    # a writable column is copied: the caller mutating it moves no table
    cols = _block_columns()
    block = LinkTable(**cols)
    before = {name: getattr(block, name).tobytes() for name in COLUMNS}
    for col in cols.values():
        col[...] = 0
    assert {name: getattr(block, name).tobytes() for name in COLUMNS} == before
    assert not any(np.shares_memory(getattr(block, name), cols[name]) for name in COLUMNS)
    # a read-only view does not own its data, so it is copied too
    frozen = {name: col[1] for name, col in _block_columns().items()}
    for col in frozen.values():
        col.flags.writeable = False
    row = LinkTable(**frozen)
    assert not any(np.shares_memory(getattr(row, name), frozen[name]) for name in COLUMNS)
    # a block holds the columns the block evaluation built, no copy
    built = []
    evaluate = channel._walk_columns
    monkeypatch.setattr(channel, "_walk_columns",
                        lambda *args: built.append(evaluate(*args)) or built[-1])
    block = build_lit_links(build_hex_layout(500.0, 1500.0, 3), PATTERN, UAV_ANTENNA,
                            CHANNEL, [(150.0, 50.0, 100.0), (-220.0, 310.0, 60.0)], 20.0)
    held = [getattr(block, name) for name in COLUMNS]
    assert [a is b for a, b in zip(held, built[0])] == [True] * 5
