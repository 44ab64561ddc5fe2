"""Air-to-ground channel model, coefficient files, and link tables."""

import math

import numpy as np
import pytest

from conftest import link_table
from uavcov.antenna import UavAntenna, UlaPattern
from uavcov.channel import (
    LinkTable,
    ParametricAirGroundModel,
    build_link_table,
    default_channel,
    free_space_gain,
    load_channel_coefficients,
)
from uavcov.geometry import build_hex_layout


def test_free_space_reference():
    assert free_space_gain(2e9) == pytest.approx(0.00014228584142858625, rel=1e-12)


def test_default_channel_frozen_values():
    m = default_channel(2e9)
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


def test_midpoint_is_half_saturation():
    # at theta0 the logistic sits at 1/(1+a); the default midpoint equals a
    m = default_channel(2e9)
    assert m.los_midpoint_deg == m.los_a
    assert m.los_probability(m.los_midpoint_deg) == pytest.approx(1.0 / (1.0 + 9.6))


def test_los_probability_monotone():
    m = default_channel(2e9)
    thetas = np.linspace(0.0, 90.0, 91)
    probs = [m.los_probability(float(t)) for t in thetas]
    assert all(b > a for a, b in zip(probs, probs[1:]))


def test_pathloss_monotone_in_distance():
    m = default_channel(2e9)
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


def test_evaluate_rejects_tiny_distance():
    with pytest.raises(ValueError):
        default_channel(2e9).evaluate(45.0, 0.5)


def test_coefficient_file_round_trip(tmp_path):
    path = tmp_path / "coeffs.ini"
    path.write_text(
        "[pathloss]\n"
        "alpha_los = 2.1\n"
        "alpha_nlos = 2.4\n"
        "ref_gain_los = 1.3e-4\n"
        "ref_gain_nlos = 2.0e-6\n"
        "[los_probability]\n"
        "a = 11.9\n"
        "b_per_deg = 0.13\n"
        "midpoint_deg = 15.0\n"
    )
    m = load_channel_coefficients(path)
    assert m.alpha_los == 2.1
    assert m.alpha_nlos == 2.4
    assert m.los_a == 11.9
    assert m.los_probability(15.0) == pytest.approx(1.0 / (1.0 + 11.9))


def test_coefficient_file_errors(tmp_path):
    missing = tmp_path / "missing.ini"
    missing.write_text("[pathloss]\nalpha_los = 2.0\n")
    with pytest.raises(ValueError):
        load_channel_coefficients(missing)
    unknown = tmp_path / "unknown.ini"
    unknown.write_text(
        "[pathloss]\nalpha_los = 2.0\nalpha_nlos = 2.0\nref_gain_los = 1e-4\n"
        "ref_gain_nlos = 1e-6\nbogus = 1\n"
        "[los_probability]\na = 9.6\nb_per_deg = 0.28\nmidpoint_deg = 9.6\n"
    )
    with pytest.raises(ValueError):
        load_channel_coefficients(unknown)


def _default_table(uav=(150.0, 50.0, 100.0)):
    layout = build_hex_layout(500.0, 1500.0, 3)
    return build_link_table(
        layout, UlaPattern(10, 0.5, -10.0), UavAntenna(90.0), default_channel(2e9),
        uav, 20.0,
    )


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
        build_hex_layout(500.0, 1500.0, 3), UlaPattern(10, 0.5, -10.0),
        UavAntenna(45.0), default_channel(2e9), (30.0, 0.0, 100.0), 20.0,
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
    with pytest.raises(ValueError, match="1-D"):
        LinkTable([[0]], [[0]], [[2.0]], [[0.5]], [[0.5]])


def test_build_rejects_low_altitude():
    layout = build_hex_layout(500.0, 500.0, 3)
    with pytest.raises(ValueError):
        build_link_table(layout, UlaPattern(10, 0.5, -10.0), UavAntenna(90.0),
                         default_channel(2e9), (0.0, 0.0, 20.0), 20.0)


def test_gain_consistency_with_manual_evaluation():
    layout = build_hex_layout(500.0, 500.0, 3)
    pattern = UlaPattern(10, 0.5, -10.0)
    ant = UavAntenna(90.0)
    m = default_channel(2e9)
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
