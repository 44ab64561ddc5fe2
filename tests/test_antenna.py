"""Array pattern and UAV cone antenna.

The array-factor oracle sums the steering vector element by element,
which is the physical definition; the implementation uses the closed
form, so agreement checks the algebra, not just the code against itself.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import default_models
from uavcov.antenna import UlaPattern

# the antennas of the shipped default scene: a 10-element array with
# spacing 0.5 wavelengths tilted to -10 degrees, and a 90-degree cone
PATTERN, UAV, _ = default_models()
G_E = PATTERN.element_peak_gain


def steering_sum_gain(theta_deg, count, spacing_wl, tilt_deg, element_peak):
    """|sum_k exp(j 2 pi d/lambda k (sin t - sin t0))|^2 / K, times the
    element pattern."""
    psi = 2.0 * math.pi * spacing_wl * (
        math.sin(math.radians(theta_deg)) - math.sin(math.radians(tilt_deg))
    )
    acc = sum(complex(math.cos(k * psi), math.sin(k * psi)) for k in range(count))
    element = element_peak * math.cos(math.radians(theta_deg)) ** 2
    return element * abs(acc) ** 2 / count


def test_matches_steering_vector_sum():
    rng = np.random.default_rng(11)
    for _ in range(200):
        count = int(rng.integers(1, 33))
        spacing = float(rng.uniform(0.1, 1.0))
        tilt = float(rng.uniform(-60.0, 60.0))
        theta = float(rng.uniform(-89.0, 90.0))
        got = UlaPattern(count, spacing, tilt, G_E)(theta)
        want = steering_sum_gain(theta, count, spacing, tilt, G_E)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_boresight_identity():
    rng = np.random.default_rng(23)
    for _ in range(100):
        count = int(rng.integers(1, 65))
        spacing = float(rng.uniform(0.1, 1.0))
        tilt = float(rng.uniform(-80.0, 80.0))
        want = count * G_E * math.cos(math.radians(tilt)) ** 2
        assert UlaPattern(count, spacing, tilt, G_E)(tilt) == pytest.approx(want, rel=1e-9)


def test_horizon_gain_is_zero():
    assert replace(PATTERN, element_count=8)(90.0) == 0.0


def test_removable_singularity_off_boresight():
    # spacing 1.0, tilt -30: sin(t) - sin(t0) = 1 at t = 30, a grating
    # lobe where the denominator vanishes; the limit is the factor K.
    pat = UlaPattern(12, 1.0, -30.0, G_E)
    want = 12 * G_E * math.cos(math.radians(30.0)) ** 2
    assert pat(30.0) == pytest.approx(want, rel=1e-9)
    # continuity across the singular point
    assert pat(30.0 + 1e-6) == pytest.approx(want, rel=1e-6)
    assert pat(30.0 - 1e-6) == pytest.approx(want, rel=1e-6)


def test_gain_bounded_by_peak():
    rng = np.random.default_rng(37)
    for _ in range(50):
        pat = UlaPattern(int(rng.integers(1, 33)), float(rng.uniform(0.1, 1.0)),
                         float(rng.uniform(-60.0, 60.0)), G_E)
        thetas = rng.uniform(-89.9, 90.0, size=64)
        gains = pat(thetas)
        assert np.all(gains >= 0.0)
        assert np.all(gains <= pat.element_count * pat.element_peak_gain * (1 + 1e-12))


def test_vector_input():
    pat = PATTERN
    thetas = np.array([[-45.0, -10.0, 0.0], [10.0, 45.0, 90.0]])
    gains = pat(thetas)
    assert gains.shape == thetas.shape
    for t, g in zip(thetas.ravel(), gains.ravel()):
        assert g == pytest.approx(pat(np.array([t]))[0], rel=1e-12)


def test_pattern_object():
    pat = PATTERN
    # the exact boresight gain K * G_e * cos(tilt)^2, with G_e = 1.64
    assert pat(-10.0) == pytest.approx(10 * 1.64 * math.cos(math.radians(10.0)) ** 2, rel=1e-12)


def test_angle_domain():
    pat = UlaPattern(8, 0.5, 0.0, G_E)
    with pytest.raises(ValueError):
        pat(np.array([0.0, -90.0]))
    with pytest.raises(ValueError):
        pat(91.0)
    with pytest.raises(ValueError):
        replace(pat, element_count=0)
    with pytest.raises(ValueError):
        replace(pat, downtilt_deg=90.0)


@pytest.mark.parametrize("field", ["element_count", "element_spacing_wl", "element_peak_gain"])
def test_pattern_rejects_nan(field):
    # NaN fails every comparison, so each check must be one that NaN fails;
    # infinity gives NaN or infinite gains, so it fails too
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^{field} must.*, got {value}$"):
            replace(PATTERN, **{field: value})


def test_frozen_gain_values():
    # reference values from the steering-vector sum, K=10, d/lambda=0.5,
    # tilt -10, G_e 1.64: the default scene's array
    pat = PATTERN
    want = {
        0.0: 0.3655736243101578,
        7.25: 0.7837632852208436,
        19.05: 0.29301917511857595,
        45.0: 0.07741642386388428,
    }
    for theta, value in want.items():
        assert pat(theta) == pytest.approx(value, rel=1e-9)


def test_uav_cone_mainlobe():
    ant = UAV
    assert ant.mainlobe_gain == pytest.approx(7500.0 / 8100.0)
    assert ant.footprint_radius(100.0, 20.0) == math.inf
    assert ant.gain_at([[1e18]], [100.0], 20.0).tolist() == [[ant.mainlobe_gain]]

    narrow = replace(UAV, half_beamwidth_deg=45.0)
    assert narrow.mainlobe_gain == pytest.approx(7500.0 / 2025.0)
    r = narrow.footprint_radius(100.0, 20.0)
    assert r == pytest.approx(80.0 * math.tan(math.radians(45.0)))
    # gain_at reads squared distances; the boundary is inside; one row per height
    out = (r * 1.000001) ** 2
    gains = narrow.gain_at([[r * r, out], [r * r, out]], [100.0, 120.0], 20.0)
    assert gains.tolist() == [[narrow.mainlobe_gain, 0.0], [narrow.mainlobe_gain] * 2]


def test_uav_cone_backlobe():
    ant = replace(UAV, half_beamwidth_deg=30.0, backlobe_gain=0.01)
    r = ant.footprint_radius(120.0, 20.0)
    assert ant.gain_at([[r * r, 4 * r * r]], [120.0], 20.0).tolist() == [[ant.mainlobe_gain, 0.01]]


def test_uav_cone_validation():
    narrow = replace(UAV, half_beamwidth_deg=45.0)
    with pytest.raises(ValueError):
        replace(UAV, half_beamwidth_deg=0.0)
    with pytest.raises(ValueError):
        replace(UAV, half_beamwidth_deg=90.5)
    with pytest.raises(ValueError):
        replace(narrow, backlobe_gain=-0.1)
    with pytest.raises(ValueError):
        narrow.footprint_radius(20.0, 20.0)
    # distances come as a (P, n) block with one height per row
    for r_h, heights in (([1.0], [100.0]), ([[1.0]], 100.0), ([[1.0], [2.0]], [100.0])):
        with pytest.raises(ValueError, match="need \\(P, n\\) distances"):
            narrow.gain_at(r_h, heights, 20.0)


@pytest.mark.parametrize("field", ["mainlobe_constant", "backlobe_gain"])
def test_uav_cone_rejects_nan(field):
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^{field} must.*, got {value}$"):
            replace(UAV, **{field: value})
