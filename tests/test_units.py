import pytest

from uavcov.units import db_to_linear, dbm_to_watt


def test_known_values():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
    assert db_to_linear(12.0) == pytest.approx(10.0 ** 1.2, rel=0)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert dbm_to_watt(-124.0) == pytest.approx(10.0 ** (-15.4), rel=1e-12)


@pytest.mark.parametrize("value", [4000.0, -4000.0, float("nan"), float("inf"), float("-inf")])
def test_no_positive_finite_linear_value_is_an_error(value):
    # 10^(dB/10) overflows, underflows to 0 or is not a number
    for convert in (db_to_linear, dbm_to_watt):
        with pytest.raises(ValueError, match="has no linear value that is a positive finite float"):
            convert(value)


def test_subnormal_linear_value_is_valid():
    assert db_to_linear(-3200.0) == 10.0 ** -320 > 0.0
    assert dbm_to_watt(-3200.0) == 10.0 ** -320 * 1e-3 > 0.0
