import pytest

from uavcov.units import db_to_linear, dbm_to_watt


def test_known_values():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
    assert db_to_linear(12.0) == pytest.approx(10.0 ** 1.2, rel=0)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert dbm_to_watt(-124.0) == pytest.approx(10.0 ** (-15.4), rel=1e-12)
