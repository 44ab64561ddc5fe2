"""Unit conversions between dB-domain and linear-domain quantities.

All analysis code works in linear units (watts, dimensionless gains).
Conversions happen once, at the edge where configuration is read.
"""

from __future__ import annotations


def db_to_linear(value_db: float) -> float:
    """Convert a ratio in dB to a linear ratio."""
    return 10.0 ** (value_db / 10.0)


def dbm_to_watt(value_dbm: float) -> float:
    """Convert a power in dBm to watts."""
    return 10.0 ** (value_dbm / 10.0) * 1e-3
