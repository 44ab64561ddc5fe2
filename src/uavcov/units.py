"""Unit conversions between dB-domain and linear-domain quantities.

All analysis code works in linear units (watts, dimensionless gains).
Conversions happen once, at the edge where configuration is read.
"""

from __future__ import annotations


def db_to_linear(value_db: float, scale: float = 1.0) -> float:
    """Convert a ratio in dB to a linear ratio, times ``scale``; a result
    that is not a positive finite float (it overflows, underflows to 0 or
    is NaN) is a ValueError."""
    try:
        value = 10.0 ** (value_db / 10.0) * scale
    except OverflowError:
        value = float("inf")
    if not 0.0 < value < float("inf"):
        raise ValueError(f"{value_db!r} dB has no linear value that is a positive finite float")
    return value


def dbm_to_watt(value_dbm: float) -> float:
    """Convert a power in dBm to watts."""
    return db_to_linear(value_dbm, 1e-3)
