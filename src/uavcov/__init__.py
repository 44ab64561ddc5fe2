"""Coverage analysis for cellular-network-connected UAVs.

Exact uplink SNR distributions, downlink SNR distributions under random
co-channel interference, and spatial coverage probabilities over a
hexagonal ground-station grid with tilted array antennas and a
probabilistic LoS/NLoS air-to-ground channel.

The top level holds the entry points a study needs and the types they
return; everything else is imported from its module (``uavcov.gpm``,
``uavcov.geometry``, ``uavcov.channel``, ...).
"""

from .channel import LinkTable, build_link_table
from .config import ConfigError, ScenarioConfig, load_config
from .coverage import (
    AssociationEvents,
    CoverageResult,
    DownlinkSnrCdf,
    LinkDirection,
    UplinkSnrPmf,
    association_pmf,
    coverage_at_altitude,
    coverage_over_altitudes,
    downlink_snr_cdf,
    uplink_snr_pmf,
)

__version__ = "0.1.0"

__all__ = [
    "AssociationEvents",
    "ConfigError",
    "CoverageResult",
    "DownlinkSnrCdf",
    "LinkDirection",
    "LinkTable",
    "ScenarioConfig",
    "UplinkSnrPmf",
    "association_pmf",
    "build_link_table",
    "coverage_at_altitude",
    "coverage_over_altitudes",
    "downlink_snr_cdf",
    "load_config",
    "uplink_snr_pmf",
]
