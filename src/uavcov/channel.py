"""Two-state air-to-ground channel model and per-UAV-position link tables.

Each UAV-GBS link is line-of-sight (LoS) with an elevation-dependent
probability and non-line-of-sight (NLoS) otherwise; conditioned on the
state the power channel gain is a deterministic function of distance.
The default parametric model combines

  * a logistic LoS probability  p_L(theta) = 1 / (1 + a * exp(-b*(theta - theta0)))
    in the elevation angle theta (degrees), the widely used urban
    air-to-ground fit;

  * log-distance pathloss  h = beta * d^(-alpha)  on the 3D distance, with
    the reference gains beta anchored to free space at the carrier
    frequency plus a constant excess loss per state.

Each parameter is a ``[channel]`` key; its default lives in
``config.DEFAULTS``, and a coefficients file is read by ``config``.

A UAV position's links are held as a :class:`LinkTable` of (n,) column
arrays, and a block of P positions as one :class:`LinkTable` of (P, n)
columns, whose row p is the table at position p.  The table's
constructor is where link columns are converted, frozen and checked.
:func:`build_link_table` builds one position's table and
:func:`build_link_columns` a block's, evaluated as whole arrays.  Only a
lit link, one the UAV antenna gives a nonzero gain, gets the GBS pattern
and the pathloss (:meth:`ParametricAirGroundModel.pathloss`); an unlit
link's gains are exact zeros, bit for bit the product of its zero UAV
gain, while the LoS probability and the >= 1 m distance check still
cover every link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .antenna import UavAntenna
from .geometry import NetworkLayout, link_geometry
from .units import db_to_linear

SPEED_OF_LIGHT = 299792458.0


def free_space_gain(carrier_hz: float) -> float:
    """Free-space power gain at 1 m, (lambda / 4 pi)^2."""
    if not 0 < carrier_hz < math.inf:
        raise ValueError(f"carrier frequency must be positive, got {carrier_hz}")
    wavelength = SPEED_OF_LIGHT / carrier_hz
    return (wavelength / (4.0 * math.pi)) ** 2


@dataclass(frozen=True)
class ParametricAirGroundModel:
    """Logistic LoS probability plus per-state log-distance pathloss.

    ``ref_gain_*`` are the linear power gains at 1 m; the constructor
    enforces alpha_nlos >= alpha_los > 0 and ref_gain_nlos < ref_gain_los
    so the LoS gain strictly dominates at every distance >= 1 m, and
    refuses every parameter that is not finite.
    """

    alpha_los: float
    alpha_nlos: float
    ref_gain_los: float
    ref_gain_nlos: float
    los_a: float
    los_b_per_deg: float
    los_midpoint_deg: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha_los <= self.alpha_nlos < math.inf:
            raise ValueError(
                "pathloss exponents must satisfy 0 < alpha_los <= alpha_nlos, got "
                f"{self.alpha_los}, {self.alpha_nlos}"
            )
        if not 0.0 < self.ref_gain_nlos < self.ref_gain_los < math.inf:
            raise ValueError(
                "reference gains must satisfy 0 < ref_gain_nlos < ref_gain_los, got "
                f"{self.ref_gain_nlos}, {self.ref_gain_los}"
            )
        if not (0 < self.los_a < math.inf and 0 < self.los_b_per_deg < math.inf):
            raise ValueError(
                f"logistic parameters must be positive, got a={self.los_a}, b={self.los_b_per_deg}"
            )
        if not math.isfinite(self.los_midpoint_deg):
            raise ValueError(f"logistic midpoint must be finite, got {self.los_midpoint_deg}")

    def los_probability(self, elevation_deg):
        """LoS probability at the given elevations (scalar or array)."""
        z = -self.los_b_per_deg * (elevation_deg - self.los_midpoint_deg)
        return 1.0 / (1.0 + self.los_a * np.exp(z))

    def pathloss(self, distance_m):
        """(h_los, h_nlos) of links at the given 3D distances (a scalar or
        an array), each at least 1 m."""
        _check_distance(distance_m)
        h_los = self.ref_gain_los * distance_m ** (-self.alpha_los)
        h_nlos = self.ref_gain_nlos * distance_m ** (-self.alpha_nlos)
        return h_los, h_nlos

    def evaluate(self, elevation_deg, distance_m):
        """(h_los, h_nlos, p_los) of links at the given elevations and 3D
        distances (scalars or equal-shape arrays): :meth:`pathloss` and
        :meth:`los_probability` together."""
        return (*self.pathloss(distance_m), self.los_probability(elevation_deg))


def _check_distance(distance_m) -> None:
    if np.any(np.asarray(distance_m) < 1.0):
        raise ValueError(f"3D distance must be >= 1 m, got {np.min(distance_m)}")


def default_channel(
    carrier_hz: float,
    alpha_los: float,
    alpha_nlos: float,
    excess_loss_los_db: float,
    excess_loss_nlos_db: float,
    los_a: float,
    los_b_per_deg: float,
    los_midpoint_deg: float,
) -> ParametricAirGroundModel:
    """Free-space reference gains minus the per-state excess loss."""
    fs = free_space_gain(carrier_hz)
    return ParametricAirGroundModel(
        alpha_los=alpha_los,
        alpha_nlos=alpha_nlos,
        ref_gain_los=fs * db_to_linear(-excess_loss_los_db),
        ref_gain_nlos=fs * db_to_linear(-excess_loss_nlos_db),
        los_a=los_a,
        los_b_per_deg=los_b_per_deg,
        los_midpoint_deg=los_midpoint_deg,
    )


# ---------------------------------------------------------------------------
# Link tables
# ---------------------------------------------------------------------------

_COLUMNS = (("gbs_id", np.intp), ("band", np.intp),
            ("c_los", float), ("c_nlos", float), ("p_los", float))


@dataclass(frozen=True, eq=False)
class LinkTable:
    """Combined channel gains of every GBS for one UAV position, as (n,)
    columns, or for a block of P positions, as (P, n) columns whose row p
    is the table at position p; ``len`` is n or P.

    Row k is GBS ``gbs_id[k]`` of band ``band[k]``, with combined power
    gains C = G_uav * G_gbs * h in both channel states (``c_los[k]``,
    ``c_nlos[k]``) and LoS probability ``p_los[k]``.  Rows are sorted by
    descending LoS gain, ties by ascending id: the association walk's
    order.  The ids are 0..n-1, so per-GBS arrays are indexed by id.  GBSs
    outside the UAV mainlobe with zero backlobe gain have both gains 0
    and sit at the tail.  The columns are read-only, checked on
    construction: an error names the first GBS at fault and, in a block,
    its row.  A column handed over as a read-only array of its dtype that
    owns its data is held as it is; any other is copied.
    """

    gbs_id: np.ndarray
    band: np.ndarray
    c_los: np.ndarray
    c_nlos: np.ndarray
    p_los: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _COLUMNS:
            col = getattr(self, name)
            if not (isinstance(col, np.ndarray) and col.dtype == dtype and col.flags.owndata
                    and not col.flags.writeable):
                col = np.array(col, dtype=dtype)
                col.flags.writeable = False
                object.__setattr__(self, name, col)
        ids, c, c_nlos, p_los = self.gbs_id, self.c_los, self.c_nlos, self.p_los
        if ids.ndim not in (1, 2):
            raise ValueError(f"link table columns must have shape (n,) or (P, n), got {ids.shape}")
        if any(col.shape != ids.shape for col in (self.band, c, c_nlos, p_los)):
            raise ValueError("link table columns must have equal length")

        def first(bad: np.ndarray) -> tuple[tuple, str]:
            at = np.unravel_index(np.argmax(bad), bad.shape)
            return at, (f" in block row {at[0]}" if bad.ndim == 2 else "")

        # each id marks its slot of a seen-mask, an id out of range the
        # spare slot n: n ids that mark all of 0..n-1 are a permutation
        n = ids.shape[-1]
        seen = np.zeros(ids.shape[:-1] + (n + 1,), dtype=bool)
        row_start = np.arange(len(ids))[:, None] * (n + 1) if ids.ndim == 2 else 0
        seen.ravel()[np.where((ids >= 0) & (ids < n), ids, n) + row_start] = True
        not_permutation = ~seen[..., :n].all(axis=-1, keepdims=True)
        if not_permutation.any():
            at, where = first(not_permutation)
            row = ids[at[:-1]].tolist()
            gbs = next(g for k, g in enumerate(row) if not 0 <= g < n or g in row[:k])
            raise ValueError(
                f"link table GBS ids must be a permutation of 0..{n - 1}: "
                f"GBS {gbs} repeats or is out of range{where}"
            )
        after = np.ones(ids.shape, dtype=bool)   # entry k sorts after entry k - 1
        after[..., 1:] = (c[..., :-1] > c[..., 1:]) | (
            (c[..., :-1] == c[..., 1:]) & (ids[..., :-1] < ids[..., 1:])
        )
        for bad, what in (
            (~((p_los >= 0.0) & (p_los <= 1.0)), "LoS probability out of [0, 1] for"),
            (~((c >= 0.0) & (c_nlos >= 0.0)), "negative gain for"),
            ((c == 0.0) & (c_nlos != 0.0), "NLoS gain without LoS gain for"),
            (~after, "link table rows must be sorted by descending c_los, then id; out of order:"),
        ):
            if bad.any():
                at, where = first(bad)
                raise ValueError(f"{what} GBS {ids[at]}{where}")

    def __len__(self) -> int:
        return len(self.gbs_id)


def _link_columns(layout, gbs_pattern, uav_antenna, channel, positions, gbs_height):
    """The five (P, n) link table columns of a (P, 3) block, in walk
    order, each a new read-only array that a ``LinkTable`` holds without
    a copy.

    Only lit links, those the UAV antenna gives a nonzero gain, get the
    GBS pattern and the pathloss; an unlit link's gains are exact zeros,
    the product a zero UAV gain gives.  The LoS probability and the
    distance check cover every link."""
    block = np.asarray(positions, dtype=float)
    r_h, d3, theta = link_geometry(block, layout.x, layout.y, gbs_height)
    _check_distance(d3)
    p_los = channel.los_probability(theta)
    uav_gain = uav_antenna.gain_at(r_h, block[:, 2], gbs_height)
    lit = uav_gain != 0.0
    combined = uav_gain[lit] * gbs_pattern(theta[lit])
    h_los, h_nlos = channel.pathloss(d3[lit])
    c_los, c_nlos = np.zeros(d3.shape), np.zeros(d3.shape)
    c_los[lit] = combined * h_los
    c_nlos[lit] = combined * h_nlos
    # a site's id is its index, so a stable sort breaks ties by id
    order = np.argsort(-c_los, axis=-1, kind="stable")
    # one flat index gathers the float columns in walk order
    flat = order + np.arange(len(order))[:, None] * order.shape[-1]
    columns = (order, layout.band[order], *(np.take(col, flat) for col in (c_los, c_nlos, p_los)))
    for col in columns:
        col.flags.writeable = False
    return columns


def build_link_table(
    layout: NetworkLayout,
    gbs_pattern,
    uav_antenna: UavAntenna,
    channel: ParametricAirGroundModel,
    uav_xyz: Sequence[float],
    gbs_height: float,
) -> LinkTable:
    """Evaluate geometry, antennas and channel for every site at once.

    ``gbs_pattern`` is any callable mapping an array of elevation angles
    in degrees to linear power gains (a :class:`~uavcov.antenna.UlaPattern`
    works).
    """
    columns = _link_columns(layout, gbs_pattern, uav_antenna, channel, [uav_xyz], gbs_height)
    return LinkTable(*(col[0] for col in columns))


def build_link_columns(
    layout: NetworkLayout,
    gbs_pattern,
    uav_antenna: UavAntenna,
    channel: ParametricAirGroundModel,
    positions,
    gbs_height: float,
) -> LinkTable:
    """The link tables of a (P, 3) block of positions as one block
    :class:`LinkTable` of (P, n) columns, whose row p equals column for
    column the table :func:`build_link_table` builds at position p.  The
    block is evaluated as whole arrays and checked once."""
    return LinkTable(*_link_columns(layout, gbs_pattern, uav_antenna, channel, positions,
                                    gbs_height))
