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
arrays, built by :func:`build_link_table`; the lit links of a block of
P positions, those the UAV antenna gives a nonzero gain, as one
:class:`LitLinks` block of (P, k) columns, built by
:func:`build_lit_links`, k the most lit links of any position.  Each
constructor is where its columns are converted, frozen and checked.
Both builders run one evaluation: the UAV antenna's footprint test and
the >= 1 m distance check (:meth:`ParametricAirGroundModel.pathloss`)
cover every link, and elevation, LoS probability, GBS pattern, pathloss
and the walk-order sort the chosen ones, every link of a table and the
lit links of a block.  An unlit link's gains are exact zeros, bit for
bit the product of its zero UAV gain, so a block's row holds the lit
rows of its position's table, in the table's order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .antenna import UavAntenna
from .geometry import NetworkLayout, link_distances, link_elevation
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

def _hold(table, names) -> None:
    """Hold each column ``name, dtype`` of a frozen table as a read-only
    array of its dtype that owns its data: as it is if it is one, else a
    copy."""
    for name, dtype in names:
        col = getattr(table, name)
        if not (isinstance(col, np.ndarray) and col.dtype == dtype and col.flags.owndata
                and not col.flags.writeable):
            col = np.array(col, dtype=dtype)
            col.flags.writeable = False
            object.__setattr__(table, name, col)


def _faults(ids, c, c_nlos, p_los):
    """The (mask, message) pairs of what no link table holds, in one
    table's (n,) columns or a block's (P, k): a gain or LoS probability no
    link has, and a row that does not sort after the one before it in
    walk order, descending ``c_los`` with ties by ascending id and
    padding rows (id -1) after every row of gain 0."""
    pad = ids < 0
    after = np.ones(ids.shape, dtype=bool)   # row k sorts after row k - 1
    after[..., 1:] = (c[..., :-1] > c[..., 1:]) | ((c[..., :-1] == c[..., 1:]) & (
        pad[..., 1:] | (~pad[..., :-1] & (ids[..., :-1] < ids[..., 1:]))))
    return ((~((p_los >= 0.0) & (p_los <= 1.0)), "LoS probability out of [0, 1] for"),
            (~((c >= 0.0) & (c_nlos >= 0.0)), "negative gain for"),
            ((c == 0.0) & (c_nlos != 0.0), "NLoS gain without LoS gain for"),
            (~after, "link table rows must be sorted by descending c_los, then id; out of order:"))


def _refuse(faults, name) -> None:
    """Raise on the first of ``faults`` found; ``name`` names the row at
    an index of the columns."""
    for bad, what in faults:
        if bad.any():
            raise ValueError(f"{what} {name(np.unravel_index(np.argmax(bad), bad.shape))}")


_COLUMNS = (("gbs_id", np.intp), ("band", np.intp),
            ("c_los", float), ("c_nlos", float), ("p_los", float))


@dataclass(frozen=True, eq=False)
class LinkTable:
    """Combined channel gains of every GBS for one UAV position, as (n,)
    columns; ``len`` is n.

    Row k is GBS ``gbs_id[k]`` of band ``band[k]``, with combined power
    gains C = G_uav * G_gbs * h in both channel states (``c_los[k]``,
    ``c_nlos[k]``) and LoS probability ``p_los[k]``.  Rows are sorted by
    descending LoS gain, ties by ascending id: the association walk's
    order.  The ids are 0..n-1, so per-GBS arrays are indexed by id.  GBSs
    outside the UAV mainlobe with zero backlobe gain have both gains 0
    and sit at the tail.  The columns are read-only, checked on
    construction: an error names the first GBS at fault.  A column
    handed over as a read-only array of its dtype that owns its data is
    held as it is; any other is copied.
    """

    gbs_id: np.ndarray
    band: np.ndarray
    c_los: np.ndarray
    c_nlos: np.ndarray
    p_los: np.ndarray

    def __post_init__(self) -> None:
        _hold(self, _COLUMNS)
        ids, c = self.gbs_id, self.c_los
        if ids.ndim != 1:
            raise ValueError(f"link table columns must have shape (n,), got {ids.shape}")
        if any(col.shape != ids.shape for col in (self.band, c, self.c_nlos, self.p_los)):
            raise ValueError("link table columns must have equal length")
        # n ids are a permutation of 0..n-1 iff they sort to 0..n-1
        n = len(ids)
        if (np.sort(ids) != np.arange(n)).any():
            row = ids.tolist()
            gbs = next(g for k, g in enumerate(row) if not 0 <= g < n or g in row[:k])
            raise ValueError(
                f"link table GBS ids must be a permutation of 0..{n - 1}: "
                f"GBS {gbs} repeats or is out of range"
            )
        _refuse(_faults(ids, c, self.c_nlos, self.p_los), lambda at: f"GBS {ids[at]}")

    def __len__(self) -> int:
        return len(self.gbs_id)


@dataclass(frozen=True, eq=False)
class LitLinks:
    """The lit links of a block of P UAV positions, those the UAV antenna
    gives a nonzero gain, as (P, k) columns; ``len`` is P.

    Row p holds position p's lit links as its :class:`LinkTable` lists
    them, in walk order, then padding rows of id -1, gains 0 and LoS
    probability 0 up to k, the most lit links of any position and at
    least 1.  A position's unlit links have both gains 0, so the
    association walk over its rows here reads every outage as over its
    whole table: with a lit link of gain the walk stops before the first
    row of gain 0, and with none every threshold t > 0 is in outage.  The
    columns are read-only, held or copied as a ``LinkTable``'s are, and
    checked on construction: an error names the first GBS at fault and
    its block row.
    """

    gbs_id: np.ndarray
    c_los: np.ndarray
    c_nlos: np.ndarray
    p_los: np.ndarray

    def __post_init__(self) -> None:
        _hold(self, (column for column in _COLUMNS if column[0] != "band"))
        ids, c = self.gbs_id, self.c_los
        if ids.ndim != 2:
            raise ValueError(f"lit link columns must have shape (P, k), got {ids.shape}")
        if any(col.shape != ids.shape for col in (c, self.c_nlos, self.p_los)):
            raise ValueError("lit link columns must have equal shapes")
        padding = (ids < 0) & ((c != 0.0) | (self.p_los != 0.0))
        _refuse((*_faults(ids, c, self.c_nlos, self.p_los),
                 (padding, "padding row of nonzero gain or LoS probability:")),
                lambda at: f"GBS {ids[at]} in block row {at[0]}")

    def __len__(self) -> int:
        return len(self.gbs_id)


def _walk_columns(layout, gbs_pattern, uav_antenna, channel, positions, gbs_height, every_link):
    """Evaluate the links of a (P, 3) block: every link of each position,
    or its lit links only, those the UAV antenna gives a nonzero gain.

    Returns the (gbs_id, c_los, c_nlos, p_los) columns in walk order, new
    (P, k) arrays, k = n or the most lit links of any position and at
    least 1, and each position's count of chosen links: past its count a
    row holds unlit links, whose gains are 0.  The footprint test and the
    3D distance >= 1 m check cover every link; the rest runs on the
    (P, k) links.  An unlit link's gains are exact zeros, the product of
    its zero UAV gain."""
    block = np.asarray(positions, dtype=float)
    r2, d2, dh = link_distances(block, layout.x, layout.y, gbs_height)
    # the 3D distance grows with d2: each position's nearest link is its shortest
    _check_distance(np.sqrt(d2.min(axis=-1, initial=np.inf)))
    uav_gain = uav_antenna.gain_at(r2, block[:, 2], gbs_height)
    chosen = np.ones(r2.shape, dtype=bool) if every_link else uav_gain != 0.0
    count = chosen.sum(axis=-1)
    # each position's chosen links by ascending id, then its unlit ones
    links = np.argsort(~chosen, axis=-1, kind="stable")[:, :max(int(count.max(initial=0)), 1)]
    # flat indices gather (P, n) arrays at the links, then (P, k) ones in walk order
    rows = np.arange(len(block))[:, None]
    at = links + rows * r2.shape[-1]
    d3, theta = link_elevation(np.take(d2, at), dh[:, None])
    combined = np.take(uav_gain, at) * gbs_pattern(theta)
    h_los, h_nlos = channel.pathloss(d3)
    c_los = combined * h_los
    # a stable sort keeps tied rows in this order, chosen ones by ascending
    # id and unlit ones last: the walk order
    walk = np.argsort(-c_los, axis=-1, kind="stable") + rows * links.shape[-1]
    columns = (links, c_los, combined * h_nlos, channel.los_probability(theta))
    return [np.take(col, walk) for col in columns], count


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
    columns, _ = _walk_columns(layout, gbs_pattern, uav_antenna, channel, [uav_xyz], gbs_height,
                               every_link=True)
    ids, *gains = (col[0] for col in columns)
    return LinkTable(ids, layout.band[ids], *gains)


def build_lit_links(
    layout: NetworkLayout,
    gbs_pattern,
    uav_antenna: UavAntenna,
    channel: ParametricAirGroundModel,
    positions,
    gbs_height: float,
) -> LitLinks:
    """The lit links of a (P, 3) block of positions as one
    :class:`LitLinks` block, evaluated as whole arrays and checked once:
    row p holds the lit rows of the table :func:`build_link_table`
    builds at position p, bit for bit, then padding."""
    (ids, c_los, c_nlos, p_los), count = _walk_columns(
        layout, gbs_pattern, uav_antenna, channel, positions, gbs_height, every_link=False)
    # the unlit links past a position's count are its padding
    padding = np.arange(ids.shape[-1]) >= count[:, None]
    ids[padding], p_los[padding] = -1, 0.0
    for col in (ids, c_los, c_nlos, p_los):
        col.flags.writeable = False
    return LitLinks(ids, c_los, c_nlos, p_los)
