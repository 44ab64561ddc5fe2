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

A UAV position's links are held as a :class:`LinkTable` of its lit
links, those the UAV antenna gives a nonzero gain, as (k,) columns, built
by :func:`build_link_table`; a block of P positions as one
:class:`LinkTable` of (P, k) columns, built by :func:`build_lit_links`,
k the most lit links of any position.  The constructor is where the
columns are converted, frozen and checked.  Both builders run one
evaluation: the UAV antenna's footprint test and the >= 1 m distance
check (:meth:`ParametricAirGroundModel.pathloss`) cover every link, and
elevation, LoS probability, GBS pattern, pathloss and the walk-order sort
the lit ones.  An unlit link's gains are exact zeros, bit for bit the
product of its zero UAV gain, so it can neither serve nor interfere: a
table lists the lit links alone, and every law reads over it as over the
table of every link.
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
    """The (mask, message, ids) triples of what no link table holds, in
    one position's (k,) columns or a block's (P, k): a gain or LoS
    probability no link has, a padding row (id -1) with a gain or a LoS
    probability, a row that does not sort after the one before it in walk
    order, descending ``c_los`` with ties by ascending id and padding rows
    after every row of gain 0, and a GBS a position lists twice.  Where a
    mask holds, its ids name the GBS at fault."""
    pad = ids < 0
    after = np.ones(ids.shape, dtype=bool)   # row k sorts after row k - 1
    after[..., 1:] = (c[..., :-1] > c[..., 1:]) | ((c[..., :-1] == c[..., 1:]) & (
        pad[..., 1:] | (~pad[..., :-1] & (ids[..., :-1] < ids[..., 1:]))))
    # a position's real ids are distinct iff no two neighbours of its
    # sorted ids are equal
    ranked = np.sort(ids, axis=-1)
    return ((~((p_los >= 0.0) & (p_los <= 1.0)), "LoS probability out of [0, 1] for", ids),
            (~((c >= 0.0) & (c_nlos >= 0.0)), "negative gain for", ids),
            ((c == 0.0) & (c_nlos != 0.0), "NLoS gain without LoS gain for", ids),
            (~after, "link table rows must be sorted by descending c_los, then id; out of order:",
             ids),
            (pad & ((c != 0.0) | (p_los != 0.0)),
             "padding row of nonzero gain or LoS probability:", ids),
            ((ranked[..., 1:] == ranked[..., :-1]) & (ranked[..., 1:] >= 0),
             "link table GBS ids must be distinct; repeated:", ranked[..., 1:]))


_COLUMNS = (("gbs_id", np.intp), ("band", np.intp),
            ("c_los", float), ("c_nlos", float), ("p_los", float))


@dataclass(frozen=True, eq=False)
class LinkTable:
    """The lit links of one UAV position, those the UAV antenna gives a
    nonzero gain, as (k,) columns, or of a block of P positions as (P, k)
    columns, row p position p's; ``len`` is k for a position and P for a
    block.

    A position's row j is GBS ``gbs_id[j]`` of band ``band[j]``, with
    combined power gains C = G_uav * G_gbs * h in both channel states
    (``c_los[j]``, ``c_nlos[j]``) and LoS probability ``p_los[j]``.  Its
    lit links come first in walk order, sorted by descending LoS gain,
    ties by ascending id; then padding rows of id -1, gains 0 and LoS
    probability 0 up to k, at least 1 (no reader reads a padding row's
    band; the builders write -1).  Its ids are distinct, and per-GBS
    arrays are indexed by id.  A GBS a position does not list is
    unlit: both its gains are 0, so it neither serves nor interferes, and
    every law reads the same as over a table that lists it with those
    gains.  A lit link may still have gain 0, in a GBS element null.  The
    columns are read-only, checked on construction: an error names the
    first GBS at fault, and its block row.  A column handed over as a
    read-only array of its dtype that owns its data is held as it is; any
    other is copied.
    """

    gbs_id: np.ndarray
    band: np.ndarray
    c_los: np.ndarray
    c_nlos: np.ndarray
    p_los: np.ndarray

    def __post_init__(self) -> None:
        _hold(self, _COLUMNS)
        ids, c = self.gbs_id, self.c_los
        if ids.ndim not in (1, 2) or ids.shape[-1] == 0:
            raise ValueError("link table columns must have shape (k,) or (P, k) with k >= 1 "
                             f"(one padding row when no link is lit), got {ids.shape}")
        if any(col.shape != ids.shape for col in (self.band, c, self.c_nlos, self.p_los)):
            raise ValueError("link table columns must have equal shapes")
        for bad, what, named in _faults(ids, c, self.c_nlos, self.p_los):
            if bad.any():
                at = np.unravel_index(np.argmax(bad), bad.shape)
                row = f" in block row {at[0]}" if ids.ndim == 2 else ""
                raise ValueError(f"{what} GBS {named[at]}{row}")

    def __len__(self) -> int:
        return len(self.gbs_id)


def _walk_columns(layout, gbs_pattern, uav_antenna, channel, positions, gbs_height):
    """The five (P, k) columns of the lit links of a (P, 3) block, new
    read-only arrays, k the most lit links of any position and at least
    1.  The footprint test and the 3D distance >= 1 m check cover every
    link; the rest runs on the (P, k) links: each position's lit links by
    ascending id, then as many of its unlit ones as pad it to k, whose
    gains are exact zeros, the product of their zero UAV gain, and which
    become its padding rows."""
    block = np.asarray(positions, dtype=float)
    r2, d2, dh = link_distances(block, layout.x, layout.y, gbs_height)
    # the 3D distance grows with d2: each position's nearest link is its shortest
    _check_distance(np.sqrt(d2.min(axis=-1, initial=np.inf)))
    uav_gain = uav_antenna.gain_at(r2, block[:, 2], gbs_height)
    lit = uav_gain != 0.0
    count = lit.sum(axis=-1)
    links = np.argsort(~lit, axis=-1, kind="stable")[:, :max(int(count.max(initial=0)), 1)]
    # flat indices gather (P, n) arrays at the links, then (P, k) ones in walk order
    rows = np.arange(len(block))[:, None]
    at = links + rows * r2.shape[-1]
    d3, theta = link_elevation(np.take(d2, at), dh[:, None])
    combined = np.take(uav_gain, at) * gbs_pattern(theta)
    h_los, h_nlos = channel.pathloss(d3)
    c_los = combined * h_los
    # a stable sort keeps tied rows in this order, lit ones by ascending
    # id and unlit ones last: the walk order
    walk = np.argsort(-c_los, axis=-1, kind="stable") + rows * links.shape[-1]
    ids, c_los, c_nlos, p_los = (np.take(col, walk) for col in (
        links, c_los, combined * h_nlos, channel.los_probability(theta)))
    band = np.take(layout.band, ids)
    # the unlit links past a position's count are its padding
    padding = np.arange(ids.shape[-1]) >= count[:, None]
    ids[padding], band[padding], p_los[padding] = -1, -1, 0.0
    columns = (ids, band, c_los, c_nlos, p_los)
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
    """The lit links of the one position ``uav_xyz`` as a (k,)
    :class:`LinkTable`, bit for bit row 0 of the block
    :func:`build_lit_links` builds of it alone.

    ``gbs_pattern`` is any callable mapping an array of elevation angles
    in degrees to linear power gains (a :class:`~uavcov.antenna.UlaPattern`
    works).
    """
    columns = _walk_columns(layout, gbs_pattern, uav_antenna, channel, [uav_xyz], gbs_height)
    return LinkTable(*(col[0] for col in columns))


def build_lit_links(
    layout: NetworkLayout,
    gbs_pattern,
    uav_antenna: UavAntenna,
    channel: ParametricAirGroundModel,
    positions,
    gbs_height: float,
) -> LinkTable:
    """The lit links of a (P, 3) block of positions as one (P, k)
    :class:`LinkTable`, evaluated as whole arrays and checked once: row p
    holds the table :func:`build_link_table` builds at position p, bit
    for bit, then padding up to k."""
    return LinkTable(*_walk_columns(layout, gbs_pattern, uav_antenna, channel, positions,
                                    gbs_height))
