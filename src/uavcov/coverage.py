"""Association, SNR distributions and spatial coverage.

Uplink: the UAV associates with the GBS of largest realised combined gain.
Walking the link table in descending LoS-gain order makes the association
pmf exact: the m-th row serves in LoS iff it is LoS and every earlier row
is NLoS, with probability p_m * pre[m], pre[m] the product of 1 - p_j over
the rows j < m; once the walk reaches rows whose LoS gain falls below the
best NLoS gain ``C_NL_max`` the realised maximum is ``C_NL_max`` no matter
what happens further down, which closes the walk with a single terminal
event of mass pre[stop].  An optional probability floor ``eps`` truncates
the walk early, assigning the remaining mass to the terminal event.
:func:`association_walk` computes pre and stop as running products in
walk order, over a :class:`~uavcov.channel.LinkTable` of one position's
lit links or over each position of a block of them.  Row m's mass is
pre[m] - pre[m + 1], so the mass below a threshold telescopes: with K the number of rows whose LoS
SNR is at or above t, outage(t) = pre[min(K, stop)] when t exceeds the
terminal SNR, else 0.  Coverage reads uplink outage this way for a block
of positions at every threshold (:func:`uplink_outage`), without an
event or pmf per position; :func:`association_pmf` reads the walk of one
position's table into one :class:`AssociationEvents` record of (E,)
event arrays, whose atoms :func:`uplink_snr_pmf` merges.

Downlink: conditioned on an association event, every other lit GBS in
the serving GBS's band interferes when active (probability ``omega`` per
site); an unlit one has gain 0 in both states, so it adds nothing, and
no table lists it.  Each interferer is one row of values [0, C_NL, C_L] with
probabilities [1 - omega, omega (1 - p_L), omega p_L], where p_L is 0 for
GBSs the event forces into NLoS (always a prefix of the walk order, so an
event stores only its length); the conditional interference cdf is then
a lattice-approximated sum and the SNR cdf follows from
P{snr <= y} = P{I >= C/y - alpha0} summed over events.  A position's
events, whatever band serves them, are built as one checked (E, K, 3)
:class:`~uavcov.gpm.GpmSpec` stack from the record's serving rows and
forced prefixes (:func:`conditional_interference_specs`), each event's
interferers padded with silent rows to the largest band's; its arrays
:func:`uavcov.gpm.la_folds` quantizes and folds in one pass each, then
inverts the folded rows of events of one lattice length in chunks of
one transform each way, a long sum's light tail on a quarter lattice,
into one :class:`~uavcov.gpm.LatticeLaws` record of the position's
laws, each with its displacement M / (2 beta), M the event's
interferers of more than one value (silent padding counts 0).  Outage at
every threshold is read from all of the record's laws at once
(:meth:`uavcov.gpm.LatticeLaws.cdf`).  Each event's sum, its row e of the
stack, padding included, and its law, row e of the record, are handed
through :func:`conditional_interference_spec` and
:func:`uavcov.gpm.la_cdf`, which return them as they are: the seams where
the benchmark's tracer counts events.  A position whose events carry no
law (its beam lights no GBS) takes the same path: an empty stack folds
to a record of no laws, which every read takes as an empty array.

Spatial coverage averages the per-point non-outage probability over a
deterministic sampling grid, optionally across altitudes by trapezoidal
quadrature normalised by the altitude span.  Its entry points take the
loaded :class:`~uavcov.config.ScenarioConfig` as the one scenario
argument and read the layout, antennas, channel, sampling region,
loading, ``beta0``/``alpha0``, ``eps`` and ``c0`` from it.  Each
(altitude, point) position's SNR law is built once and read at every
threshold.  Positions are scored in blocks of about ``BLOCK_ENTRIES``
(position, site) pairs: the uplink reads each block's lit links as one
(P, k) :class:`~uavcov.channel.LinkTable` from
:func:`~uavcov.channel.build_lit_links`, k the most any position has,
and the downlink builds each position's (k,) table with
:func:`~uavcov.channel.build_link_table`; no position's value depends
on another's, so the output does not depend on where the blocks end.
The uplink is read once per class of points whose sorted distances to
the sites match (:func:`~uavcov.geometry.point_orbits`), and its value
copied to every point of the class; downlink laws are built at every
point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Sequence

import numpy as np

from .channel import LinkTable, build_link_table, build_lit_links
from .config import ScenarioConfig
from .geometry import point_orbits, sample_region
from .gpm import GpmSpec, LatticeLaws, la_cdf, la_folds

PROB_SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AssociationEvents:
    """The association distribution as read-only (E,) arrays in walk
    order: one LoS event per walked row of positive probability, then the
    terminal event; or the one no-gain event.  Event e has ``probability``
    and serving ``gain``; ``serving`` is its serving GBS's walk row in the
    link table (-1 for the no-gain event), and it forces the first
    ``forced`` rows into NLoS: the walked prefix for a LoS event, every
    row with ``c_los >= C_NL_max`` for the terminal event (a prefix, as
    rows sort by descending ``c_los``).  ``los`` tells the LoS events from
    the rest, which those two cannot: a row may have ``c_nlos > c_los``.
    """

    probability: np.ndarray
    gain: np.ndarray
    serving: np.ndarray
    forced: np.ndarray
    los: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("probability", float), ("gain", float), ("serving", np.intp),
                            ("forced", np.intp), ("los", bool)):
            col = np.array(getattr(self, name), dtype=dtype)
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.probability)


def association_walk(table: LinkTable, eps: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The association walk over a link table in walk order: one
    position's (n,) columns, or each row of a block's (P, n) columns, n
    the rows of a position, padding included.  A padding row has gain 0
    and LoS probability 0, so it moves no mass and the walk serves no
    event there.

    Returns ``pre``, of shape (..., n + 1), and ``stop``, of shape (...).
    ``pre[..., k]`` is the probability that rows 0..k-1 are all NLoS, the
    running product of 1 - ``p_los`` multiplied in walk order; ``stop`` is
    the first row the walk does not take, because its LoS gain is below
    the best NLoS gain ``C_NL_max`` or ``pre`` there is below ``eps``.
    Row m < stop serves in LoS with probability ``p_los[m] * pre[m]``, and
    the terminal event at ``C_NL_max`` takes the rest, ``pre[stop]``.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    n = table.c_los.shape[-1]
    pre = np.ones(table.c_los.shape[:-1] + (n + 1,))
    np.cumprod(1.0 - table.p_los, axis=-1, out=pre[..., 1:])
    taken = (table.c_los >= table.c_nlos.max(axis=-1, keepdims=True)) & (pre[..., :-1] >= eps)
    stop = np.where(taken.all(axis=-1), n, taken.argmin(axis=-1))
    total = (np.where(taken, table.p_los * pre[..., :-1], 0.0).sum(axis=-1)
             + np.take_along_axis(pre, stop[..., None], axis=-1)[..., 0])
    off = np.abs(total - 1.0)
    if (off > PROB_SUM_TOL).any():
        raise AssertionError(f"association probabilities sum to {float(total.flat[off.argmax()])!r}")
    return pre, stop


def association_pmf(table: LinkTable, eps: float = 0.0) -> AssociationEvents:
    """Exact (eps = 0) or truncated association distribution, read from
    :func:`association_walk` as one :class:`AssociationEvents` record.

    When the walk's remaining mass drops below ``eps`` the walk stops and
    that mass is folded into the terminal event, so the sum stays 1.
    """
    if table.c_los.ndim != 1:
        raise ValueError("association_pmf reads one position's table, not a block")
    pre, stop = association_walk(table, eps)
    if table.c_los[0] == 0.0:
        # The largest gain is 0, so no GBS has any gain toward the UAV
        # (a table has no NLoS gain without LoS gain): the SNR is 0 surely.
        return AssociationEvents([1.0], [0.0], [-1], [0], [False])

    c_nlos_max = table.c_nlos.max()
    stop = int(stop)
    p_los, walked = table.p_los[:stop], pre[:stop]
    rows = np.flatnonzero((p_los > 0.0) & (walked > 0.0))
    events = [(p_los * walked)[rows], table.c_los[rows], rows, rows, np.ones(rows.size, bool)]
    if pre[stop] > 0.0:
        terminal = (pre[stop], c_nlos_max, np.argmax(table.c_nlos),
                    np.count_nonzero(table.c_los >= c_nlos_max), False)
        events = [np.append(col, value) for col, value in zip(events, terminal)]
    return AssociationEvents(*events)


# ---------------------------------------------------------------------------
# Uplink
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class UplinkSnrPmf:
    """Atoms of the uplink SNR distribution, values ascending."""

    values: np.ndarray
    probs: np.ndarray

    def outage(self, threshold: float) -> float:
        """P{snr < threshold} (strict: mass exactly at the threshold is
        not outage).  Normalised by the total mass, so it is exactly 0 or
        1 when no atom or every atom lies below the threshold; clipped to
        [0, 1] against float roundoff in between.  A threshold of 0
        reads 0, exactly; a negative or NaN threshold is an error."""
        if not threshold >= 0:
            raise ValueError("SNR thresholds must be >= 0 and must not be NaN")
        below = float(self.probs[self.values < threshold].sum())
        return min(1.0, max(0.0, below / float(self.probs.sum())))


def uplink_snr_pmf(table: LinkTable, beta0: float, eps: float = 0.0) -> UplinkSnrPmf:
    """Distribution of beta0 * (serving combined gain); events with equal
    gain merge into one atom."""
    if not beta0 > 0:
        raise ValueError(f"beta0 must be positive, got {beta0}")
    events = association_pmf(table, eps)
    # bincount adds each atom's probabilities in event order
    values, atom = np.unique(beta0 * events.gain, return_inverse=True)
    return UplinkSnrPmf(values, np.bincount(atom, weights=events.probability))


def _walked_rows_at_or_above(snr: np.ndarray, stop: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """For each row of the descending (..., n) ``snr`` and each threshold,
    how many of its first ``stop`` entries lie at or above the threshold:
    (..., T).  They are a prefix, so only the longest walk is compared."""
    width = int(np.max(stop))
    above = np.count_nonzero(snr[..., None, :width] >= ts[:, None], axis=-1)
    return np.minimum(above, stop[..., None])


def uplink_outage(table: LinkTable, beta0: float, thresholds,
                  eps: float = 0.0) -> np.ndarray:
    """P{snr < t} for every threshold t: (T,) for one position's link
    table, (P, T) for a block of P positions, as
    :meth:`UplinkSnrPmf.outage` of :func:`uplink_snr_pmf` reads it to
    within float roundoff, without building either.

    The LoS atoms of the walk (:func:`association_walk`) lie at or above
    the terminal atom beta0 * C_NL_max and descend with the rows, and row
    m's mass is pre[m] - pre[m + 1], so the mass below t telescopes:
    outage(t) = [t > beta0 * C_NL_max] * pre[min(K, stop)], with K the
    number of rows whose LoS atom beta0 * c_los is at or above t.  A
    position whose every gain is 0 reads K = 0, so outage [t > 0].  A
    threshold of 0 reads 0; a negative or NaN threshold is an error.
    """
    if not beta0 > 0:
        raise ValueError(f"beta0 must be positive, got {beta0}")
    ts = np.asarray(thresholds, dtype=float)
    if not (ts >= 0).all():
        raise ValueError("SNR thresholds must be >= 0 and must not be NaN")
    pre, stop = association_walk(table, eps)
    c_nlos_max = np.max(table.c_nlos, axis=-1, keepdims=True)
    served = _walked_rows_at_or_above(beta0 * table.c_los, stop, ts)
    return np.where(ts > beta0 * c_nlos_max, np.take_along_axis(pre, served, axis=-1), 0.0)


# ---------------------------------------------------------------------------
# Downlink
# ---------------------------------------------------------------------------

def loading_by_id(omega, ids) -> np.ndarray:
    """Loading of each GBS of ``ids``: ``omega`` is one scalar for every
    GBS or a 1-D array indexed by id.  Every entry must lie in [0, 1],
    and an array must have an entry for every id asked for."""
    w = np.asarray(omega, dtype=float)
    ids = np.asarray(ids, dtype=np.intp)
    if w.ndim > 1:
        raise ValueError(f"loading must be a scalar or one entry per GBS id, got shape {w.shape}")
    bad = ~((w >= 0.0) & (w <= 1.0))
    if bad.any():
        gbs = f"GBS {np.argmax(bad)}" if w.ndim else "every GBS"
        raise ValueError(f"loading factor for {gbs} must lie in [0, 1], got {w[bad][0]}")
    if w.ndim == 0:
        return np.full(ids.shape, float(w))
    missing = (ids < 0) | (ids >= len(w))
    if missing.any():
        raise ValueError(f"loading has no entry for GBS {ids[missing][0]}: it has "
                         f"{len(w)} entries, for ids 0..{len(w) - 1}")
    return w[ids]


def conditional_interference_specs(table: LinkTable, omega, serving, forced) -> GpmSpec:
    """Aggregate interference under each of E association events: one
    (E, K, 3) stack of sums (:class:`~uavcov.gpm.GpmSpec`), built and
    checked as one array.  Event e is served by walk row ``serving[e]`` of
    ``table``, one position's lit links, and forces the first
    ``forced[e]`` rows into NLoS: the (E,) slices of an
    :class:`AssociationEvents` record.

    The interferers of event e are the other lit GBSs of its serving
    band, one row each in ascending id order (a GBS alone in its band gets
    an empty sum, interference 0), then silent rows (value 0, mass 1 at 0)
    up to K, one less than the most lit GBSs of a serving band.  An unlit
    GBS would be a row of values [0, 0, 0], which adds nothing to the sum
    and moves no lattice law, so the table need not list it.  Each
    interferer is silent with probability 1 - omega; when active it
    contributes its NLoS gain if the event forces it NLoS, otherwise its
    NLoS/LoS gain split by its LoS probability.  ``omega`` is a scalar or
    a per-GBS array indexed by id (:func:`loading_by_id`), with an entry
    for every GBS the table lists.  No events give the empty (0, 0, 3)
    stack; ``serving`` and ``forced`` of other shapes or lengths, and a
    serving row that is padding, are refused.
    """
    if table.c_los.ndim != 1:
        raise ValueError("conditional_interference_specs reads one position's table, not a block")
    serving, forced = np.asarray(serving, dtype=np.intp), np.asarray(forced, dtype=np.intp)
    if serving.ndim != 1 or forced.shape != serving.shape:
        raise ValueError("serving and forced need one entry per event each, got shapes "
                         f"{serving.shape} and {forced.shape}")
    n = len(table)
    # the table's real rows, its lit links, come before its padding
    lit = int(np.count_nonzero(table.gbs_id >= 0))
    if ((serving < 0) | (serving >= lit)).any():
        raise ValueError("an event without a serving GBS has no interference law")
    if ((forced < 0) | (forced > n)).any():
        raise ValueError(f"a forced-NLoS prefix must lie in [0, {n}], got {forced}")
    ids, bands = table.gbs_id[:lit], table.band[:lit]
    by_band = np.lexsort((ids, bands))   # the lit rows by band, then by id
    size = np.bincount(bands)
    first = np.cumsum(size) - size       # each band's first place in by_band
    band = bands[serving]
    # event e's interferers: its band's places in by_band but its server's
    place = first[band, None] + np.arange(size[band].max(initial=1) - 1)
    place += place >= np.argsort(by_band)[serving, None]
    real = place < (first + size)[band, None]
    at = by_band[np.where(real, place, 0)]
    w = np.where(real, loading_by_id(omega, ids)[at], 0.0)
    p = np.where(at < forced[:, None], 0.0, table.p_los[at])
    values = np.stack([np.zeros(at.shape), np.where(real, table.c_nlos[at], 0.0),
                       np.where(real, table.c_los[at], 0.0)], axis=-1)
    probs = np.stack([1.0 - w, w * (1.0 - p), w * p], axis=-1)
    return GpmSpec(values, probs)


def conditional_interference_spec(spec: GpmSpec) -> GpmSpec:
    """Returns ``spec``, one event's interference sum, its row of the
    stack :func:`conditional_interference_specs` built, padding included.
    :func:`downlink_snr_cdf` hands each event's sum through here, one
    event per call, so that the benchmark's tracer can count specs and
    summands; ROADMAP item 3 deletes this seam with the tracer's
    per-event counters."""
    return spec


@dataclass(frozen=True, eq=False)
class DownlinkSnrCdf:
    """Mixture cdf of the downlink SNR over association events: their
    (E,) ``probability`` and ``gain`` arrays in event order, and the
    interference ``laws`` of the events of nonzero gain, in order, as one
    :class:`~uavcov.gpm.LatticeLaws` record, of no laws when no event has
    a gain.

    Evaluation is exact given each event's interference law, at any
    y >= 0 (a negative or NaN y is an error):
    P{snr <= y} = sum_e P_e * P{I_e >= C_e / y - alpha0}, the terms added
    in event order.  An event of gain 0 has snr 0, so all of its
    probability is at or below every y >= 0, and below every y > 0.  At
    y = 0, C_e / 0 = +inf, so ``eval(0)`` is the mass of the events of
    gain 0 and ``eval_left(0)`` is 0.  Every law is read at every y in
    one (L, T) pass, bit for bit the stepped cdf (``to_cdf``) of each,
    from the running sums the record builds on its first read
    (:meth:`~uavcov.gpm.LatticeLaws.cdf`) and keeps for every later one.
    With s the largest displacement of the laws, the exact law lies
    between the mixtures at alpha0 - s and alpha0 + s (``envelope``).
    """

    probability: np.ndarray
    gain: np.ndarray
    laws: LatticeLaws
    alpha0: float

    def _mixture(self, y, strict: bool) -> np.ndarray:
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        if not np.all(ys >= 0):
            raise ValueError("SNR cdf is evaluated at y >= 0 only")
        flat = ys.ravel()
        probability = self.probability
        # each event's part of P{snr <= y}: an event without an interference
        # law has snr 0, so all of its probability, but at y = 0 none of it
        # to P{snr < y}
        part = probability[:, None] * (np.less if strict else np.less_equal)(0.0, flat)
        laws = self.gain != 0.0
        # a y so small that C / y overflows, or y = 0, gives c = +inf, the
        # exact limit: P{I >= inf} = 0
        with np.errstate(over="ignore", divide="ignore"):
            c = self.gain[laws, None] / flat - self.alpha0
        # snr <= y iff I >= c, and snr < y iff I > c
        below_c = self.laws.cdf(c, left=not strict)
        part[laws] = probability[laws, None] * (1.0 - below_c)
        # running sums add the events strictly in order, whatever the
        # number of thresholds (a sum over an (E, 1) array may pair them)
        out = np.cumsum(part, axis=0)[-1] / np.cumsum(probability)[-1]
        out = np.clip(out, 0.0, 1.0).reshape(ys.shape)
        if np.isscalar(y):
            return float(out[0])
        return out

    def eval(self, y) -> np.ndarray:
        """P{snr <= y} (vectorised).  Both ``eval`` and ``eval_left`` are
        normalised by the total event probability, so they are exactly 0
        or 1 when no event or every event is surely below ``y``, and
        clipped to [0, 1] against float roundoff."""
        return self._mixture(y, strict=False)

    def eval_left(self, y) -> np.ndarray:
        """P{snr < y} (vectorised), the left limit of ``eval``:
        sum_e P_e * P{I_e > C_e / y - alpha0}."""
        return self._mixture(y, strict=True)

    def outage(self, threshold):
        """P{snr < threshold} (strict), i.e. ``eval_left(threshold)``:
        a float for a scalar threshold, an array for an array of them."""
        return self.eval_left(threshold)

    def envelope(self) -> tuple[DownlinkSnrCdf, DownlinkSnrCdf]:
        """The mixtures at alpha0 - s and at alpha0 + s, s the largest
        displacement of the laws (0 for no laws) widened by 1e-9 relative
        for float noise: the exact law lies between the two."""
        s = float(self.laws.displacement.max(initial=0.0)) * (1.0 + 1e-9)
        return replace(self, alpha0=self.alpha0 - s), replace(self, alpha0=self.alpha0 + s)


def downlink_snr_cdf(
    table: LinkTable,
    omega,
    alpha0: float,
    *,
    eps: float = 0.0,
    c0: float,
) -> DownlinkSnrCdf:
    """Downlink SNR cdf with lattice-approximated conditional interference,
    one law per association event of nonzero gain.

    The events of nonzero gain form one stack of sums, built by
    :func:`conditional_interference_specs`, whose laws are quantized and
    folded, then inverted in chunks of events of one lattice length, by
    :func:`~uavcov.gpm.la_folds` into one record; each event's sum, its
    row e of the stack, and its law, row e of the record, are then handed
    through the tracer seams
    :func:`conditional_interference_spec` and :func:`~uavcov.gpm.la_cdf`.
    Each law equals that of its stack of one, displacement included, so
    the output does not depend on where the chunks end.
    """
    if not alpha0 > 0:
        raise ValueError(f"alpha0 must be positive, got {alpha0}")
    events = association_pmf(table, eps)
    gaining = np.flatnonzero(events.gain != 0.0)
    specs = conditional_interference_specs(table, omega, events.serving[gaining],
                                           events.forced[gaining])
    laws = la_folds(specs, c0)
    # each event's stack row and law pass through the tracer seams as built
    for spec, law in zip(specs, laws):
        la_cdf(conditional_interference_spec(spec), law)
    return DownlinkSnrCdf(events.probability, events.gain, laws, alpha0)


# ---------------------------------------------------------------------------
# Spatial coverage
# ---------------------------------------------------------------------------

class LinkDirection(Enum):
    UPLINK = "uplink"
    DOWNLINK = "downlink"


# Positions are scored in blocks of about this many (position, site)
# entries: the uplink's one footprint test of every link and one
# evaluation and check of the lit ones per block, each (P, n) array of
# the test 64 KiB whatever the length of the work list.
# On the default 367-site scene that is 22 positions.  The link tables
# of a 240-position uplink sweep (24 cell points at 10 altitudes) took
# 11 ms this way against 32 ms in blocks of one position with the
# default 90-degree beam, and 5 ms against 25 ms with a 75-degree beam,
# which lights few links (best of 7, 2-core x86 host, numpy 2.4).
BLOCK_ENTRIES = 2**13

# Starting, feeding and joining a process pool costs about this much wall
# time.  From fresh interpreters, `--workers 2` took a median 38 ms longer
# than `--workers 1` on a one-point `downlink-map`, and 53 ms longer on a
# 30-position uplink altitude sweep whose pool also saved up to 3 ms of
# work (20 interleaved pairs each, default 367-site scene, 2-core x86 host,
# Python 3.11, fork start method).
POOL_START_S = 0.05


def _non_outage(
    cfg: ScenarioConfig, link: LinkDirection, thresholds: tuple, block: np.ndarray
) -> np.ndarray:
    """Non-outage probability at each position of a (P, 3) block for
    every threshold, (P, T): the uplink read at once from one evaluation
    of the block's lit links, or one link table and one downlink SNR law
    per position, evaluated T times."""
    models = (cfg.build_layout(), cfg.build_gbs_pattern(), cfg.build_uav_antenna(),
              cfg.build_channel())
    if link is LinkDirection.UPLINK:
        links = build_lit_links(*models, block, cfg.gbs_height)
        return 1.0 - uplink_outage(links, cfg.beta0, thresholds, cfg.association_epsilon)
    ts = np.array(thresholds)
    return np.array([
        1.0 - downlink_snr_cdf(
            build_link_table(*models, xyz, cfg.gbs_height), cfg.loading, cfg.alpha0,
            eps=cfg.association_epsilon, c0=cfg.lattice_target_c0,
        ).outage(ts)
        for xyz in block
    ])


@dataclass(frozen=True, eq=False)
class CoverageResult:
    """Per-point non-outage probabilities at one altitude, one row per
    threshold, and their spatial averages."""

    points: np.ndarray       # (P, 2)
    non_outage: np.ndarray   # (T, P)
    coverage: np.ndarray     # (T,)
    altitude: float
    link: LinkDirection
    thresholds: np.ndarray   # (T,)


def _coverage(
    cfg: ScenarioConfig,
    link: LinkDirection,
    altitudes: Sequence[float],
    thresholds: Sequence[float],
    workers: int,
) -> list[CoverageResult]:
    """One :class:`CoverageResult` per altitude.  Every (altitude, point)
    position goes on one work list, so each position's SNR law is built
    once whatever the number of thresholds; for the uplink the list holds
    the first point of each class of matching site distances only.  The
    list is cut into blocks of positions scored together, about
    ``BLOCK_ENTRIES`` entries each.
    With ``workers`` > 1 the first position is scored in this process
    and its CPU time taken: when that time, times the positions left,
    times 1 - 1/``workers``, exceeds ``POOL_START_S``, the rest go in
    blocks of at most a quarter of a worker's share to one process pool
    of at most one process per block; otherwise they are scored here, as
    with ``workers`` = 1.  Results come back in list order, so they do
    not depend on ``workers`` or on where the blocks end."""
    ts = tuple(float(t) for t in thresholds)
    if not ts:
        raise ValueError("need at least one threshold")
    for t in ts:
        if not 0.0 < t < np.inf:    # NaN fails both
            raise ValueError(f"SNR thresholds must be finite and positive, got {t}")
    points = sample_region(cfg.build_region(), cfg.inter_site_distance)
    rep = np.arange(len(points))
    # the uplink law depends on a point only through its sorted site
    # distances, which fix the ordered (c_los, c_nlos, p_los) rows; the
    # downlink's also on bands, loading and the walk's id tie-break
    if link is LinkDirection.UPLINK:
        rep = point_orbits(points, cfg.build_layout())
    scored, inverse = np.unique(rep, return_inverse=True)
    positions = np.array([(x, y, h) for h in altitudes for x, y in points[scored]])
    size = max(1, BLOCK_ENTRIES // len(cfg.build_layout()))
    score = partial(_non_outage, cfg, link, ts)
    values = []
    rest = positions
    pooled = False
    if workers > 1 and len(positions) > 1:
        # the first position, scored here, prices the rest: a pool pays
        # only when spreading them saves more than the pool costs.  Its
        # CPU time, not wall time: spells off the CPU stretched a ~1 ms
        # position to 4-21 ms of wall time, and so started a pool on 1 to
        # 4 of each ~130 short uplink sweeps of a 20 s benchmark run
        start = time.process_time()
        values.append(score(positions[:1]))
        elapsed = time.process_time() - start
        rest = positions[1:]
        pooled = elapsed * len(rest) * (1.0 - 1.0 / workers) > POOL_START_S
    if pooled:
        size = min(size, max(1, len(positions) // (4 * workers)))
    blocks = [rest[i:i + size] for i in range(0, len(rest), size)]
    if pooled:
        # imported here: multiprocessing costs every command ~20 ms to import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            values.extend(pool.map(score, blocks))
    else:
        values.extend(score(block) for block in blocks)
    scores = np.concatenate(values).reshape(len(altitudes), len(scored), -1)[:, inverse]
    results = []
    for h, per_point in zip(altitudes, scores):
        # (T, P) C-contiguous, so each threshold's mean adds its points
        # in the same order as a single-threshold run
        non_outage = np.ascontiguousarray(per_point.T)
        results.append(CoverageResult(
            points, non_outage, non_outage.mean(axis=1), h, link, np.array(ts)
        ))
    return results


def coverage_at_altitude(
    cfg: ScenarioConfig,
    link: LinkDirection,
    *,
    altitude: float,
    thresholds: Sequence[float],
    workers: int = 1,
) -> CoverageResult:
    """Average non-outage probability over the scenario's sampling region
    at one altitude, for each of ``thresholds``.  Everything else (layout,
    patterns, channel, loading, ``beta0``/``alpha0``, association
    truncation and lattice size) comes from ``cfg``.  With ``workers`` > 1
    the points go to a process pool, of at most one process per block of
    points, when the CPU time of the first point predicts that the pool saves
    more than it costs to start (``POOL_START_S``); otherwise they are
    evaluated in this process."""
    return _coverage(cfg, link, [float(altitude)], thresholds, workers)[0]


def coverage_over_altitudes(
    cfg: ScenarioConfig,
    link: LinkDirection,
    *,
    altitudes: Sequence[float],
    thresholds: Sequence[float],
    workers: int = 1,
) -> tuple[list[CoverageResult], np.ndarray]:
    """Coverage at each altitude plus the altitude-averaged aggregate per
    threshold (trapezoidal quadrature normalised by the altitude span),
    as :func:`coverage_at_altitude` computes it at one altitude.  Every
    (altitude, point) position goes on one work list, so ``workers`` > 1
    starts at most one process pool for the whole sweep, and only when the
    CPU time of the first position predicts that it pays."""
    alts = np.asarray(altitudes, dtype=float)
    if alts.size == 0:
        raise ValueError("need at least one altitude")
    if np.any(np.diff(alts) <= 0):
        raise ValueError("altitudes must be strictly increasing")
    results = _coverage(cfg, link, alts.tolist(), thresholds, workers)
    # (T, A) C-contiguous, so each threshold's quadrature adds in the
    # same order as a single-threshold sweep
    values = np.ascontiguousarray(np.array([r.coverage for r in results]).T)
    if alts.size == 1:
        return results, values[:, 0]
    aggregate = np.trapezoid(values, alts) / (alts[-1] - alts[0])
    return results, aggregate
