"""Association, SNR distributions and spatial coverage.

Uplink: the UAV associates with the GBS of largest realised combined gain.
Walking the link table in descending LoS-gain order makes the association
pmf exact: the m-th row serves in LoS iff it is LoS and every earlier row
is NLoS, and once the walk reaches rows whose LoS gain falls below the
best NLoS gain ``C_NL_max`` the realised maximum is ``C_NL_max`` no matter
what happens further down, which closes the walk with a single terminal
event.  An optional probability floor ``eps`` truncates the walk early,
assigning the remaining mass to the terminal event.

Downlink: conditioned on an association event, every other GBS in the
serving GBS's band interferes when active (probability ``omega`` per
site).  Each interferer is one row of values [0, C_NL, C_L] with
probabilities [1 - omega, omega (1 - p_L), omega p_L], where p_L is 0 for
GBSs the event forces into NLoS (always a prefix of the walk order, so an
event stores only its length); the conditional interference cdf is then
a lattice-approximated sum
(:func:`uavcov.gpm.la_cdf`) and the SNR cdf follows from
P{snr <= y} = P{I >= C/y - alpha0} summed over events.

Spatial coverage averages the per-point non-outage probability over a
deterministic sampling grid, optionally across altitudes by trapezoidal
quadrature normalised by the altitude span.  Its entry points take the
loaded :class:`~uavcov.config.ScenarioConfig` as the one scenario
argument and read the layout, antennas, channel, sampling region,
loading, ``beta0``/``alpha0``, ``eps`` and ``c0`` from it.  Each
(altitude, point) position's SNR law is built once and read at every
threshold.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Sequence

import numpy as np

from .channel import LinkTable, build_link_table
from .config import ScenarioConfig
from .geometry import sample_region
from .gpm import GpmSpec, SteppedCdf, la_cdf

PROB_SUM_TOL = 1e-9


class AssociationState(Enum):
    LOS = "los"
    NLOS_MAX = "nlos_max"
    NONE = "none"


@dataclass(frozen=True)
class AssociationEvent:
    """One atom of the association distribution.

    The event conditions the first ``forced_rows`` rows of the link table
    (in walk order) into NLoS: the walked prefix for a LoS event, every
    row with ``c_los >= C_NL_max`` for the terminal event (a prefix,
    since rows sort by descending ``c_los``), none for the no-gain event.
    """

    serving_id: int | None
    state: AssociationState
    gain: float
    probability: float
    forced_rows: int


def association_pmf(table: LinkTable, eps: float = 0.0) -> tuple[AssociationEvent, ...]:
    """Exact (eps = 0) or truncated association distribution.

    When the walk's remaining mass drops below ``eps`` the walk stops and
    that mass is folded into the terminal event, so the sum stays 1.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    if len(table) == 0:
        raise ValueError("cannot associate against an empty link table")

    c_nlos_max = float(table.c_nlos.max())
    if c_nlos_max == 0.0:
        # No GBS has any gain toward the UAV: the SNR is 0 surely.
        return (AssociationEvent(None, AssociationState.NONE, 0.0, 1.0, 0),)

    ids = table.gbs_id.tolist()
    events: list[AssociationEvent] = []
    prefix = 1.0
    for m, (c_los, p_los) in enumerate(zip(table.c_los.tolist(), table.p_los.tolist())):
        if c_los < c_nlos_max or prefix < eps:
            break
        if p_los > 0.0 and prefix > 0.0:
            events.append(
                AssociationEvent(ids[m], AssociationState.LOS, c_los, p_los * prefix, m)
            )
        prefix *= 1.0 - p_los
    if prefix > 0.0:
        events.append(
            AssociationEvent(
                ids[int(np.argmax(table.c_nlos))],
                AssociationState.NLOS_MAX,
                c_nlos_max,
                prefix,
                int(np.count_nonzero(table.c_los >= c_nlos_max)),
            )
        )
    total = sum(e.probability for e in events)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise AssertionError(f"association probabilities sum to {total!r}")
    return tuple(events)


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
        [0, 1] against float roundoff in between."""
        below = float(self.probs[self.values < threshold].sum())
        return min(1.0, max(0.0, below / float(self.probs.sum())))


def uplink_snr_pmf(table: LinkTable, beta0: float, eps: float = 0.0) -> UplinkSnrPmf:
    """Distribution of beta0 * (serving combined gain); events with equal
    gain merge into one atom."""
    if beta0 <= 0:
        raise ValueError(f"beta0 must be positive, got {beta0}")
    acc: dict[float, float] = {}
    for event in association_pmf(table, eps):
        snr = beta0 * event.gain
        acc[snr] = acc.get(snr, 0.0) + event.probability
    values = np.array(sorted(acc))
    probs = np.array([acc[v] for v in sorted(acc)])
    return UplinkSnrPmf(values, probs)


# ---------------------------------------------------------------------------
# Downlink
# ---------------------------------------------------------------------------

def loading_by_id(omega, n: int) -> np.ndarray:
    """Loading of each of ``n`` GBSs, indexed by id: ``omega`` is one
    scalar for every GBS or an array with one entry per id."""
    w = np.broadcast_to(np.asarray(omega, dtype=float), (n,))
    bad = ~((w >= 0.0) & (w <= 1.0))
    if bad.any():
        gbs_id = int(np.argmax(bad))
        raise ValueError(f"loading factor for GBS {gbs_id} must lie in [0, 1], got {w[gbs_id]}")
    return w


def conditional_interference_spec(
    event: AssociationEvent, table: LinkTable, omega
) -> GpmSpec:
    """Aggregate interference under one association event.

    The interferers are the other GBSs of the serving GBS's band, one row
    each in ascending id order (a GBS alone in its band gets an empty
    spec, interference 0).  Each is silent with probability 1 - omega;
    when active it contributes its NLoS gain if the event forces it NLoS,
    otherwise its NLoS/LoS gain split by its LoS probability.  ``omega``
    is a scalar or a per-GBS array indexed by id.
    """
    if event.serving_id is None:
        raise ValueError("an event without a serving GBS has no interference law")
    row_of = np.argsort(table.gbs_id)   # walk position of each id
    band_of = table.band[row_of]
    ids = np.flatnonzero(band_of == band_of[event.serving_id])
    ids = ids[ids != event.serving_id]
    w = loading_by_id(omega, len(table))[ids]
    at = row_of[ids]
    p = np.where(at < event.forced_rows, 0.0, table.p_los[at])
    values = np.column_stack([np.zeros(len(ids)), table.c_nlos[at], table.c_los[at]])
    probs = np.column_stack([1.0 - w, w * (1.0 - p), w * p])
    return GpmSpec(values, probs)


@dataclass(frozen=True)
class DownlinkEventTerm:
    probability: float
    gain: float
    interference: SteppedCdf | None  # None when the event carries no gain


@dataclass(frozen=True, eq=False)
class DownlinkSnrCdf:
    """Mixture cdf of the downlink SNR over association events.

    Evaluation is exact given each event's interference cdf:
    P{snr <= y} = sum_e P_e * P{I_e >= C_e / y - alpha0}.
    """

    terms: tuple[DownlinkEventTerm, ...]
    alpha0: float

    def _mixture(self, y, strict: bool) -> np.ndarray:
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        if np.any(ys <= 0):
            raise ValueError("SNR cdf is evaluated at positive y only")
        out = np.zeros(ys.shape)
        mass = 0.0
        for term in self.terms:
            mass += term.probability
            if term.interference is None or term.gain == 0.0:
                out += term.probability
                continue
            # a y so small that C / y overflows gives c = +inf, the exact
            # limit: P{I >= inf} = 0
            with np.errstate(over="ignore"):
                c = term.gain / ys - self.alpha0
            # snr <= y iff I >= c, and snr < y iff I > c
            below_c = term.interference.eval(c) if strict else term.interference.eval_left(c)
            out += term.probability * (1.0 - below_c)
        out = np.clip(out / mass, 0.0, 1.0)
        if np.isscalar(y):
            return float(out[0])
        return out

    def eval(self, y) -> np.ndarray:
        """P{snr <= y} (vectorised).  Both ``eval`` and ``eval_left`` are
        normalised by the total event probability, so they are exactly 0
        or 1 when no event or every event is surely below ``y``, and
        clipped to [0, 1] against float roundoff."""
        return self._mixture(y, strict=False)

    __call__ = eval

    def eval_left(self, y) -> np.ndarray:
        """P{snr < y} (vectorised), the left limit of ``eval``:
        sum_e P_e * P{I_e > C_e / y - alpha0}."""
        return self._mixture(y, strict=True)

    def outage(self, threshold):
        """P{snr < threshold} (strict), i.e. ``eval_left(threshold)``:
        a float for a scalar threshold, an array for an array of them."""
        return self.eval_left(threshold)


def downlink_snr_cdf(
    table: LinkTable,
    omega,
    alpha0: float,
    *,
    eps: float = 0.0,
    c0: float = 1000.0,
) -> DownlinkSnrCdf:
    """Downlink SNR cdf with lattice-approximated conditional interference
    (:func:`conditional_interference_spec` per association event)."""
    if alpha0 <= 0:
        raise ValueError(f"alpha0 must be positive, got {alpha0}")
    terms = []
    for event in association_pmf(table, eps):
        if event.serving_id is None or event.gain == 0.0:
            terms.append(DownlinkEventTerm(event.probability, 0.0, None))
            continue
        _, cdf = la_cdf(conditional_interference_spec(event, table, omega), c0)
        terms.append(DownlinkEventTerm(event.probability, event.gain, cdf))
    return DownlinkSnrCdf(tuple(terms), alpha0)


# ---------------------------------------------------------------------------
# Spatial coverage
# ---------------------------------------------------------------------------

class LinkDirection(Enum):
    UPLINK = "uplink"
    DOWNLINK = "downlink"


def _non_outage_at(
    cfg: ScenarioConfig, link: LinkDirection, thresholds: tuple, uav_xyz
) -> np.ndarray:
    """Non-outage probability at one UAV position for every threshold:
    one link table and one SNR law, evaluated T times."""
    table = build_link_table(
        cfg.build_layout(), cfg.build_gbs_pattern(), cfg.build_uav_antenna(),
        cfg.build_channel(), uav_xyz, cfg.gbs_height,
    )
    if link is LinkDirection.UPLINK:
        pmf = uplink_snr_pmf(table, cfg.beta0, cfg.association_epsilon)
        # one mask sum per threshold; a masked 2-D sum would add the
        # atoms in another order and could move the last bit
        return np.array([1.0 - pmf.outage(t) for t in thresholds])
    cdf = downlink_snr_cdf(
        table, cfg.loading, cfg.alpha0, eps=cfg.association_epsilon, c0=cfg.lattice_target_c0
    )
    return 1.0 - cdf.outage(np.array(thresholds))


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
    once whatever the number of thresholds, and ``workers`` > 1 starts
    one process pool for the whole list; results come back in list
    order, so they do not depend on ``workers``."""
    ts = tuple(float(t) for t in thresholds)
    if not ts:
        raise ValueError("need at least one threshold")
    points = sample_region(cfg.build_region(), cfg.inter_site_distance)
    positions = [(x, y, h) for h in altitudes for x, y in points]
    score = partial(_non_outage_at, cfg, link, ts)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(positions) // (4 * workers))
            values = list(pool.map(score, positions, chunksize=chunk))
    else:
        values = [score(xyz) for xyz in positions]
    scores = np.array(values).reshape(len(altitudes), len(points), -1)
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
    truncation and lattice size) comes from ``cfg``.  ``workers`` > 1
    evaluates the points on a process pool."""
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
    as :func:`coverage_at_altitude` computes it at one altitude."""
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
