"""Reference implementations for validation.

The enumerations recompute the uplink and downlink SNR distributions by
brute force over every joint channel-state (and interferer-activity)
combination; they are exponential in the network size and refuse to run
past hard caps.  The Monte Carlo downlink oracle draws the same joint
states at random and so runs at any scene size.  They share no code with
the production algorithms, so agreement is a meaningful check.
"""

from __future__ import annotations

import numpy as np

from .channel import LinkTable
from .coverage import UplinkSnrPmf, loading_by_id
from .gpm import SteppedCdf

UPLINK_STATE_CAP = 2**21
DOWNLINK_STATE_CAP = 2_000_000
# Monte Carlo draws made at once, each an (MC_BLOCK, n) array per quantity
MC_BLOCK = 20_000


def _one_position(table: LinkTable, oracle: str) -> None:
    if table.c_los.ndim != 1:
        raise ValueError(f"{oracle} reads one position's table, not a block")


def uplink_pmf_enumeration(table: LinkTable, beta0: float) -> UplinkSnrPmf:
    """Uplink SNR pmf over all 2^B LoS/NLoS state vectors."""
    _one_position(table, "uplink_pmf_enumeration")
    b = len(table)
    if 2**b > UPLINK_STATE_CAP:
        raise ValueError(f"enumeration needs 2^{b} states, above the cap of {UPLINK_STATE_CAP}")
    c_los, c_nlos, p_los = table.c_los, table.c_nlos, table.p_los
    acc: dict[float, float] = {}
    for mask in range(2**b):
        bits = (mask >> np.arange(b)) & 1
        realized = np.where(bits == 1, c_los, c_nlos)
        prob = float(np.prod(np.where(bits == 1, p_los, 1.0 - p_los)))
        if prob == 0.0:
            continue
        snr = beta0 * float(realized.max())
        acc[snr] = acc.get(snr, 0.0) + prob
    values = np.array(sorted(acc))
    return UplinkSnrPmf(values, np.array([acc[v] for v in sorted(acc)]))


def downlink_cdf_enumeration(table: LinkTable, omega, alpha0: float) -> SteppedCdf:
    """Exact downlink SNR cdf over every joint (channel state, activity)
    combination.

    For each LoS/NLoS vector the serving GBS is the realised-gain argmax
    (first row in table order on ties); the other GBSs of its band are
    then swept over all active/silent patterns, each active interferer
    contributing its own realised gain.
    """
    _one_position(table, "downlink_cdf_enumeration")
    b = len(table)
    c_los, c_nlos, p_los = table.c_los, table.c_nlos, table.p_los
    w_by_id = loading_by_id(omega, b)
    _, band_sizes = np.unique(table.band, return_counts=True)
    max_band = int(band_sizes.max(initial=1))
    if 2**b * 2**max_band > DOWNLINK_STATE_CAP:
        raise ValueError(
            f"joint enumeration needs up to 2^{b + max_band} states, "
            f"above the cap of {DOWNLINK_STATE_CAP}"
        )

    acc: dict[float, float] = {}
    for mask in range(2**b):
        bits = (mask >> np.arange(b)) & 1
        realized = np.where(bits == 1, c_los, c_nlos)
        state_prob = float(np.prod(np.where(bits == 1, p_los, 1.0 - p_los)))
        if state_prob == 0.0:
            continue
        s = int(np.argmax(realized))
        gain = float(realized[s])
        if gain == 0.0:
            acc[0.0] = acc.get(0.0, 0.0) + state_prob
            continue
        # the other rows of the serving band, in ascending id order
        members = np.flatnonzero((table.band == table.band[s]) & (np.arange(b) != s))
        members = members[np.argsort(table.gbs_id[members])]
        gains = realized[members]
        ws = w_by_id[table.gbs_id[members]]
        m = len(members)
        for pattern in range(2**m):
            act = (pattern >> np.arange(m)) & 1 if m else np.zeros(0, dtype=int)
            act_prob = float(np.prod(np.where(act == 1, ws, 1.0 - ws))) if m else 1.0
            if act_prob == 0.0:
                continue
            interference = float(gains[act == 1].sum()) if m else 0.0
            snr = gain / (alpha0 + interference)
            acc[snr] = acc.get(snr, 0.0) + state_prob * act_prob
    values = sorted(acc)
    return SteppedCdf.from_pmf(values, [acc[v] for v in values])


def _co_channel_others(band: np.ndarray, served: np.ndarray) -> np.ndarray:
    """(m, n) mask of the rows on the band of each draw's served row,
    that row left out."""
    others = band == band[served][:, None]
    others[np.arange(len(served)), served] = False
    return others


def downlink_outage_mc(table: LinkTable, omega, alpha0: float, thresholds, n: int,
                       seed) -> np.ndarray:
    """Downlink outage P{snr < t} at each of the (T,) ``thresholds``, a
    (T,) array estimated from ``n`` independent draws of the whole joint
    state, ``MC_BLOCK`` draws at a time from one generator of ``seed``.

    Each draw takes every row's LoS state with its probability and every
    GBS's activity with its loading (``omega`` as ``loading_by_id`` reads
    it), serves the row of largest realised gain (the first row on ties,
    as ``downlink_cdf_enumeration`` does), and takes as interference the
    realised gains of the active other GBSs of the served band.  A draw
    whose best gain is 0 has SNR 0.  By the DKW inequality (Massart's
    constant) the estimate lies within sqrt(ln(2/delta) / (2n)) of the
    exact outage at every threshold at once, with probability at least
    1 - delta.
    """
    _one_position(table, "downlink_outage_mc")
    if not len(table):
        raise ValueError("downlink_outage_mc needs at least one GBS")
    if not alpha0 > 0:
        raise ValueError(f"alpha0 must be positive, got {alpha0}")
    if n < 1:
        raise ValueError(f"need at least one draw, got n = {n}")
    ts = np.asarray(thresholds, dtype=float).ravel()
    w = loading_by_id(omega, len(table))[table.gbs_id]
    rng = np.random.default_rng(seed)
    covered = np.zeros(ts.size)
    for start in range(0, n, MC_BLOCK):
        m = min(MC_BLOCK, n - start)
        gains = np.where(rng.random((m, len(table))) < table.p_los, table.c_los, table.c_nlos)
        active = rng.random((m, len(table))) < w
        served = np.argmax(gains, axis=1)
        interferers = _co_channel_others(table.band, served) & active
        snr = gains[np.arange(m), served] / (alpha0 + np.sum(gains, axis=1, where=interferers))
        covered += np.count_nonzero(snr[:, None] >= ts, axis=0)
    return 1.0 - covered / n
