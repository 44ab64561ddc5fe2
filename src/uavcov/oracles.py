"""Reference laws and accuracy checks for validation.

The enumerations recompute the uplink and downlink SNR distributions by
brute force over every joint channel-state (and interferer-activity)
combination of the lit links of one position's link table; they are
exponential in the number of lit links and refuse to run past hard caps.
The Monte Carlo downlink oracle draws the same joint states at random and
so runs at any scene size.  Each reads the table's lit rows and skips its
padding; an unlit GBS, which the table does not list, has gain 0 in both
states and so moves no law.  They share no code with the production
algorithms, so agreement is a meaningful check.

The sum-level references check the lattice laws of :mod:`uavcov.gpm`:

  * ``enumerate_cdf`` (exhaustive, capped at ``ENUMERATION_CAP`` joint
    states), ``mc_cdf`` (seeded sampling) and ``gaussian_cdf``
    (moment-matched normal truncated to x >= 0) serve as accuracy
    baselines.  They read one sum and refuse a stack, whose rows they
    would pool.

  * ``envelope_excess`` is the one accuracy check: how far an oracle cdf
    leaves an envelope [lo, hi].  Lattice laws are held to their own cdf
    moved by their ``displacement`` either way (``envelope`` of a
    ``LatticeLaws`` record of one law or of a ``DownlinkSnrCdf``);
    ``kolmogorov_distance`` is the envelope of zero width, the plain sup
    distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkTable
from .coverage import UplinkSnrPmf, loading_by_id
from .gpm import GpmSpec, SteppedCdf

UPLINK_STATE_CAP = 2**21
DOWNLINK_STATE_CAP = 2_000_000
# enumerate_cdf refuses specs with more joint states than this.
ENUMERATION_CAP = 2_000_000
# Relative spacing below which two atom values are considered one atom.
VALUE_MERGE_RTOL = 1e-12
# Monte Carlo draws made at once, each an (MC_BLOCK, n) array per quantity
MC_BLOCK = 20_000


def _lit_rows(table: LinkTable, oracle: str) -> np.ndarray:
    """The mask of the rows of one position's table that are lit links,
    not padding."""
    if table.c_los.ndim != 1:
        raise ValueError(f"{oracle} reads one position's table, not a block")
    return table.gbs_id >= 0


def uplink_pmf_enumeration(table: LinkTable, beta0: float) -> UplinkSnrPmf:
    """Uplink SNR pmf over all 2^B LoS/NLoS state vectors of the B lit
    links; with none the SNR is 0 surely."""
    lit = _lit_rows(table, "uplink_pmf_enumeration")
    c_los, c_nlos, p_los = table.c_los[lit], table.c_nlos[lit], table.p_los[lit]
    b = len(c_los)
    if 2**b > UPLINK_STATE_CAP:
        raise ValueError(f"enumeration needs 2^{b} states, above the cap of {UPLINK_STATE_CAP}")
    acc: dict[float, float] = {}
    for mask in range(2**b):
        bits = (mask >> np.arange(b)) & 1
        realized = np.where(bits == 1, c_los, c_nlos)
        prob = float(np.prod(np.where(bits == 1, p_los, 1.0 - p_los)))
        if prob == 0.0:
            continue
        snr = beta0 * float(realized.max(initial=0.0))
        acc[snr] = acc.get(snr, 0.0) + prob
    values = np.array(sorted(acc))
    return UplinkSnrPmf(values, np.array([acc[v] for v in sorted(acc)]))


def downlink_cdf_enumeration(table: LinkTable, omega, alpha0: float) -> SteppedCdf:
    """Exact downlink SNR cdf over every joint (channel state, activity)
    combination.

    For each LoS/NLoS vector of the lit links the serving GBS is the
    realised-gain argmax (first row in table order on ties); the other
    lit GBSs of its band are then swept over all active/silent patterns,
    each active interferer contributing its own realised gain.  With no
    lit link the SNR is 0 surely.
    """
    lit = _lit_rows(table, "downlink_cdf_enumeration")
    ids, bands, c_los, c_nlos, p_los = (
        col[lit] for col in (table.gbs_id, table.band, table.c_los, table.c_nlos, table.p_los))
    b = len(ids)
    w = loading_by_id(omega, ids)
    _, band_sizes = np.unique(bands, return_counts=True)
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
        gain = float(realized.max(initial=0.0))
        if gain == 0.0:
            acc[0.0] = acc.get(0.0, 0.0) + state_prob
            continue
        s = int(np.argmax(realized))
        # the other rows of the serving band, in ascending id order
        members = np.flatnonzero((bands == bands[s]) & (np.arange(b) != s))
        members = members[np.argsort(ids[members])]
        gains = realized[members]
        ws = w[members]
        m = len(members)
        for pattern in range(2**m):
            act = (pattern >> np.arange(m)) & 1
            act_prob = float(np.prod(np.where(act == 1, ws, 1.0 - ws)))
            if act_prob == 0.0:
                continue
            interference = float(gains[act == 1].sum())
            snr = gain / (alpha0 + interference)
            acc[snr] = acc.get(snr, 0.0) + state_prob * act_prob
    values = sorted(acc)
    return stepped_cdf_from_pmf(values, [acc[v] for v in values])


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
    lit GBS's activity with its loading (``omega`` as ``loading_by_id``
    reads it; a padding row is never active and never gains), serves
    the row of largest realised gain (the first row on ties, as
    ``downlink_cdf_enumeration`` does), and takes as interference the
    realised gains of the active other GBSs of the served band.  A draw
    whose best gain is 0 has SNR 0.  By the DKW inequality (Massart's
    constant) the estimate lies within sqrt(ln(2/delta) / (2n)) of the
    exact outage at every threshold at once, with probability at least
    1 - delta.
    """
    lit = _lit_rows(table, "downlink_outage_mc")
    if not alpha0 > 0:
        raise ValueError(f"alpha0 must be positive, got {alpha0}")
    if n < 1:
        raise ValueError(f"need at least one draw, got n = {n}")
    ts = np.asarray(thresholds, dtype=float).ravel()
    w = np.zeros(len(table))
    w[lit] = loading_by_id(omega, table.gbs_id[lit])
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


def stepped_cdf_from_pmf(values, probs) -> SteppedCdf:
    """Stepped cdf of the atoms ``values`` of mass ``probs``: sorted, each
    value within ``VALUE_MERGE_RTOL`` relative spacing of the last value
    kept merged into it, and accumulated.  Only a value within
    ``VALUE_MERGE_RTOL`` * max|v| of its predecessor can merge (no kept
    value is nearer), so the rule is replayed at those entries alone;
    ``np.bincount`` adds each kept value's masses in sorted order."""
    v = np.asarray(values, dtype=float)
    p = np.asarray(probs, dtype=float)
    order = np.argsort(v, kind="stable")
    v = v[order]
    p = p[order]
    keep = np.ones(v.size, dtype=bool)
    near = np.flatnonzero(np.diff(v) <= VALUE_MERGE_RTOL * np.abs(v).max()) + 1
    last = kept = None
    for i in near.tolist():
        if last != i - 1:   # entry i - 1 is no candidate, so it is kept
            kept = v[i - 1]
        if v[i] - kept <= VALUE_MERGE_RTOL * max(abs(v[i]), abs(kept)):
            keep[i] = False
        else:
            kept = v[i]
        last = i
    cum = np.cumsum(np.bincount(np.cumsum(keep) - 1, weights=p))
    cum /= cum[-1]
    return SteppedCdf(v[keep], cum)


def enumerate_cdf(spec: GpmSpec) -> SteppedCdf:
    """Exact cdf by exhaustive convolution of the summands (oracle).

    Refuses specs with more than ``ENUMERATION_CAP`` joint states;
    intermediate atom lists are coalesced as they grow, which never
    changes the distribution.
    """
    summands = spec.one_sum("enumerate_cdf").summands
    states = math.prod(s.support_size for s in summands)
    if states > ENUMERATION_CAP:
        raise ValueError(
            f"enumeration needs {states} joint states, above the cap of {ENUMERATION_CAP}"
        )
    values = np.array([0.0])
    probs = np.array([1.0])
    for summand in summands:
        values = (values[:, None] + summand.values[None, :]).ravel()
        probs = (probs[:, None] * summand.probs[None, :]).ravel()
        if values.size > 4096:
            step = stepped_cdf_from_pmf(values, probs)
            values = step.xs
            probs = np.diff(step.cum, prepend=0.0)
    return stepped_cdf_from_pmf(values, probs)


def mc_cdf(spec: GpmSpec, n_samples: int, seed: int) -> SteppedCdf:
    """Empirical cdf of ``n_samples`` seeded draws of the sum."""
    if n_samples < 1:
        raise ValueError(f"need at least 1 sample, got {n_samples}")
    rng = np.random.default_rng(seed)
    total = np.zeros(n_samples)
    for row_values, row_probs in zip(spec.one_sum("mc_cdf").values, spec.probs):
        idx = rng.choice(row_values.size, size=n_samples, p=row_probs)
        total += row_values[idx]
    values, counts = np.unique(total, return_counts=True)
    return SteppedCdf(values, np.cumsum(counts) / n_samples)


# standard normal cdf, elementwise
_ndtr = np.vectorize(lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0)), otypes=[float])


@dataclass(frozen=True)
class GaussianCdf:
    """Moment-matched normal baseline, truncated to x >= 0 and rescaled to
    total probability 1 (callable like a cdf)."""

    mean: float
    std: float

    def __call__(self, x) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        if self.std == 0.0:
            return (xs >= self.mean).astype(float)
        tail = _ndtr(-self.mean / self.std)
        raw = _ndtr((xs - self.mean) / self.std)
        out = (raw - tail) / (1.0 - tail)
        return np.where(xs < 0.0, 0.0, np.clip(out, 0.0, 1.0))

    def eval_left(self, x) -> np.ndarray:
        """The left limit: at std = 0 the point mass's step is not yet
        taken at the mean; otherwise the cdf is continuous there."""
        if self.std == 0.0:
            return (np.asarray(x, dtype=float) > self.mean).astype(float)
        return self(x)


def gaussian_cdf(spec: GpmSpec) -> GaussianCdf:
    return GaussianCdf(spec.mean(), math.sqrt(spec.variance()))


def envelope_excess(oracle: SteppedCdf, lo, hi) -> float:
    """Largest amount by which the stepped ``oracle`` cdf leaves [lo, hi]:
    the smallest eps >= 0 with lo - eps <= F_oracle <= hi + eps.

    ``lo`` and ``hi`` are stepped or other callable cdfs.  Each jump x of
    the oracle is probed from both sides: F_oracle(x) against ``lo(x)``
    and ``hi(x)``, F_oracle(x-) against their ``eval_left(x)`` where they
    have one (``SteppedCdf``, ``DownlinkSnrCdf``, ``GaussianCdf``), else
    their value at x, which is the left limit only where they are
    continuous.  F_oracle is
    constant between its jumps, so these probes realise the supremum for
    non-decreasing right-continuous ``lo`` and ``hi``.
    """
    x = oracle.xs
    f, f_left = oracle.eval(x), oracle.eval_left(x)
    lo_left = getattr(lo, "eval_left", lo)
    hi_left = getattr(hi, "eval_left", hi)
    return float(max(
        np.max(lo(x) - f), np.max(f - hi(x)),
        np.max(lo_left(x) - f_left), np.max(f_left - hi_left(x)),
        0.0,
    ))


def kolmogorov_distance(a: SteppedCdf, b) -> float:
    """sup |F_a - F_b| for a stepped ``a`` and a stepped or callable ``b``:
    ``a``'s excess over the envelope [b, b]."""
    return envelope_excess(a, b, b)
