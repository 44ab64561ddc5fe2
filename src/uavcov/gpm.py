"""Distribution of a sum of independent finite-support random variables.

A *spec* holds K summands as two (K, L) arrays, ``values`` and ``probs``,
one row per summand, or a stack of E such sums as two (E, K, L) arrays.
Zero-probability entries are padding, so summands with fewer than L
values share the arrays; a row need not be ordered and may repeat a value
(the masses add up).  The exact distribution of the
sum has up to L^K atoms, so beyond toy sizes it is recovered numerically:

  * ``lattice_invert``: when term k, given by its atoms (masses at
    points on 0..N-1), has the pmf row_k on the lattice and the sum stays
    within 0..N-1, the sum's pmf is *exactly* (up to float roundoff)
    irfft(prod_k rfft(row_k)), the DFT inversion of the characteristic
    function ``cf_sample`` (Hong 2013) on real-input spectra of N // 2 + 1
    frequencies.  It takes the (E, K, A) stacks of atoms ``la_folds``
    folds, inverts E sums of one N with one transform each way, and
    checks the atoms before it scatters or transforms a row: it rejects
    masses that are negative or not finite, points off the lattice and
    summed supports that would wrap around (aliasing); then negative
    output mass beyond ``NEGATIVE_PMF_TOL`` and a total off 1, naming the
    sum at fault.

  * ``la_folds``: real-valued summands are offset by their minimum value,
    scaled so the total span becomes ``c0`` lattice units, and rounded to
    integers (half away from zero); the integer-lattice pmf is then
    inverted by FFT and mapped back through
    F(x) ~= F_lattice(beta * (x - A0)).  A summand of more than one value
    moves by at most half a lattice unit and a one-valued one not at all,
    so no atom of the sum moves further than the law's ``displacement``
    M / (2 beta), M the former's number.  Summands that round to the point
    mass at 0 are the identity of convolution: each sum's live rows move
    to the front and are convolved exactly in groups of up to
    ``FOLD_ATOMS`` joint atoms, so one length-N spectrum serves a group
    instead of a row, and the rest are left out of the inversion.
    ``la_folds`` quantizes a stack of E sums, such as one (E, K, L)
    ``GpmSpec`` checks in one pass, or one sum as a stack of one, each
    sum keeping its own beta, N and number of groups, folds the live rows
    of all of them once, and returns their laws as one checked
    ``LatticeLaws`` record ((E,) offsets, scales, tops and displacements,
    an (E, W) pmf matrix), whose ``laws[e]`` is law e as a record of one
    on views of its row; consecutive sums of one N, split or not alike,
    are inverted as one ``lattice_invert`` stack of their folded points
    and masses, up to ``CHUNK_ENTRIES`` entries, the one bound on the
    dense rows that grow with N.  A long sum's light tail, its live rows
    of least top that sum below N / 4, is inverted on a lattice of N / 4
    and enters the inversion of the other rows as one more row, where
    that at least halves the entries the sum transforms.
    ``LatticeLaws.cdf`` reads the cdfs of a record's laws at once, bit for
    bit their ``to_cdf`` stepped cdfs, from running sums of its pmf
    matrix built once for any number of reads; a record of no laws, the
    laws of an empty stack, reads an (E, T) x of no rows as an empty array.
    ``LatticeLaws.envelope`` moves one law's stepped cdf by its
    displacement either way; the exact cdf lies between the two.
    ``la_cdf`` hands an event's stack row and its law through unchanged:
    the one-event seam the benchmark's tracer counts.

``GpmSpec.mean``, ``variance`` and ``summands`` read one sum and refuse a
stack, whose rows they would pool.  The reference laws and the accuracy
check the lattice laws are held to are in ``uavcov.oracles``.

Cumulative distributions follow the F(x) = P{X <= x} convention
throughout; ``SteppedCdf.eval_left`` gives the open variant P{X < x}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

# Inversion noise floor: more negative pmf mass than this means the rows
# were not pmfs on the lattice, not roundoff.
NEGATIVE_PMF_TOL = 1e-8

# glibc serves blocks above a dynamic threshold (128 KiB at start) with
# mmap; freeing the first such block raises that threshold to its size and
# the heap-trim threshold to twice it.  Below that, every lattice_invert
# call hands its few hundred KiB to MiB of rows and spectra back to the OS
# and faults them in again: 10^5 page faults and a third more CPU time per
# few downlink calls.  Freeing one 4 MiB block here settles both
# thresholds; with other allocators it is a plain allocation.
np.empty(1 << 19)
PROB_SUM_TOL = 1e-12
# Lattice mass below this is indistinguishable from inversion round-off
# (observed ~4e-15) and gets dropped before the pmf is renormalised.
FFT_MASS_FLOOR = 1e-12
# la_folds convolves its lattice rows in groups of g, the largest with
# width ** g <= FOLD_ATOMS joint atoms (4 rows of 3 atoms, 6 of 2), before
# the FFT: a row's top sits a few units into a length-N lattice, so a group
# costs one length-N spectrum instead of g.
FOLD_ATOMS = 81


@dataclass(frozen=True, eq=False)
class DiscreteSummand:
    """One independent term of the sum: finitely many finite values with
    strictly ascending support and positive probabilities summing to 1.
    Each check is written so that a NaN fails it."""

    values: np.ndarray
    probs: np.ndarray

    def __init__(self, values, probs) -> None:
        # copied, to be held read-only
        v = np.array(values, dtype=float)
        p = np.array(probs, dtype=float)
        if v.ndim != 1 or p.ndim != 1 or v.size != p.size or v.size == 0:
            raise ValueError("values and probs must be equal-length 1-D, non-empty")
        if not np.isfinite(v).all():
            raise ValueError("summand values must be finite")
        if not (np.diff(v) > 0).all():
            raise ValueError("summand values must be strictly ascending")
        if not (p > 0).all():
            raise ValueError("summand probabilities must be positive")
        if not abs(p.sum() - 1.0) <= PROB_SUM_TOL:
            raise ValueError(f"summand probabilities sum to {p.sum()!r}, not 1")
        v.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "DiscreteSummand":
        """Build from (value, prob) pairs, merging duplicate values and
        dropping zero-probability entries; a NaN value or probability is
        refused."""
        acc: dict[float, float] = {}
        for value, prob in pairs:
            if math.isnan(value) or math.isnan(prob):
                raise ValueError(f"NaN in the pair ({value}, {prob})")
            if prob < 0:
                raise ValueError(f"negative probability {prob} for value {value}")
            if prob > 0:
                acc[float(value)] = acc.get(float(value), 0.0) + float(prob)
        if not acc:
            raise ValueError("summand needs at least one positive-probability value")
        values = sorted(acc)
        return cls(values, [acc[v] for v in values])

    @property
    def support_size(self) -> int:
        return int(self.values.size)


def _sum_in_order(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis adding strictly left to right, as Python's
    ``sum`` does (ndarray.sum adds pairwise); 0 over an empty axis."""
    if x.shape[-1] == 0:
        return np.zeros(x.shape[:-1])
    return np.cumsum(x, axis=-1)[..., -1].copy()    # not a view that holds the cumsum


def _over_atoms(ufunc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc`` (``np.minimum``, ``np.maximum``) over the last axis, one
    column at a time: over a row's few atoms this takes a fifth of the
    time of ``ufunc.reduce(x, axis=-1)``, with the same result."""
    return functools.reduce(ufunc, np.moveaxis(x, -1, 0))


def _checked_rows(v: np.ndarray, p: np.ndarray):
    """Check the (K, L) values and probs of one sum, or the (E, K, L)
    ones of a stack of E sums, row by row: finite values, non-negative
    masses, each row summing to 1 within ``PROB_SUM_TOL``.  An error names
    the summand at fault and, in a stack, its event.

    Returns new values with padding moved onto its row's minimum, the
    probs, and each sum's offset and span.  The sums add
    the rows strictly in row order, which fixes beta = c0 / span in
    ``la_folds`` to the last bit for a given row order.
    """
    def fault(bad: np.ndarray) -> tuple[tuple, str]:
        at = np.unravel_index(np.argmax(bad), bad.shape)
        return at, f"summand {at[-1]}" + (f" of event {at[0]}" if bad.ndim == 2 else "")

    bad = ~(np.isfinite(v) & (p >= 0.0))
    if bad.any():
        bad = bad.any(axis=-1)
        raise ValueError(
            "summand values must be finite and probabilities non-negative; "
            f"{fault(bad)[1]} is not"
        )
    sums = p.sum(axis=-1)
    off = np.abs(sums - 1.0) > PROB_SUM_TOL
    if off.any():
        at, where = fault(off)
        raise ValueError(f"{where} probabilities sum to {float(sums[at])!r}, not 1")
    live = p > 0.0
    lo = _over_atoms(np.minimum, np.where(live, v, np.inf))
    hi = _over_atoms(np.maximum, np.where(live, v, -np.inf))
    v = np.where(live, v, lo[..., None])
    return v, p, _sum_in_order(lo), _sum_in_order(hi - lo)


@dataclass(frozen=True, eq=False)
class GpmSpec:
    """One sum, or a stack of E sums of K summands each.  One sum holds
    read-only (K, L) ``values`` and ``probs``, one row per summand, each
    row's probabilities non-negative and summing to 1, and float
    ``offset`` and ``span``; a stack holds (E, K, L) arrays, checked in
    one pass, and (E,) ``offset`` and ``span``.  With K = 0 a sum is
    identically 0.

    Zero-probability entries are padding: the constructor moves each one
    to its row's smallest positive-mass value, so every row's min and max
    are those of its support.  ``offset`` A0 is the sum of the row minima
    and ``span`` A the sum of the row ranges.  ``spec[e]`` is sum e of a
    stack (iterating a stack yields its sums) and ``spec[index_array]``
    the stack of the sums it picks, from the stack's checked arrays
    without a second check: each equals ``GpmSpec`` of its slices.
    """

    values: np.ndarray
    probs: np.ndarray
    offset: float | np.ndarray
    span: float | np.ndarray

    def __init__(self, values, probs) -> None:
        # the check returns new values; probs are copied to be held read-only
        v = np.asarray(values, dtype=float)
        p = np.array(probs, dtype=float)
        if v.ndim not in (2, 3) or p.shape != v.shape or v.shape[-1] == 0:
            raise ValueError(
                "values and probs must be equal-shape (K, L) or (E, K, L) arrays with L >= 1"
            )
        self._hold(*_checked_rows(v, p))

    def _hold(self, values, probs, offset, span) -> GpmSpec:
        values.setflags(write=False)
        probs.setflags(write=False)
        if values.ndim == 2:    # one sum
            offset, span = float(offset), float(span)
        vars(self).update(values=values, probs=probs, offset=offset, span=span)
        return self

    def __getitem__(self, e) -> GpmSpec:
        return object.__new__(GpmSpec)._hold(
            self.values[e], self.probs[e], self.offset[e], self.span[e]
        )

    def one_sum(self, reader: str) -> GpmSpec:
        """This spec, if it is one sum: ``reader`` would pool a stack's rows."""
        if self.values.ndim != 2:
            raise ValueError(f"{reader} reads one sum, not a stack of {len(self)}; pass stack[e]")
        return self

    @property
    def summands(self) -> tuple[DiscreteSummand, ...]:
        """Each row of one sum as a summand, duplicate values (and padding) merged."""
        terms = []
        for row_values, row_probs in zip(self.one_sum("GpmSpec.summands").values, self.probs):
            values, at = np.unique(row_values, return_inverse=True)
            terms.append(DiscreteSummand(values, np.bincount(at, weights=row_probs)))
        return tuple(terms)

    def __len__(self) -> int:
        return self.values.shape[0]

    def mean(self) -> float:
        return float((self.one_sum("GpmSpec.mean").values * self.probs).sum())

    def variance(self) -> float:
        means = (self.one_sum("GpmSpec.variance").values * self.probs).sum(axis=1, keepdims=True)
        return float(((self.values - means) ** 2 * self.probs).sum())


def cf_sample(spec: GpmSpec, s) -> np.ndarray:
    """Characteristic function E[exp(i s Z)] at the frequencies ``s``: the
    product over rows of sum_l p_l exp(i s v_l).  On a lattice of length N
    it is the DFT of the sum's pmf at s = -2 pi k / N, which
    ``lattice_invert`` builds from the rows' DFTs instead."""
    phase = np.exp(1j * np.multiply.outer(np.asarray(s, dtype=float), spec.values))
    return (phase * spec.probs).sum(axis=-1).prod(axis=-1)


def lattice_invert(mass, n: int, points) -> np.ndarray:
    """Exact pmfs on 0..``n``-1 of E sums of independent integer-lattice
    terms, as an (E, n) array.

    Term k of sum e is given by its atoms: ``mass[e, k]`` holds their
    masses and ``points[e, k]`` their lattice points on 0..n-1, two
    (E, K, A) arrays of one shape; a point may repeat (the masses add, in
    entry order) and zero-mass entries are padding.  With row_k the
    term's pmf scattered onto 0..n-1, sum e's pmf is
    irfft(prod_k rfft(row_k), n) up to float noise; one ``rfft`` of all
    E * K rows and one ``irfft`` of the E products give every sum bit for
    bit as its stack of one.  A sum of fewer terms takes point masses at
    0 as its padding rows, and their spectra are exactly 1.

    Every input check runs on the atoms, before any row is scattered:
    masses finite and >= 0, points on 0..n-1 and summed row tops, each
    row's largest point of positive mass, at most n - 1 (a larger sum
    would wrap around: aliasing).  Then it raises on negative output mass
    below -``NEGATIVE_PMF_TOL`` and on a total off 1; each of these errors
    names the sum at fault, and smaller negative dips are clamped.  One call
    holds the scattered rows and their spectra of n // 2 + 1 complex
    entries at once.
    """
    q, at = np.asarray(mass, dtype=float), np.asarray(points)
    if q.ndim != 3 or at.shape != q.shape or q.size == 0 or not n >= 1:
        raise ValueError(
            "masses and points must be equal-shape non-empty (E, K, A) arrays "
            f"on a lattice of n >= 1 points, got shapes {q.shape}, {at.shape} and n = {n}")

    def which(bad: np.ndarray) -> int:     # the first sum with a true entry of bad
        return int(np.argmax(bad.reshape(len(bad), -1).any(axis=1)))

    if not q.min() >= 0.0:      # NaN fails too
        e = which(~(q >= 0.0))
        raise ValueError(f"row entries reach {float(q[e].min()):.3e} in sum {e}, not >= 0; "
                         "rows are not pmfs on this lattice")
    if not q.max() < np.inf:
        raise ValueError(f"row entries reach inf in sum {which(q == np.inf)}, not finite; "
                         "rows are not pmfs on this lattice")
    if not (at.min() >= 0 and at.max() < n):
        e = which((at < 0) | (at >= n))
        raise ValueError(f"lattice points reach {int(at[e].min())}..{int(at[e].max())} "
                         f"in sum {e}, outside 0..{n - 1}")
    top = (at * (q > 0.0)).max(axis=-1).sum(axis=-1)
    if (top > n - 1).any():
        raise ValueError(f"summed support reaches {int(top.max())}, beyond 0..{n - 1} "
                         f"(aliasing) in sum {which(top > n - 1)}")
    count = q.size // q.shape[-1]
    row = np.arange(0, count * n, n).reshape(q.shape[:-1] + (1,))
    q = np.bincount((at + row).ravel(), q.ravel(), count * n).reshape(q.shape[:-1] + (n,))
    pmf = np.fft.irfft(np.prod(np.fft.rfft(q, axis=-1), axis=-2), n, axis=-1)
    worst_neg = pmf.min(axis=-1)
    if (worst_neg < -NEGATIVE_PMF_TOL).any():
        raise ValueError(
            f"negative pmf mass {float(worst_neg.min()):.3e} exceeds {NEGATIVE_PMF_TOL:.0e} "
            f"in sum {which(worst_neg < -NEGATIVE_PMF_TOL)}; rows are not pmfs on this lattice"
        )
    pmf = np.where(pmf < 0.0, 0.0, pmf)
    total = pmf.sum(axis=-1)
    off = ~(np.abs(total - 1.0) <= 1e-9)    # NaN is off too
    if off.any():
        raise ValueError(
            f"inverted pmf sums to {float(total[which(off)])!r}, not 1 in sum {which(off)}")
    return pmf


# ---------------------------------------------------------------------------
# Stepped cumulative distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SteppedCdf:
    """Right-continuous step cdf: F(x) = P{X <= x} with atoms at ``xs``."""

    xs: np.ndarray
    cum: np.ndarray

    def __init__(self, xs, cum) -> None:
        # copied, to be held read-only
        x = np.array(xs, dtype=float)
        c = np.array(cum, dtype=float)
        if x.ndim != 1 or c.shape != x.shape or x.size == 0:
            raise ValueError("xs and cum must be equal-length 1-D, non-empty")
        # each check is written so that NaN fails it
        if not np.isfinite(x).all():
            raise ValueError("jump locations must be finite")
        if not (np.diff(x) > 0).all():
            raise ValueError("jump locations must be strictly ascending")
        if not ((np.diff(c) >= 0).all() and c[0] >= 0):
            raise ValueError("cumulative values must be non-decreasing and non-negative")
        if not abs(c[-1] - 1.0) <= 1e-9:
            raise ValueError(f"cdf must reach 1, got {c[-1]!r}")
        x.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "xs", x)
        object.__setattr__(self, "cum", c)

    def eval(self, x) -> np.ndarray:
        """P{X <= x} (vectorised)."""
        idx = np.searchsorted(self.xs, np.asarray(x, dtype=float), side="right")
        padded = np.concatenate([[0.0], self.cum])
        return padded[idx]

    def eval_left(self, x) -> np.ndarray:
        """P{X < x} (vectorised)."""
        idx = np.searchsorted(self.xs, np.asarray(x, dtype=float), side="left")
        padded = np.concatenate([[0.0], self.cum])
        return padded[idx]


def _check_laws(offset: np.ndarray, scale: np.ndarray, top: np.ndarray, pmf: np.ndarray,
                displacement: np.ndarray):
    """Check E lattice laws in one pass: (E,) ``offset``, ``scale``,
    ``top`` and ``displacement`` and an (E, W) ``pmf`` whose row e is law
    e on 0..top[e].  Offsets must be finite, scales positive and finite,
    displacements finite and >= 0, and each row non-negative, 0 past its
    top and summing to 1 within 1e-9; every check fails NaN and +-inf.
    An error names the law at fault when there are several."""
    shapes = {scale.shape, top.shape, displacement.shape, pmf.shape[:1]}
    if offset.ndim != 1 or shapes != {offset.shape} or (
            pmf.ndim != 2 or not ((top >= 0) & (top < pmf.shape[1])).all()):
        raise ValueError("need (E,) fields and an (E, W) pmf with W > top")

    past = np.arange(pmf.shape[1]) > top[:, None]
    total = pmf.sum(axis=1)
    for bad, what in (
        (~np.isfinite(offset), lambda e: f"offset must be finite, got {offset[e]}"),
        (~(scale > 0.0), lambda e: f"scale must be positive, got {scale[e]}"),
        (~(scale < np.inf), lambda e: f"scale must be finite, got {scale[e]}"),
        (~(displacement >= 0.0), lambda e: f"displacement must be >= 0, got {displacement[e]}"),
        (~(displacement < np.inf), lambda e: f"displacement must be finite, got {displacement[e]}"),
        (~(pmf >= 0.0).all(axis=1), lambda e: "pmf must be non-negative"),
        (((pmf != 0.0) & past).any(axis=1), lambda e: f"pmf must be 0 past its top {top[e]}"),
        (~(np.abs(total - 1.0) <= 1e-9), lambda e: f"pmf sums to {total[e]!r}, not 1"),
    ):
        if bad.any():
            e = int(np.argmax(bad))
            raise ValueError(what(e) + (f" in law {e}" if bad.size > 1 else ""))


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


# la_folds folds and inverts the rows of consecutive sums of one lattice
# length N, split or not alike, in chunks of at most this many
# transformed entries (or one sum): each sum's folded rows times the
# length they are inverted at.  A 37-site event folds to 3 rows on
# N = 1024, so a band's dozen events share a chunk; a default 367-site
# event transforms about 10,500 entries, its light tail mostly on N/4,
# so about four do.  Chunks of 2^14 to 2^18 entries took 0.30-0.40,
# 0.24-0.26, 0.19-0.24, 0.18-0.24 and 0.20-0.24 ms per default-scene law
# (two runs of 20 interleaved passes over 16 positions at 100 m), and
# 0.079, 0.060, 0.050, 0.047 and 0.046 ms per 37-site law (30 passes over
# 24 positions), on a 2-core x86 host with numpy 2.4.6.  Above 2^16 a
# chunk's rows and spectra double for at most 8%; its dense rows reached
# 1.25 times its entries.
CHUNK_ENTRIES = 2**16

# A sum on a lattice of at least this length may invert its light tail on
# a quarter lattice (``la_folds``); shorter sums are inverted whole.
SPLIT_MIN_N = 256

# la_folds folds a stack's groups this many at a time into one table, so
# the outer sums and products of a block stay small beside the table:
# folded whole, a default-scene stack of ~1,000 groups took as long and
# peaked 0.7 MB higher under tracemalloc (3.5 MB against 2.8 MB).
FOLD_BLOCK = 256


def _chunks(entries: list[int], kinds: list) -> Iterator[tuple[int, int]]:
    """Bounds [a, b) of runs of consecutive sums of one kind, each of up
    to ``CHUNK_ENTRIES`` transformed entries or one sum."""
    a, total = 0, 0
    for e, (k, kind) in enumerate(zip(entries, kinds)):
        if e > a and (kind != kinds[a] or total + k > CHUNK_ENTRIES):
            yield a, e
            a, total = e, 0
        total += k
    if entries:
        yield a, len(entries)


def _light_tail(mass: np.ndarray, points: np.ndarray, n: int, tops: np.ndarray) -> np.ndarray:
    """The (S, n) pmfs of S sums' light tails from their folded rows, the
    (S, G, A) ``mass`` at lattice ``points`` on 0..n-1, zeroed past each
    tail's summed top ``tops[s]``, where the inversion leaves round-off
    only."""
    pmfs = lattice_invert(mass, n, points)
    pmfs[np.arange(n) > tops[:, None]] = 0.0
    return pmfs


def _lattice_counts(tops: np.ndarray, scale, offset, x: np.ndarray, left: bool) -> np.ndarray:
    """For each law e (top ``tops[e]``, lattice point n at the float
    n / scale[e] + offset[e]) and each entry of its row of ``x``, the
    number of points 0..top at or below x (below x with ``left``).  The
    abscissae never decrease in n, so those points are a prefix, found by
    bisection."""
    below = np.less if left else np.less_equal
    count = np.zeros(x.shape, dtype=np.intp)
    step = 1 << int(tops.max(initial=0) + 1).bit_length()
    while step := step >> 1:
        more = count + step     # are points 0..more-1 all at or below x?
        take = (more <= tops[:, None] + 1) & below((more - 1) / scale + offset, x)
        count = np.where(take, more, count)
    return count


@dataclass(frozen=True, eq=False)
class LatticeLaws:
    """E lattice laws of real sums as one read-only record, checked in one
    pass: (E,) ``offset``, ``scale``, ``top`` and ``displacement`` arrays
    and an (E, W) ``pmf`` whose row e, zero past top[e], puts at point n
    the mass of the sum's values near n / scale[e] + offset[e], none
    further than displacement[e] from it.  ``laws[e]`` (and iterating)
    gives law e as an unchecked record of one on views of its row.

    ``cdf`` reads every law's cdf in place, bit for bit the ``eval``
    (``eval_left``) of its ``to_cdf()``.  With m the number of lattice
    points whose float abscissa n / scale + offset, as ``to_cdf`` builds
    it, lies at or below x (``_lattice_counts``), the read is the running
    sum of the pmf over 0..m-1 divided by the sum over 0..top.  Each
    partial sum adds the masses in lattice order and a zero-mass point
    adds an exact zero, so it equals ``to_cdf``'s sum over the support;
    points that round to one float fall on one side of any x together,
    as ``to_cdf``'s shared jump does.  The running sums are built on the
    first read and kept, read-only, for every later one.  A record of no
    laws reads an x of no rows as a (0, T) array."""

    offset: np.ndarray
    scale: np.ndarray
    top: np.ndarray
    pmf: np.ndarray
    displacement: np.ndarray

    def __init__(self, offset, scale, top, pmf, displacement) -> None:
        # copied, to be held read-only
        self._hold(np.array(offset, dtype=float), np.array(scale, dtype=float),
                   np.array(top, dtype=np.intp), np.array(pmf, dtype=float),
                   np.array(displacement, dtype=float))

    def _hold(self, offset, scale, top, pmf, displacement) -> LatticeLaws:
        _check_laws(offset, scale, top, pmf, displacement)
        for array in (offset, scale, top, pmf, displacement):
            array.setflags(write=False)
        vars(self).update(offset=offset, scale=scale, top=top, pmf=pmf, displacement=displacement)
        return self

    def __len__(self) -> int:
        return len(self.top)

    def __getitem__(self, e: int) -> LatticeLaws:
        e = range(len(self))[e]     # an IndexError past either end
        return next(self._views(slice(e, e + 1)))

    def __iter__(self) -> Iterator[LatticeLaws]:
        return self._views(slice(None))

    def _views(self, rows: slice) -> Iterator[LatticeLaws]:
        # iterating (n, 1) arrays makes the views in 2/3 of slicing's time
        columns = (self.offset, self.scale, self.top, self.displacement)
        for offset, scale, top, displacement, pmf, end in zip(
                *(column[rows, None] for column in columns), self.pmf[rows, None],
                (self.top[rows] + 1).tolist()):
            law = object.__new__(LatticeLaws)
            vars(law).update(offset=offset, scale=scale, top=top, pmf=pmf[:, :end],
                             displacement=displacement)
            yield law

    def to_cdf(self) -> SteppedCdf:
        """Stepped cdf of a record of one law (a ValueError otherwise) in
        original value units, jumps at n/scale + offset; evaluating it
        realises F(x) = F_lattice(scale * (x - offset)).  Lattice points
        that map to the same float share one jump."""
        (offset,), (scale,), (pmf,) = self.offset, self.scale, self.pmf
        support = np.flatnonzero(pmf > 0.0)
        xs = support / scale + offset
        cum = np.cumsum(pmf[support])
        last = np.append(xs[1:] > xs[:-1], True)
        # dividing by the last partial sum makes the cdf end at exactly 1
        return SteppedCdf(xs[last], cum[last] / cum[-1])

    def envelope(self) -> tuple[SteppedCdf, SteppedCdf]:
        """The ``to_cdf`` of a record of one law moved by +s and by -s, s
        its displacement widened by 1e-9 relative for float noise: no atom
        of the sum lies further than the displacement from its lattice
        point, so the exact cdf lies between the two."""
        la = self.to_cdf()
        s = float(self.displacement[0]) * (1.0 + 1e-9)
        return SteppedCdf(la.xs + s, la.cum), SteppedCdf(la.xs - s, la.cum)

    @functools.cached_property
    def _running(self) -> tuple[np.ndarray, np.ndarray]:
        """The (E, W + 1) running sums of the pmf rows in lattice order,
        column n + 1 the mass on 0..n, and the (E, 1) mass on 0..top."""
        cum = np.zeros((len(self), self.pmf.shape[1] + 1))
        cum[:, 1:] = self.pmf
        np.cumsum(cum, axis=1, out=cum)
        total = cum[np.arange(len(self)), self.top + 1][:, None]
        for array in (cum, total):
            array.setflags(write=False)
        return cum, total

    def cdf(self, x, *, left: bool = False) -> np.ndarray:
        """P{X_e <= x[e, t]}, or P{X_e < x[e, t]} with ``left``, for each law e
        at each entry of its row of the (E, T) ``x``; other shapes are refused."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or len(x) != len(self):
            raise ValueError(f"x must be an (E, T) array, E = {len(self)}, got shape {x.shape}")
        cum, total = self._running
        count = _lattice_counts(self.top, self.scale[:, None], self.offset[:, None], x, left)
        return np.take_along_axis(cum, count, axis=1) / total


def la_folds(spec: GpmSpec, c0: float) -> LatticeLaws:
    """Quantizes a stack of sums, or one sum as a stack of one, and
    returns their lattice laws in stack order as one ``LatticeLaws``
    record: each sum's offset A0, scale beta, pmf on 0..top, the highest
    lattice point the sum reaches (``FFT_MASS_FLOOR`` dust dropped,
    renormalised), and displacement M / (2 beta), M the number of its
    rows of more than one value.  A ``c0`` below 1 or at or above 2**53
    is refused.

    Each sum keeps its own beta = c0 / span, its own lattice length N
    (the power of two above its summed top) and its own number of fold
    groups; the group size g is the stack's.  The stack's rows are
    quantized, and its live rows folded, once; then consecutive sums of
    one N, split or not alike (below), go through as a chunk of up to
    ``CHUNK_ENTRIES`` transformed entries (or one sum), whose folded
    rows are gathered and inverted before the next chunk's, so
    ``CHUNK_ENTRIES`` bounds the dense rows and the transforms.  Each
    sum keeps its own mass floor and renormalisation, so its pmf is bit
    for bit that of its stack of one.  An empty stack gives a record of
    no laws.

    The fold takes each sum's live rows in whole groups of g; slots past
    a group's rows are point masses at 0 (lattice 0, masses [1, 0, ...]),
    the identity of convolution.  A folded row's atoms are the outer sums
    of its members' lattice points and its masses their outer products,
    so a point mass adds exact zeros to a group, and a group of them
    folds to the point mass at 0, whose spectrum is exactly 1: a chunk
    pads each sum's folded rows with it up to the chunk's most.  The rows
    reach ``lattice_invert`` as points and masses, which it checks in
    that form before it scatters them.  A sum without live rows has
    N = 1: it gathers one row, that point mass, which is inverted on one
    point as any other chunk is inverted.

    Most live rows of a long sum reach a few lattice units into N.  On
    N >= ``SPLIT_MIN_N`` a sum's tail, its live rows of least top (ties
    in row order) whose tops add up to below N / 4, can be inverted on a
    lattice of N / 4: its pmf there, zeroed past the tail's summed top,
    where only round-off lies, is then one more row of the inversion of
    the head, the other live rows, on N, its points 0..N/4-1.  A sum is
    split only where that at least halves the entries it transforms,
    which depends on its own tops alone.  Both inversions are
    ``lattice_invert`` calls with all of its checks.  Without a split a
    sum's live rows are read in row order.
    """
    if not c0 >= 1:
        raise ValueError(f"lattice target c0 must be >= 1, got {c0}")
    if not c0 < 2**53:
        # lattice points up to c0 stay exact integers in a float and an intp
        raise ValueError(f"lattice target c0 must be below 2**53, got {c0}")
    span = np.atleast_1d(spec.span)
    values = spec.values.reshape(span.shape + spec.values.shape[-2:])
    probs = spec.probs.reshape(values.shape)
    k, width = values.shape[-2:]
    # a zero span has no lattice to scale: beta 1 puts its point mass at 0
    with np.errstate(over="ignore"):
        beta = c0 / np.where(span == 0.0, c0, span)
    overflow = ~np.isfinite(beta)
    if overflow.any():
        bad = float(span[np.argmax(overflow)])
        raise ValueError(f"span {bad!r} is too small: beta = c0 / span overflows at c0={c0}")
    shifted = values - _over_atoms(np.minimum, values)[..., None]
    # rounding moves a row of more than one value by up to 1 / (2 beta) =
    # span / (2 c0), a one-valued row (silent padding, say) not at all
    displacement = (_over_atoms(np.maximum, shifted) > 0.0).sum(axis=-1) * span / (2.0 * c0)
    # rounded half away from zero, independent of locale and of bankers'
    # rounding: the scaled values are >= 0, so that is floor(x + 0.5)
    lattice = np.floor(beta[:, None, None] * shifted + 0.5).astype(np.intp)
    tops = _over_atoms(np.maximum, lattice)
    total_tops = tops.sum(axis=-1)
    ns = np.array([_next_pow2(t + 1) for t in total_tops.tolist()], dtype=np.intp)
    # a row rounded to the point mass at 0 has spectrum 1: the fold reads
    # only live rows, in whole groups of g
    live = tops > 0
    counts = live.sum(axis=-1)
    most = int(counts.max(initial=0))
    g = 1
    while g < most and width ** (g + 1) <= FOLD_ATOMS:
        g += 1
    # each sum's tail: a prefix of its live rows by ascending top; a dead
    # row's key, N, ends the prefix
    key = np.where(live, tops, ns[:, None])
    by_top = np.argsort(key, axis=-1, kind="stable")
    light = np.cumsum(np.take_along_axis(key, by_top, axis=-1), axis=-1) < ns[:, None] // 4
    tails = light.sum(axis=-1)
    split = ns >= SPLIT_MIN_N
    split &= -(-tails // g) + 4 * (-(-(counts - tails) // g) + 1) <= 2 * -(-counts // g)
    tails = np.where(split, tails, 0)
    tail_groups = -(-tails // g)
    heads = -(-(counts - tails) // g)     # fold groups of all live rows but the tail
    in_tail = np.zeros_like(live)
    np.put_along_axis(in_tail, by_top, np.arange(k) < tails[:, None], axis=-1)
    tail_tops = np.where(in_tail, tops, 0).sum(axis=-1)
    # each sum's rows in fold order: its tail, then its other live rows,
    # then its dead rows, each in row order
    order = np.argsort(np.where(in_tail, 0, np.where(live, 1, 2)), axis=-1, kind="stable")
    entries = np.where(split, tail_groups * ns // 4 + (heads + 1) * ns, heads * ns)

    # the fold, once for the stack: each sum's tail groups, then its head
    # groups; group i of a run holds the run's rows i g .. i g + g - 1
    runs = np.stack([tail_groups, heads], axis=1).ravel()
    run_first = np.stack([np.zeros_like(tails), tails], axis=1).ravel()
    run_stop = np.stack([tails, counts], axis=1).ravel()
    first_group = np.cumsum(runs) - runs
    run = np.repeat(np.arange(runs.size), runs)
    at = (run_first[run] + (np.arange(run.size) - first_group[run]) * g)[:, None] + np.arange(g)
    dead = at >= run_stop[run, None]
    owner = run[:, None] // 2       # each group's sum
    rows = order[owner, np.minimum(at, k - 1)]
    # a group a row, then one more row, the point mass at 0, which pads;
    # its points are held in the least unsigned type that holds N
    points_type = np.min_scalar_type(ns.max(initial=1))
    fold_points = np.zeros((run.size + 1, width ** g), dtype=points_type)
    fold_mass = np.zeros(fold_points.shape)
    fold_mass[-1, 0] = 1.0
    for lo in range(0, run.size, FOLD_BLOCK):
        block = slice(lo, min(lo + FOLD_BLOCK, run.size))
        pick = owner[block], rows[block]
        atoms, mass = lattice[pick], probs[pick]
        atoms[dead[block]] = 0
        mass[dead[block]] = 0.0
        mass[dead[block], 0] = 1.0
        # (width, g, groups): the outer sums and products run along the
        # groups, not along a few atoms
        atoms, mass = atoms.T, mass.T
        points, masses = atoms[:, 0], mass[:, 0]
        for j in range(1, g):
            joint = (width ** (j + 1), atoms.shape[-1])
            points = (points[:, None] + atoms[:, j]).reshape(joint)
            masses = (masses[:, None] * mass[:, j]).reshape(joint)
        fold_points[block], fold_mass[block] = points.T, masses.T

    def gathered(first: np.ndarray, count: np.ndarray):
        """Each sum's folded rows first[s] .. first[s] + count[s] - 1, then
        point masses at 0 up to the most, and at least one: (S, G, A)
        masses and points."""
        j = np.arange(max(1, int(count.max())))
        rows = np.where(j < count[:, None], first[:, None] + j, run.size)
        return fold_mass[rows], fold_points[rows]

    pmf = np.zeros((len(span), int(total_tops.max(initial=0)) + 1))
    for a, b in _chunks(entries.tolist(), list(zip(ns.tolist(), split.tolist()))):
        n = int(ns[a])
        mass, points = gathered(first_group[2 * a + 1:2 * b:2], heads[a:b])
        if split[a]:
            # one more row: each sum's light tail, on points 0..n/4-1
            tail = _light_tail(*gathered(first_group[2 * a:2 * b:2], tail_groups[a:b]),
                               n // 4, tail_tops[a:b])
            head_mass, head_points = mass, points
            shape = (b - a, head_mass.shape[1] + 1, max(head_mass.shape[2], n // 4))
            mass, points = np.zeros(shape), np.zeros(shape, dtype=head_points.dtype)
            mass[:, :-1, :head_mass.shape[2]] = head_mass
            points[:, :-1, :head_mass.shape[2]] = head_points
            mass[:, -1, :n // 4] = tail
            points[:, -1, :n // 4] = np.arange(n // 4)
        pmfs = lattice_invert(mass, n, points)
        # FFT round-off leaves ~1e-15 dust on lattice points that carry
        # no mass; without a floor it would surface as spurious cdf jumps
        pmfs[pmfs < FFT_MASS_FLOOR] = 0.0
        pmfs = pmfs / pmfs.sum(axis=1, keepdims=True)
        w = min(n, pmf.shape[1])
        np.copyto(pmf[a:b, :w], pmfs[:, :w], where=np.arange(w) <= total_tops[a:b, None])
    offset = np.array(np.atleast_1d(spec.offset), dtype=float)
    return object.__new__(LatticeLaws)._hold(offset, beta, total_tops, pmf, displacement)


def la_cdf(spec: GpmSpec, law: LatticeLaws) -> LatticeLaws:
    """Returns ``law``, the lattice law of the sum ``spec`` as
    ``la_folds`` built it.  ``downlink_snr_cdf`` hands each event's sum,
    its row of the position's stack, padding included, and its law
    through here, one event per call, so that the benchmark's
    tracer can count them; ROADMAP item 3 deletes this seam with the
    tracer's per-event counters."""
    return law

