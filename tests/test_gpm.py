"""Sum-of-discrete-variables machinery: exact inversion, lattice
approximation, baselines and distances.

Oracles here are independent routes: iterated np.convolve for lattice
pmfs, itertools.product for tiny real-valued sums, and hand-enumerated
frozen examples.
"""

import itertools
import math
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_reads_stepped_cdfs,
    in_place_probes,
    law_record,
    load_scenario,
    one_law,
    padded_spec,
    random_integer_spec,
    random_spec,
)
from uavcov import gpm, oracles
from uavcov.cli import _conditioned_spec, _write_csv
from uavcov.coverage import DownlinkSnrCdf
from uavcov.gpm import (
    DiscreteSummand,
    GpmSpec,
    LatticeLaws,
    SteppedCdf,
    cf_sample,
    la_folds,
    lattice_invert,
)
from uavcov.oracles import (
    GaussianCdf,
    enumerate_cdf,
    envelope_excess,
    gaussian_cdf,
    kolmogorov_distance,
    mc_cdf,
    stepped_cdf_from_pmf,
)


def convolve_pmf(spec, length):
    """Exact lattice pmf by iterated convolution (independent oracle):
    each summand's pmf on the integer lattice 0..length-1 in turn."""
    out = np.zeros(length)
    out[0] = 1.0
    for values, probs in zip(spec.values, spec.probs):
        vec = np.zeros(length)
        for v, p in zip(values, probs):
            vec[int(round(v))] += p
        out = np.convolve(out, vec)[:length]
    return out


def spec_atoms(spec):
    """An integer spec's rows as ``lattice_invert``'s stack of one sum:
    (1, K, L) masses, the probs, at lattice points, the values."""
    return spec.probs[None], spec.values.astype(np.intp)[None]


def on_every_point(rows):
    """(K, N) rows as ``lattice_invert``'s stack of one sum, each entry a
    mass at its own point: the masses, N and the points."""
    mass = np.asarray(rows, dtype=float)[None]
    return mass, mass.shape[-1], np.broadcast_to(np.arange(mass.shape[-1]), mass.shape)


def support_top(spec):
    """Largest value the sum takes with positive probability."""
    return int(np.where(spec.probs > 0, spec.values, 0.0).max(axis=1).sum())


def product_atoms(spec):
    """All joint outcomes by brute force (independent oracle)."""
    rows = [
        [(v, p) for v, p in zip(values, probs) if p > 0]
        for values, probs in zip(spec.values, spec.probs)
    ]
    acc = {}
    for combo in itertools.product(*rows):
        value = sum(v for v, _ in combo)
        prob = math.prod(p for _, p in combo)
        acc[value] = acc.get(value, 0.0) + prob
    return acc


# ---------------------------------------------------------------------------
# Summands and specs
# ---------------------------------------------------------------------------

def test_summand_validation():
    DiscreteSummand([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        DiscreteSummand([1.0, 0.0], [0.5, 0.5])      # not ascending
    with pytest.raises(ValueError):
        DiscreteSummand([0.0, 0.0], [0.5, 0.5])      # duplicate value
    with pytest.raises(ValueError):
        DiscreteSummand([0.0, 1.0], [0.6, 0.6])      # does not sum to 1
    with pytest.raises(ValueError):
        DiscreteSummand([0.0, 1.0], [-0.2, 1.2])


def test_summand_refuses_nan():
    nan = math.nan
    with pytest.raises(ValueError, match="finite"):
        DiscreteSummand([0.0, nan], [0.5, 0.5])
    with pytest.raises(ValueError, match="positive"):
        DiscreteSummand([0.0, 1.0], [nan, 0.5])
    with pytest.raises(ValueError, match="NaN"):
        DiscreteSummand.from_pairs([(0.0, nan), (1.0, 1.0)])


def test_spec_validation():
    GpmSpec([[0.0, 1.0]], [[0.5, 0.5]])
    with pytest.raises(ValueError):
        GpmSpec([0.0, 1.0], [0.5, 0.5])              # not (K, L)
    with pytest.raises(ValueError):
        GpmSpec([[0.0, 1.0]], [[0.5, 0.5, 0.0]])     # shapes differ
    with pytest.raises(ValueError):
        GpmSpec([[0.0, 1.0]], [[0.6, 0.6]])          # row does not sum to 1
    with pytest.raises(ValueError):
        GpmSpec([[0.0, 1.0]], [[-0.2, 1.2]])
    with pytest.raises(ValueError):
        GpmSpec([[0.0, np.nan]], [[0.5, 0.5]])
    with pytest.raises(ValueError):
        GpmSpec([[]], [[]])                          # a row with no entry
    empty = GpmSpec(np.zeros((0, 2)), np.zeros((0, 2)))   # no summand: the sum is 0
    assert (len(empty), empty.offset, empty.span) == (0, 0.0, 0.0)


def plain(result):
    """A one-sum reader's result as plain values, to compare."""
    if isinstance(result, tuple):       # summands
        return [(term.values.tolist(), term.probs.tolist()) for term in result]
    if isinstance(result, SteppedCdf):
        return result.xs.tolist(), result.cum.tolist()
    return result


@pytest.mark.parametrize("name, read", [
    ("GpmSpec.mean", lambda spec: spec.mean()),
    ("GpmSpec.variance", lambda spec: spec.variance()),
    ("GpmSpec.summands", lambda spec: spec.summands),
    ("enumerate_cdf", enumerate_cdf),
    ("mc_cdf", lambda spec: mc_cdf(spec, 100, 7)),
    ("GpmSpec.mean", gaussian_cdf),
], ids=["mean", "variance", "summands", "enumerate_cdf", "mc_cdf", "gaussian_cdf"])
def test_one_sum_readers_refuse_a_stack(name, read):
    # two sums of means 2 and 4.5: a reader of one sum would pool their
    # rows (a mean of 6.5), so it refuses the stack and names itself, and
    # reads each sum of it as that sum built alone
    values = np.array([[[0.0, 1.0], [1.0, 3.0]], [[2.0, 4.0], [1.0, 2.0]]])
    probs = np.array([[[0.5, 0.5], [0.75, 0.25]], [[0.5, 0.5], [0.5, 0.5]]])
    stack = GpmSpec(values, probs)
    with pytest.raises(ValueError, match=re.escape(f"{name} reads one sum, not a stack of 2")):
        read(stack)
    for e, mean in enumerate((2.0, 4.5)):
        assert plain(read(stack[e])) == plain(read(GpmSpec(values[e], probs[e])))
        assert stack[e].mean() == mean


@st.composite
def spec_stacks(draw):
    """(E, K, L) values and probs of 0-4 sums of 0-4 summands, values on a
    coarse grid (rows repeat values) and masses with zero padding, and the
    (event, summand) a check error is planted at when there is one."""
    e, k, width = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(1, 3))
    entries = st.lists(st.sampled_from([-2.0, 0.0, 0.5, 1.0, 7.0]),
                       min_size=e * k * width, max_size=e * k * width)
    masses = st.lists(st.sampled_from([0.0, 0.1, 0.25, 1.0, 3.0]),
                      min_size=e * k * width, max_size=e * k * width)
    values = np.reshape(draw(entries), (e, k, width))
    probs = np.reshape(draw(masses), (e, k, width))
    probs[..., 0] += probs.sum(axis=-1) == 0.0     # every row has mass
    fault = (draw(st.integers(0, e - 1)), draw(st.integers(0, k - 1))) if e * k else None
    return values, probs / probs.sum(axis=-1, keepdims=True), fault


# three sums of two summands; padding (zero mass) in event 0
FIXED_VALUES = np.array([[[0.0, 1.0, 9.0], [2.0, 3.0, 0.0]]] * 3)
FIXED_PROBS = np.array([[[0.5, 0.5, 0.0], [0.25, 0.75, 0.0]]] * 3)
FIXED_PROBS[2, 1] = [0.0, 0.4, 0.6]


@settings(max_examples=150, deadline=None)
@given(spec_stacks())
@example((FIXED_VALUES, FIXED_PROBS, (1, 1)))
@example((FIXED_VALUES, FIXED_PROBS, (2, 0)))
@example((np.zeros((0, 2, 3)), np.zeros((0, 2, 3)), None))     # no sum
def test_stacked_spec_check_names_event_and_summand(stack_arrays):
    values, probs, fault = stack_arrays
    stack = GpmSpec(values, probs)
    assert len(stack) == len(values) and stack.values.shape == values.shape
    assert not (stack.values.flags.writeable or stack.probs.flags.writeable)
    picks = np.arange(len(values))[::-1]
    with pytest.MonkeyPatch.context() as patch:
        # a sum of a checked stack is not checked again
        patch.setattr(gpm, "_checked_rows", None)
        sums, picked = [stack[e] for e in range(len(values))], stack[picks]
    assert list(picked.offset) == [sums[e].offset for e in picks]
    for e, spec in enumerate(sums):
        want = GpmSpec(values[e], probs[e])
        for got in (spec, picked[len(values) - 1 - e]):
            assert got.values.tobytes() == want.values.tobytes()
            assert got.probs.tobytes() == want.probs.tobytes()
            assert got.values.shape == want.values.shape
            assert type(got.offset) is type(got.span) is float
            assert (got.offset, got.span) == (want.offset, want.span)
            assert not (got.values.flags.writeable or got.probs.flags.writeable)
    if fault is None:
        return
    e, k = fault
    bad_sum = probs.copy()
    bad_sum[e, k] = 0.0
    bad_sum[e, k, 0] = 1.2
    with pytest.raises(ValueError,
                       match=rf"^summand {k} of event {e} probabilities sum to 1\.2, not 1$"):
        GpmSpec(values, bad_sum)
    bad_value = values.copy()
    bad_value[e, k, 0] = np.nan
    with pytest.raises(ValueError, match=f"non-negative; summand {k} of event {e} is not$"):
        GpmSpec(bad_value, probs)
    with pytest.raises(ValueError, match=f"non-negative; summand {k} is not$"):
        GpmSpec(bad_value[e], probs[e])              # one sum: the summand alone
    with pytest.raises(ValueError):
        GpmSpec(values[None], probs[None])           # not (K, L) or (E, K, L)


def summand_specs():
    """Random small specs as lists of (values, probs) rows."""
    row = st.integers(1, 3).flatmap(lambda size: st.tuples(
        st.lists(st.floats(0.0, 10.0, allow_subnormal=False), min_size=size, max_size=size,
                 unique=True),
        st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size),
    ))
    return st.lists(row, min_size=1, max_size=4)


def spec_from_rows(rows, width):
    values = np.zeros((len(rows), width))
    probs = np.zeros((len(rows), width))
    for k, (v, p) in enumerate(rows):
        values[k, : len(v)] = v
        probs[k, : len(p)] = np.asarray(p) / np.sum(p)
    return GpmSpec(values, probs)


def la_or_refusal(spec):
    """(cdf, None), or (None, message) when la_folds refuses the spec."""
    try:
        return la_folds(spec, 200.0).to_cdf(), None
    except ValueError as exc:
        return None, str(exc)


@settings(max_examples=60, deadline=None)
@given(summand_specs(), st.randoms(use_true_random=False), st.floats(-5.0, 20.0))
# a span this small overflows beta = c0 / span: la_folds refuses every variant
@example(rows=[([0.0, 3.417961938487541e-307], [1.0, 1.0])], rnd=random.Random(0), pad_value=0.0)
def test_spec_invariant_under_padding_duplicates_and_permutation(rows, rnd, pad_value):
    base = spec_from_rows(rows, 3)
    order = np.argsort([[rnd.random() for _ in range(3)] for _ in rows], axis=1)
    split = GpmSpec(   # one atom split into two entries with the same value
        np.hstack([base.values, base.values[:, :1]]),
        np.hstack([base.probs * [0.5, 1.0, 1.0], base.probs[:, :1] * 0.5]),
    )
    merged = [DiscreteSummand.from_pairs(zip(v, p)) for v, p in zip(split.values, split.probs)]
    variants = [
        # zero-probability padding entries anywhere, at any value
        GpmSpec(
            np.hstack([np.full((len(base), 2), pad_value), base.values]),
            np.hstack([np.zeros((len(base), 2)), base.probs]),
        ),
        split,
        # from_pairs merges the split atom again and drops the padding
        padded_spec([(summand.values, summand.probs) for summand in merged]),
        # the entries of every row shuffled
        GpmSpec(
            np.take_along_axis(base.values, order, 1), np.take_along_axis(base.probs, order, 1)
        ),
    ]
    base_la, base_refusal = la_or_refusal(base)
    base_enum = enumerate_cdf(base)
    for spec in variants:
        assert spec.offset == pytest.approx(base.offset, abs=1e-12)
        assert spec.span == pytest.approx(base.span, abs=1e-12)
        assert spec.mean() == pytest.approx(base.mean(), abs=1e-12)
        assert spec.variance() == pytest.approx(base.variance(), abs=1e-12)
        enum = enumerate_cdf(spec)
        assert kolmogorov_distance(enum, base_enum) <= 1e-12
        la, refusal = la_or_refusal(spec)
        assert refusal == base_refusal
        if base_refusal is None:
            assert la.xs.shape == base_la.xs.shape
            np.testing.assert_allclose(la.xs, base_la.xs, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(la.cum, base_la.cum, rtol=0.0, atol=1e-12)
        for got, want in zip(spec.summands, base.summands, strict=True):
            np.testing.assert_array_equal(got.values, want.values)
            np.testing.assert_allclose(got.probs, want.probs, rtol=0.0, atol=1e-12)


def test_padding_sits_on_row_minimum():
    spec = GpmSpec([[5.0, 2.0, 7.0, 2.0]], [[0.0, 0.25, 0.5, 0.25]])
    assert spec.values.tolist() == [[2.0, 2.0, 7.0, 2.0]]
    assert (spec.offset, spec.span) == (2.0, 5.0)
    (summand,) = spec.summands
    assert summand.values.tolist() == [2.0, 7.0]
    assert summand.probs.tolist() == [0.5, 0.5]


def test_summand_arrays_read_only():
    s = DiscreteSummand([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        s.values[0] = 3.0
    spec = GpmSpec([s.values], [s.probs])
    with pytest.raises(ValueError):
        spec.probs[0, 0] = 1.0


def test_summand_leaves_the_callers_arrays_writeable():
    values, probs = np.array([0.0, 1.0]), np.array([0.5, 0.5])
    s = DiscreteSummand(values, probs)
    assert values.flags.writeable and probs.flags.writeable
    assert not (s.values.flags.writeable or s.probs.flags.writeable)
    values[0] = -1.0
    assert s.values.tolist() == [0.0, 1.0]


def test_spec_moments_match_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(10):
        spec = random_spec(rng, 4)
        atoms = product_atoms(spec)
        mean = sum(v * p for v, p in atoms.items())
        var = sum((v - mean) ** 2 * p for v, p in atoms.items())
        assert spec.mean() == pytest.approx(mean, rel=1e-9)
        assert spec.variance() == pytest.approx(var, rel=1e-9, abs=1e-12)
        assert spec.offset == pytest.approx(min(atoms))
        assert spec.span == pytest.approx(max(atoms) - min(atoms))


# ---------------------------------------------------------------------------
# Characteristic function and exact inversion
# ---------------------------------------------------------------------------

def test_cf_bounded_and_one_at_zero():
    rng = np.random.default_rng(17)
    for _ in range(25):
        spec = random_spec(rng, int(rng.integers(1, 9)))
        freqs = rng.uniform(-50.0, 50.0, size=64)
        vals = cf_sample(spec, freqs)
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)
        assert cf_sample(spec, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-12)


# integer sums whose lattice 0..top has odd length N = top + 1, down to
# N = 1: the inverse real FFT cannot tell an odd N from N - 1 by itself
ODD_LENGTH_SPECS = (
    GpmSpec([[0.0]], [[1.0]]),
    GpmSpec([[0.0, 1.0], [1.0, 0.0]], [[0.5, 0.5], [0.25, 0.75]]),
    GpmSpec([[0.0, 2.0, 5.0], [1.0, 3.0, 0.0]], [[0.2, 0.3, 0.5], [0.6, 0.4, 0.0]]),
)


def test_lattice_invert_spectrum_is_cf():
    # the DFT of the sum's pmf on 0..N-1 is its cf at -2 pi k / N
    rng = np.random.default_rng(31)
    random_specs = [
        random_integer_spec(rng, int(rng.integers(1, 9)), max_value=5) for _ in range(20)
    ]
    for spec in [*ODD_LENGTH_SPECS, *random_specs]:
        n = int(spec.values.max(axis=1).sum()) + 1
        mass, points = spec_atoms(spec)
        (pmf,) = lattice_invert(mass, n, points)
        assert pmf.shape == (n,)
        want = cf_sample(spec, -2.0 * math.pi * np.arange(n) / n)
        assert np.max(np.abs(np.fft.fft(pmf) - want)) < 1e-9


def test_lattice_invert_matches_convolution():
    rng = np.random.default_rng(29)
    specs = list(ODD_LENGTH_SPECS)
    lengths = [support_top(spec) + 1 for spec in specs]
    for _ in range(50):
        specs.append(random_integer_spec(rng, int(rng.integers(1, 9)), max_value=5))
        lengths.append(support_top(specs[-1]) + 1 + int(rng.integers(0, 4)))
    # 64 rows on N = 1024 and 96 on N = 2048, beyond the K <= 31 folded
    # rows of a default-scene event
    for k, max_value, n in ((64, 15, 1024), (96, 20, 2048)):
        specs.append(random_integer_spec(rng, k, max_value=max_value))
        lengths.append(n)
        assert support_top(specs[-1]) < n
    for spec, n in zip(specs, lengths):   # exact for any n >= support
        mass, points = spec_atoms(spec)
        (pmf,) = lattice_invert(mass, n, points)
        assert pmf.shape == (n,)
        want = convolve_pmf(spec, n)
        assert np.max(np.abs(pmf - want)) < 1e-9
    # one row raised to the top of the lattice makes the 64-row sum wrap
    mass, points = (a.copy() for a in spec_atoms(specs[-2]))
    mass[0, -1] = 0.0
    mass[0, -1, :2], points[0, -1, :2] = 0.5, [0, 1023]
    with pytest.raises(ValueError, match="aliasing"):
        lattice_invert(mass, 1024, points)


def test_lattice_invert_point_mass():
    want = np.zeros((1, 8))
    want[0, 3] = 1.0
    pmf = lattice_invert([[[1.0]]], 8, [[[3]]])
    assert np.max(np.abs(pmf - want)) < 1e-12


def test_lattice_invert_rejects_short_lattice():
    # tops 3 + 2 = 5 do not fit on 0..4: the sum would wrap around
    mass, points = [[[0.5, 0.5], [0.5, 0.5]]], [[[0, 3], [0, 2]]]
    with pytest.raises(ValueError, match="aliasing"):
        lattice_invert(mass, 5, points)
    lattice_invert(mass, 6, points)   # N = 6 fits


def test_lattice_invert_rejects_rows_that_are_not_pmfs():
    # each fits on the lattice and sums to 1, but holds an entry below 0
    # (or NaN)
    for rows in (
        [[1.5, -0.5, 0.0, 0.0]],
        [[1e12, -3e12, 2e12 + 1.0, 0, 0, 0, 0, 0, 0]],
        [[np.nan, 1.0, 0.0, 0.0]],
    ):
        with pytest.raises(ValueError, match="not >= 0; rows are not pmfs on this lattice"):
            lattice_invert(*on_every_point(rows))
    # entries >= 0 but far from a pmf: round-off of the 1e12 entry leaves
    # ~1e-5 of negative mass on the empty lattice points
    with pytest.raises(ValueError, match="negative pmf mass.*not pmfs on this lattice"):
        lattice_invert(*on_every_point([[1e12, 0, 0, 0, 0, 0, 0, 1.0]]))
    with pytest.raises(ValueError, match="inverted pmf sums to 0.75"):
        lattice_invert(*on_every_point([[0.5, 0.25, 0.0, 0.0]]))


def test_lattice_invert_rejects_bad_length():
    with pytest.raises(ValueError):
        lattice_invert(np.zeros((1, 1, 0)), 4, np.zeros((1, 1, 0), dtype=np.intp))


def scattered(mass, n, points):
    """The dense rows of (..., K, A) masses at lattice points on 0..n-1,
    each entry added to its point in entry order (independent oracle)."""
    rows = np.zeros(mass.shape[:-1] + (n,))
    for at in np.ndindex(mass.shape):
        rows[at[:-1] + (points[at],)] += mass[at]
    return rows


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3]), st.integers(1, 6),
       st.integers(1, 12), st.integers(1, 7))
def test_lattice_invert_equals_transform_of_scattered_rows(seed, stack, k, atoms, log_n):
    # rows given by their atoms, repeated points and zero-mass padding
    # among them, invert bit for bit as numpy's transforms of the rows
    # they scatter to, negative dips clamped; each sum as its stack of one
    rng = np.random.default_rng(seed)
    n = 2 ** log_n
    shape = (stack, k, atoms)
    points = rng.integers(0, max(1, n // k), size=shape)
    mass = rng.uniform(0.0, 1.0, size=shape) * (rng.random(shape) < 0.8)
    mass[..., 0] += 1e-3
    mass /= mass.sum(axis=-1, keepdims=True)
    want = np.fft.irfft(np.prod(np.fft.rfft(scattered(mass, n, points), axis=-1), axis=-2),
                        n, axis=-1)
    want = np.where(want < 0.0, 0.0, want)
    got = lattice_invert(mass, n, points)
    assert got.tobytes() == want.tobytes()
    for e in range(stack):
        assert lattice_invert(mass[e:e + 1], n, points[e:e + 1]).tobytes() == got[e].tobytes()
    # negative control: one entry's mass moved to the next point
    moved = points.copy()
    moved[0, 0, 0] += 1
    assume(int(moved.max()) < n)
    assert lattice_invert(mass, n, moved).tobytes() != want.tobytes()


def test_lattice_invert_on_points_refuses_bad_rows():
    mass, points = np.array([[[0.5, 0.5], [1.0, 0.0]]]), np.array([[[0, 3], [1, 0]]])
    lattice_invert(mass, 8, points)
    for bad_mass, bad_points, n, message in (
        (mass, points, 3, "lattice points reach 0..3 in sum 0, outside 0..2"),
        (mass, points - 1, 8, "lattice points reach -1..2 in sum 0, outside 0..7"),
        ([[[1.5, -0.5], [1.0, 0.0]]], points, 8, "not >= 0; rows are not pmfs"),
        ([[[np.nan, 0.5], [1.0, 0.0]]], points, 8, "not >= 0; rows are not pmfs"),
        ([[[np.inf, 0.5], [1.0, 0.0]]], points, 8, "not finite; rows are not pmfs"),
        (mass, points, 4, "summed support reaches 4, beyond 0..3"),
        (mass, points[:, :1], 8, "equal-shape"),
        (mass, points, 0, "n >= 1"),
        (mass[0], points[0], 8, "(E, K, A)"),     # one sum, not a stack of one
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            lattice_invert(bad_mass, n, bad_points)


@pytest.mark.parametrize("sum_at_fault, mass, points, n, message", [
    (1, [-0.5, 1.5], [0, 1], 8, "row entries reach -5.000e-01 in sum 1, not >= 0"),
    (2, [np.inf, 0.0], [0, 1], 8, "row entries reach inf in sum 2, not finite"),
    (1, [0.5, 0.5], [0, 9], 8, "lattice points reach 0..9 in sum 1, outside 0..7"),
    (2, [0.5, 0.5], [0, 3], 4, "summed support reaches 4, beyond 0..3 (aliasing) in sum 2"),
    (1, [1e12, 1.0], [0, 6], 8, "exceeds 1e-08 in sum 1; rows are not pmfs"),
    (2, [0.5, 0.25], [0, 1], 8, "inverted pmf sums to 0.75, not 1 in sum 2"),
], ids=["negative-mass", "inf-mass", "point-off-lattice", "aliasing", "negative-output",
        "total-off-1"])
def test_lattice_invert_names_the_sum_at_fault(sum_at_fault, mass, points, n, message):
    # three sums of two rows, each the pmf of a fair coin on {0, 1} but
    # for one row of the sum at fault
    stack_mass, stack_points = np.full((3, 2, 2), 0.5), np.tile([0, 1], (3, 2, 1))
    stack_mass[sum_at_fault, 1], stack_points[sum_at_fault, 1] = mass, points
    lattice_invert(np.full((3, 2, 2), 0.5), n, np.tile([0, 1], (3, 2, 1)))
    with pytest.raises(ValueError, match=re.escape(message)):
        lattice_invert(stack_mass, n, stack_points)


def test_split_sum_aliasing_counts_the_tail_row():
    # a head whose summed tops fit on 0..15, and a light tail's pmf on the
    # quarter lattice as one more row on points 0..3: the tail's top alone
    # carries the sum past 15
    head_mass, head_points = np.array([[[0.5, 0.5], [0.5, 0.5]]]), np.array([[[0, 7], [0, 6]]])
    lattice_invert(head_mass, 16, head_points)
    for tail_top, fits in ((2, True), (3, False)):
        tail = np.zeros(4)
        tail[[0, tail_top]] = 0.5
        mass = np.zeros((1, 3, 4))
        mass[0, :2, :2], mass[0, 2] = head_mass[0], tail
        points = np.zeros((1, 3, 4), dtype=np.intp)
        points[0, :2, :2], points[0, 2] = head_points[0], np.arange(4)
        if fits:
            lattice_invert(mass, 16, points)
        else:
            with pytest.raises(ValueError, match=r"summed support reaches 16, beyond 0..15"):
                lattice_invert(mass, 16, points)


@pytest.mark.parametrize("build", [
    lambda: lattice_invert(*on_every_point([[np.inf, 0.0, 0.0, 0.0]])),
    lambda: one_law(0.0, 1.0, [np.nan]),
    lambda: one_law(np.nan, 1.0, [1.0]),
    lambda: one_law(0.0, np.inf, [1.0]),
    lambda: one_law(0.0, 1.0, [1.0], np.nan),
    lambda: one_law(0.0, 1.0, [1.0], np.inf),
    lambda: SteppedCdf([0.0, 1.0], [np.nan, np.nan]),
    lambda: SteppedCdf([0.0, np.nan], [0.5, 1.0]),
], ids=["invert-inf-row", "law-nan-pmf", "law-nan-offset", "law-inf-scale",
        "law-nan-displacement", "law-inf-displacement", "stepped-nan-cum", "stepped-nan-jump"])
def test_non_finite_values_fail_the_lattice_checks(build):
    with pytest.raises(ValueError):
        build()


# ---------------------------------------------------------------------------
# Stepped cdfs
# ---------------------------------------------------------------------------

def test_stepped_cdf_leaves_the_callers_arrays_writeable():
    xs, cum = np.array([1.0, 2.0]), np.array([0.25, 1.0])
    cdf = SteppedCdf(xs, cum)
    assert xs.flags.writeable and cum.flags.writeable
    assert not (cdf.xs.flags.writeable or cdf.cum.flags.writeable)
    cum[0] = 0.5
    assert cdf.cum.tolist() == [0.25, 1.0]


def test_stepped_cdf_eval_semantics():
    cdf = SteppedCdf([1.0, 2.0], [0.25, 1.0])
    assert cdf.eval(0.5) == 0.0
    assert cdf.eval(1.0) == 0.25       # right-continuous: includes the jump
    assert cdf.eval_left(1.0) == 0.0   # open variant excludes it
    assert cdf.eval(1.5) == 0.25
    assert cdf.eval_left(2.0) == 0.25
    assert cdf.eval(2.0) == 1.0
    assert cdf.eval(99.0) == 1.0
    np.testing.assert_allclose(np.diff(cdf.cum, prepend=0.0), [0.25, 0.75])


def test_stepped_cdf_from_pmf_coalesces():
    cdf = stepped_cdf_from_pmf([2.0, 1.0, 2.0 * (1 + 1e-15)], [0.5, 0.25, 0.25])
    assert cdf.xs.tolist() == [1.0, 2.0]
    np.testing.assert_allclose(cdf.cum, [0.25, 1.0])


def merged_by_loop(values, probs):
    """The atom merge as a loop over the sorted atoms (independent
    oracle): each value within ``VALUE_MERGE_RTOL`` relative spacing of
    the last value kept adds its mass to it, else it is kept."""
    v = np.asarray(values, dtype=float)
    p = np.asarray(probs, dtype=float)
    order = np.argsort(v, kind="stable")
    v = v[order]
    p = p[order]
    keep_v = [v[0]]
    keep_p = [p[0]]
    for value, prob in zip(v[1:], p[1:]):
        tol = oracles.VALUE_MERGE_RTOL * max(abs(value), abs(keep_v[-1]))
        if value - keep_v[-1] <= tol:
            keep_p[-1] += prob
        else:
            keep_v.append(value)
            keep_p.append(prob)
    cum = np.cumsum(keep_p)
    cum /= cum[-1]
    return np.array(keep_v), cum


@st.composite
def atom_sets(draw):
    """1-60 atoms: values from a few bases, each repeated or walked in a
    chain of steps of 0.5e-12 to 3e-12 relative, positive and negative;
    masses >= 0 with at least one positive."""
    values = []
    for _ in range(draw(st.integers(1, 8))):
        base = draw(st.sampled_from([0.0, 1.0, -1.0, 3.7e-5, -250.0, 1e9]))
        base += draw(st.floats(-10.0, 10.0))
        step = draw(st.sampled_from([0.0, 0.5e-12, 1e-12, 2e-12, 3e-12]))
        values += [base * (1.0 + step * j) + step * j
                   for j in range(draw(st.integers(1, 8)))]
    values = draw(st.permutations(values))
    probs = draw(st.lists(st.sampled_from([0.0, 1e-300, 0.1, 0.25, 0.3, 1.0]),
                          min_size=len(values), max_size=len(values)))
    assume(sum(probs) > 0.0)
    return values, probs


@settings(max_examples=300, deadline=None)
@given(atom_sets())
@example(([1.0, 1.0 + 2e-12, 1.0 + 4e-12, 1.0 + 6e-12, 5.0], [0.1, 0.2, 0.3, 0.1, 0.3]))
@example(([-1.0 - 6e-12, -1.0 - 4e-12, -1.0 - 2e-12, -1.0], [0.25] * 4))
@example(([2.0, 2.0, 2.0, 0.0], [0.1, 0.2, 0.3, 0.4]))
def test_stepped_cdf_from_pmf_merges_as_the_loop(atoms):
    # the array merge keeps the values and adds the masses the loop does,
    # in its order: xs and cum bit for bit
    values, probs = atoms
    xs, cum = merged_by_loop(values, probs)
    cdf = stepped_cdf_from_pmf(values, probs)
    assert cdf.xs.tobytes() == xs.tobytes()
    assert cdf.cum.tobytes() == cum.tobytes()


def test_stepped_cdf_validation():
    with pytest.raises(ValueError):
        SteppedCdf([2.0, 1.0], [0.5, 1.0])
    with pytest.raises(ValueError):
        SteppedCdf([1.0, 2.0], [0.8, 0.5])
    with pytest.raises(ValueError):
        SteppedCdf([1.0, 2.0], [0.5, 0.9])


def test_lattice_distribution_to_cdf():
    dist = one_law(10.0, 2.0, [0.25, 0.0, 0.75])
    cdf = dist.to_cdf()
    assert cdf.xs.tolist() == [10.0, 11.0]     # zero-mass lattice point dropped
    np.testing.assert_allclose(cdf.cum, [0.25, 1.0])
    # lattice points closer than the float spacing at the offset share a jump
    tiny = one_law(1.0, 1e40, [0.25, 0.0, 0.75]).to_cdf()
    assert (tiny.xs.tolist(), tiny.cum.tolist()) == ([1.0], [1.0])
    with pytest.raises(ValueError):
        one_law(0.0, 0.0, [1.0])
    with pytest.raises(ValueError):
        one_law(0.0, 1.0, [0.4, 0.4])
    # a stepped cdf is one law's: a record of two has none
    with pytest.raises(ValueError, match="too many values to unpack"):
        law_record([dist, dist]).to_cdf()


# lattice laws whose in-place read has a case of its own
IN_PLACE_LAWS = (
    one_law(10.0, 2.0, [0.25, 0.0, 0.75]),     # a zero-mass point inside
    one_law(1.0, 1e40, [0.25, 0.0, 0.75]),     # all points round to one float
    one_law(-3.0, 0.1, [0.5, 0.5, 0.0, 0.0]),  # mass floored away at the top
    one_law(0.0, 3.0, [0.0, 0.0, 1.0]),        # no mass below the top
    one_law(7.0, 1.0, [1.0]),                  # a point mass
    one_law(0.0, 1000.0 / 3.0, np.full(1000, 1e-3)),  # a long lattice
)


def test_lattice_cdfs_read_stepped_cdfs_in_place():
    probes = in_place_probes(IN_PLACE_LAWS)
    assert_reads_stepped_cdfs(IN_PLACE_LAWS, probes)
    for law in IN_PLACE_LAWS:      # each alone, as its stack of one
        assert_reads_stepped_cdfs([law], probes)
    # the read at an abscissa takes that point's mass, the read below does not
    x = [[10.0, 10.5, 11.0, -np.inf, np.inf]]     # points 10, 10.5 (empty), 11
    first = law_record(IN_PLACE_LAWS[:1])
    assert first.cdf(x).tolist() == [[0.25, 0.25, 1.0, 0.0, 1.0]]
    assert first.cdf(x, left=True).tolist() == [[0.0, 0.25, 0.25, 0.0, 1.0]]


@pytest.mark.parametrize("x", [
    [10.0, 1.0], 10.0, np.zeros((1, 4)), np.zeros((3, 4)), np.zeros((2, 4, 1)),
], ids=["one-per-law", "scalar", "one-row", "one-row-too-many", "3-d"])
def test_lattice_cdfs_refuse_x_of_another_shape(x):
    # two laws read only an (E, T) = (2, T) x: one point per law as an
    # (E,) array used to broadcast to an (E, E) matrix
    laws = law_record(IN_PLACE_LAWS[:2])
    assert laws.cdf(np.zeros((2, 3))).shape == (2, 3)
    with pytest.raises(ValueError, match=re.escape("x must be an (E, T) array")):
        laws.cdf(x)


@pytest.mark.parametrize("shift", [-1, 1])
def test_lattice_cdfs_negative_control(monkeypatch, shift):
    # a count off by one point reads a neighbouring partial sum
    count = gpm._lattice_counts
    monkeypatch.setattr(gpm, "_lattice_counts", lambda tops, *args: np.clip(
        count(tops, *args) + shift, 0, tops[:, None] + 1))
    with pytest.raises(AssertionError):
        assert_reads_stepped_cdfs(IN_PLACE_LAWS, in_place_probes(IN_PLACE_LAWS))


# ---------------------------------------------------------------------------
# Lattice approximation
# ---------------------------------------------------------------------------

def test_la_cdf_frozen_example():
    # two fair summands on {0,1} and {0,2}: the four equally likely sums
    spec = GpmSpec([[0.0, 1.0], [0.0, 2.0]], [[0.5, 0.5], [0.5, 0.5]])
    cdf = la_folds(spec, 300.0).to_cdf()
    assert cdf.xs.tolist() == pytest.approx([0.0, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(cdf.cum, [0.25, 0.5, 0.75, 1.0], atol=1e-9)


def test_la_exact_when_values_hit_lattice():
    # span 4, c0 1000 -> beta 250: every scaled value is integral, so the
    # approximation must coincide with enumeration to float noise
    spec = GpmSpec([[0.0, 1.0], [0.0, 3.0]], [[0.3, 0.7], [0.6, 0.4]])
    la = la_folds(spec, 1000.0).to_cdf()
    exact = enumerate_cdf(spec)
    assert kolmogorov_distance(exact, la) < 1e-9


def test_la_degenerate_span():
    spec = GpmSpec([[4.0], [1.5]], [[1.0], [1.0]])
    dist = la_folds(spec, 1000.0)
    cdf = dist.to_cdf()
    assert cdf.xs.tolist() == [5.5]
    assert cdf.cum.tolist() == [1.0]
    assert (dist.pmf.tolist(), dist.displacement.tolist()) == ([[1.0]], [0.0])


def test_la_cdf_leaves_out_rows_rounded_to_zero(monkeypatch):
    # a row that rounds to the point mass at 0 is the identity of
    # convolution: adding such rows (a constant 0, a range too small to
    # move the span) changes no bit, and none of them reaches the inversion;
    # the 5 live rows reach it folded g to a row
    base = random_spec(np.random.default_rng(53), 5)
    padded = GpmSpec(
        np.insert(base.values, [0, 2, 5], [[0.0, 0.0, 0.0], [0.0, 1e-20, 0.0], [0.0] * 3], 0),
        np.insert(base.probs, [0, 2, 5], [[0.2, 0.3, 0.5], [0.5, 0.5, 0.0], [1.0, 0, 0]], 0),
    )
    assert (padded.offset, padded.span) == (base.offset, base.span)
    inverted_rows = []
    invert = gpm.lattice_invert
    monkeypatch.setattr(gpm, "lattice_invert", lambda mass, n, points:
                        inverted_rows.append(mass.shape[-2]) or invert(mass, n, points))
    for c0 in (200.0, 1000.0):
        want_dist = la_folds(base, c0)
        want_cdf = want_dist.to_cdf()
        dist = la_folds(padded, c0)
        cdf = dist.to_cdf()
        assert np.array_equal(dist.pmf, want_dist.pmf)
        assert np.array_equal(cdf.xs, want_cdf.xs)
        assert np.array_equal(cdf.cum, want_cdf.cum)
    width = base.values.shape[1]
    g = max(g for g in range(1, 6) if width**g <= gpm.FOLD_ATOMS)
    assert inverted_rows == [math.ceil(5 / g)] * 4


def random_lattice_spec(rng, k, width):
    """K rows of ``width`` entries at beta = 1 (c0 = span): live rows on
    distinct integers with some zero-probability padding, and about one row
    in six spread by less than half a unit, so it rounds to the point mass
    at 0.  Row 0 is live."""
    values = np.empty((k, width))
    probs = rng.uniform(0.05, 1.0, size=(k, width))
    for row in range(k):
        offset = float(rng.integers(0, 4))
        if row > 0 and rng.random() < 0.15:
            values[row] = offset + rng.uniform(0.0, 0.45, size=width)
            continue
        values[row] = offset + rng.choice(7, size=width, replace=False)
        probs[row, rng.integers(2, width + 1):] = 0.0
    return GpmSpec(values, probs / probs.sum(axis=1, keepdims=True))


def check_fold(spec):
    # at c0 = span, beta = 1: la_folds' lattice is each row's distance from
    # its minimum rounded half up, and its law the rows' iterated np.convolve
    dist = la_folds(spec, spec.span)
    assert dist.scale.tolist() == [1.0]
    lattice = GpmSpec(np.floor(spec.values - spec.values.min(axis=1, keepdims=True) + 0.5),
                      spec.probs)
    want = convolve_pmf(lattice, int(lattice.span) + 1)
    assert dist.pmf[0].shape == want.shape
    assert np.max(np.abs(dist.pmf[0] - want)) <= 1e-12


def test_folded_la_cdf_matches_row_by_row_convolution():
    # la_folds convolves its rows g to a row before the FFT (g = 6, 4, 3, 3
    # at widths 2..5); K runs through multiples of g and the rest
    rng = np.random.default_rng(59)
    for width in (2, 3, 4, 5):
        for k in (*range(1, 14), 17, 23, 31, 40):
            check_fold(random_lattice_spec(rng, k, width))


def test_fold_negative_controls(monkeypatch):
    # 9 live rows of 3 atoms: groups of 4, 4 and 1 + 3 point masses at 0
    spec = random_lattice_spec(np.random.default_rng(61), 9, 3)
    total_top = int(spec.span)
    assert spec.span == total_top and (np.ptp(spec.values, axis=1) >= 1).all()
    n = gpm._next_pow2(total_top + 1)
    assert total_top + 1 < n - 1
    check_fold(spec)
    invert = gpm.lattice_invert
    shapes = []

    def counted(mass, n, points):
        shapes.append((mass.shape, n))
        return invert(mass, n, points)

    # the folded rows reach the inversion as 3 rows of 81 points and masses
    monkeypatch.setattr(gpm, "lattice_invert", counted)
    check_fold(spec)
    assert shapes == [((1, 3, 81), n)]
    # without the padded last group the law misses a row
    monkeypatch.setattr(gpm, "lattice_invert",
                        lambda mass, n, points: invert(mass[:, :-1], n, points[:, :-1]))
    with pytest.raises(AssertionError):
        check_fold(spec)

    # one group's points offset one point too far carry the sum past its top
    def shift_first_group(mass, n, points):
        return invert(mass, n, points + (np.arange(points.shape[1]) == 0)[:, None])

    monkeypatch.setattr(gpm, "lattice_invert", shift_first_group)
    with pytest.raises(ValueError, match="pmf sums to"):
        check_fold(spec)
    # folded rows on a lattice one point too short still alias; on the
    # shortest lattice that holds the summed top they do not
    monkeypatch.setattr(gpm, "lattice_invert", counted)
    monkeypatch.setattr(gpm, "_next_pow2", lambda length: length - 1)
    shapes.clear()
    with pytest.raises(ValueError, match="aliasing"):
        check_fold(spec)
    assert shapes == [((1, 3, 81), total_top)]
    monkeypatch.setattr(gpm, "_next_pow2", lambda length: length)
    check_fold(spec)


def split_lattice_spec(rng, width, light, heavy_tops, dead):
    """A spec at beta = 1 (c0 = span) whose ``light`` rows reach 1 to 3
    units and whose heavy rows reach ``heavy_tops``, with ``dead`` rows
    spread by less than half a unit among them, in random row order."""
    rows = []
    for top in [*rng.integers(1, 4, size=light), *heavy_tops]:
        inner = rng.choice(np.arange(1, top), size=min(width - 2, top - 1), replace=False)
        rows.append(float(rng.integers(0, 4)) + np.sort(np.r_[0, inner, top]))
    rows += [float(rng.integers(0, 4)) + rng.uniform(0.0, 0.45, size=2) for _ in range(dead)]
    values = np.zeros((len(rows), width))
    probs = np.zeros((len(rows), width))
    for row, at in zip(rng.permutation(len(rows)), rows):
        values[row, :at.size], values[row, at.size:] = at, at[0]
        probs[row, :at.size] = rng.uniform(0.05, 1.0, size=at.size)
    return GpmSpec(values, probs / probs.sum(axis=1, keepdims=True))


def tails_split(spec):
    """How many light tails ``la_folds(spec, span)`` inverts on a quarter lattice."""
    calls = []
    light_tail = gpm._light_tail
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gpm, "_light_tail", lambda mass, points, n, tops:
                      calls.append(len(mass)) or light_tail(mass, points, n, tops))
        la_folds(spec, spec.span)
    return sum(calls)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(40, 90),
       st.lists(st.integers(40, 400), min_size=1, max_size=3), st.integers(0, 5))
def test_split_la_cdf_matches_row_by_row_convolution(seed, width, light, heavy_tops, dead):
    # a sum whose light rows go on a quarter lattice, their pmf one more
    # row of the rest's inversion: its law is still the rows' iterated
    # np.convolve within 1e-12
    spec = split_lattice_spec(np.random.default_rng(seed), width, light, heavy_tops, dead)
    assume(tails_split(spec) == 1)
    check_fold(spec)


def test_split_negative_controls(monkeypatch):
    # 60 light rows (tops 1-3, N/4 = 256 holds them) and two heavy rows of
    # summed top 800: on N = 1024 the tail goes on 256 points
    spec = split_lattice_spec(np.random.default_rng(67), 3, 60, [300, 500], 3)
    n = gpm._next_pow2(int(spec.span) + 1)
    assert n == 1024 and tails_split(spec) == 1
    check_fold(spec)
    # rows that put 0.97 on their tops: the tail's summed top then carries
    # 0.97^60 = 0.16 of its mass, which the zeroing past it must keep
    live = spec.probs > 0.0
    top = live & (spec.values == spec.values.max(axis=1, keepdims=True))
    rest = 0.03 / (live.sum(axis=1, keepdims=True) - 1)
    check_fold(GpmSpec(spec.values, np.where(top, 0.97, np.where(live, rest, 0.0))))
    light_tail = gpm._light_tail
    # without the tail row the law misses the light rows
    def point_masses(mass, points, n, tops):
        pmfs = np.zeros((len(mass), n))
        pmfs[:, 0] = 1.0
        return pmfs

    monkeypatch.setattr(gpm, "_light_tail", point_masses)
    with pytest.raises(AssertionError):
        check_fold(spec)
    # the tail pmf not zeroed past its summed top: its round-off reaches
    # the quarter lattice's end, and with the head's tops past 3N/4 the
    # head's inversion refuses it
    monkeypatch.setattr(gpm, "_light_tail",
                        lambda mass, points, n, tops: lattice_invert(mass, n, points))
    with pytest.raises(ValueError, match="aliasing"):
        check_fold(spec)
    monkeypatch.setattr(gpm, "_light_tail", light_tail)
    check_fold(spec)


def stacked(specs):
    """One (E, K, 3) stack of ``specs`` of up to 3 atoms a row, each
    padded with point masses at 0 up to the most rows."""
    k = max(len(spec) for spec in specs)
    values, probs = np.zeros((len(specs), k, 3)), np.zeros((len(specs), k, 3))
    probs[:, :, 0] = 1.0
    for e, spec in enumerate(specs):
        rows, width = spec.values.shape
        values[e, :rows, :width], probs[e, :rows] = spec.values, 0.0
        probs[e, :rows, :width] = spec.probs
    return GpmSpec(values, probs)


@pytest.mark.parametrize("c0", [1.0, 40.0, 1000.0])
def test_record_rows_equal_each_sum_alone(c0):
    # row e of la_folds' record is the law of sum e alone, bit for bit: its
    # offset, scale and top, its pmf up to the top and zeros past it; at
    # c0 = 1000 the last sum inverts its light tail on a quarter lattice
    rng = np.random.default_rng(73)
    specs = [random_spec(rng, k) for k in (1, 2, 5, 9, 20)]
    specs.append(split_lattice_spec(rng, 3, 60, [300, 500], 3))
    stack = stacked(specs)
    tails = []
    light_tail = gpm._light_tail
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gpm, "_light_tail", lambda *args: tails.append(1) or light_tail(*args))
        laws = la_folds(stack, c0)
    assert bool(tails) == (c0 == 1000.0)
    assert len(laws) == len(specs)
    for e in range(len(specs)):
        alone = la_folds(stack[e], c0)
        top = int(laws.top[e])
        for name in ("offset", "scale", "top", "displacement"):
            assert getattr(laws, name)[e:e + 1].tobytes() == getattr(alone, name).tobytes()
        assert alone.pmf.shape == (1, top + 1)
        assert laws.pmf[e, :top + 1].tobytes() == alone.pmf.tobytes()
        assert not laws.pmf[e, top + 1:].any()
    # negative control: the stack in reverse order reads its rows reversed
    backwards = la_folds(stack[np.arange(len(specs))[::-1]], c0)
    assert backwards.pmf[0].tobytes() != laws.pmf[0].tobytes()


def test_law_record_checks_every_law_once(monkeypatch):
    pmf = [[0.25, 0.75, 0.0], [1.0, 0.0, 0.0]]
    held = np.array(pmf)
    laws = LatticeLaws([1.0, 2.0], [0.5, 4.0], [1, 0], held, [0.75, 0.0])
    held[0, 0] = 9.0        # the record holds a read-only copy
    assert laws.pmf.tolist() == pmf and not laws.pmf.flags.writeable
    # law e is a record of one on read-only views of its row up to its top
    first = laws[0]
    assert [getattr(first, name).tolist() for name in ("offset", "scale", "top", "displacement")
            ] == [[1.0], [0.5], [1], [0.75]]
    assert first.pmf.tolist() == [[0.25, 0.75]]
    for name in ("offset", "scale", "top", "pmf", "displacement"):
        view = getattr(first, name)
        assert np.shares_memory(view, getattr(laws, name)) and not view.flags.writeable
    assert [law.pmf.tolist() for law in laws] == [[[0.25, 0.75]], [[1.0]]]
    assert laws[-1].pmf.tolist() == [[1.0]]
    with pytest.raises(IndexError):
        laws[2]
    # la_folds checks its record once; reading its laws checks none again
    checks = []
    check = gpm._check_laws
    monkeypatch.setattr(gpm, "_check_laws", lambda *args: checks.append(1) or check(*args))
    folded = la_folds(stacked([random_spec(np.random.default_rng(79), 4)] * 3), 100.0)
    assert [law.pmf.size for law in folded] and checks == [1]
    # each check fails NaN and +-inf, naming the law at fault
    moved = [0.75, 0.0]
    for offset, scale, top, rows, displacement, message in (
        ([1.0, np.nan], [0.5, 4.0], [1, 0], pmf, moved, "offset must be finite, got nan in law 1"),
        ([1.0, 2.0], [0.5, 0.0], [1, 0], pmf, moved, "scale must be positive, got 0.0 in law 1"),
        ([1.0, 2.0], [np.inf, 4.0], [1, 0], pmf, moved, "scale must be finite, got inf in law 0"),
        ([1.0, 2.0], [0.5, np.nan], [1, 0], pmf, moved, "scale must be positive, got nan in law 1"),
        ([1.0, 2.0], [0.5, 4.0], [1, 0], pmf, [0.75, -1e-300],
         "displacement must be >= 0, got -1e-300 in law 1"),
        ([1.0, 2.0], [0.5, 4.0], [1, 0], pmf, [np.nan, 0.0],
         "displacement must be >= 0, got nan in law 0"),
        ([1.0, 2.0], [0.5, 4.0], [1, 0], pmf, [0.75, np.inf],
         "displacement must be finite, got inf in law 1"),
        ([1.0, 2.0], [0.5, 4.0], [1, 1], [pmf[0], [1.5, -0.5, 0.0]], moved,
         "pmf must be non-negative in law 1"),
        ([1.0, 2.0], [0.5, 4.0], [1, 0], [[np.nan, 0.75, 0.0], pmf[1]], moved,
         "pmf must be non-negative in law 0"),
        ([1.0, 2.0], [0.5, 4.0], [1, 0], [pmf[0], [0.5, 0.5, 0.0]], moved,
         "pmf must be 0 past its top 0 in law 1"),
        ([1.0, 2.0], [0.5, 4.0], [1, 0], [[0.25, 0.5, 0.0], pmf[1]], moved,
         "pmf sums to np.float64(0.75), not 1 in law 0"),
        ([1.0, 2.0], [0.5, 4.0], [1, 0], [[np.inf, 0.75, 0.0], pmf[1]], moved,
         "pmf sums to np.float64(inf), not 1 in law 0"),
        ([1.0, 2.0], [0.5, 4.0], [1, 3], pmf, moved, "W > top"),
        ([1.0, 2.0], [0.5, 4.0], [1, 0], pmf, [0.75], "W > top"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            LatticeLaws(offset, scale, top, rows, displacement)


def test_la_cdf_of_rows_all_rounded_to_zero():
    # span 3 at c0 = 1: beta = 1/3, and every row's top 1/3 rounds to 0
    spec = GpmSpec([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]], [[0.5, 0.5]] * 3)
    dist = la_folds(spec, 1.0)
    cdf = dist.to_cdf()
    assert (dist.offset.tolist(), dist.scale.tolist(), dist.pmf.tolist()) == (
        [3.0], [1.0 / 3.0], [[1.0]])
    # each row still moves, by up to half a lattice unit of 3
    assert dist.displacement.tolist() == [3 * 3.0 / 2.0]
    assert (cdf.xs.tolist(), cdf.cum.tolist()) == ([3.0], [1.0])


def test_la_rejects_small_c0():
    spec = GpmSpec([[0.0, 1.0]], [[0.5, 0.5]])
    with pytest.raises(ValueError):
        la_folds(spec, 0.5)
    # c0 has no library default: it is [algorithm] lattice_target_c0
    with pytest.raises(TypeError, match="c0"):
        la_folds(spec)
    # NaN fails the range check, not the span check after it
    with pytest.raises(ValueError, match="c0 must be >= 1, got nan"):
        la_folds(spec, math.nan)
    # at 2**53 the lattice points would leave the integers a float and an
    # intp hold exactly
    for c0 in (2.0**53, 1e19, 1e25, math.inf):
        with pytest.raises(ValueError, match="c0 must be below 2\\*\\*53"):
            la_folds(spec, c0)


def test_la_rejects_span_that_overflows_beta():
    spec = GpmSpec([[0.0, 1e-310]], [[0.5, 0.5]])     # c0 / span is inf
    with pytest.raises(ValueError, match="span 1e-310"):
        la_folds(spec, 1000.0)


def test_la_quantization_envelope():
    # every jump of the LA cdf lies within M/(2 beta) of enumeration mass
    rng = np.random.default_rng(41)
    for _ in range(20):
        spec = random_spec(rng, int(rng.integers(2, 9)))
        law = la_folds(spec, 1000.0)
        la = law.to_cdf()
        exact = enumerate_cdf(spec)
        assert envelope_excess(exact, *law.envelope()) <= 1e-9


def test_envelope_is_the_law_moved_by_its_displacement(tmp_path):
    # event 0 at the configured position of the 37-site scene, the law
    # validate --mode la-vs-enum checks: its envelope is the pair that
    # command built by hand, its stepped cdf moved by +-s, s the
    # displacement widened by 1e-9 relative
    cfg = load_scenario(tmp_path, "[layout]\nradius_m = 1500\n")
    _, spec = _conditioned_spec(cfg, 0)
    law = la_folds(spec, cfg.lattice_target_c0)
    la = law.to_cdf()
    s = float(law.displacement[0]) * (1.0 + 1e-9)
    assert s > 0.0
    lo, hi = law.envelope()
    for side, xs in ((lo, la.xs + s), (hi, la.xs - s)):
        assert side.xs.tobytes() == xs.tobytes() and side.cum.tobytes() == la.cum.tobytes()
    exact = enumerate_cdf(spec)
    assert envelope_excess(exact, lo, hi) <= 1e-9      # 4.7e-12
    # negative control: with s = 0 the excess is the plain distance, the
    # mass of an atom the rounding moved (8.0e-02)
    plain = envelope_excess(exact, la, la)
    assert plain == kolmogorov_distance(exact, la) > 0.05
    # a record of several laws has no one stepped cdf to move
    with pytest.raises(ValueError):
        la_folds(GpmSpec(np.stack([spec.values] * 2), np.stack([spec.probs] * 2)),
                 1000.0).envelope()


@st.composite
def rounding_stacks(draw):
    """(E, K, L) values and probs of 1-4 sums of 0-5 summands, values from
    a pool of up to four random floats, so rows repeat values and some
    have one; masses with zero padding, and silent padding rows (value 0,
    mass 1 at 0) at the end of some sums; and a lattice target c0."""
    e, k, width = draw(st.integers(1, 4)), draw(st.integers(0, 5)), draw(st.integers(1, 3))
    pool = draw(st.lists(st.floats(-5.0, 50.0).map(lambda v: round(v, 9)),
                         min_size=1, max_size=4))
    values = np.reshape(draw(st.lists(st.sampled_from(pool), min_size=e * k * width,
                                      max_size=e * k * width)), (e, k, width))
    probs = np.reshape(draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 1.0, 3.0]),
                                     min_size=e * k * width, max_size=e * k * width)),
                       (e, k, width))
    probs[..., 0] += probs.sum(axis=-1) == 0.0     # every row has mass
    probs /= probs.sum(axis=-1, keepdims=True)
    silent = np.arange(k) >= np.reshape(draw(st.lists(st.integers(0, k), min_size=e,
                                                      max_size=e)), (e, 1))
    values[silent], probs[silent] = 0.0, [1.0] + [0.0] * (width - 1)
    return values, probs, draw(st.floats(1.0, 2000.0))


def check_displacement(values, probs, c0, shrink=1.0):
    """Each law of the stack's record moves no atom further than
    ``shrink`` times its displacement: with beta its scale and x = beta v
    each live value's distance from its row's least one, scaled, the sum
    over rows of the largest |x - floor(x + 1/2)| / beta, the rounding
    la_folds makes, widened by 1e-9 relative for float noise.  Its
    displacement is M span / (2 c0), with M the rows of two or more live
    values."""
    spec = GpmSpec(values, probs)
    laws = la_folds(spec, c0)
    live = probs > 0.0
    least = np.where(live, values, np.inf).min(axis=-1, keepdims=True)
    x = laws.scale[:, None, None] * np.where(live, values - least, 0.0)
    realised = (np.abs(x - np.floor(x + 0.5)).max(axis=-1) / laws.scale[:, None]).sum(axis=-1)
    assert (realised <= shrink * laws.displacement * (1.0 + 1e-9)).all()
    moved = (np.where(live, values, -np.inf).max(axis=-1) > least[..., 0]).sum(axis=-1)
    assert laws.displacement.tobytes() == (moved * spec.span / (2.0 * c0)).tobytes()


# two rows moved 0.294 lattice units each at beta = 1 / 3.4: 2.0 in all,
# within their displacement 2 x 3.4 / 2 but beyond half of it
ROUNDED_APART = (np.array([[[0.0, 1.0], [0.0, 2.4]]]), np.full((1, 2, 2), 0.5), 1.0)


@settings(max_examples=200, deadline=None)
@given(rounding_stacks())
@example(ROUNDED_APART)
# a padded stack: sum 0 has one live row and two silent ones, sum 1 two
# live rows, one of them one-valued (a lone value split in two entries)
@example((np.array([[[0.0, 3.3], [0.0, 0.0], [0.0, 0.0]], [[1.0, 4.7], [2.5, 2.5], [0.0, 0.0]]]),
          np.array([[[0.5, 0.5], [1.0, 0.0], [1.0, 0.0]], [[0.3, 0.7], [0.4, 0.6], [1.0, 0.0]]]),
          7.0))
@example((np.zeros((2, 3, 3)), np.tile([1.0, 0.0, 0.0], (2, 3, 1)), 1000.0))   # all silent
def test_displacement_covers_each_law_rounding(stack):
    check_displacement(*stack)


def test_halved_displacement_fails_on_rows_rounded_apart():
    # negative control: the bound is not slack by half on this stack
    check_displacement(*ROUNDED_APART)
    with pytest.raises(AssertionError):
        check_displacement(*ROUNDED_APART, shrink=0.5)


def test_la_moment_preservation():
    rng = np.random.default_rng(43)
    for _ in range(10):
        spec = random_spec(rng, int(rng.integers(2, 9)))
        dist = la_folds(spec, 1000.0)
        mean_la = float(np.arange(dist.pmf.size) @ dist.pmf[0]) / dist.scale[0] + dist.offset[0]
        assert abs(mean_la - spec.mean()) <= dist.displacement[0] + 1e-12


def test_la_cdf_monotone_and_normalised():
    rng = np.random.default_rng(47)
    for _ in range(10):
        spec = random_spec(rng, 6)
        cdf = la_folds(spec, 500.0).to_cdf()
        assert np.all(np.diff(cdf.cum) >= 0)
        assert cdf.cum[-1] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

# every reference law, baseline and accuracy check, all in uavcov.oracles
ORACLE_NAMES = ("ENUMERATION_CAP", "VALUE_MERGE_RTOL", "enumerate_cdf", "mc_cdf", "_ndtr",
                "GaussianCdf", "gaussian_cdf", "envelope_excess", "kolmogorov_distance",
                "stepped_cdf_from_pmf")


def test_gpm_is_the_lattice_engine_alone():
    # gpm defines no reference law and, in a fresh interpreter, loads none
    assert [name for name in ORACLE_NAMES if hasattr(gpm, name)] == []
    assert [name for name in ORACLE_NAMES if not hasattr(oracles, name)] == []
    assert not hasattr(SteppedCdf, "from_pmf") and not hasattr(SteppedCdf, "jump_sizes")
    probe = "import sys, uavcov.{}; print(sorted(m for m in sys.modules if m.startswith('uavcov')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for module, loads in (("gpm", False), ("oracles", True)):   # the second a control
        out = subprocess.run([sys.executable, "-c", probe.format(module)], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert ("'uavcov.oracles'" in out) == loads, out

def test_enumerate_matches_product_oracle():
    rng = np.random.default_rng(53)
    for _ in range(10):
        spec = random_spec(rng, 4)
        cdf = enumerate_cdf(spec)
        atoms = sorted(product_atoms(spec).items())
        want = np.cumsum([p for _, p in atoms])
        assert np.allclose(cdf.xs, [v for v, _ in atoms], rtol=1e-12)
        assert np.allclose(cdf.cum, want / want[-1], atol=1e-12)


def test_enumerate_cap():
    # 3^14 joint states, above oracles.ENUMERATION_CAP; 3^13 are below it
    assert 3**13 <= oracles.ENUMERATION_CAP < 3**14
    spec = GpmSpec([[0.0, 1.0, 2.0]] * 14, [[0.3, 0.3, 0.4]] * 14)
    with pytest.raises(ValueError, match="above the cap of 2000000"):
        enumerate_cdf(spec)


def test_enumerate_coalescing_keeps_distribution():
    # force intermediate coalescing with 15 binary summands (32768 states)
    rng = np.random.default_rng(59)
    spec = GpmSpec([[0.0, float(rng.uniform(0.5, 1.5))] for _ in range(15)], [[0.4, 0.6]] * 15)
    cdf = enumerate_cdf(spec)
    assert cdf.cum[-1] == pytest.approx(1.0, abs=1e-9)
    assert abs(float(np.diff(cdf.cum, prepend=0.0) @ cdf.xs) - spec.mean()) < 1e-9


def test_mc_cdf_deterministic_and_convergent():
    rng = np.random.default_rng(61)
    spec = random_spec(rng, 5)
    a = mc_cdf(spec, 50_000, seed=123)
    b = mc_cdf(spec, 50_000, seed=123)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.cum, b.cum)
    c = mc_cdf(spec, 50_000, seed=124)
    assert kolmogorov_distance(a, c) > 0.0
    assert kolmogorov_distance(enumerate_cdf(spec), a) < 0.02


def test_gaussian_cdf_shape():
    spec = GpmSpec([[0.0, 1.0], [0.0, 2.0]], [[0.5, 0.5], [0.5, 0.5]])
    g = gaussian_cdf(spec)
    assert g.mean == pytest.approx(1.5)
    assert g.std == pytest.approx(math.sqrt(0.25 + 1.0))
    xs = np.linspace(-1.0, 6.0, 200)
    ys = g(xs)
    assert np.all(np.diff(ys) >= -1e-15)
    assert np.all(ys[xs < 0.0] == 0.0)
    assert g(6.0) > 0.999
    # degenerate spread collapses to a step
    step = GaussianCdf(2.0, 0.0)
    assert step(1.9) == 0.0 and step(2.0) == 1.0


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def test_kolmogorov_displaced_atom():
    a = SteppedCdf([0.0], [1.0])
    b = SteppedCdf([1.0], [1.0])
    assert kolmogorov_distance(a, b) == 1.0
    assert kolmogorov_distance(a, a) == 0.0


def test_kolmogorov_symmetric_between_stepped():
    rng = np.random.default_rng(67)
    for _ in range(10):
        x = enumerate_cdf(random_spec(rng, 3))
        y = enumerate_cdf(random_spec(rng, 3))
        assert kolmogorov_distance(x, y) == pytest.approx(kolmogorov_distance(y, x))


def test_kolmogorov_hand_value():
    a = SteppedCdf([0.0, 2.0], [0.5, 1.0])
    b = SteppedCdf([1.0], [1.0])
    # on [0,1): |0.5-0| ; at 1: |0.5-1| ; on [1,2): 0.5 -> sup is 0.5
    assert kolmogorov_distance(a, b) == pytest.approx(0.5)


def test_kolmogorov_against_continuous():
    spec = GpmSpec([[0.0, 1.0]] * 15, [[0.5, 0.5]] * 15)
    exact = enumerate_cdf(spec)
    # a 15-trial coin sum is near normal; the gap to its moment-matched
    # gaussian is dominated by half the central atom, about 0.098
    d = kolmogorov_distance(exact, gaussian_cdf(spec))
    assert 0.05 < d < 0.15


def test_gaussian_point_mass_has_a_left_limit():
    # all-silent rows: the sum and its moment-matched normal (std 0) are
    # both the point mass at 0
    spec = GpmSpec([[0.0, 2.0, 5.0]] * 3, [[1.0, 0.0, 0.0]] * 3)
    ga = gaussian_cdf(spec)
    assert (ga.mean, ga.std) == (0.0, 0.0)
    assert (ga(0.0), ga.eval_left(0.0), ga.eval_left(1e-300)) == (1.0, 0.0, 1.0)
    exact = enumerate_cdf(spec)
    assert kolmogorov_distance(exact, ga) == 0.0
    # negative control: probing the step's left side with its value at 0
    assert envelope_excess(exact, ga.__call__, ga.__call__) == 1.0
    # away from std 0 the normal is continuous: the left limit is the value
    wide = gaussian_cdf(GpmSpec([[0.0, 1.0]] * 4, [[0.5, 0.5]] * 4))
    grid = np.linspace(-1.0, 5.0, 13)
    assert wide.eval_left(grid).tolist() == wide(grid).tolist()


def snr_cdf_over(scale, pmf) -> DownlinkSnrCdf:
    """A stepped callable cdf: snr = 1 / (1 + I) for one sure event, I on
    the lattice points n / scale, which maps I = 0, 1, 3 to 1, 1/2, 1/4
    and back without rounding."""
    return DownlinkSnrCdf(np.ones(1), np.ones(1), one_law(0.0, scale, pmf), 1.0)


def test_kolmogorov_against_stepped_callable():
    # probing the callable's value at a's jumps against a's left limits
    # would read a's largest jump (0.5) for any b, this one included
    a = SteppedCdf([0.25, 0.5, 1.0], [0.25, 0.5, 1.0])
    same = snr_cdf_over(1.0, [0.5, 0.25, 0.0, 0.25])
    assert kolmogorov_distance(a, same) == 0.0
    # the atom of mass 0.25 at snr 1/2 moves to 1/1.6 = 0.625 (I = 3/5)
    moved = snr_cdf_over(5.0, [0.5, 0, 0, 0.25] + [0] * 11 + [0.25])
    assert kolmogorov_distance(a, moved) == 0.25


def test_envelope_excess_bounds_plain_distance():
    rng = np.random.default_rng(71)
    for _ in range(10):
        a = enumerate_cdf(random_spec(rng, 3))
        b = enumerate_cdf(random_spec(rng, 3))
        # oracle b against a moved by s either way; s = 0 is the plain distance
        for s, want in ((0.0, kolmogorov_distance(a, b)), (10.0, 0.0)):
            lo, hi = SteppedCdf(a.xs + s, a.cum), SteppedCdf(a.xs - s, a.cum)
            assert envelope_excess(b, lo, hi) == pytest.approx(want)


def test_envelope_excess_hand_values():
    oracle = SteppedCdf([1.0, 2.0], [0.5, 1.0])
    assert envelope_excess(oracle, SteppedCdf([1.5, 2.5], [0.5, 1.0]),
                           SteppedCdf([0.5, 1.5], [0.5, 1.0])) == 0.0
    # lo puts mass 0.5 at 0.8, before any oracle mass: read at 1.0's left limit
    assert envelope_excess(oracle, SteppedCdf([0.8, 2.5], [0.5, 1.0]),
                           SteppedCdf([0.5, 1.5], [0.5, 1.0])) == 0.5
    # hi has only 0.25 by 2.0, where the oracle has all its mass
    assert envelope_excess(oracle, SteppedCdf([1.5, 2.5], [0.25, 1.0]),
                           SteppedCdf([0.5, 2.5], [0.25, 1.0])) == 0.75


# ---------------------------------------------------------------------------
# Text output
# ---------------------------------------------------------------------------

def test_write_cdf_csv(tmp_path):
    # a stepped cdf goes to CSV through the writer every cdf command uses
    cfg = load_scenario(tmp_path, "")
    cdf = SteppedCdf([0.5, 1.5], [0.25, 1.0])
    path = tmp_path / "cdf.csv"
    _write_csv(path, ("x", "cdf"), zip(cdf.xs, cdf.cum), cfg)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# config_sha256={cfg.config_hash}"
    assert lines[1] == "x,cdf"
    assert lines[2] == "0.5,0.25"
    assert lines[3] == "1.5,1"
    assert len(lines) == 4
