"""Association walk, SNR distributions, and spatial coverage.

The oracles enumerate the joint channel-state (and interferer-activity)
space directly, which is exponential but exact; the walk and the mixture
cdf must reproduce them to float precision.
"""

import concurrent.futures
import dataclasses
import itertools
import math
import re
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_reads_stepped_cdfs,
    complete_table,
    counted_mixture_builds,
    default_models,
    distance_classes,
    in_place_probes,
    link_block,
    link_table,
    load_scenario,
    random_link_table,
)
from uavcov import coverage, gpm
from uavcov.antenna import UavAntenna
from uavcov.channel import LinkTable, build_link_table, build_lit_links
from uavcov.cli import main
from uavcov.config import load_config
from uavcov.geometry import NetworkLayout, build_hex_layout, point_orbits, write_layout_csv
from uavcov.oracles import (
    downlink_cdf_enumeration,
    downlink_outage_mc,
    kolmogorov_distance,
    stepped_cdf_from_pmf,
    uplink_pmf_enumeration,
)
from uavcov.coverage import (
    AssociationEvents,
    DownlinkSnrCdf,
    LinkDirection,
    UplinkSnrPmf,
    association_pmf,
    conditional_interference_spec,
    conditional_interference_specs,
    coverage_at_altitude,
    coverage_over_altitudes,
    downlink_snr_cdf,
    uplink_outage,
    uplink_snr_pmf,
)
from uavcov.gpm import GpmSpec, SteppedCdf, la_cdf, la_folds


def brute_force_uplink(table, beta0):
    """Uplink SNR atoms by enumerating every LoS/NLoS configuration."""
    acc = {}
    rows = list(zip(table.c_los.tolist(), table.c_nlos.tolist(), table.p_los.tolist()))
    for mask in itertools.product((False, True), repeat=len(table)):
        prob = 1.0
        best = 0.0
        for (c_los, c_nlos, p_los), is_los in zip(rows, mask):
            prob *= p_los if is_los else 1.0 - p_los
            best = max(best, c_los if is_los else c_nlos)
        if prob > 0.0:
            key = beta0 * best
            acc[key] = acc.get(key, 0.0) + prob
    return acc


def joint_downlink_oracle(table, omega, alpha0):
    """Downlink SNR cdf by enumerating channel states and activity jointly.

    Serving pick mirrors the walk: the first row (in table order) with the
    largest realised gain.  Needs every outcome to keep a positive serving
    gain.
    """
    n = len(table)
    ids, band = table.gbs_id.tolist(), table.band.tolist()
    c_los, c_nlos, p_los = table.c_los.tolist(), table.c_nlos.tolist(), table.p_los.tolist()
    atoms: dict[float, float] = {}
    for los_mask in itertools.product((False, True), repeat=n):
        p_state = math.prod(
            p if los else 1.0 - p for p, los in zip(p_los, los_mask)
        )
        if p_state == 0.0:
            continue
        gains = [c_los[i] if los else c_nlos[i] for i, los in enumerate(los_mask)]
        serving = max(range(n), key=gains.__getitem__)
        co = [
            i for i in range(n)
            if i != serving and band[i] == band[serving]
        ]
        for act_mask in itertools.product((False, True), repeat=len(co)):
            prob = p_state
            interference = 0.0
            for i, on in zip(co, act_mask):
                w = float(omega[ids[i]]) if np.ndim(omega) else omega
                prob *= w if on else 1.0 - w
                if on:
                    interference += gains[i]
            if prob == 0.0:
                continue
            snr = gains[serving] / (alpha0 + interference)
            atoms[snr] = atoms.get(snr, 0.0) + prob
    values = sorted(atoms)
    return stepped_cdf_from_pmf(values, [atoms[v] for v in values])


def assert_matches_stepped(model: DownlinkSnrCdf, oracle: SteppedCdf, tol=1e-9):
    """Probe just off each oracle jump so one-sided limits compare cleanly."""
    for x, lo, hi in zip(oracle.xs, np.append(0.0, oracle.cum[:-1]), oracle.cum):
        assert model.eval(x * (1 - 1e-7)) == pytest.approx(lo, abs=tol)
        assert model.eval(x * (1 + 1e-7)) == pytest.approx(hi, abs=tol)


# three-row single-band table whose per-event interference lattices are
# exact at c0 = 960 (every event span divides it)
MICRO_ROWS = (
    (0, 0, 8.0, 4.0, 0.6),
    (1, 0, 6.0, 3.0, 0.5),
    (2, 0, 2.0, 1.0, 0.5),
)


# ---------------------------------------------------------------------------
# Association walk
# ---------------------------------------------------------------------------

def labels(table, events):
    """Each event's (serving GBS id, state), the no-gain event's
    (None, "none"): the state "los" or "nlos_max" as ``los`` reads."""
    return [(int(table.gbs_id[row]), "los" if los else "nlos_max") if row >= 0 else (None, "none")
            for row, los in zip(events.serving.tolist(), events.los.tolist())]


def test_association_frozen_two_rows():
    table = link_table(((0, 0, 10.0, 1.0, 0.6), (1, 0, 8.0, 2.0, 0.5)))
    events = association_pmf(table)
    assert labels(table, events) == [(0, "los"), (1, "los"), (1, "nlos_max")]
    assert events.gain.tolist() == [10.0, 8.0, 2.0]
    assert events.probability.tolist() == pytest.approx([0.6, 0.2, 0.2])
    assert events.forced.tolist() == [0, 1, 2]


def test_association_all_zero_table():
    table = link_table(((0, 0, 0.0, 0.0, 0.4), (1, 0, 0.0, 0.0, 0.9)))
    events = association_pmf(table)
    assert len(events) == 1
    assert labels(table, events) == [(None, "none")]
    assert events.gain.tolist() == [0.0] and events.probability.tolist() == [1.0]


def test_association_events_are_read_only():
    events = association_pmf(link_table(MICRO_ROWS))
    for name in ("probability", "gain", "serving", "forced", "los"):
        col = getattr(events, name)
        assert col.shape == (len(events),)
        with pytest.raises(ValueError, match="read-only"):
            col[0] = col[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        events.gain = events.probability


def test_association_walk_stops_below_nlos_max():
    # third row's LoS gain sits under the NLoS cap, so it can never serve
    table = link_table(MICRO_ROWS)
    events = association_pmf(table)
    assert {gbs for gbs, _ in labels(table, events)} == {0, 1}
    assert labels(table, events)[-1][1] == "nlos_max"
    assert events.gain[-1] == 4.0
    assert events.forced[-1] == 2          # rows 0 and 1: c_los >= 4


def test_terminal_event_is_labelled_by_los_not_by_its_rows():
    # row 1's NLoS gain tops every LoS gain but row 0's, so the walk takes
    # row 0 only; the terminal event is served by row 1 and forces one
    # row, the serving row and prefix a LoS event at row 1 would have
    table = link_table(((0, 0, 10.0, 1.0, 0.5), (1, 0, 4.0, 6.0, 0.5)))
    events = association_pmf(table)
    assert events.serving.tolist() == [0, 1] and events.forced.tolist() == [0, 1]
    assert events.los.tolist() == [True, False]
    assert events.gain.tolist() == [10.0, 6.0]


def test_association_validation():
    table = link_table(MICRO_ROWS)
    with pytest.raises(ValueError):
        association_pmf(table, eps=1.0)
    with pytest.raises(ValueError):
        association_pmf(table, eps=-0.1)
    with pytest.raises(ValueError):
        association_pmf(link_table(()))


def test_association_truncation_modes():
    rows = tuple(
        (i, 0, 10.0 - i, 1.0, 0.5) for i in range(3)
    )
    table = link_table(rows)
    full = association_pmf(table)
    assert full.probability.tolist() == pytest.approx([0.5, 0.25, 0.125, 0.125])

    cut = association_pmf(table, eps=0.3)     # walk stops at prefix 0.25
    assert labels(table, cut) == [(0, "los"), (1, "los"), (0, "nlos_max")]
    assert cut.probability.tolist() == pytest.approx([0.5, 0.25, 0.25])
    assert sum(cut.probability.tolist()) == pytest.approx(1.0, abs=1e-12)


def test_association_truncation_mass_bound():
    rng = np.random.default_rng(83)
    for _ in range(30):
        table = random_link_table(rng, int(rng.integers(2, 10)))
        full = association_pmf(table)
        exact = dict(zip(labels(table, full), full.probability.tolist()))
        for eps in (1e-3, 1e-2, 0.2):
            cut = association_pmf(table, eps=eps)
            assert sum(cut.probability.tolist()) == pytest.approx(1.0, abs=1e-12)
            moved = sum(
                abs(probability - exact.get(label, 0.0))
                for label, probability in zip(labels(table, cut), cut.probability.tolist())
            )
            assert moved <= 2 * eps + 1e-12     # remainder leaves one atom, lands on another


# ---------------------------------------------------------------------------
# Uplink
# ---------------------------------------------------------------------------

def test_uplink_matches_brute_force():
    rng = np.random.default_rng(89)
    for _ in range(50):
        table = random_link_table(rng, int(rng.integers(1, 11)))
        beta0 = float(10 ** rng.uniform(-2, 4))
        pmf = uplink_snr_pmf(table, beta0)
        want = brute_force_uplink(table, beta0)
        assert set(pmf.values.tolist()) == set(want)
        for v, p in zip(pmf.values, pmf.probs):
            assert abs(p - want[float(v)]) <= 1e-12
        # bit for bit the atoms merged by a loop over the events in order
        events = association_pmf(table)
        acc = {}
        for gain, probability in zip(events.gain.tolist(), events.probability.tolist()):
            acc[beta0 * gain] = acc.get(beta0 * gain, 0.0) + probability
        assert pmf.values.tolist() == sorted(acc)
        assert pmf.probs.tolist() == [acc[v] for v in sorted(acc)]


def test_uplink_merges_equal_gains():
    rows = (
        (0, 0, 5.0, 1.0, 0.5),
        (1, 0, 5.0, 1.0, 0.5),
        (2, 0, 3.0, 1.0, 0.5),
    )
    pmf = uplink_snr_pmf(link_table(rows), 2.0)
    assert pmf.values.tolist() == [2.0, 6.0, 10.0]
    assert pmf.probs.tolist() == pytest.approx([0.125, 0.125, 0.75])


def test_uplink_outage_is_strict():
    pmf = uplink_snr_pmf(link_table(MICRO_ROWS), 1.0)
    assert 8.0 in pmf.values
    at_atom = pmf.outage(8.0)
    assert pmf.outage(8.0 * (1 + 1e-12)) > at_atom   # atom counts only above it


def test_uplink_pmf_outage_rejects_nan():
    # atoms at 2 (LoS, 0.5) and at 1 (LoS 0.25, terminal 0.25)
    pmf = uplink_snr_pmf(link_table([(0, 0, 2.0, 1.0, 0.5), (1, 0, 1.0, 0.5, 0.5)]), 1.0)
    assert [pmf.outage(t) for t in (1.5, 0.0)] == [0.5, 0.0]
    with pytest.raises(ValueError, match="must not be NaN"):
        pmf.outage(math.nan)
    # a negative threshold is refused, as DownlinkSnrCdf.outage refuses it
    for bad in (-1.0, -5e-324):
        with pytest.raises(ValueError, match="SNR thresholds must be >= 0"):
            pmf.outage(bad)


def test_uplink_truncation_outage_bound():
    rng = np.random.default_rng(97)
    for _ in range(30):
        table = random_link_table(rng, int(rng.integers(2, 10)))
        beta0 = 1.0
        exact = uplink_snr_pmf(table, beta0)
        threshold = float(10 ** rng.uniform(-2, 1))
        for eps in (1e-3, 0.05):
            cut = uplink_snr_pmf(table, beta0, eps=eps)
            assert abs(cut.outage(threshold) - exact.outage(threshold)) <= eps + 1e-12


def test_uplink_scale_invariance():
    rng = np.random.default_rng(101)
    kappa = 3.7
    for _ in range(20):
        table = random_link_table(rng, int(rng.integers(1, 9)))
        scaled = LinkTable(
            table.gbs_id, table.band, table.c_los * kappa, table.c_nlos * kappa, table.p_los
        )
        a = uplink_snr_pmf(table, 2.0)
        b = uplink_snr_pmf(scaled, 2.0 / kappa)
        np.testing.assert_allclose(b.values, a.values, rtol=1e-12)
        np.testing.assert_array_equal(b.probs, a.probs)


def test_uplink_rejects_bad_beta0():
    with pytest.raises(ValueError):
        uplink_snr_pmf(link_table(MICRO_ROWS), 0.0)
    # NaN passed `beta0 <= 0` and read outage 0 at every threshold
    with pytest.raises(ValueError, match="beta0 must be positive, got nan"):
        uplink_snr_pmf(link_table(MICRO_ROWS), math.nan)


def block_read(table, beta0, thresholds, eps):
    """The uplink block read of one table, as a block of one position; the
    read of the table itself equals it bit for bit."""
    read = coverage.uplink_outage(link_block(table), beta0, thresholds, eps)[0]
    assert coverage.uplink_outage(table, beta0, thresholds, eps).tobytes() == read.tobytes()
    return read


def test_block_read_validation():
    table = link_table([(0, 0, 2.0, 1.0, 0.5), (1, 0, 1.0, 0.5, 0.5)])
    block = link_block(table)
    # atoms at 2 (LoS, 0.5) and at 1 (LoS 0.25, terminal 0.25)
    assert uplink_outage(block, 1.0, [1.5, 1.0, 3.0]).tolist() == [[0.5, 0.0, 1.0]]
    assert uplink_outage(table, 1.0, [1.5, 1.0, 3.0]).tolist() == [0.5, 0.0, 1.0]
    with pytest.raises(ValueError, match="beta0"):
        block_read(link_table(MICRO_ROWS), 0.0, [1.0], 0.0)
    with pytest.raises(ValueError, match="beta0 must be positive, got nan"):
        block_read(link_table(MICRO_ROWS), math.nan, [1.0], 0.0)
    with pytest.raises(ValueError, match="eps"):
        block_read(link_table(MICRO_ROWS), 1.0, [1.0], 1.0)
    # a position that lights no GBS is one padding row: outage at every t > 0
    dark = link_table([(-1, -1, 0.0, 0.0, 0.0)])
    assert uplink_outage(link_block(dark, dark), 1.0, [0.0, 1.0]).tolist() == [[0.0, 1.0]] * 2
    # a threshold of 0 reads outage 0 exactly; a negative or NaN one reads nothing
    assert uplink_outage(block, 1.0, [0.0]).tolist() == [[0.0]]
    with pytest.raises(ValueError, match="SNR thresholds must be >= 0"):
        uplink_outage(block, 1.0, [0.0, -1.0])
    with pytest.raises(ValueError, match="must not be NaN"):
        uplink_outage(block, 1.0, [1.5, math.nan])


@pytest.mark.parametrize("c_los, p_los, message", [
    # rows out of walk order: the telescoped read took 0.1 where the law
    # gives 0.5 at threshold 2
    ([[1.0, 3.0]], [[0.9, 0.5]], "sorted by descending c_los"),
    # a LoS probability above 1: the read took outage -0.5
    ([[3.0, 1.0]], [[1.5, 0.5]], r"LoS probability out of \[0, 1\]"),
], ids=["unsorted", "p_los"])
def test_block_read_refuses_what_its_telescoping_assumes(c_los, p_los, message):
    with pytest.raises(ValueError, match=message + ".* in block row 0$"):
        uplink_outage(LinkTable([[0, 1]], [[0, 0]], c_los, [[0.5, 0.5]], p_los), 1.0, [2.0])


@pytest.mark.parametrize("reader, read", [
    ("association_pmf", association_pmf),
    ("association_pmf", lambda table: uplink_snr_pmf(table, 1.0)),
    ("association_pmf", lambda table: downlink_snr_cdf(table, 0.5, 0.1, c0=100.0)),
    ("conditional_interference_specs",
     lambda table: conditional_interference_specs(table, 0.5, [0], [0])),
    # the oracles: the uplink one read a block as P rows and returned a
    # pmf summing to 0.25, the downlink one failed inside numpy
    ("uplink_pmf_enumeration", lambda table: uplink_pmf_enumeration(table, 1.0)),
    ("downlink_cdf_enumeration", lambda table: downlink_cdf_enumeration(table, 0.5, 0.1)),
    ("downlink_outage_mc", lambda table: downlink_outage_mc(table, 0.5, 0.1, [1.0], 10, 0)),
], ids=["association_pmf", "uplink_snr_pmf", "downlink_snr_cdf",
        "conditional_interference_specs", "uplink_pmf_enumeration", "downlink_cdf_enumeration", "downlink_outage_mc"])
def test_one_position_readers_refuse_a_block(reader, read):
    # the error names the reader of one position the call reached
    table = link_table(MICRO_ROWS)
    read(table)
    with pytest.raises(ValueError, match=f"^{reader} reads one position's table, not a block$"):
        read(link_block(table, table))


def micro_gains():
    # a few exact values, so rows tie and atoms fall on one another
    return st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]) | st.floats(0.01, 10.0)


def micro_probs():
    return st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def micro_tables(draw):
    """A link table of 1 to 6 rows with exact c_los ties, an NLoS gain a
    share in [0, 1] of the LoS gain (equal to it at share 1, none at share
    0, so some tables have LoS gain but no NLoS gain), LoS probabilities
    often exactly 0 or 1, and every gain 0 now and then."""
    rows = []
    for i in range(draw(st.integers(1, 6))):
        c_los = draw(micro_gains())
        share = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.01, 1.0))
        rows.append((i, 0, c_los, c_los * share, draw(micro_probs())))
    rows.sort(key=lambda r: (-r[2], r[0]))
    return link_table(rows)


def assert_block_read_matches_enumeration(table, beta0, eps):
    """The block read, and the outage of the walk's atoms, equal the
    enumerated outage at, and one ulp either side of, every atom, at the
    thresholds >= 0 they read: to 1e-12 with the exact walk, to
    eps + 1e-12 with a truncated one."""
    oracle = uplink_pmf_enumeration(table, beta0)
    on = oracle.values
    ts = np.unique(np.concatenate([on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf)]))
    ts = ts[ts >= 0.0]
    want = [oracle.outage(t) for t in ts]
    np.testing.assert_allclose(block_read(table, beta0, ts, eps), want,
                               rtol=0.0, atol=eps + 1e-12)
    atoms = uplink_snr_pmf(table, beta0, eps)
    np.testing.assert_allclose([atoms.outage(t) for t in ts], want, rtol=0.0, atol=eps + 1e-12)


@settings(max_examples=300, deadline=None)
@example(link_table(MICRO_ROWS), 1.0, 0.0)
@example(link_table(((0, 0, 2.0, 1.0, 0.5), (1, 0, 2.0, 2.0, 0.0), (2, 0, 1.0, 0.5, 1.0))),
         3.0, 0.0)                                            # a tie, p_los 0 and 1
@example(link_table(((0, 0, 0.0, 0.0, 0.3), (1, 0, 0.0, 0.0, 1.0))), 1.0, 0.0)  # no gain
@example(link_table(((0, 0, 1.0, 0.0, 0.5),)), 1.0, 0.0)   # LoS gain, no NLoS gain
@example(link_table(tuple((i, 0, 10.0 - i, 1.0, 0.5) for i in range(5))), 1.0, 0.3)
@given(micro_tables(), st.sampled_from([1.0, 0.3]) | st.floats(1e-3, 1e3),
       st.just(0.0) | st.floats(1e-3, 0.9))
def test_block_read_matches_enumeration(table, beta0, eps):
    assert_block_read_matches_enumeration(table, beta0, eps)


@pytest.mark.parametrize("mutant", [
    # pre read one row late
    lambda snr, stop, ts, count: np.minimum(count(snr, stop, ts) + 1, snr.shape[-1]),
    # rows strictly above the threshold counted
    lambda snr, stop, ts, count: np.minimum(
        np.count_nonzero(snr[..., None, :] > ts[:, None], axis=-1), stop[..., None]),
], ids=["late", "strict"])
def test_block_read_negative_control(monkeypatch, mutant):
    count = coverage._walked_rows_at_or_above
    monkeypatch.setattr(coverage, "_walked_rows_at_or_above",
                        lambda *args: mutant(*args, count))
    with pytest.raises(AssertionError):
        test_block_read_matches_enumeration()


LIT_LAYOUT = build_hex_layout(500.0, 1500.0, 3)
CONES = {beam: dataclasses.replace(default_models()[1], half_beamwidth_deg=beam)
         for beam in (5.0, 45.0)}
# 250 m from the nearest site, under a 5-degree footprint of at most 16 m
DARK = [(250.0, 0.0, 30.0), (250.0, 144.3, 200.0), (-250.0, 0.0, 35.0)]
# straight above site 5, and 1 m above site 0: a lit link in the GBS
# element null, of gain 0
ABOVE = [(LIT_LAYOUT.x[5], LIT_LAYOUT.y[5], 61.0), (0.0, 0.0, 21.0)]
# site 0, at the origin, on the 45-degree footprint's boundary
EDGE = [(CONES[45.0].footprint_radius(h, 20.0), 0.0, h) for h in (100.0, 37.5)]


def assert_lit_block_reads_as_tables(layout, antenna, positions, eps, block_antenna=None,
                                     padded=True):
    """1 - uplink_outage of the lit links of a block of ``positions``
    (``block_antenna``'s, ``antenna``'s by default) equals, bit for bit,
    that of each position's complete table, every link evaluated
    (``complete_table``), at and one ulp either side of every gain times
    beta0 and at a few thresholds between.  Unpadded, the block keeps
    only as many rows as the most lit links of a position."""
    pattern, _, channel_model = default_models()
    beta0 = load_config().beta0
    block = build_lit_links(layout, pattern, block_antenna or antenna, channel_model, positions,
                            20.0)
    if not padded:
        lit = int((block.gbs_id >= 0).sum(axis=-1).max())
        block = LinkTable(*(getattr(block, field.name)[:, :lit]
                            for field in dataclasses.fields(LinkTable)))
    tables = [complete_table(layout, antenna, xyz) for xyz in positions]
    atoms = beta0 * np.concatenate([[1e-3, 1.0, 1e3]] + [np.concatenate([t.c_los, t.c_nlos])
                                                          for t in tables])
    ts = np.unique(np.concatenate([[0.0], atoms, np.nextafter(atoms, -np.inf),
                                   np.nextafter(atoms, np.inf)]))
    ts = ts[ts >= 0.0]
    read = 1.0 - uplink_outage(block, beta0, ts, eps)
    want = np.array([1.0 - uplink_outage(table, beta0, ts, eps) for table in tables])
    assert read.tobytes() == want.tobytes()


@st.composite
def lit_scenes(draw):
    """A hexagonal layout of random spacing, extent and reuse, a UAV cone
    of half-beamwidth 5, 20, 45, 75 or 90 degrees and backlobe 0 or 0.01,
    and 1 to 6 positions at 21-400 m: anywhere over the layout, straight
    above a site (elevation 90: a lit link in the GBS element null), or
    with site 0, at the origin, on the footprint's boundary."""
    isd = draw(st.floats(100.0, 800.0))
    layout = build_hex_layout(isd, draw(st.floats(0.0, 3.0)) * isd,
                              draw(st.sampled_from([1, 3, 4, 7])))
    beam = draw(st.sampled_from([5.0, 20.0, 45.0, 75.0, 90.0]))
    antenna = dataclasses.replace(default_models()[1], half_beamwidth_deg=beam,
                                  backlobe_gain=draw(st.sampled_from([0.0, 0.01])))
    height = st.floats(21.0, 400.0)
    anywhere = st.tuples(st.floats(-4.0 * isd, 4.0 * isd), st.floats(-4.0 * isd, 4.0 * isd),
                         height)
    above = st.tuples(st.integers(0, len(layout) - 1), height).map(
        lambda at: (float(layout.x[at[0]]), float(layout.y[at[0]]), at[1]))

    def edge(h, direction):
        # the 90-degree footprint has no boundary: straight above site 0 then
        radius = antenna.footprint_radius(h, 20.0)
        radius = 0.0 if math.isinf(radius) else radius
        return radius * direction[0], radius * direction[1], h

    on_edge = st.builds(edge, height, st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]))
    return layout, antenna, draw(st.lists(anywhere | above | on_edge, min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@example((LIT_LAYOUT, CONES[5.0], DARK), 0.0)            # no position lights a GBS
@example((LIT_LAYOUT, CONES[45.0], ABOVE + DARK), 1e-6)
@example((LIT_LAYOUT, CONES[45.0], EDGE + ABOVE), 0.0)
@example((LIT_LAYOUT, dataclasses.replace(CONES[45.0], backlobe_gain=0.01), EDGE + DARK), 0.3)
@given(lit_scenes(), st.sampled_from([0.0, 1e-6, 0.3]))
def test_lit_link_blocks_read_as_whole_tables(scene, eps):
    assert_lit_block_reads_as_tables(*scene, eps)


class _StrictCone(UavAntenna):
    """The UAV cone with a strict footprint test: its boundary is out."""

    def gain_at(self, r2, uav_height, gbs_height):
        radius = np.array([self.footprint_radius(h, gbs_height) for h in uav_height])
        inside = np.asarray(r2) < (radius * radius)[:, None]
        return np.where(inside, self.mainlobe_gain, self.backlobe_gain)


def test_lit_link_blocks_negative_controls():
    # a block whose footprint test is strict leaves site 0 unlit on the
    # boundary, where its table serves from it
    cone = CONES[45.0]
    strict = _StrictCone(cone.half_beamwidth_deg, cone.mainlobe_constant, cone.backlobe_gain)
    assert_lit_block_reads_as_tables(LIT_LAYOUT, cone, EDGE, 0.0, block_antenna=cone)
    with pytest.raises(AssertionError):
        assert_lit_block_reads_as_tables(LIT_LAYOUT, cone, EDGE, 0.0, block_antenna=strict)
    # without its padding row a block that lights nothing has no row to
    # walk, which no link table has
    assert_lit_block_reads_as_tables(LIT_LAYOUT, CONES[5.0], DARK, 0.0)
    with pytest.raises(ValueError, match=r"k >= 1 .*, got \(3, 0\)"):
        assert_lit_block_reads_as_tables(LIT_LAYOUT, CONES[5.0], DARK, 0.0, padded=False)


# ---------------------------------------------------------------------------
# Conditional interference
# ---------------------------------------------------------------------------

def event_spec(table, omega, events, e):
    """The interference spec conditioned on event ``e`` of ``events``, its
    stack of one."""
    return conditional_interference_specs(table, omega, [events.serving[e]],
                                          [events.forced[e]])[0]


def test_interference_summand_shapes():
    table = link_table(MICRO_ROWS)
    events = association_pmf(table)
    # event 0: serving 0, nothing forced
    spec = event_spec(table, 0.5, events, 0)
    assert (spec.probs > 0).sum(axis=1).tolist() == [3, 3]
    # the terminal event: serving 0, rows 0 and 1 forced NLoS
    spec = event_spec(table, 0.5, events, -1)
    assert (spec.probs > 0).sum(axis=1).tolist() == [2, 3]
    assert spec.values[0][spec.probs[0] > 0].tolist() == [0.0, 3.0]


def test_interference_mean_oracle():
    table = link_table(MICRO_ROWS)
    omega = np.array([0.3, 0.6, 0.9])
    events = association_pmf(table)
    for e in range(len(events)):
        # MICRO_ROWS lists ids 0, 1, 2 in walk order
        forced = set(range(events.forced[e]))
        spec = event_spec(table, omega, events, e)
        want = 0.0
        for gbs_id, _, c_los, c_nlos, p_los in MICRO_ROWS:
            if gbs_id == table.gbs_id[events.serving[e]]:
                continue
            if gbs_id in forced:
                mean_gain = c_nlos
            else:
                mean_gain = p_los * c_los + (1 - p_los) * c_nlos
            want += omega[gbs_id] * mean_gain
        assert spec.mean() == pytest.approx(want, rel=1e-12)


def test_interferers_are_the_serving_band_without_the_server():
    # bands 0 and 1 interleaved in the walk order; every event's rows must
    # be the other members of its server's band, in ascending id order
    rows = (
        (3, 1, 9.0, 4.5, 0.6),
        (0, 0, 8.0, 4.0, 0.6),
        (4, 1, 6.0, 3.0, 0.5),
        (1, 0, 5.0, 2.5, 0.5),
        (2, 0, 2.0, 1.0, 0.5),
    )
    table = link_table(rows)
    c_nlos = {r[0]: r[3] for r in rows}
    band = {r[0]: r[1] for r in rows}
    events = association_pmf(table)
    served = table.gbs_id[events.serving].tolist()
    assert set(served) == {0, 1, 3, 4}
    for e, gbs in enumerate(served):
        want = sorted(i for i in band if band[i] == band[gbs] and i != gbs)
        spec = event_spec(table, 1.0, events, e)
        assert spec.values[:, 1].tolist() == [c_nlos[i] for i in want]


def test_interference_edge_cases():
    table = link_table(MICRO_ROWS)
    events = association_pmf(table)
    silent = event_spec(table, 0.0, events, 0)
    assert silent.span == 0.0            # omega 0: everyone is off
    with pytest.raises(ValueError):
        event_spec(table, 1.5, events, 0)
    # a GBS alone in its band has no interferer: the zero spec
    alone = link_table(((0, 0, 8.0, 4.0, 0.6), (1, 1, 6.0, 3.0, 0.5)))
    alone_events = association_pmf(alone)
    for e in range(len(alone_events)):
        empty = event_spec(alone, 0.5, alone_events, e)
        assert len(empty) == 0 and empty.span == 0.0 and empty.offset == 0.0
        cdf = la_folds(empty, 1000.0).to_cdf()
        assert cdf.xs.tolist() == [0.0] and cdf.cum.tolist() == [1.0]
    no_server = association_pmf(link_table(((0, 0, 0.0, 0.0, 0.5),)))
    with pytest.raises(ValueError):
        event_spec(table, 0.5, no_server, 0)


def test_interference_refuses_rows_outside_the_table():
    # numpy would read serving row -1 as the last row: the raw arrays are
    # checked against the table's n rows, in a stack and in a stack of one
    table = link_table(MICRO_ROWS)
    n = len(table)
    for serving in (-1, n):
        with pytest.raises(ValueError, match="an event without a serving GBS has no interference law"):
            conditional_interference_specs(table, 0.5, [0, serving], [0, 0])
        with pytest.raises(ValueError, match="an event without a serving GBS"):
            conditional_interference_specs(table, 0.5, [serving], [0])
    for forced in (-1, n + 1):
        with pytest.raises(ValueError, match="forced-NLoS prefix"):
            conditional_interference_specs(table, 0.5, [0, 0], [0, forced])
        with pytest.raises(ValueError, match="forced-NLoS prefix"):
            conditional_interference_specs(table, 0.5, [0], [forced])
    # the ends of both ranges are valid
    assert len(conditional_interference_specs(table, 0.5, [n - 1], [n])[0]) == n - 1


def test_specs_need_one_forced_prefix_per_event():
    # one forced prefix for two events was broadcast to both: a (2, 2, 3)
    # stack, without error
    table = link_table(MICRO_ROWS)
    for serving, forced in (([0, 1], [2]), ([0], [2, 2]), ([[0, 1]], [[2, 2]]), (0, 2)):
        with pytest.raises(ValueError, match=r"one entry per event each, got shapes "
                           rf"{re.escape(str(np.shape(serving)))} and "
                           rf"{re.escape(str(np.shape(forced)))}"):
            conditional_interference_specs(table, 0.5, serving, forced)
    # negative control: one entry per event each builds the stack
    assert conditional_interference_specs(table, 0.5, [0, 1], [2, 0]).values.shape == (2, 2, 3)


# ---------------------------------------------------------------------------
# Stacked interference laws
# ---------------------------------------------------------------------------

def law_bits(lattice):
    """The bytes of a record of one law's offset, scale, pmf and displacement."""
    return tuple(getattr(lattice, name).tobytes()
                 for name in ("offset", "scale", "pmf", "displacement"))


def stacked_laws(table, omega, serving, forced, c0):
    """Each event's law_bits from one la_folds pass over one stack of all
    the events' sums."""
    stack = conditional_interference_specs(table, omega, serving, forced)
    return [law_bits(law) for law in la_folds(stack, c0)]


def single_laws(table, omega, events, stack, c0):
    """Each event's law_bits, built alone: the stack of one."""
    specs = [event_spec(table, omega, events, e) for e in stack]
    return [law_bits(la_folds(spec, c0)) for spec in specs]


def gaining_events(events):
    """The indices of the events with a serving GBS and nonzero gain."""
    return np.flatnonzero((events.serving >= 0) & (events.gain != 0.0))


def event_stacks(table, events, size):
    """The gaining events' indices cut into stacks of up to ``size``
    events, in walk order and grouped by serving band: downlink_snr_cdf
    takes a position's events whole, in one stack of mixed bands, and the
    cuts exercise la_folds on smaller stacks of mixed bands and of one."""
    gaining = gaining_events(events).tolist()
    by_band = {}
    for e in gaining:
        by_band.setdefault(int(table.band[events.serving[e]]), []).append(e)
    return [np.array(run[i:i + size]) for run in [gaining, *by_band.values()]
            for i in range(0, len(run), size)]


@st.composite
def micro_scenes(draw):
    """A link table of 1-8 GBSs in up to 3 bands, gains over six decades
    (the smallest round to the point mass at 0 against the span), LoS
    probabilities including 0 and 1; a loading of 0, 1, 0.5 or one per
    GBS; and a lattice target from 1 (most rows round to 0) to 1000."""
    rows = []
    n = draw(st.integers(1, 8))
    for gbs in range(n):
        c_los = draw(st.sampled_from([0.0, 1e-5, 0.02, 0.5, 1.0, 3.0, 10.0]))
        c_los *= draw(st.floats(1.0, 2.0))
        c_nlos = c_los * draw(st.sampled_from([0.0, 0.05, 0.3, 0.9]))
        rows.append((gbs, draw(st.integers(0, 2)), c_los, c_nlos,
                     draw(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]))))
    rows.sort(key=lambda r: (-r[2], r[0]))
    omega = draw(st.one_of(
        st.sampled_from([0.0, 1.0, 0.5]),
        st.lists(st.sampled_from([0.0, 0.2, 0.7, 1.0]), min_size=n, max_size=n).map(np.array),
    ))
    return rows, omega, draw(st.sampled_from([1.0, 5.0, 40.0, 1000.0]))


# Scenes that force each case the property must cover.  Band 0 has six
# GBSs, so its events have K = 5 rows, and the walk forces a growing
# prefix of them into NLoS; at c0 = 40 the forced rows' ranges round to
# 0, so events of one stack keep 5, 4, 3 ... live rows (g = 4 and g < 4).
# GBS 6 is alone in band 2 and serves an event; bands 1 and 2 serve too.
MIXED_ROWS = (
    (0, 0, 10.0, 0.5, 0.5), (1, 0, 9.0, 0.4, 0.5), (6, 2, 8.5, 0.3, 0.6),
    (2, 0, 8.0, 0.3, 0.5), (7, 1, 7.0, 0.3, 0.5), (3, 0, 6.0, 0.2, 0.5),
    (8, 1, 5.0, 0.2, 0.5), (4, 0, 4.0, 0.1, 0.5), (5, 0, 3.0, 2.0, 0.5),
)
# Band 0 has two strong GBSs and 28 weak ones, band 1 two strong ones.
# At c0 = 1000 the LoS event of GBS 0 has 29 live rows on N = 1024: its
# 28 weak rows, tops up to 5, are a light tail inverted on N/4, and GBS 1,
# top 903, is the head.  The other events fold without a split.
SPLIT_ROWS = tuple(sorted(
    ((0, 0, 10.0, 0.5, 0.5), (1, 0, 9.0, 0.4, 0.5), (30, 1, 8.0, 0.3, 0.5),
     (31, 1, 7.0, 0.2, 0.5), *((i, 0, 0.05 - 0.001 * i, 0.01, 0.5) for i in range(2, 30))),
    key=lambda row: (-row[2], row[0])))
STACK_EXAMPLES = (
    (MIXED_ROWS, 0.6, 40.0),
    (MIXED_ROWS, 0.0, 1000.0),                    # loading 0: zero spans
    (MIXED_ROWS, 1.0, 1000.0),                    # loading 1
    (MIXED_ROWS, np.linspace(0.0, 1.0, 9), 1.0),  # every row rounds to 0
    # band 0's tops run 1023, 1024, 1024, 1022, 1024, 1023, 1023: lattice
    # lengths 1024 and 2048 alternate within one stack
    (MIXED_ROWS, 0.6, 1023.5),
    (SPLIT_ROWS, 0.6, 1000.0),
)

# la_folds inverts one spec a chunk, whole stacks in one chunk, and the default
CHUNK_SIZES = (1, 2**30, gpm.CHUNK_ENTRIES)


def check_stacks(rows, omega, c0, size):
    table = link_table(rows)
    events = association_pmf(table)
    want = single_laws(table, omega, events, gaining_events(events), c0)
    for chunk in CHUNK_SIZES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gpm, "CHUNK_ENTRIES", chunk)
            for stack in event_stacks(table, events, size):
                assert stacked_laws(table, omega, events.serving[stack], events.forced[stack],
                                    c0) == single_laws(table, omega, events, stack, c0)
            # the whole law, whatever the stacks and chunks it builds
            model = downlink_snr_cdf(table, omega, 0.1, c0=c0)
        assert [law_bits(law) for law in model.laws] == want


@settings(max_examples=120, deadline=None)
@given(micro_scenes(), st.integers(1, 9))
@example(STACK_EXAMPLES[0], 9)
@example(STACK_EXAMPLES[0], 2)
@example(STACK_EXAMPLES[1], 9)
@example(STACK_EXAMPLES[2], 9)
@example(STACK_EXAMPLES[3], 9)
@example(STACK_EXAMPLES[4], 9)
@example(STACK_EXAMPLES[4], 3)
@example(STACK_EXAMPLES[5], 9)
@example(STACK_EXAMPLES[5], 2)
def test_stacked_laws_equal_single_event_laws(scene, size):
    check_stacks(*scene, size)


def test_stack_examples_cover_every_case(monkeypatch):
    split = []
    light_tail = gpm._light_tail
    monkeypatch.setattr(gpm, "_light_tail", lambda *args: split.append(1) or light_tail(*args))
    seen = set()
    for rows, omega, c0 in STACK_EXAMPLES:
        table = link_table(rows)
        w = np.broadcast_to(omega, (len(table),))
        if (w == 0).all():
            seen.add("loading 0")
        elif (w == 1).all():
            seen.add("loading 1")
        events = association_pmf(table)
        gaining = gaining_events(events)
        if len(set(table.band[events.serving[gaining]].tolist())) > 1:
            seen.add("mixed bands in one stack")
        if (events.forced[gaining] > 0).any():
            seen.add("forced NLoS prefix")
        specs = [event_spec(table, omega, events, e) for e in gaining]
        if any(len(spec) == 0 for spec in specs):
            seen.add("lone GBS")
        live = []
        for spec in specs:
            ranges = np.ptp(spec.values, axis=1)
            beta = c0 / spec.span if spec.span else 0.0
            live.append(int((np.floor(beta * ranges + 0.5) > 0).sum()))
            if ((ranges > 0) & (beta * ranges < 0.5)).any():
                seen.add("rows rounded to 0")
        if len({min(c, 4) for c in live if c}) > 1:
            seen.add("different g in one stack")
        stack = conditional_interference_specs(table, omega, events.serving[gaining],
                                               events.forced[gaining])
        split.clear()
        if len({law.pmf.size > 1024 for law in la_folds(stack, c0)}) > 1:
            seen.add("two lattice lengths in one stack")
        if split:
            seen.add("tail split")
    assert seen == {"loading 0", "loading 1", "mixed bands in one stack", "lone GBS",
                    "forced NLoS prefix", "rows rounded to 0", "different g in one stack",
                    "two lattice lengths in one stack", "tail split"}


def test_stacked_law_negative_controls():
    rows, omega, c0 = STACK_EXAMPLES[0]
    table = link_table(rows)
    events = association_pmf(table)
    stack = gaining_events(events)
    want = single_laws(table, omega, events, stack, c0)
    serving, forced = events.serving[stack], events.forced[stack]
    assert stacked_laws(table, omega, serving, forced, c0) == want
    # one event's forced prefix one row shorter (a LoS event's prefix ends
    # at its own row, so one row longer would reach the server): its law moves
    shifted = forced.copy()
    shifted[1] -= 1
    with pytest.raises(AssertionError):
        assert stacked_laws(table, omega, serving, shifted, c0) == want
    # two events' sums swapped within the stack
    swapped = np.arange(len(stack))
    swapped[[0, 2]] = swapped[[2, 0]]
    with pytest.raises(AssertionError):
        assert stacked_laws(table, omega, serving[swapped], forced[swapped], c0) == want
    # the stack mixes bands: an event handed another band's members, here
    # by moving its server (GBS 6, alone in band 2) into band 1, moves
    assert table.band[serving[2]] == 2 and table.gbs_id[serving[2]] == 6
    moved = link_table(tuple((i, 1 if i == 6 else band, *rest) for i, band, *rest in rows))
    got = stacked_laws(moved, omega, serving, forced, c0)
    assert got[:2] == want[:2]
    with pytest.raises(AssertionError):
        assert got[2] == want[2]


def test_empty_stacks():
    # no events build the (0, 0, 3) stack by the general path, which folds
    # to a record of no laws, read as an empty (0, T) array
    table = link_table(MIXED_ROWS)
    empty = conditional_interference_specs(table, 0.5, [], [])
    assert empty.values.shape == empty.probs.shape == (0, 0, 3)
    assert (empty.offset.shape, empty.span.shape) == ((0,), (0,))
    laws = la_folds(empty, 1000.0)
    assert len(laws) == 0 and list(laws) == [] and list(empty) == []
    for left in (False, True):
        assert laws.cdf(np.zeros((0, 4)), left=left).shape == (0, 4)
    # negative controls: the empty record still refuses an x with a row,
    # and a stack of one event reads one row
    with pytest.raises(ValueError, match=r"x must be an \(E, T\) array, E = 0"):
        laws.cdf(np.zeros((1, 4)))
    one = la_folds(conditional_interference_specs(table, 0.5, [0], [0]), 1000.0)
    assert one.cdf(np.zeros((1, 4))).shape == (1, 4)
    with pytest.raises(ValueError, match="c0 must be >= 1"):
        la_folds(empty, 0.5)


def test_silent_sums_invert_on_one_point_like_any_other(monkeypatch):
    # at loading 0 every interferer row is the point mass at 0: a sum with
    # no live rows has N = 1, and its chunk inverts one point-mass row on
    # n = 1 as any other chunk is inverted, alone and between sums of
    # other N, whatever the chunk size
    table = link_table(MIXED_ROWS)
    events = association_pmf(table)
    gaining = gaining_events(events)
    serving, forced = events.serving[gaining], events.forced[gaining]
    silent = conditional_interference_specs(table, 0.0, serving, forced)
    busy = conditional_interference_specs(table, 0.6, serving, forced)
    # silent and busy sums alternate in one stack
    shape = (-1,) + silent.values.shape[1:]
    mixed = GpmSpec(np.stack([silent.values, busy.values], axis=1).reshape(shape),
                    np.stack([silent.probs, busy.probs], axis=1).reshape(shape))
    lengths = []
    invert = gpm.lattice_invert
    monkeypatch.setattr(gpm, "lattice_invert",
                        lambda mass, n, points: lengths.append(n) or invert(mass, n, points))
    for chunk in CHUNK_SIZES:
        monkeypatch.setattr(gpm, "CHUNK_ENTRIES", chunk)
        for stack, every in ((silent, 1), (mixed, 2)):
            lengths.clear()
            laws = la_folds(stack, 40.0)
            assert 1 in lengths
            for law in list(laws)[::every]:
                assert (law.offset.tolist(), law.scale.tolist(), law.top.tolist(),
                        law.pmf.tolist(), law.displacement.tolist()) == (
                            [0.0], [1.0], [0], [[1.0]], [0.0])
            assert not laws.pmf[::every, 1:].any()
        # each busy sum keeps the law of its stack of one
        busy_laws = list(la_folds(mixed, 40.0))[1::2]
        assert [law_bits(law) for law in busy_laws] == [
            law_bits(la_folds(spec, 40.0)) for spec in busy]
        # on lattices longer than one point (GBS 6, alone in band 2, has none)
        assert sum(law.top[0] > 0 for law in busy_laws) == len(busy_laws) - 1
    # negative control: the point mass comes out of the inversion, not a
    # branch around it; with no mass from n = 1 the laws fail their check
    monkeypatch.setattr(gpm, "lattice_invert",
                        lambda mass, n, points: invert(mass, n, points) * (n > 1))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="pmf must be"):
        la_folds(silent, 40.0)


def test_downlink_builds_one_stack_per_position(monkeypatch):
    cfg = load_config()
    table = configured_table(cfg, (120.0, 40.0, 100.0))
    eps = cfg.association_epsilon
    calls = []
    build = coverage.conditional_interference_specs

    def counted(table, omega, serving, forced):
        calls.append(list(zip(serving.tolist(), forced.tolist())))
        return build(table, omega, serving, forced)

    monkeypatch.setattr(coverage, "conditional_interference_specs", counted)
    downlink_snr_cdf(table, cfg.loading, cfg.alpha0, eps=eps, c0=cfg.lattice_target_c0)
    events = association_pmf(table, eps)
    gaining = gaining_events(events)
    served = table.band[events.serving[gaining]].tolist()
    assert len(gaining) > 20 and len(set(served)) > 1
    # one call for the position, every gaining event in it in event order,
    # whatever band serves it
    assert calls == [list(zip(events.serving[gaining].tolist(), events.forced[gaining].tolist()))]


def stepped_mixture(model, ys, strict):
    """P{snr <= y} (P{snr < y} when ``strict``) of ``model`` by the per-term
    loop over each law's stepped cdf (``to_cdf``), adding the terms one by
    one in event order."""
    out = np.zeros(ys.shape)
    mass = 0.0
    laws = iter(model.laws)
    for probability, gain in zip(model.probability.tolist(), model.gain.tolist()):
        mass += probability
        if gain == 0.0:
            out += probability
            continue
        with np.errstate(over="ignore"):
            c = gain / ys - model.alpha0
        cdf = next(laws).to_cdf()
        out += probability * (1.0 - (cdf.eval(c) if strict else cdf.eval_left(c)))
    assert next(laws, None) is None
    return np.clip(out / mass, 0.0, 1.0)


def snr_probes(model):
    """The snr at which each event's c = C / y - alpha0 meets each jump of
    its law, their float neighbours, and a log grid around them."""
    ys = [np.geomspace(1e-3, 1e3, 25)]
    for law, gain in zip(model.laws, model.gain[model.gain != 0.0].tolist()):
        xs = law.to_cdf().xs
        with np.errstate(divide="ignore"):
            y = gain / (xs[::max(1, xs.size // 40)] + model.alpha0)
        y = y[np.isfinite(y) & (y > 0)]
        ys += [y, np.nextafter(y, 0.0), np.nextafter(y, np.inf)]
    return np.unique(np.concatenate(ys))


def assert_mixture_reads_stepped_laws(model, ys):
    for strict, read in ((False, model.eval), (True, model.eval_left)):
        many = read(ys)
        assert many.tobytes() == stepped_mixture(model, ys, strict).tobytes()
        # one threshold at a time: its column of the many-threshold read
        some = slice(None, None, max(1, ys.size // 100))
        assert [read(y) for y in ys[some]] == many[some].tolist()


@settings(max_examples=100, deadline=None)
@given(micro_scenes())
@example(STACK_EXAMPLES[0])
@example(STACK_EXAMPLES[4])
def test_in_place_read_equals_stepped_cdfs(scene):
    # every event's law read in place equals its to_cdf stepped cdf bit
    # for bit, at every lattice point, just off it, below the offset and
    # at +-inf
    rows, omega, c0 = scene
    model = downlink_snr_cdf(link_table(rows), omega, 0.1, c0=c0)
    laws = list(model.laws)
    if laws:
        assert_reads_stepped_cdfs(laws, in_place_probes(laws))
    assert_mixture_reads_stepped_laws(model, snr_probes(model))


def test_mixture_builds_its_running_sums_once(monkeypatch):
    built = counted_mixture_builds(monkeypatch)
    model = downlink_snr_cdf(link_table(MICRO_ROWS), 0.5, 0.5, c0=960.0)
    ys = np.geomspace(0.1, 20.0, 51)
    first = model.eval(ys)
    model.eval_left(ys), model.outage(ys), model.eval(float(ys[3]))
    assert model.eval(ys).tobytes() == first.tobytes()
    assert built == [3]     # one law per event: two LoS, one terminal
    # another law object over the same record reads the record's running
    # sums, built once; a new record of the same laws builds its own
    again = DownlinkSnrCdf(model.probability, model.gain, model.laws, model.alpha0)
    assert again.eval(ys).tobytes() == first.tobytes()
    assert built == [3]
    copied = dataclasses.replace(model.laws)
    assert DownlinkSnrCdf(model.probability, model.gain, copied,
                          model.alpha0).eval(ys).tobytes() == first.tobytes()
    assert built == [3, 3]


def test_many_event_mixture_adds_events_in_order():
    # 30 to 60 events in one band, more than a pairwise sum adds in order
    rng = np.random.default_rng(97)
    for n in (30, 45, 60):
        # LoS gains above every NLoS gain: the walk serves each row in LoS
        table = link_table(tuple(
            (i, 0, 10.0 - 0.1 * i, float(rng.uniform(0.01, 0.05)), float(rng.uniform(0.05, 0.2)))
            for i in range(n)))
        model = downlink_snr_cdf(table, 0.5, 0.1, c0=300.0)
        assert len(model.probability) == n + 1
        ys = snr_probes(model)
        assert_mixture_reads_stepped_laws(model, ys)
        assert model.outage(ys[::50]).tolist() == [model.outage(y) for y in ys[::50]]


def test_each_law_passes_through_the_per_event_functions(monkeypatch):
    # downlink_snr_cdf builds specs and folds one stack per position, but hands
    # every gaining event's spec and law through the seams
    # conditional_interference_spec and la_cdf, one event per call, in
    # event order, and each returns what it is handed
    table = link_table(MIXED_ROWS)
    events = association_pmf(table)
    gaining = gaining_events(events)
    seen = []

    def spy(name, fn):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen.append((name, args, result))
            return result
        return call

    monkeypatch.setattr(coverage, "conditional_interference_spec",
                        spy("spec", conditional_interference_spec))
    monkeypatch.setattr(coverage, "la_cdf", spy("law", la_cdf))
    model = downlink_snr_cdf(table, 0.6, 0.1, c0=40.0)
    assert [name for name, _, _ in seen] == ["spec", "law"] * len(gaining)
    assert all(args == (result,) for _, args, result in seen[::2])
    specs = [result for _, _, result in seen[::2]]
    assert all(args[0] is spec for (_, args, _), spec in zip(seen[1::2], specs))
    # each spec is its event's row of the position's stack, bit for bit:
    # K rows, one less than the largest band, silent padding included
    stack = conditional_interference_specs(table, 0.6, events.serving[gaining],
                                           events.forced[gaining])
    k = int(np.bincount(table.band).max()) - 1
    assert len(specs) == len(stack)
    # its first K_e rows are the event's stack of one, the rest point
    # masses at 0, which add nothing to its offset and span
    padded = 0
    for spec, row, e in zip(specs, stack, gaining):
        assert len(spec) == k
        assert (spec.values.tobytes(), spec.probs.tobytes(), spec.offset, spec.span) == (
            row.values.tobytes(), row.probs.tobytes(), row.offset, row.span)
        alone = event_spec(table, 0.6, events, e)
        own = len(alone)
        padded += own < k
        assert (spec.values[:own].tobytes(), spec.probs[:own].tobytes(), spec.offset,
                spec.span) == (alone.values.tobytes(), alone.probs.tobytes(), alone.offset,
                               alone.span)
        assert not spec.values[own:].any() and (spec.probs[own:, 0] == 1.0).all()
    assert padded > 0
    # each la_cdf call returned its event's law of the model's record: a
    # view on its row, no copy, bit for bit what indexing the record reads
    laws = [result for _, args, result in seen[1::2] if result is args[1]]
    assert len(laws) == len(model.laws)
    for e, lattice in enumerate(laws):
        row = model.laws[e]
        assert np.shares_memory(lattice.pmf, model.laws.pmf[e])
        assert law_bits(lattice) == law_bits(row) == law_bits(lattice[0])
    # negative control: laws handed on in another order are not the rows
    assert not np.shares_memory(laws[0].pmf, model.laws.pmf[1])


# ---------------------------------------------------------------------------
# Downlink
# ---------------------------------------------------------------------------

def test_downlink_matches_joint_enumeration_scalar_omega():
    table = link_table(MICRO_ROWS)
    model = downlink_snr_cdf(table, 0.5, 0.5, c0=960.0)
    oracle = joint_downlink_oracle(table, 0.5, 0.5)
    assert_matches_stepped(model, oracle)


def test_downlink_matches_joint_enumeration_mapped_omega():
    table = link_table(MICRO_ROWS)
    omega = np.array([0.3, 0.6, 0.9])
    model = downlink_snr_cdf(table, omega, 0.5, c0=960.0)
    oracle = joint_downlink_oracle(table, omega, 0.5)
    assert_matches_stepped(model, oracle)


def test_downlink_zero_loading_equals_interference_free():
    # with nobody transmitting the downlink cdf is the uplink atom cdf
    # under beta0 = 1 / alpha0
    table = link_table(MICRO_ROWS)
    alpha0 = 0.25
    model = downlink_snr_cdf(table, 0.0, alpha0, c0=1000.0)
    atoms = uplink_snr_pmf(table, 1.0 / alpha0)
    for lo, hi in zip(atoms.values[:-1], atoms.values[1:]):
        mid = math.sqrt(lo * hi)
        assert model.eval(mid) == pytest.approx(
            float(atoms.probs[atoms.values <= mid].sum()), abs=1e-12
        )
        assert model.outage(mid) == pytest.approx(
            atoms.outage(mid), abs=1e-12
        )


def test_downlink_eval_left_is_the_left_limit():
    # the micro table's lattices are exact and its snr atoms invert to
    # their interference values, so both one-sided limits match the
    # oracle at every jump
    table = link_table(MICRO_ROWS)
    model = downlink_snr_cdf(table, 0.5, 0.5, c0=960.0)
    oracle = joint_downlink_oracle(table, 0.5, 0.5)
    np.testing.assert_allclose(model.eval(oracle.xs), oracle.eval(oracle.xs), atol=1e-12)
    np.testing.assert_allclose(
        model.eval_left(oracle.xs), oracle.eval_left(oracle.xs), atol=1e-12
    )
    assert all(model.outage(x) == model.eval_left(x) for x in oracle.xs)
    assert kolmogorov_distance(oracle, model) <= 1e-12


def test_downlink_outage_monotone_in_loading():
    table = link_table(MICRO_ROWS)
    threshold = 3.0
    outages = [
        downlink_snr_cdf(table, w, 0.5, c0=960.0).outage(threshold)
        for w in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    assert outages == sorted(outages)
    assert outages[-1] > outages[0]


def test_downlink_cdf_monotone_in_threshold():
    table = link_table(MICRO_ROWS)
    model = downlink_snr_cdf(table, 0.4, 0.5, c0=960.0)
    grid = np.geomspace(1e-2, 1e2, 301)    # snr lies in [4/8.5, 16]
    vals = model.eval(grid)
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[0] == 0.0 and vals[-1] == 1.0


def test_downlink_scale_invariance_binary_exact():
    # scaling gains and alpha0 by a power of two changes no rounding
    kappa = 1024.0
    table = link_table(MICRO_ROWS)
    scaled = LinkTable(
        table.gbs_id, table.band, table.c_los * kappa, table.c_nlos * kappa, table.p_los
    )
    a = downlink_snr_cdf(table, 0.5, 0.5, c0=960.0)
    b = downlink_snr_cdf(scaled, 0.5, 0.5 * kappa, c0=960.0)
    for y in (0.3, 1.0, 2.7, 5.0, 11.0):
        assert a.outage(y) == b.outage(y)
        assert a.eval(y) == b.eval(y)


def test_downlink_zero_gain_term():
    table = link_table(((0, 0, 0.0, 0.0, 0.5),))
    model = downlink_snr_cdf(table, 0.5, 1.0, c0=1000.0)
    assert model.eval(1e-6) == 1.0
    assert model.outage(123.0) == 1.0


def test_position_that_lights_no_gbs(tmp_path):
    # a 5-degree UAV beam over the 7-site scene lights no GBS: the one
    # event has no gain and no law, and the SNR is 0 surely
    cfg = load_scenario(tmp_path, "[layout]\nradius_m = 500\n"
                                  "[uav_antenna]\nhalf_beamwidth_deg = 5\n")
    table = configured_table(cfg, (cfg.uav_x, cfg.uav_y, cfg.uav_altitude))
    model = downlink_snr_cdf(table, cfg.loading, cfg.alpha0, c0=cfg.lattice_target_c0)
    assert table.c_los.max() == 0.0 and model.gain.tolist() == [0.0]
    assert len(model.laws) == 0
    ts = np.geomspace(1e-9, 1e9, 19)
    assert model.outage(ts).tolist() == [1.0] * 19
    assert model.eval(0.0) == 1.0 and model.eval_left(0.0) == model.outage(0.0) == 0.0
    # negative controls: a law-carrying event reads none of its mass at
    # y = 0, and the mass of the SNR-0 events is read, not a constant
    lit = downlink_snr_cdf(link_table(MICRO_ROWS), 0.5, 0.5, c0=960.0)
    assert len(lit.laws) > 0 and lit.eval(0.0) == 0.0
    half = downlink_snr_cdf(link_table(NO_NLOS_ROWS), 0.5, 0.1, c0=1000.0)
    assert half.eval(0.0) == 0.25 and half.eval_left(0.0) == 0.0
    assert half.outage(1e-12) == 0.25


# LoS gain but no NLoS gain: when both rows are NLoS the SNR is 0, else the
# LoS row of largest gain serves; the interferer's lattice is exact
NO_NLOS_ROWS = ((0, 0, 1.0, 0.0, 0.5), (1, 0, 0.5, 0.0, 0.5))


def test_downlink_without_nlos_gain_matches_enumeration():
    table = link_table(NO_NLOS_ROWS)
    model = downlink_snr_cdf(table, 0.5, 0.1, c0=1000.0)
    oracle = downlink_cdf_enumeration(table, 0.5, 0.1)
    ys = np.array([1.0, 3.0])
    assert oracle.eval_left(ys).tolist() == [0.25, 0.375]
    np.testing.assert_allclose(model.outage(ys), oracle.eval_left(ys), rtol=0.0, atol=1e-12)
    xs = oracle.xs[oracle.xs > 0.0]
    np.testing.assert_allclose(model.eval(xs), oracle.eval(xs), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(model.eval_left(xs), oracle.eval_left(xs), rtol=0.0, atol=1e-12)


def test_zero_nlos_shortcut_negative_control(monkeypatch):
    """The no-gain event for any table without NLoS gain, and the block
    read's [t > 0] for such a table, each fail the oracle tests."""
    walk = coverage.association_pmf

    def shortcut_walk(table, eps=0.0):
        if table.c_nlos.max() == 0.0:
            return AssociationEvents([1.0], [0.0], [-1], [0], [False])
        return walk(table, eps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coverage, "association_pmf", shortcut_walk)
        with pytest.raises(AssertionError):
            test_downlink_without_nlos_gain_matches_enumeration()
        with pytest.raises(AssertionError):
            test_block_read_matches_enumeration()     # the walk's atoms
    read = coverage.uplink_outage

    def shortcut_read(table, beta0, thresholds, eps=0.0):
        no_nlos = np.max(table.c_nlos, axis=-1, keepdims=True) == 0.0
        return np.where(no_nlos, np.asarray(thresholds) > 0.0,
                        read(table, beta0, thresholds, eps))

    monkeypatch.setattr(coverage, "uplink_outage", shortcut_read)
    with pytest.raises(AssertionError):
        test_block_read_matches_enumeration()         # the block read


def test_downlink_laws_carry_their_displacement():
    # each law's displacement is M / (2 beta) = M span / (2 c0) of the sum
    # its event conditions, M its interferers of nonzero gain: a zero-gain
    # row (value 0 whether active or not) is not moved by the rounding
    rng = np.random.default_rng(3141)
    zero_gain_rows = 0
    for _ in range(20):
        table = random_link_table(rng, int(rng.integers(1, 9)), n_bands=2)
        model = downlink_snr_cdf(table, 0.5, 0.1, c0=500.0)
        events = association_pmf(table)
        want = []
        for e in gaining_events(events):
            spec = event_spec(table, 0.5, events, e)
            moved = int(np.count_nonzero(spec.values.max(axis=1)))
            zero_gain_rows += len(spec) - moved
            want.append(moved * spec.span / (2.0 * 500.0))
        assert model.laws.displacement.tolist() == want
    assert zero_gain_rows > 0
    silent = downlink_snr_cdf(link_table(((0, 0, 0.0, 0.0, 0.5),)), 0.5, 1.0, c0=1000.0)
    assert (len(silent.laws), silent.laws.displacement.max(initial=0.0)) == (0, 0.0)


def test_mixture_envelope_is_alpha0_moved_by_the_largest_displacement():
    # the pair validate --mode downlink-vs-joint-enum built by hand: the
    # mixture at alpha0 -/+ s, s the largest displacement widened by 1e-9
    # relative, on the same laws
    rng = np.random.default_rng(4040)
    ys = np.geomspace(1e-3, 1e3, 61)
    widest = 0.0
    for _ in range(10):
        table = random_link_table(rng, int(rng.integers(2, 6)), n_bands=2)
        model = downlink_snr_cdf(table, 0.5, 0.1, c0=500.0)
        s = float(model.laws.displacement.max(initial=0.0)) * (1.0 + 1e-9)
        widest = max(widest, s)
        for got, want in zip(model.envelope(), (dataclasses.replace(model, alpha0=0.1 - s),
                                                dataclasses.replace(model, alpha0=0.1 + s))):
            assert got.alpha0 == want.alpha0 and got.laws is model.laws
            assert got.probability is model.probability and got.gain is model.gain
            for read in ("eval", "eval_left"):
                assert getattr(got, read)(ys).tobytes() == getattr(want, read)(ys).tobytes()
    assert widest > 0.0
    # a mixture of no laws has an envelope of zero width
    silent = downlink_snr_cdf(link_table(((0, 0, 0.0, 0.0, 0.5),)), 0.5, 1.0, c0=1000.0)
    assert [side.alpha0 for side in silent.envelope()] == [1.0, 1.0]


def test_silent_interferer_is_not_displaced(tmp_path, capsys):
    # GBS 1 of the 7-site scene never transmits: every event of its band
    # but its own has one row that is the point mass at 0, which rounding
    # cannot move, so its displacement is (K - 1) span / (2 c0), one
    # span / (2 c0) below the K span / (2 c0) that counts every row
    body = "[layout]\nradius_m = 500\n[algorithm]\nlattice_target_c0 = 200\n"
    cfg = load_scenario(tmp_path, body + "[loading]\nomega_site_1 = 0\n")
    table = build_link_table(cfg.build_layout(), cfg.build_gbs_pattern(), cfg.build_uav_antenna(),
                             cfg.build_channel(), (cfg.uav_x, cfg.uav_y, cfg.uav_altitude),
                             cfg.gbs_height)
    model = downlink_snr_cdf(table, cfg.loading, cfg.alpha0, c0=200.0)
    events = association_pmf(table)
    gaining = gaining_events(events)
    specs = [event_spec(table, cfg.loading, events, e) for e in gaining]
    served = table.gbs_id[events.serving[gaining]]
    joins = (table.band[events.serving[gaining]] == table.band[table.gbs_id == 1]) & (served != 1)
    assert 0 < joins.sum() < len(gaining)
    moved = [len(spec) - int(join) for spec, join in zip(specs, joins)]
    want = [m * spec.span / (2.0 * 200.0) for m, spec in zip(moved, specs)]
    assert model.laws.displacement.tolist() == want
    # negative control: counting the silent row as moved reads every row
    counted = [len(spec) * spec.span / (2.0 * 200.0) for spec in specs]
    assert [a != b for a, b in zip(counted, want)] == joins.tolist()
    # the joint enumeration still lies within the narrower envelope
    assert main(["validate", "--config", str(tmp_path / "scenario.ini"), "--out",
                 str(tmp_path), "--mode", "downlink-vs-joint-enum"]) == 0
    assert "PASS downlink-vs-joint-enum" in capsys.readouterr().out


def test_outage_is_exact_at_both_ends():
    # in float arithmetic these probabilities add up to 1 - 2^-53
    pmf = UplinkSnrPmf(np.array([1.0, 2.0, 3.0]), np.array([0.7, 0.2, 0.1]))
    assert pmf.outage(10.0) == 1.0 and pmf.outage(0.5) == 0.0
    rng = np.random.default_rng(2718)
    for _ in range(30):
        table = random_link_table(rng, int(rng.integers(2, 9)), n_bands=2, zero_row_prob=0.0)
        for model in (uplink_snr_pmf(table, 1.0), downlink_snr_cdf(table, 0.5, 0.1, c0=1000.0)):
            assert model.outage(1e-12) == 0.0      # every atom above the threshold
            assert model.outage(1e12) == 1.0       # every atom below it
        assert block_read(table, 1.0, [1e-12, 1e12], 0.0).tolist() == [0.0, 1.0]


def test_downlink_grid_and_validation():
    table = link_table(MICRO_ROWS)
    model = downlink_snr_cdf(table, 0.5, 0.5, c0=960.0)
    grid = np.geomspace(0.1, 20.0, 51)
    vals = model.eval(grid)
    assert vals.shape == model.eval_left(grid).shape == (51,)
    assert [model.eval(y) for y in grid[::10]] == vals[::10].tolist()
    # every event carries a law, so no SNR is 0: C / 0 reads I >= inf
    assert model.eval(0.0) == model.eval_left(0.0) == model.outage(0.0) == 0.0
    assert model.eval(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    for bad in (-1.0, -5e-324, np.array([1.0, math.nan])):
        with pytest.raises(ValueError, match=r"y >= 0 only"):
            model.outage(bad)
        with pytest.raises(ValueError, match=r"y >= 0 only"):
            model.eval(bad)
    with pytest.raises(ValueError):
        downlink_snr_cdf(table, 0.5, 0.0, c0=1000.0)
    # NaN passed `alpha0 <= 0` and read outage 1 at every threshold
    with pytest.raises(ValueError, match="alpha0 must be positive, got nan"):
        downlink_snr_cdf(table, 0.5, math.nan, c0=1000.0)
    # the lattice target comes from [algorithm] lattice_target_c0 only
    with pytest.raises(TypeError, match="c0"):
        downlink_snr_cdf(table, 0.5, 0.5)


def test_downlink_truncation_outage_bound():
    table = link_table(tuple(
        (i, 0, 10.0 - i, 1.0, 0.3) for i in range(6)
    ))
    exact = downlink_snr_cdf(table, 0.5, 0.5, c0=960.0)
    for eps in (1e-3, 0.05):
        cut = downlink_snr_cdf(table, 0.5, 0.5, eps=eps, c0=960.0)
        for y in (0.5, 2.0, 8.0):
            assert abs(cut.outage(y) - exact.outage(y)) <= eps + 1e-12


# ---------------------------------------------------------------------------
# Lit tables against tables of every link
# ---------------------------------------------------------------------------

def without_row(table, row):
    """``table`` with its row ``row`` left out and a padding row added at
    the tail."""
    keep = np.arange(len(table)) != row
    return LinkTable(*(np.append(getattr(table, field.name)[keep], pad)
                       for field, pad in zip(dataclasses.fields(LinkTable),
                                             (-1, -1, 0.0, 0.0, 0.0))))


def lit_and_complete_tables(layout, antenna, xyz, drop=None):
    """The lit table :func:`build_link_table` builds at ``xyz``, its row
    ``drop`` left out if one is named, and the table of every link there
    (``complete_table``), the unlit ones listed as links of gain 0."""
    pattern, _, channel_model = default_models()
    lit = build_link_table(layout, pattern, antenna, channel_model, xyz, 20.0)
    if drop is not None:
        lit = without_row(lit, drop)
    return lit, complete_table(layout, antenna, xyz)


def assert_lit_table_reads_as_complete(layout, antenna, xyz, omega, eps, drop=None):
    """The downlink outage of the lit table at ``xyz`` equals, bit for
    bit, that of the table of every link, at y = 0 and at every read point
    of either model's laws and one ulp either side of it (``snr_probes``)."""
    cfg = load_config()
    models = [downlink_snr_cdf(table, omega, cfg.alpha0, eps=eps, c0=cfg.lattice_target_c0)
              for table in lit_and_complete_tables(layout, antenna, xyz, drop)]
    ys = np.unique(np.concatenate([[0.0]] + [snr_probes(model) for model in models]))
    lit, complete = (model.outage(ys) for model in models)
    assert lit.tobytes() == complete.tobytes()


@st.composite
def loaded_lit_scenes(draw):
    """A scene of ``lit_scenes`` and its loading: one factor for every
    GBS, or one per site, some of them exactly 0 or 1."""
    layout, antenna, positions = draw(lit_scenes())
    factor = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    per_site = st.lists(factor, min_size=len(layout), max_size=len(layout)).map(np.array)
    return layout, antenna, positions, draw(factor | per_site)


# one band of 7 sites: the joint enumeration of a table of every link
# stays within its state cap and fast
ONE_BAND = build_hex_layout(500.0, 500.0, 1)
# a 672 m footprint from between site 0 and site 7, of its band: both lit,
# with 4 more of the 37 sites
WIDE_CONE = dataclasses.replace(default_models()[1], half_beamwidth_deg=75.0)
BETWEEN = (433.0, 250.0, 200.0)


@settings(max_examples=60, deadline=None)
@example((LIT_LAYOUT, WIDE_CONE, [BETWEEN], np.linspace(0.1, 0.9, len(LIT_LAYOUT))), 0.0)
@example((LIT_LAYOUT, CONES[45.0], EDGE + ABOVE + DARK, 0.5), 1e-6)
@example((ONE_BAND, WIDE_CONE, [(250.0, 0.0, 100.0)], np.linspace(0.0, 1.0, 7)), 0.0)
@example((ONE_BAND, CONES[5.0], [(250.0, 0.0, 100.0)], 0.5), 1e-6)
@given(loaded_lit_scenes(), st.sampled_from([0.0, 1e-6]))
def test_lit_tables_read_as_tables_of_every_link(scene, eps):
    # an unlit GBS has gain 0 in both states, so it neither serves nor
    # interferes: the downlink and the enumeration oracles read a table
    # of the lit links as the table that lists every link
    layout, antenna, positions, omega = scene
    for xyz in positions:
        assert_lit_table_reads_as_complete(layout, antenna, xyz, omega, eps)
    if len(layout) > len(ONE_BAND):
        return
    cfg = load_config()
    lit, complete = lit_and_complete_tables(layout, antenna, positions[0])
    up = [uplink_pmf_enumeration(table, cfg.beta0) for table in (lit, complete)]
    assert up[0].values.tobytes() == up[1].values.tobytes()
    np.testing.assert_allclose(up[0].probs, up[1].probs, rtol=0.0, atol=1e-12)
    down = [downlink_cdf_enumeration(table, omega, cfg.alpha0) for table in (lit, complete)]
    assert down[0].xs.tobytes() == down[1].xs.tobytes()
    np.testing.assert_allclose(down[0].cum, down[1].cum, rtol=0.0, atol=1e-12)


def test_lit_tables_negative_control():
    # site 7 is the one lit interferer in site 0's band: a table without
    # it reads another outage
    lit, _ = lit_and_complete_tables(LIT_LAYOUT, WIDE_CONE, BETWEEN)
    row = int(np.flatnonzero(lit.gbs_id == 7)[0])
    assert lit.band[row] == lit.band[0] and lit.c_los[row] > 0.0
    omega = np.linspace(0.1, 0.9, len(LIT_LAYOUT))
    assert_lit_table_reads_as_complete(LIT_LAYOUT, WIDE_CONE, BETWEEN, omega, 0.0)
    with pytest.raises(AssertionError):
        assert_lit_table_reads_as_complete(LIT_LAYOUT, WIDE_CONE, BETWEEN, omega, 0.0, drop=row)


def test_per_site_loading_reads_the_lit_links(tmp_path):
    # a 75-degree beam from between sites 0 and 7 lights 6 of the 37: a
    # loading on an unlit GBS moves no outage, one on a lit interferer
    # does, in the lattice law and in both oracles
    body = ("[layout]\nradius_m = 1500\n[uav_antenna]\nhalf_beamwidth_deg = 75\n"
            "[uav]\nx_m = 433\ny_m = 250\naltitude_m = 200\n")
    cfg = load_scenario(tmp_path, body)
    table = configured_table(cfg, (cfg.uav_x, cfg.uav_y, cfg.uav_altitude))
    assert table.gbs_id.tolist() == [0, 1, 2, 14, 13, 7]
    ys = np.geomspace(1e-3, 1e6, 37)
    readers = (
        lambda w: downlink_snr_cdf(table, w, cfg.alpha0, c0=cfg.lattice_target_c0).outage(ys),
        lambda w: downlink_cdf_enumeration(table, w, cfg.alpha0).eval(ys),
        lambda w: downlink_outage_mc(table, w, cfg.alpha0, ys, 4000, seed=1),
    )
    busy = {site: load_scenario(tmp_path, body + f"[loading]\nomega_site_{site} = 0.9\n").loading
            for site in (36, 7)}
    for read in readers:
        want = read(cfg.loading)
        assert read(busy[36]).tobytes() == want.tobytes()
        assert (read(busy[7]) > want).any()
        # a loading array with no entry for a GBS the table lists fails,
        # naming the first such GBS in walk order
        for short in (cfg.loading[:14], cfg.loading[:7]):
            with pytest.raises(ValueError, match=rf"loading has no entry for GBS 14: it has "
                                                 rf"{len(short)} entries"):
                read(short)


# ---------------------------------------------------------------------------
# Spatial coverage
# ---------------------------------------------------------------------------

def scene(tmp_path, link=LinkDirection.UPLINK, radius=500, region="triangle", resolution=2):
    """A 500 m hex grid of the default antennas and channel with the exact
    association walk (eps = 0); downlink adds noise_power_dbm = -120
    (alpha0 = 1e-14), loading 0.4 and c0 = 200."""
    body = f"""
[layout]
radius_m = {radius}
[sampling]
region = {region}
resolution = {resolution}
"""
    if link is LinkDirection.DOWNLINK:
        return load_scenario(tmp_path, body + """
[radio]
noise_power_dbm = -120
[loading]
downlink_omega = 0.4
[algorithm]
association_epsilon = 0
lattice_target_c0 = 200
""")
    return load_scenario(tmp_path, body + "[algorithm]\nassociation_epsilon = 0\n")


def configured_table(cfg, uav_xyz):
    return build_link_table(
        cfg.build_layout(), cfg.build_gbs_pattern(), cfg.build_uav_antenna(),
        cfg.build_channel(), uav_xyz, cfg.gbs_height,
    )


def test_rotation_symmetry_of_uplink_outage(tmp_path):
    cfg = scene(tmp_path, radius=1500)
    c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
    x, y = 137.0, 41.0
    base = uplink_snr_pmf(configured_table(cfg, (x, y, 120.0)), cfg.beta0)
    rotated = uplink_snr_pmf(
        configured_table(cfg, (c * x - s * y, s * x + c * y, 120.0)), cfg.beta0
    )
    threshold = float(np.median(base.values))
    assert 0.0 < base.outage(threshold) < 1.0
    assert rotated.outage(threshold) == pytest.approx(base.outage(threshold), abs=1e-9)


def test_cell_average_equals_triangle_average(tmp_path):
    tri_cfg = scene(tmp_path, radius=1500, region="triangle")
    cell_cfg = scene(tmp_path, radius=1500, region="cell")
    centroid_pmf = uplink_snr_pmf(configured_table(tri_cfg, (150.0, 50.0, 100.0)), tri_cfg.beta0)
    threshold = float(np.median(centroid_pmf.values)) * 0.999
    kwargs = dict(altitude=100.0, thresholds=[threshold])
    tri = coverage_at_altitude(tri_cfg, LinkDirection.UPLINK, **kwargs)
    cell = coverage_at_altitude(cell_cfg, LinkDirection.UPLINK, **kwargs)
    assert len(tri.points) == 4 and len(cell.points) == 24
    assert 0.0 < tri.coverage[0] < 1.0
    assert cell.coverage[0] == pytest.approx(tri.coverage[0], abs=1e-9)


def test_parallel_workers_match_serial(tmp_path, monkeypatch):
    # every pool pays, so the 4 points go through one
    monkeypatch.setattr(coverage, "POOL_START_S", 0.0)
    cfg = scene(tmp_path, LinkDirection.DOWNLINK)
    kwargs = dict(altitude=100.0, thresholds=[1.5849])
    serial = coverage_at_altitude(cfg, LinkDirection.DOWNLINK, workers=1, **kwargs)
    parallel = coverage_at_altitude(cfg, LinkDirection.DOWNLINK, workers=2, **kwargs)
    np.testing.assert_array_equal(parallel.non_outage, serial.non_outage)
    assert parallel.coverage[0] == serial.coverage[0]


def test_coverage_over_altitudes_aggregate(tmp_path):
    cfg = scene(tmp_path, resolution=1)
    kwargs = dict(thresholds=[10.0])
    alts = [40.0, 80.0, 160.0]
    results, aggregate = coverage_over_altitudes(
        cfg, LinkDirection.UPLINK, altitudes=alts, **kwargs
    )
    values = [r.coverage[0] for r in results]
    want = np.trapezoid(values, alts) / (alts[-1] - alts[0])
    assert aggregate[0] == pytest.approx(float(want), rel=1e-12)
    single, agg1 = coverage_over_altitudes(cfg, LinkDirection.UPLINK, altitudes=[90.0], **kwargs)
    assert agg1[0] == single[0].coverage[0]
    with pytest.raises(ValueError):
        coverage_over_altitudes(cfg, LinkDirection.UPLINK, altitudes=[], **kwargs)
    with pytest.raises(ValueError):
        coverage_over_altitudes(cfg, LinkDirection.UPLINK, altitudes=[100.0, 50.0], **kwargs)


@pytest.mark.parametrize("bad, altitudes", [
    (math.nan, [50.0, math.nan]),
    (math.inf, [50.0, math.inf]),
    (-math.inf, [-math.inf, 50.0]),
])
def test_non_finite_altitudes_are_rejected(tmp_path, bad, altitudes):
    # each names the first position at fault before any law is built
    cfg = scene(tmp_path, LinkDirection.DOWNLINK, resolution=1)
    want = rf"^UAV position \[.*, {bad}\] is not finite$"
    with pytest.raises(ValueError, match=want):
        coverage_at_altitude(cfg, LinkDirection.DOWNLINK, altitude=bad, thresholds=[1.0])
    with pytest.raises(ValueError, match=want):
        coverage_over_altitudes(cfg, LinkDirection.UPLINK, altitudes=altitudes,
                                thresholds=[1.0])


@pytest.mark.parametrize("link", list(LinkDirection))
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_bad_thresholds_are_rejected(tmp_path, link, bad):
    # NaN read coverage 1 on the uplink and 0 on the downlink, and 0 or -1
    # read 1 on the uplink: each is named before any position is scored
    cfg = scene(tmp_path, link, resolution=1)
    want = rf"^SNR thresholds must be finite and positive, got {bad}$"
    with pytest.raises(ValueError, match=want):
        coverage_at_altitude(cfg, link, altitude=100.0, thresholds=[1.0, bad])
    with pytest.raises(ValueError, match=want):
        coverage_over_altitudes(cfg, link, altitudes=[50.0, 100.0], thresholds=[bad])


def sweep_scene(tmp_path, link):
    """A 24-point cell raster (so each mean adds more than 8 points) and
    thresholds that split the points on both links."""
    db = (-40.0, -15.0, 0.0, 5.0, 30.0) if link is LinkDirection.UPLINK \
        else (-10.0, -2.0, 0.0, 3.0, 10.0)
    return scene(tmp_path, link, region="cell"), [10.0 ** (t / 10.0) for t in db]


@pytest.mark.parametrize("link, law", [
    (LinkDirection.UPLINK, "uplink_outage"),
    (LinkDirection.DOWNLINK, "downlink_snr_cdf"),
])
def test_threshold_sweep_builds_each_law_once(tmp_path, monkeypatch, link, law):
    # one link table row per scored position, whatever the blocks, and one
    # law each: the uplink scores the 3 classes of matching site distances
    # of the 24 points on the 7-site layout, the downlink every point.
    # The uplink reads its block's columns and counts a position at the
    # block read, the downlink a table and a law per position
    laws = 3 if link is LinkDirection.UPLINK else 24
    tables = "build_lit_links" if link is LinkDirection.UPLINK else "build_link_table"
    positions = {
        "build_lit_links": len,
        "build_link_table": lambda table: 1,
        "uplink_outage": len,
        "downlink_snr_cdf": lambda cdf: 1,
    }
    built = {tables: 0, law: 0}
    for name in built:
        original = getattr(coverage, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            built[_name] += positions[_name](result)
            return result

        monkeypatch.setattr(coverage, name, counted)
    cfg, thresholds = sweep_scene(tmp_path, link)
    result = coverage_at_altitude(cfg, link, altitude=100.0, thresholds=thresholds)
    assert result.non_outage.shape == (5, 24)
    assert built == {tables: laws, law: laws}


def counted_uplink(cfg, altitude, thresholds):
    """Uplink coverage_at_altitude and the number of positions it scored:
    the rows of every block the uplink read took."""
    scored = []

    def counted(table, *args, **kwargs):
        scored.append(len(table))
        return uplink_outage(table, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coverage, "uplink_outage", counted)
        result = coverage_at_altitude(cfg, LinkDirection.UPLINK, altitude=altitude,
                                      thresholds=thresholds)
    return result, sum(scored)


def direct_uplink(cfg, points, altitude, thresholds):
    """(T, P) uplink non-outage, each point from its own link table."""
    pmfs = [uplink_snr_pmf(configured_table(cfg, (x, y, altitude)), cfg.beta0,
                           cfg.association_epsilon) for x, y in points.tolist()]
    return np.array([[1.0 - pmf.outage(t) for pmf in pmfs] for t in thresholds])


def off_footprint_edges(cfg, points, altitude):
    """Whether no site lies within 1e-9 of the UAV mainlobe's footprint
    edge, relative to its radius, seen from any point.  On the edge a
    point's law jumps, and roundoff alone picks the side, at a point and
    at its mirror image alike."""
    edge = cfg.build_uav_antenna().footprint_radius(altitude, cfg.gbs_height)
    layout = cfg.build_layout()
    r = np.hypot(points[:, :1] - layout.x, points[:, 1:] - layout.y)
    return math.isinf(edge) or bool((np.abs(r - edge) > 1e-9 * edge).all())


@settings(max_examples=40, deadline=None)
@given(
    st.floats(200.0, 800.0), st.floats(0.0, 3.2), st.sampled_from([1, 3, 4, 7]),
    st.sampled_from(["triangle", "cell"]), st.integers(1, 3), st.floats(25.0, 300.0),
    st.floats(10.0, 90.0), st.lists(st.floats(-40.0, 30.0), min_size=1, max_size=3),
)
def test_uplink_orbits_match_direct_evaluation(
    spacing, rings, reuse, region, res, altitude, beam, thresholds_db
):
    # every built layout has the hexagon's 12 symmetries, and at these
    # resolutions only they make site distances match, so the cell's
    # 6 r^2 points and the triangle's r^2 both fall in (r^2 + r)/2 classes
    with tempfile.TemporaryDirectory() as tmp:
        cfg = load_scenario(tmp, f"""
[layout]
inter_site_distance_m = {spacing!r}
radius_m = {spacing * rings!r}
reuse_factor = {reuse}
[uav_antenna]
half_beamwidth_deg = {beam!r}
[sampling]
region = {region}
resolution = {res}
[algorithm]
association_epsilon = 0
""")
    thresholds = [10.0 ** (db / 10.0) for db in thresholds_db]
    result, laws = counted_uplink(cfg, altitude, thresholds)
    assume(off_footprint_edges(cfg, result.points, altitude))
    assert laws == (res * res + res) // 2
    direct = direct_uplink(cfg, result.points, altitude, thresholds)
    np.testing.assert_allclose(result.non_outage, direct, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("site, remove, mirror_only", [
    ((1250.0, 250.0 * math.sqrt(3.0)), False, False),   # off every mirror line
    ((1250.0, 250.0 * math.sqrt(3.0)), True, False),
    ((500.0, 0.0), False, True),   # moved along the x axis, keeping y -> -y
])
def test_broken_symmetries_are_not_used(tmp_path, site, remove, mirror_only):
    # the 37-site layout with one site moved 1 m along x, or removed
    layout = scene(tmp_path, radius=1500).build_layout()
    xy = np.column_stack((layout.x, layout.y))
    k = int(np.argmin(np.hypot(*(xy - site).T)))
    if remove:
        xy = np.delete(xy, k, axis=0)
    else:
        xy[k, 0] += 1.0
    path = tmp_path / "sites.csv"
    write_layout_csv(NetworkLayout(xy[:, 0], xy[:, 1], np.zeros(len(xy), dtype=int)), path)
    cfg = load_scenario(tmp_path, f"""
[layout]
sites_csv = {path}
[uav_antenna]
half_beamwidth_deg = 75
[sampling]
region = cell
resolution = 2
[algorithm]
association_epsilon = 0
""")
    thresholds = [10.0 ** (db / 10.0) for db in (-20.0, -10.0, 0.0)]
    result, laws = counted_uplink(cfg, 60.0, thresholds)
    points = result.points
    rep = point_orbits(points, cfg.build_layout())
    assert rep.tolist() == distance_classes(points, cfg.build_layout()).tolist()
    assert laws == len(set(rep.tolist()))
    if mirror_only:
        mirror = [int(np.argmin(np.hypot(*(points - (x, -y)).T))) for x, y in points.tolist()]
        assert rep.tolist() == [min(i, m) for i, m in enumerate(mirror)]
        assert laws < 24
    elif remove:
        # no symmetry is left, but points 10 and 18 lie equidistant from
        # the removed site, as do 6 and 22, so each pair sees the same
        # site distances
        assert [(i, r) for i, r in enumerate(rep.tolist()) if r != i] == [(18, 10), (22, 6)]
        assert laws == 22
    else:
        assert rep.tolist() == list(range(24)) and laws == 24
    direct = direct_uplink(cfg, points, 60.0, thresholds)
    assert ((direct > 0.0) & (direct < 1.0)).any()
    np.testing.assert_allclose(result.non_outage, direct, rtol=0.0, atol=1e-12)


def test_one_site_pairs_equal_radii_no_symmetry_relates(tmp_path):
    # with one site the signature is the distance from it: of the 150
    # points of a cell raster at resolution 5, the hexagon's symmetries
    # leave 15 orbits, and two of them lie at one radius
    cfg = load_scenario(tmp_path, """
[layout]
radius_m = 100
[sampling]
region = cell
resolution = 5
[algorithm]
association_epsilon = 0
""")
    assert len(cfg.build_layout()) == 1
    thresholds = [10.0 ** (db / 10.0) for db in (-10.0, 0.0, 10.0, 20.0)]
    result, laws = counted_uplink(cfg, 100.0, thresholds)
    rep = point_orbits(result.points, cfg.build_layout())
    assert rep.tolist() == distance_classes(result.points, cfg.build_layout()).tolist()
    assert laws == len(set(rep.tolist())) == 14
    direct = direct_uplink(cfg, result.points, 100.0, thresholds)
    assert ((direct > 0.0) & (direct < 1.0)).any()
    np.testing.assert_allclose(result.non_outage, direct, rtol=0.0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.sets(st.integers(0, 36), min_size=1, max_size=3), st.sampled_from(["triangle", "cell"]),
    st.integers(1, 3), st.floats(25.0, 300.0), st.floats(10.0, 90.0),
    st.lists(st.floats(-40.0, 30.0), min_size=1, max_size=3),
)
def test_uplink_on_random_sites_csv_layouts_matches_direct_evaluation(
    removed, region, res, altitude, beam, thresholds_db
):
    # the 37-site layout less one to three sites, read from a sites_csv:
    # some symmetries survive, and some site distances match by chance
    layout = build_hex_layout(500.0, 1500.0, 3)
    keep = np.delete(np.arange(len(layout)), sorted(removed))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/sites.csv"
        write_layout_csv(NetworkLayout(layout.x[keep], layout.y[keep], layout.band[keep]), path)
        cfg = load_scenario(tmp, f"""
[layout]
sites_csv = {path}
[uav_antenna]
half_beamwidth_deg = {beam!r}
[sampling]
region = {region}
resolution = {res}
[algorithm]
association_epsilon = 0
""")
    thresholds = [10.0 ** (db / 10.0) for db in thresholds_db]
    result, laws = counted_uplink(cfg, altitude, thresholds)
    assume(off_footprint_edges(cfg, result.points, altitude))
    classes = distance_classes(result.points, cfg.build_layout())
    assert point_orbits(result.points, cfg.build_layout()).tolist() == classes.tolist()
    assert laws == len(set(classes.tolist()))
    direct = direct_uplink(cfg, result.points, altitude, thresholds)
    np.testing.assert_allclose(result.non_outage, direct, rtol=0.0, atol=1e-12)


def test_rotations_without_mirrors_are_used(tmp_path):
    # the 37-site layout with its first ring turned 5 degrees about the
    # origin keeps the six rotations and loses every mirror
    layout = scene(tmp_path, radius=1500).build_layout()
    xy = np.column_stack((layout.x, layout.y))
    ring = np.isclose(np.hypot(*xy.T), 500.0)
    assert ring.sum() == 6
    c, s = math.cos(math.radians(5.0)), math.sin(math.radians(5.0))
    xy[ring] = xy[ring] @ np.array([[c, s], [-s, c]])
    path = tmp_path / "sites.csv"
    write_layout_csv(NetworkLayout(xy[:, 0], xy[:, 1], np.zeros(len(xy), dtype=int)), path)
    cfg = load_scenario(tmp_path, f"""
[layout]
sites_csv = {path}
[uav_antenna]
half_beamwidth_deg = 75
[sampling]
region = cell
resolution = 2
[algorithm]
association_epsilon = 0
""")
    thresholds = [10.0 ** (db / 10.0) for db in (-20.0, -10.0, 0.0)]
    result, laws = counted_uplink(cfg, 60.0, thresholds)
    rep = point_orbits(result.points, cfg.build_layout())
    assert (rep[rep] == rep).all()
    assert np.unique(rep, return_counts=True)[1].tolist() == [6, 6, 6, 6]
    assert laws == 4
    direct = direct_uplink(cfg, result.points, 60.0, thresholds)
    assert ((direct > 0.0) & (direct < 1.0)).any()
    np.testing.assert_allclose(result.non_outage, direct, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("link", list(LinkDirection))
def test_one_pass_sweep_equals_single_threshold_calls(tmp_path, link):
    cfg, thresholds = sweep_scene(tmp_path, link)
    sweep = coverage_at_altitude(cfg, link, altitude=100.0, thresholds=thresholds)
    assert sweep.non_outage.flags.c_contiguous
    assert sweep.thresholds.tolist() == thresholds
    assert ((sweep.coverage > 0.0) & (sweep.coverage < 1.0)).sum() >= 2
    for i, t in enumerate(thresholds):
        single = coverage_at_altitude(cfg, link, altitude=100.0, thresholds=[t])
        assert sweep.non_outage[i].tolist() == single.non_outage[0].tolist()
        assert sweep.coverage[i] == single.coverage[0]
    with pytest.raises(ValueError, match="need at least one threshold"):
        coverage_at_altitude(cfg, link, altitude=100.0, thresholds=[])


def test_altitude_sweep_starts_one_pool(tmp_path, monkeypatch):
    started = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(coverage, "POOL_START_S", 0.0)
    cfg, thresholds = sweep_scene(tmp_path, LinkDirection.UPLINK)
    alts = [40.0, 80.0, 120.0, 160.0]
    parallel, agg2 = coverage_over_altitudes(cfg, LinkDirection.UPLINK, altitudes=alts,
                                             thresholds=thresholds, workers=2)
    assert started == [{"max_workers": 2}]
    serial, agg1 = coverage_over_altitudes(cfg, LinkDirection.UPLINK, altitudes=alts,
                                           thresholds=thresholds)
    assert len(started) == 1
    assert agg2.tolist() == agg1.tolist()
    for p, s, h in zip(parallel, serial, alts):
        assert p.altitude == s.altitude == h
        assert p.non_outage.tolist() == s.non_outage.tolist()


def test_short_work_lists_start_no_pool(tmp_path, monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    # one position (the centroid), and the 12 positions of the uplink
    # sweep (3 orbits at 4 altitudes) at well under a millisecond each
    cfg = scene(tmp_path, LinkDirection.DOWNLINK, resolution=1)
    kwargs = dict(altitude=100.0, thresholds=[1.5849])
    one = coverage_at_altitude(cfg, LinkDirection.DOWNLINK, workers=2, **kwargs)
    assert len(one.points) == 1
    assert one.non_outage.tolist() == coverage_at_altitude(
        cfg, LinkDirection.DOWNLINK, **kwargs).non_outage.tolist()
    cfg, thresholds = sweep_scene(tmp_path, LinkDirection.UPLINK)
    kwargs = dict(altitudes=[40.0, 80.0, 120.0, 160.0], thresholds=thresholds)
    parallel, _ = coverage_over_altitudes(cfg, LinkDirection.UPLINK, workers=2, **kwargs)
    serial, _ = coverage_over_altitudes(cfg, LinkDirection.UPLINK, **kwargs)
    for p, s in zip(parallel, serial):
        assert p.non_outage.tolist() == s.non_outage.tolist()


def test_pool_has_at_most_one_process_per_block(tmp_path, monkeypatch):
    started = []

    class InProcessPool:
        """Records its size and maps here: no process is started."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(coverage, "POOL_START_S", 0.0)
    cfg, thresholds = sweep_scene(tmp_path, LinkDirection.UPLINK)
    kwargs = dict(altitudes=[40.0, 80.0, 120.0, 160.0], thresholds=thresholds)
    wide, agg500 = coverage_over_altitudes(cfg, LinkDirection.UPLINK, workers=500, **kwargs)
    # the first of 12 positions scored here, the other 11 in blocks of one
    assert started == [11]
    serial, agg1 = coverage_over_altitudes(cfg, LinkDirection.UPLINK, **kwargs)
    assert agg500.tolist() == agg1.tolist()
    for w, s in zip(wide, serial):
        assert w.non_outage.tolist() == s.non_outage.tolist()


@pytest.mark.parametrize("link", list(LinkDirection))
def test_block_size_does_not_change_output(tmp_path, monkeypatch, link):
    cfg, thresholds = sweep_scene(tmp_path, link)
    n_sites = len(cfg.build_layout())
    runs = []
    # one position per block, blocks of 5 that split each altitude's 24
    # points unevenly, and the default (every position in one block here)
    for entries in (1, 5 * n_sites, coverage.BLOCK_ENTRIES):
        monkeypatch.setattr(coverage, "BLOCK_ENTRIES", entries)
        results, aggregate = coverage_over_altitudes(
            cfg, link, altitudes=[60.0, 140.0], thresholds=thresholds
        )
        runs.append(([r.non_outage.tolist() for r in results], aggregate.tolist()))
    assert runs[0] == runs[1] == runs[2]


# Downlink coverage recorded while each event's law was still its own
# object: a change to how the laws are built or read may move them by the
# round-off of another numpy's FFT, not more (1e-12; the benchmark's own
# reference is held to 1e-9).
PINNED_DOWNLINK_MAP = {90.0: 0.9258659905519202, 110.0: 0.9434050298884565}
PINNED_THRESHOLD_SWEEP = (
    0.999999937047678, 0.9947992254221337, 0.9512354632488026, 0.7637639971595334,
    0.6400499189347837, 0.5636548727898467, 0.4947625399576011, 0.43299973250945345,
    0.3680679310437941, 0.259380313677832,
)


def test_pinned_downlink_coverage(tmp_path):
    # the default scene at the triangle's centroid (one point, ~50 events
    # of ~121 interferers at 90-110 m), and the 37-site scene's threshold
    # sweep over -5..15 dB at 100 m
    cfg = load_scenario(tmp_path, "[sampling]\nregion = triangle\nresolution = 1\n")
    for altitude, want in PINNED_DOWNLINK_MAP.items():
        got = coverage_at_altitude(cfg, LinkDirection.DOWNLINK, altitude=altitude,
                                   thresholds=[cfg.downlink_threshold]).coverage
        assert abs(float(got[0]) - want) <= 1e-12, altitude
    cfg = load_scenario(tmp_path, "[layout]\nradius_m = 1500\n"
                                  "[sampling]\nregion = triangle\nresolution = 1\n")
    thresholds = 10.0 ** (np.linspace(-5.0, 15.0, 10) / 10.0)
    got = coverage_at_altitude(cfg, LinkDirection.DOWNLINK, altitude=100.0,
                               thresholds=thresholds).coverage
    assert np.max(np.abs(got - PINNED_THRESHOLD_SWEEP)) <= 1e-12
