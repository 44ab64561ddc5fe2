"""End-to-end acceptance checks.

Each test verifies one headline guarantee of the package at its stated
tolerance and prints a single PASS/FAIL line with the measured numbers,
so a test run doubles as a verification report.  Oracles are exhaustive
enumerations or independent closed forms; nothing here is tuned to make
a check pass.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import default_models, link_table, load_scenario, padded_spec
from uavcov.antenna import UlaPattern
from uavcov.channel import build_link_table
from uavcov.coverage import (
    LinkDirection,
    association_pmf,
    conditional_interference_specs,
    coverage_over_altitudes,
    downlink_snr_cdf,
    uplink_snr_pmf,
)
from uavcov.geometry import RegionKind, SamplingRegion, build_hex_layout, sample_region
from uavcov.gpm import GpmSpec, la_folds, lattice_invert
from uavcov import oracles
from uavcov.config import load_config
from uavcov.oracles import (
    downlink_cdf_enumeration,
    downlink_outage_mc,
    enumerate_cdf,
    envelope_excess,
    gaussian_cdf,
    kolmogorov_distance,
    mc_cdf,
    uplink_pmf_enumeration,
)

INTER_SITE = 500.0
GBS_HEIGHT = 20.0
NOISE_W = 10.0 ** -15.4          # -124 dBm
BETA0 = 1e-5 / NOISE_W           # -20 dBm UAV transmit power over noise
ALPHA0 = NOISE_W / 0.1           # noise over 0.1 W GBS transmit power
UPLINK_THRESHOLD = 10.0 ** 1.2   # 12 dB
DOWNLINK_THRESHOLD = 10.0 ** 0.2  # 2 dB
C0 = 1000.0                      # lattice_target_c0


def report(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def default_scene():
    """The layout and models of the default scene, cut to its 37 sites."""
    return (build_hex_layout(INTER_SITE, 3.0 * INTER_SITE, 3), *default_models())


def first_event_interference(omega):
    """Interference spec conditioned on association event 0 at the
    reference UAV position in the default scene: the LoS event of the
    first row in walk order (the largest LoS gain), not in general the
    most likely event."""
    layout, pattern, uav, channel = default_scene()
    table = build_link_table(layout, pattern, uav, channel, (150.0, 50.0, 100.0), GBS_HEIGHT)
    events = association_pmf(table)
    return conditional_interference_specs(table, omega, events.serving[:1], events.forced[:1])[0]


def random_table(rng, n_rows):
    rows = []
    for i in range(n_rows):
        c_los = float(10.0 ** rng.uniform(-2.0, 1.0))
        rows.append((
            i, 0, c_los, c_los * float(rng.uniform(0.01, 0.8)),
            float(rng.uniform(0.0, 1.0)),
        ))
    rows.sort(key=lambda r: (-r[2], r[0]))
    return link_table(rows)


def test_hex_layout_site_and_interferer_counts():
    layout = build_hex_layout(INTER_SITE, 3.0 * INTER_SITE, 3)
    n_sites = len(layout)
    bands = layout.band
    n_interferers = int(np.sum(bands == bands[1])) - 1     # site 1's band, minus itself
    ok = n_sites == 37 and n_interferers == 11
    report(
        "hex-layout-counts", ok,
        f"sites={n_sites} (want 37), first-tier co-channel interferers="
        f"{n_interferers} (want 11)",
    )


def test_array_boresight_gain_identity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        count = int(rng.integers(2, 33))
        spacing = float(rng.uniform(0.1, 1.5))
        tilt = float(rng.uniform(-45.0, 45.0))
        peak = float(rng.uniform(0.5, 3.0))
        pattern = UlaPattern(count, spacing, tilt, peak)
        want = count * peak * math.cos(math.radians(tilt)) ** 2
        got = float(pattern(tilt))
        worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-9
    report(
        "boresight-identity", ok,
        f"max relative error={worst:.3e} over 100 tuples (tolerance 1e-09)",
    )


def test_fft_inversion_matches_exhaustive_enumeration():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        rows = []
        for _ in range(int(rng.integers(1, 9))):
            size = int(rng.integers(2, 5))
            values = np.sort(rng.choice(6, size=size, replace=False)).astype(float)
            probs = rng.uniform(0.1, 1.0, size=size)
            rows.append((values, probs / probs.sum()))
        spec = padded_spec(rows)
        top = int(np.where(spec.probs > 0, spec.values, 0.0).max(axis=1).sum())
        # the spec's rows are the atoms: masses at their integer values
        (pmf,) = lattice_invert(spec.probs[None], top + 1, spec.values.astype(np.intp)[None])
        want = np.zeros(top + 1)
        want[0] = 1.0
        for values, probs in rows:
            vec = np.zeros(6)
            vec[values.astype(np.intp)] = probs
            want = np.convolve(want, vec)[: top + 1]
        worst = max(worst, float(np.max(np.abs(pmf - want))))
    ok = worst <= 1e-9
    report(
        "fft-inversion-exactness", ok,
        f"max elementwise error={worst:.3e} over 50 integer specs (tolerance 1e-09)",
    )


def test_lattice_approximation_accuracy():
    # 12 summands with 3 comparable-scale values each and balanced
    # probabilities: the many-interferer regime the approximation targets
    rng = np.random.default_rng(2024)
    worst_fine = worst_coarse = 0.0
    for _ in range(20):
        rows = []
        for _ in range(12):
            values = np.sort(rng.uniform(0.0, 1.0, size=3))
            while np.any(np.diff(values) <= 1e-9):
                values = np.sort(rng.uniform(0.0, 1.0, size=3))
            probs = rng.uniform(0.5, 1.0, size=3)
            rows.append((values, probs / probs.sum()))
        spec = padded_spec(rows)
        exact = enumerate_cdf(spec)
        fine = la_folds(spec, 1000.0).to_cdf()
        coarse = la_folds(spec, 100.0).to_cdf()
        worst_fine = max(worst_fine, kolmogorov_distance(exact, fine))
        worst_coarse = max(worst_coarse, kolmogorov_distance(exact, coarse))
    ok = worst_fine <= 0.01 and worst_coarse <= 0.1
    report(
        "lattice-approximation-accuracy", ok,
        f"worst distance={worst_fine:.5f} at c0=1000 (tolerance 0.01), "
        f"{worst_coarse:.5f} at c0=100 (tolerance 0.1), 20 specs",
    )


def test_lattice_vs_monte_carlo_default_scenario():
    # The lattice moves every atom of the sum by at most M / (2 beta) and
    # promises no more: on this atomic law one atom (mass 0.357 at
    # omega=0.95) lands between lattice points, so the plain sup distance
    # reads that mass at any c0.  The check is therefore how far the MC
    # law leaves the lattice cdf moved by that displacement either way;
    # the plain distance is printed for information.
    omegas = (0.05, 0.5, 0.95)
    laws = []
    n_co = None
    for omega in omegas:
        spec = first_event_interference(omega)
        n_co = len(spec)
        law = la_folds(spec, 1000.0)
        la = law.to_cdf()
        mc = mc_cdf(spec, 1_000_000, seed=20260815)
        laws.append((la, mc, law.envelope()))
    details = []
    worst = 0.0
    for omega, (la, mc, envelope) in zip(omegas, laws):
        dist = envelope_excess(mc, *envelope)
        worst = max(worst, dist)
        details.append(
            f"omega={omega}: {dist:.1e} (plain sup {kolmogorov_distance(mc, la):.4f})"
        )
    # negative control: each lattice law against the MC law of the next
    # loading (cyclically) must fail the same check
    controls = [
        envelope_excess(laws[(k + 1) % len(laws)][1], *envelope)
        for k, (_, _, envelope) in enumerate(laws)
    ]
    ok = n_co == 11 and worst <= 0.005 and min(controls) > 0.005
    report(
        "lattice-vs-monte-carlo", ok,
        f"{n_co} co-channel GBSs; distance to 1e6-sample MC beyond the "
        f"M/(2 beta) displacement {', '.join(details)} (tolerance 0.005); "
        f"mismatched-loading controls {'/'.join(f'{c:.2f}' for c in controls)} "
        f"(each must exceed 0.005)",
    )


def test_gaussian_baseline_is_weaker_at_loading_extremes():
    details = []
    ok = True
    for omega in (0.05, 0.95):
        spec = first_event_interference(omega)
        exact = enumerate_cdf(spec)
        la = la_folds(spec, 1000.0).to_cdf()
        la_dist = kolmogorov_distance(exact, la)
        ga_dist = kolmogorov_distance(exact, gaussian_cdf(spec))
        ok = ok and ga_dist > la_dist
        details.append(f"omega={omega}: gaussian={ga_dist:.4f} lattice={la_dist:.4f}")
    report(
        "gaussian-baseline-ordering", ok,
        f"{'; '.join(details)} (pass means gaussian > lattice)",
    )


def test_association_walk_matches_brute_force():
    rng = np.random.default_rng(17)
    worst = 0.0
    ok = True
    for _ in range(50):
        table = random_table(rng, int(rng.integers(1, 13)))
        beta0 = float(10.0 ** rng.uniform(-2.0, 4.0))
        pmf = uplink_snr_pmf(table, beta0)
        oracle = uplink_pmf_enumeration(table, beta0)
        if list(pmf.values) != list(oracle.values):
            ok = False
            break
        worst = max(worst, float(np.max(np.abs(pmf.probs - oracle.probs))))
    ok = ok and worst <= 1e-12
    report(
        "uplink-walk-exactness", ok,
        f"atom values identical, max probability error={worst:.3e} "
        f"over 50 tables up to 12 rows (tolerance 1e-12)",
    )


def test_downlink_mixture_matches_joint_enumeration():
    # Mixture and oracle atoms differ by the lattice displacement, at
    # most the law's displacement M / (2 beta) in each event's interference,
    # and by float order (the oracle forms g / (alpha0 + I), the mixture
    # inverts c = g / y - alpha0), so a plain sup distance reads whole
    # atoms even for an exact mixture.  Shifting alpha0 by -s / +s, with s
    # the largest slack, moves every mixture atom to the far side of its
    # true position; the oracle must lie between.
    rng = np.random.default_rng(4040)
    worst = worst_sup = worst_ratio = 0.0
    control = math.inf
    for _ in range(20):
        table = random_table(rng, int(rng.integers(2, 5)))
        alpha0 = float(np.median(table.c_nlos)) * 0.3
        approx = downlink_snr_cdf(table, 0.5, alpha0, c0=C0)
        oracle = downlink_cdf_enumeration(table, 0.5, alpha0)
        lo, hi = approx.envelope()
        worst = max(worst, envelope_excess(oracle, lo, hi))
        worst_sup = max(worst_sup, kolmogorov_distance(oracle, approx))
        worst_ratio = max(worst_ratio, float(approx.laws.displacement.max(initial=0.0)) / alpha0)
        # negative control: the oracle of another loading must leave the
        # same envelope in every scenario
        control = min(control, envelope_excess(
            downlink_cdf_enumeration(table, 0.8, alpha0), lo, hi
        ))
    ok = worst <= 0.01 and control > 0.01
    report(
        "downlink-mixture-vs-joint-enumeration", ok,
        f"worst excess over the alpha0 -/+ M/(2 beta) envelope={worst:.1e} "
        f"over 20 micro-scenarios up to 4 GBSs / 3 co-channel (tolerance 0.01; "
        f"s/alpha0 <= {worst_ratio:.3f}, plain sup {worst_sup:.4f}); "
        f"omega=0.8 oracle control >= {control:.4f} (must exceed 0.01)",
    )


def test_lattice_runtime_scales_linearly_in_summand_count():
    rng = np.random.default_rng(77)

    def synth(m):
        return GpmSpec([[0.0, float(rng.uniform(0.5, 1.5))] for _ in range(m)], [[0.5, 0.5]] * m)

    # Each sample is 800 // m calls, about equally long for every m, timed
    # in thread CPU time with the sizes interleaved round by round: other
    # processes on the CPUs then slow no size more than another, whereas
    # the longest single calls on the wall clock are the likeliest to be
    # preempted.
    specs = {m: synth(m) for m in (100, 200, 400)}
    for spec in specs.values():
        la_folds(spec, 1000.0)        # warm up
    timings = dict.fromkeys(specs, math.inf)
    for _ in range(7):
        for m, spec in specs.items():
            calls = 800 // m
            start = time.thread_time()
            for _ in range(calls):
                la_folds(spec, 1000.0)
            timings[m] = min(timings[m], (time.thread_time() - start) / calls)
    r_fine = timings[400] / timings[200]
    r_coarse = timings[200] / timings[100]
    ok = r_fine <= 3.0 and r_coarse <= 3.0
    report(
        "lattice-runtime-scaling", ok,
        f"t(100)={timings[100] * 1e3:.1f}ms t(200)={timings[200] * 1e3:.1f}ms "
        f"t(400)={timings[400] * 1e3:.1f}ms; ratios {r_coarse:.2f}, {r_fine:.2f} "
        f"(tolerance 3.0 each)",
    )


def test_coverage_monotone_in_threshold_and_loading():
    layout, pattern, uav, channel = default_scene()
    points = sample_region(SamplingRegion(RegionKind.TRIANGLE, 2), INTER_SITE)
    thresholds = [10.0 ** (t / 10.0) for t in np.linspace(0.0, 20.0, 10)]
    ok = True
    checked = 0
    for altitude in (50.0, 100.0, 200.0):
        uplinks, downlinks = [], []
        for xy in points:
            table = build_link_table(
                layout, pattern, uav, channel, (xy[0], xy[1], altitude), GBS_HEIGHT
            )
            uplinks.append(uplink_snr_pmf(table, BETA0))
            downlinks.append(downlink_snr_cdf(table, 0.5, ALPHA0, c0=C0))
        for dists in (uplinks, downlinks):
            curve = [
                float(np.mean([1.0 - d.outage(t) for d in dists]))
                for t in thresholds
            ]
            ok = ok and all(a >= b for a, b in zip(curve, curve[1:]))
            checked += 1

    table = build_link_table(layout, pattern, uav, channel, (150.0, 50.0, 100.0), GBS_HEIGHT)
    loading_curve = [
        downlink_snr_cdf(table, w, ALPHA0, c0=C0).outage(DOWNLINK_THRESHOLD)
        for w in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    loading_ok = all(a <= b for a, b in zip(loading_curve, loading_curve[1:]))
    ok = ok and loading_ok
    report(
        "coverage-monotonicity", ok,
        f"{checked} threshold sweeps (10 points, both links, 3 altitudes) "
        f"non-increasing; loading outage curve "
        f"{[f'{o:.4f}' for o in loading_curve]} non-decreasing",
    )


def test_uplink_coverage_peaks_above_minimum_altitude(tmp_path):
    # the default scene with a 75-degree UAV beam and the exact walk
    cfg = load_scenario(tmp_path, """
[layout]
radius_m = 1500
[uav_antenna]
half_beamwidth_deg = 75
[sampling]
resolution = 2
[algorithm]
association_epsilon = 0
""")
    altitudes = np.linspace(30.0, 200.0, 8)
    results, _ = coverage_over_altitudes(
        cfg, LinkDirection.UPLINK, altitudes=altitudes, thresholds=[cfg.uplink_threshold]
    )
    curve = [r.coverage[0] for r in results]
    peak = max(curve)
    ok = curve[0] < peak
    report(
        "altitude-coverage-shape", ok,
        f"coverage at 30m={curve[0]:.4f} < peak={peak:.4f} at "
        f"{altitudes[int(np.argmax(curve))]:.0f}m "
        f"(curve {[f'{c:.3f}' for c in curve]})",
    )


# ---------------------------------------------------------------------------
# The end-to-end Monte Carlo oracle
# ---------------------------------------------------------------------------

MC_DRAWS = 200_000
DKW_DELTA = 1e-6


def dkw_radius(n: int) -> float:
    """DKW radius with Massart's constant: n draws put the empirical law
    within it of the true one everywhere, with probability 1 - DKW_DELTA."""
    return math.sqrt(math.log(2.0 / DKW_DELTA) / (2.0 * n))


def scene_table(cfg, point, altitude):
    return build_link_table(cfg.build_layout(), cfg.build_gbs_pattern(), cfg.build_uav_antenna(),
                            cfg.build_channel(), (*point, altitude), cfg.gbs_height)


def mc_against_enumeration(tmp_path):
    """Largest gap, over every atom of the exact law and the float just
    above it, between the MC outage and the joint enumeration's on the
    7-site scene."""
    cfg = load_scenario(tmp_path, "[layout]\nradius_m = 500\n")
    table = scene_table(cfg, (120.0, -40.0), 90.0)
    exact = downlink_cdf_enumeration(table, cfg.loading, cfg.alpha0)
    atoms = exact.xs[exact.xs > 0.0]
    ts = np.concatenate([atoms, np.nextafter(atoms, np.inf)])
    mc = downlink_outage_mc(table, cfg.loading, cfg.alpha0, ts, MC_DRAWS, seed=11)
    return float(np.max(np.abs(mc - exact.eval_left(ts)))), atoms.size


def test_downlink_mc_matches_joint_enumeration(tmp_path, monkeypatch):
    r = dkw_radius(MC_DRAWS)
    gap, atoms = mc_against_enumeration(tmp_path)
    # negative control: the served GBS counted among its own interferers
    monkeypatch.setattr(oracles, "_co_channel_others",
                        lambda band, served: band == band[served][:, None])
    control, _ = mc_against_enumeration(tmp_path)
    ok = gap <= r and control > r
    report(
        "downlink-mc-vs-joint-enumeration", ok,
        f"7 sites, {atoms} atoms: largest gap {gap:.4f} (DKW radius {r:.4f} at "
        f"{MC_DRAWS} draws, delta {DKW_DELTA:g}); server-as-interferer control "
        f"{control:.4f} (must exceed {r:.4f})",
    )


def lattice_against_mc(cfg, point, altitude, thresholds=None):
    """Downlink outage at each threshold, the configured one by default,
    from the lattice mixture and from one call of the MC oracle."""
    table = scene_table(cfg, point, altitude)
    ts = np.array([cfg.downlink_threshold] if thresholds is None else thresholds)
    lattice = downlink_snr_cdf(table, cfg.loading, cfg.alpha0, eps=cfg.association_epsilon,
                               c0=cfg.lattice_target_c0).outage(ts)
    return lattice, downlink_outage_mc(table, cfg.loading, cfg.alpha0, ts, MC_DRAWS, seed=3)


def test_downlink_lattice_matches_mc_at_the_triangle_centroid(tmp_path):
    cfg = load_scenario(tmp_path, "[sampling]\nresolution = 1\n")
    (centroid,) = sample_region(cfg.build_region(), cfg.inter_site_distance)
    (lattice,), (mc,) = lattice_against_mc(cfg, centroid, 100.0)
    tol = dkw_radius(MC_DRAWS) + 0.01
    report(
        "downlink-lattice-vs-mc-centroid", abs(lattice - mc) <= tol,
        f"default scene, triangle centroid at 100 m, 2 dB: outage lattice {lattice:.4f}, "
        f"MC {mc:.4f} (tolerance {tol:.4f})",
    )


@pytest.mark.parametrize("point", [
    pytest.param(3, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="at 30 m the span lattice puts few lattice units below the read point: "
        "map point 3 reads 0.0195 off the MC at 2 dB and 0.676 at 10 dB (ROADMAP items 15, 1)")),
    pytest.param(5, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="at 30 m the span lattice puts few lattice units below the read point: "
        "map point 5 reads 0.402 off the MC at 2 dB and 0.150 at 10 dB (ROADMAP items 15, 1)")),
])
def test_downlink_lattice_matches_mc_at_30_m(point):
    cfg = load_config()
    xy = sample_region(cfg.build_region(), cfg.inter_site_distance)[point]
    lattice, mc = lattice_against_mc(cfg, xy, 30.0, [10.0 ** 0.2, 10.0])
    tol = dkw_radius(MC_DRAWS) + 0.01
    gaps = np.abs(lattice - mc)
    report(
        "downlink-lattice-vs-mc-30m", bool((gaps <= tol).all()),
        f"default scene, map point {point} at 30 m: outage lattice "
        f"{lattice[0]:.4f} / {lattice[1]:.4f}, MC {mc[0]:.4f} / {mc[1]:.4f} at 2 / 10 dB, "
        f"gaps {gaps[0]:.4f} / {gaps[1]:.4f} (tolerance {tol:.4f})",
    )
