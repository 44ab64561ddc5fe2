"""Command line front end.

Subcommands: layout, uplink-map, downlink-map, coverage-curve,
interference-cdf, validate.  Every CSV starts with a comment line
recording the config hash so outputs can be traced back to the exact
parameter set that produced them.

``main`` decides each form's optional flags.  Giving a flag the form
does not read is a usage error, reported by the subcommand's own parser
(its ``parser`` default).  A flag it reads but is not given takes its
default from ``FLAG_DEFAULTS`` (``--event``, ``--samples`` and the
threshold sweep's flags), or from ``VALIDATE_MODES`` for a validate
mode's ``--tolerance``.  ``--seed`` has no default and must be >= 0: a
form that reads it requires it, and a missing seed fails before the
config is read.

The parser is built once per process, on the first ``main`` call, and
shared by every later call, so nothing may mutate it: ``main`` writes
resolved defaults onto the parsed ``args`` namespace, never onto the
parser.

Exit codes: 0 success, 1 validation/runtime failure, 2 config or usage
error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .channel import build_link_table, build_lit_links
from .config import ConfigError, ScenarioConfig, load_config
from .coverage import (
    LinkDirection,
    association_pmf,
    conditional_interference_specs,
    coverage_at_altitude,
    coverage_over_altitudes,
    downlink_snr_cdf,
    uplink_outage,
    uplink_snr_pmf,
)
from .geometry import write_layout_csv
from .gpm import la_folds
from .oracles import (
    downlink_cdf_enumeration,
    downlink_outage_mc,
    enumerate_cdf,
    envelope_excess,
    gaussian_cdf,
    kolmogorov_distance,
    mc_cdf,
    uplink_pmf_enumeration,
)
from .units import db_to_linear

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

# Each validate mode: the flags it reads besides --mode (giving it another
# is a usage error) and its default tolerance.
VALIDATE_MODES = {
    "la-vs-enum": (("event", "tolerance"), 0.01),
    "la-vs-mc": (("event", "samples", "seed", "tolerance"), 0.005),
    "ga-vs-enum": (("event",), None),
    "uplink-vs-bruteforce": (("tolerance",), 1e-12),
    "downlink-vs-joint-enum": (("tolerance",), 0.01),
    "downlink-vs-mc": (("samples", "seed", "tolerance"), 0.01),
}
# downlink-vs-mc holds the Monte Carlo outage to the lattice's within the
# DKW radius sqrt(ln(2 / delta) / (2 n)) of n draws at this delta
DKW_DELTA = 1e-6
# The default of each flag that some form does not read, so its parser
# default is None; --min-db, --max-db and --points are the threshold sweep's.
FLAG_DEFAULTS = {"event": 0, "samples": 1_000_000, "min_db": 0.0, "max_db": 20.0, "points": 10}


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _out_path(args, name: str) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _write_csv(path: Path, header, rows, cfg: ScenarioConfig) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_sha256={cfg.config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def cmd_layout(cfg: ScenarioConfig, args) -> int:
    layout = cfg.build_layout()
    path = _out_path(args, "layout.csv")
    write_layout_csv(layout, path, comment=f"config_sha256={cfg.config_hash}")
    bands, sizes = np.unique(layout.band, return_counts=True)
    counts = dict(zip(bands.tolist(), sizes.tolist()))
    print(f"wrote {path}: {len(layout)} sites, band sizes {counts}")
    return EXIT_OK


def _altitude(cfg: ScenarioConfig, args) -> float:
    """``--altitude``, else ``[uav] altitude_m``; like the latter, the flag
    must exceed the GBS antenna height."""
    if args.altitude is None:
        return cfg.uav_altitude
    if args.altitude <= cfg.gbs_height:
        raise ConfigError(
            f"--altitude must exceed the GBS antenna height {cfg.gbs_height}, "
            f"got {args.altitude}"
        )
    return args.altitude


def cmd_map(link: LinkDirection, cfg: ScenarioConfig, args) -> int:
    threshold = cfg.uplink_threshold if link is LinkDirection.UPLINK else cfg.downlink_threshold
    altitude = _altitude(cfg, args)
    result = coverage_at_altitude(
        cfg, link, altitude=altitude, thresholds=(threshold,), workers=args.workers
    )
    path = _out_path(args, f"{link.value}_map.csv")
    rows = [
        (float(x), float(y), float(p))
        for (x, y), p in zip(result.points, result.non_outage[0])
    ]
    _write_csv(path, ("x_m", "y_m", "non_outage_prob"), rows, cfg)
    print(f"wrote {path}: {len(rows)} points at H_u={_fmt(float(altitude))} m, "
          f"coverage={_fmt(float(result.coverage[0]))}")
    return EXIT_OK


def cmd_coverage_curve(cfg: ScenarioConfig, args) -> int:
    link = LinkDirection(args.link)
    threshold = cfg.uplink_threshold if link is LinkDirection.UPLINK else cfg.downlink_threshold
    path = _out_path(args, "coverage_curve.csv")

    if args.sweep == "altitude":
        altitudes = np.linspace(cfg.altitude_min, cfg.altitude_max, cfg.altitude_points)
        results, aggregate = coverage_over_altitudes(
            cfg, link, altitudes=altitudes, thresholds=(threshold,), workers=args.workers
        )
        rows = [(float(h), float(r.coverage[0])) for h, r in zip(altitudes, results)]
        _write_csv(path, ("altitude_m", "coverage"), rows, cfg)
        print(f"wrote {path}: {len(rows)} altitudes, altitude-averaged "
              f"coverage={_fmt(float(aggregate[0]))}")
        return EXIT_OK

    altitude = _altitude(cfg, args)
    thresholds_db = np.linspace(args.min_db, args.max_db, args.points).tolist()
    result = coverage_at_altitude(
        cfg, link, altitude=altitude, thresholds=tuple(map(db_to_linear, thresholds_db)),
        workers=args.workers,
    )
    rows = list(zip(thresholds_db, result.coverage.tolist()))
    _write_csv(path, ("threshold_db", "coverage"), rows, cfg)
    print(f"wrote {path}: {len(rows)} thresholds at H_u={_fmt(float(altitude))} m")
    return EXIT_OK


def _models(cfg: ScenarioConfig):
    """The layout, GBS pattern, UAV antenna and channel of the config."""
    return (cfg.build_layout(), cfg.build_gbs_pattern(), cfg.build_uav_antenna(),
            cfg.build_channel())


def _configured_table(cfg: ScenarioConfig):
    """Link table at the UAV position from the config."""
    return build_link_table(*_models(cfg), (cfg.uav_x, cfg.uav_y, cfg.uav_altitude),
                            cfg.gbs_height)


def _conditioned_spec(cfg: ScenarioConfig, event_index: int):
    """One association event at the configured UAV position, as (serving
    GBS id, ``LOS`` or ``NLOS_MAX``, probability), and the interference
    spec conditioned on it: one row per lit co-channel interferer, the lit
    GBSs of the serving band other than the server."""
    table = _configured_table(cfg)
    events = association_pmf(table, cfg.association_epsilon)
    if not 0 <= event_index < len(events):
        raise ConfigError(
            f"--event {event_index} out of range; {len(events)} association events"
        )
    serving, forced = events.serving[event_index], events.forced[event_index]
    if serving < 0:
        raise ConfigError(
            "selected association event has no serving GBS (zero-gain case); "
            "no interference law is defined for it"
        )
    state = "LOS" if events.los[event_index] else "NLOS_MAX"
    event = (int(table.gbs_id[serving]), state, float(events.probability[event_index]))
    return event, conditional_interference_specs(table, cfg.loading, [serving], [forced])[0]


def _method_names(text: str) -> list[str]:
    return [m.strip() for m in text.split(",") if m.strip()]


def _law(method: str, spec, cfg: ScenarioConfig, args):
    """The law of the spec's sum by one method: the lattice (la), exhaustive
    enumeration (enum), seeded Monte Carlo (mc) or the Gaussian baseline (ga)."""
    if method == "la":
        return la_folds(spec, cfg.lattice_target_c0).to_cdf()
    if method == "enum":
        return enumerate_cdf(spec)
    if method == "mc":
        return mc_cdf(spec, args.samples, args.seed)
    return gaussian_cdf(spec)


def cmd_interference_cdf(cfg: ScenarioConfig, args) -> int:
    methods = _method_names(args.methods)
    known = ("la", "enum", "mc", "ga")
    if not methods:
        raise ConfigError(f"--methods {args.methods!r} names no method; choose from {known}")
    for m in methods:
        if m not in known:
            raise ConfigError(f"unknown method {m!r}; choose from {known}")

    (gbs, state, probability), spec = _conditioned_spec(cfg, args.event)
    print(f"event {args.event}: serving GBS {gbs} ({state}), "
          f"P={_fmt(probability)}, {len(spec)} lit co-channel interferers, "
          f"interference mean={_fmt(spec.mean())}")

    la = _law("la", spec, cfg, args)
    # every law is computed before any file is written, so a method that
    # fails leaves no partial output; the Gaussian law is read at the
    # lattice law's atoms
    laws = {}
    for method in methods:
        law = la if method == "la" else _law(method, spec, cfg, args)
        laws[method] = ([(float(x), float(law.eval(x))) for x in la.xs] if method == "ga"
                        else zip(law.xs, law.cum))
    for method, rows in laws.items():
        path = _out_path(args, f"interference_cdf_{method}.csv")
        _write_csv(path, ("x", "cdf"), rows, cfg)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_validate(cfg: ScenarioConfig, args) -> int:
    mode, tolerance = args.mode, args.tolerance
    if mode == "uplink-vs-bruteforce":
        table = _configured_table(cfg)
        pmf = uplink_snr_pmf(table, cfg.beta0)
        oracle = uplink_pmf_enumeration(table, cfg.beta0)
        if list(pmf.values) != list(oracle.values):
            print("FAIL uplink-vs-bruteforce: atom value sets differ")
            return EXIT_FAIL
        err = float(np.max(np.abs(np.asarray(pmf.probs) - np.asarray(oracle.probs))))
        ok = err <= tolerance
        print(f"{'PASS' if ok else 'FAIL'} uplink-vs-bruteforce: "
              f"max pmf error={err:.3e} tolerance={tolerance:.3e}")
        # the block read coverage runs, on the lit links of a block of the
        # configured position, at the configured eps, whose truncation
        # moves outage by less than eps: read at and just above every
        # atom, so on both sides of every step of the exact law
        eps = cfg.association_epsilon
        ts = np.concatenate([oracle.values, np.nextafter(oracle.values, np.inf)])
        block = build_lit_links(*_models(cfg), [(cfg.uav_x, cfg.uav_y, cfg.uav_altitude)],
                                cfg.gbs_height)
        read = uplink_outage(block, cfg.beta0, ts, eps)[0]
        read_err = float(np.max(np.abs(read - [oracle.outage(t) for t in ts])))
        read_ok = read_err <= eps + tolerance
        print(f"{'PASS' if read_ok else 'FAIL'} uplink-vs-bruteforce: block read at "
              f"association_epsilon={eps:g}, max outage error={read_err:.3e} "
              f"bound eps + tolerance={eps + tolerance:.3e}")
        return EXIT_OK if ok and read_ok else EXIT_FAIL

    if mode == "downlink-vs-mc":
        # the outage coverage reads at the configured threshold, against
        # the MC oracle's, which lies within the DKW radius of the exact
        # outage with probability 1 - DKW_DELTA
        table = _configured_table(cfg)
        t = cfg.downlink_threshold
        lattice = float(downlink_snr_cdf(table, cfg.loading, cfg.alpha0,
                                         eps=cfg.association_epsilon,
                                         c0=cfg.lattice_target_c0).outage(t))
        mc = float(downlink_outage_mc(table, cfg.loading, cfg.alpha0, [t], args.samples,
                                      args.seed)[0])
        gap, radius = abs(lattice - mc), math.sqrt(math.log(2.0 / DKW_DELTA) / (2 * args.samples))
        ok = gap <= radius + tolerance
        print(f"{'PASS' if ok else 'FAIL'} downlink-vs-mc: outage lattice={_fmt(lattice)} "
              f"MC={_fmt(mc)} gap={gap:.3e}, bound DKW radius={radius:.3e} (delta={DKW_DELTA:g}, "
              f"n={args.samples}, seed={args.seed}) + tolerance={tolerance:.3e}")
        return EXIT_OK if ok else EXIT_FAIL

    if mode == "downlink-vs-joint-enum":
        # The exact law lies between the mixtures at alpha0 -/+ the largest
        # displacement of its laws; the plain sup distance reads whole
        # atoms even for an exact mixture.
        table = _configured_table(cfg)
        approx = downlink_snr_cdf(table, cfg.loading, cfg.alpha0, c0=cfg.lattice_target_c0)
        oracle = downlink_cdf_enumeration(table, cfg.loading, cfg.alpha0)
        excess = envelope_excess(oracle, *approx.envelope())
        ok = excess <= tolerance
        print(f"{'PASS' if ok else 'FAIL'} downlink-vs-joint-enum: excess over the "
              f"alpha0 -/+ M/(2 beta) envelope={excess:.3e} tolerance={tolerance:.3e}; "
              f"plain Kolmogorov distance={kolmogorov_distance(oracle, approx):.3e}")
        return EXIT_OK if ok else EXIT_FAIL

    # The remaining modes compare sum laws on the spec conditioned on one
    # association event at the configured position: the lattice law
    # against the oracle the mode names, and in ga-vs-enum also the
    # Gaussian baseline, expected to be the weaker approximation.
    (gbs, _, _), spec = _conditioned_spec(cfg, args.event)
    print(f"conditioning on event {args.event}: serving GBS {gbs}, "
          f"{len(spec)} lit co-channel interferers")
    law = la_folds(spec, cfg.lattice_target_c0)
    la = law.to_cdf()
    # The lattice moves each atom by at most its displacement M / (2 beta)
    # and promises no more, so the oracle is held to the lattice cdf moved
    # that far either way; the plain sup distance reads the mass of any
    # displaced atom and is printed for information.
    oracle = _law(mode.partition("-vs-")[2], spec, cfg, args)
    dist = envelope_excess(oracle, *law.envelope())
    plain = kolmogorov_distance(oracle, la)
    if mode == "ga-vs-enum":
        ga_dist = kolmogorov_distance(oracle, _law("ga", spec, cfg, args))
        ok = dist < ga_dist
        print(f"{'PASS' if ok else 'FAIL'} ga-vs-enum: LA distance beyond the M/(2 beta) "
              f"displacement={dist:.3e} < GA distance={ga_dist:.3e} is the pass rule; "
              f"plain LA Kolmogorov distance={plain:.3e}")
    else:
        run = f" (n={args.samples}, seed={args.seed})" if mode == "la-vs-mc" else ""
        ok = dist <= tolerance
        print(f"{'PASS' if ok else 'FAIL'} {mode}: distance beyond the M/(2 beta) "
              f"displacement={dist:.3e} tolerance={tolerance:.3e}{run}; "
              f"plain Kolmogorov distance={plain:.3e}")
    return EXIT_OK if ok else EXIT_FAIL


def _positive_int(text: str, low: int = 1) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _seed(text: str) -> int:
    return _positive_int(text, 0)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _decibels(text: str) -> float:
    try:
        db_to_linear(float(text))
    except ValueError:   # not a number, or no positive finite float in linear units
        raise argparse.ArgumentTypeError(
            f"must be a finite number of dB whose linear ratio is a positive float, got {text!r}"
        ) from None
    return float(text)


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``uavcov`` argument parser, built on the first call and returned
    to every later one; callers must not mutate it (no ``set_defaults``,
    no added arguments), since every ``main`` call in the process shares it."""
    parser = argparse.ArgumentParser(
        prog="uavcov",
        description="Coverage analysis for cellular-connected UAVs",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="INI config file (defaults used if absent)")
    common.add_argument("--out", default=".", help="output directory for CSVs")
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument("--workers", type=_positive_int, default=1,
                      help="parallel worker processes, at most one per block of "
                           "positions; a pool starts only when the CPU time of "
                           "the first position predicts that it pays")
    # interference-cdf and validate: the association event and the MC run
    sums = argparse.ArgumentParser(add_help=False)
    sums.add_argument("--event", type=int, default=None,
                      help=f"association event index (default {FLAG_DEFAULTS['event']})")
    sums.add_argument("--samples", type=_positive_int, default=None,
                      help=f"MC sample count (default {FLAG_DEFAULTS['samples']})")
    sums.add_argument("--seed", type=_seed, default=None, help="RNG seed (required for MC)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("layout", parents=[common], help="emit the site/band layout CSV")
    p.set_defaults(func=cmd_layout, parser=p)

    for link in LinkDirection:
        p = sub.add_parser(f"{link.value}-map", parents=[common, pool],
                           help=f"{link.value} non-outage raster")
        p.add_argument("--altitude", type=_finite_float, default=None, help="UAV altitude in m")
        p.set_defaults(func=functools.partial(cmd_map, link), parser=p)

    p = sub.add_parser("coverage-curve", parents=[common, pool],
                       help="coverage vs altitude or threshold")
    p.add_argument("--link", choices=("uplink", "downlink"), default="uplink")
    p.add_argument("--sweep", choices=("altitude", "threshold"), default="altitude")
    p.add_argument("--altitude", type=_finite_float, default=None,
                   help="altitude for threshold sweeps (default [uav] altitude_m)")
    p.add_argument("--min-db", type=_decibels, default=None,
                   help=f"threshold sweep start (dB, default {FLAG_DEFAULTS['min_db']:g})")
    p.add_argument("--max-db", type=_decibels, default=None,
                   help=f"threshold sweep end (dB, default {FLAG_DEFAULTS['max_db']:g})")
    p.add_argument("--points", type=_positive_int, default=None,
                   help=f"threshold sweep length (default {FLAG_DEFAULTS['points']})")
    p.set_defaults(func=cmd_coverage_curve, parser=p)

    p = sub.add_parser("interference-cdf", parents=[common, sums],
                       help="conditional interference cdf at the configured UAV position")
    p.add_argument("--methods", default="la", help="comma list from la,enum,mc,ga")
    p.set_defaults(func=cmd_interference_cdf, parser=p)

    p = sub.add_parser("validate", parents=[common, sums], help="cross-check against oracles")
    p.add_argument("--mode", choices=VALIDATE_MODES, required=True)
    p.add_argument("--tolerance", type=_tolerance, default=None,
                   help="pass/fail bound (mode-specific default)")
    p.set_defaults(func=cmd_validate, parser=p)

    return parser


def _unread_flags(args) -> tuple[str, tuple[str, ...]]:
    """The form of the command the arguments ask for, as an error names
    it, and the optional flags that form does not read."""
    if args.command == "validate":
        return f"validate --mode {args.mode}", tuple(
            flag for flag in ("event", "samples", "seed", "tolerance")
            if flag not in VALIDATE_MODES[args.mode][0]
        )
    if args.command == "interference-cdf":
        if "mc" in _method_names(args.methods):
            return "interference-cdf with the mc method", ()
        return "interference-cdf without the mc method", ("samples", "seed")
    if args.command == "coverage-curve" and args.sweep == "altitude":
        return "coverage-curve --sweep altitude", ("altitude", "min_db", "max_db", "points")
    return args.command, ()


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:   # refused by the subcommand's usage, as every usage error is
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    # an optional flag the form does not read is a usage error; one it
    # reads and is not given takes its default, but --seed has none
    what, unread = _unread_flags(args)
    given = [f"--{flag.replace('_', '-')}" for flag in unread if getattr(args, flag) is not None]
    if given:
        args.parser.error(f"{what} does not read {', '.join(given)}")
    if args.command == "validate" and args.tolerance is None:
        args.tolerance = VALIDATE_MODES[args.mode][1]
    for flag, default in FLAG_DEFAULTS.items():
        if getattr(args, flag, None) is None:
            setattr(args, flag, default)
    try:
        if hasattr(args, "seed") and args.seed is None and "seed" not in unread:
            raise ConfigError(f"--seed is required for {what}")
        return args.func(load_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # an array too large to allocate, such as the lattice of a target c0
    # near 2**53 or the layout of a huge radius, is a runtime failure too
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
