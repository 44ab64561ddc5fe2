"""Command line front end.

Subcommands: layout, uplink-map, downlink-map, coverage-curve,
interference-cdf, validate.  Every CSV starts with a comment line
recording the config hash so outputs can be traced back to the exact
parameter set that produced them.

Exit codes: 0 success, 1 validation/runtime failure, 2 config or usage
error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from .channel import build_link_table
from .config import ConfigError, ScenarioConfig, load_config
from .coverage import (
    LinkDirection,
    association_pmf,
    conditional_interference_spec,
    coverage_at_altitude,
    coverage_over_altitudes,
    downlink_snr_cdf,
    uplink_snr_pmf,
)
from .geometry import write_layout_csv
from .gpm import (
    displacement_bound,
    enumerate_cdf,
    gaussian_cdf,
    kolmogorov_distance,
    la_cdf,
    mc_cdf,
    quantization_adjusted_distance,
    write_cdf_csv,
)
from .oracles import downlink_cdf_enumeration, uplink_pmf_enumeration
from .units import db_to_linear

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

VALIDATE_MODES = (
    "la-vs-enum",
    "la-vs-mc",
    "ga-vs-enum",
    "uplink-vs-bruteforce",
    "downlink-vs-joint-enum",
)
DEFAULT_TOLERANCE = {
    "la-vs-enum": 0.01,
    "la-vs-mc": 0.005,
    "uplink-vs-bruteforce": 1e-12,
    "downlink-vs-joint-enum": 0.01,
}


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


def _map_command(cfg: ScenarioConfig, args, link: LinkDirection) -> int:
    threshold = cfg.uplink_threshold if link is LinkDirection.UPLINK else cfg.downlink_threshold
    altitude = args.altitude if args.altitude is not None else cfg.uav_altitude
    result = coverage_at_altitude(
        cfg, link, altitude=altitude, thresholds=(threshold,), workers=args.workers
    )
    name = "uplink_map.csv" if link is LinkDirection.UPLINK else "downlink_map.csv"
    path = _out_path(args, name)
    rows = [
        (float(x), float(y), float(p))
        for (x, y), p in zip(result.points, result.non_outage[0])
    ]
    _write_csv(path, ("x_m", "y_m", "non_outage_prob"), rows, cfg)
    print(f"wrote {path}: {len(rows)} points at H_u={_fmt(float(altitude))} m, "
          f"coverage={_fmt(float(result.coverage[0]))}")
    return EXIT_OK


def cmd_uplink_map(cfg: ScenarioConfig, args) -> int:
    return _map_command(cfg, args, LinkDirection.UPLINK)


def cmd_downlink_map(cfg: ScenarioConfig, args) -> int:
    return _map_command(cfg, args, LinkDirection.DOWNLINK)


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

    altitude = args.altitude if args.altitude is not None else cfg.uav_altitude
    thresholds_db = np.linspace(args.min_db, args.max_db, args.points).tolist()
    result = coverage_at_altitude(
        cfg, link, altitude=altitude, thresholds=tuple(map(db_to_linear, thresholds_db)),
        workers=args.workers,
    )
    rows = list(zip(thresholds_db, result.coverage.tolist()))
    _write_csv(path, ("threshold_db", "coverage"), rows, cfg)
    print(f"wrote {path}: {len(rows)} thresholds at H_u={_fmt(float(altitude))} m")
    return EXIT_OK


def _configured_table(cfg: ScenarioConfig):
    """Link table at the UAV position from the config."""
    return build_link_table(
        cfg.build_layout(), cfg.build_gbs_pattern(), cfg.build_uav_antenna(),
        cfg.build_channel(), (cfg.uav_x, cfg.uav_y, cfg.uav_altitude), cfg.gbs_height,
    )


def _conditioned_spec(cfg: ScenarioConfig, event_index: int):
    """One association event at the configured UAV position and the
    interference spec conditioned on it (one row per co-channel GBS)."""
    table = _configured_table(cfg)
    events = association_pmf(table, cfg.association_epsilon)
    if not 0 <= event_index < len(events):
        raise ConfigError(
            f"--event {event_index} out of range; {len(events)} association events"
        )
    event = events[event_index]
    if event.serving_id is None:
        raise ConfigError(
            "selected association event has no serving GBS (zero-gain case); "
            "no interference law is defined for it"
        )
    return event, conditional_interference_spec(event, table, cfg.loading)


def cmd_interference_cdf(cfg: ScenarioConfig, args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    known = ("la", "enum", "mc", "ga")
    for m in methods:
        if m not in known:
            raise ConfigError(f"unknown method {m!r}; choose from {known}")
    if "mc" in methods and args.seed is None:
        raise ConfigError("--seed is required for the mc method")

    event, spec = _conditioned_spec(cfg, args.event)
    print(f"event {args.event}: serving GBS {event.serving_id} ({event.state.name}), "
          f"P={_fmt(event.probability)}, {len(spec)} co-channel GBSs, "
          f"interference mean={_fmt(spec.mean())}")

    comment = f"config_sha256={cfg.config_hash}"
    lattice, la = la_cdf(spec, cfg.lattice_target_c0)
    for method in methods:
        path = _out_path(args, f"interference_cdf_{method}.csv")
        if method == "la":
            write_cdf_csv(la, path, comment=comment)
        elif method == "enum":
            write_cdf_csv(enumerate_cdf(spec), path, comment=comment)
        elif method == "mc":
            write_cdf_csv(mc_cdf(spec, args.samples, args.seed), path, comment=comment)
        else:
            ga = gaussian_cdf(spec)
            rows = [(float(x), float(ga(x))) for x in la.xs]
            _write_csv(path, ("x", "cdf"), rows, cfg)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_validate(cfg: ScenarioConfig, args) -> int:
    mode = args.mode
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = DEFAULT_TOLERANCE.get(mode)

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
        return EXIT_OK if ok else EXIT_FAIL

    if mode == "downlink-vs-joint-enum":
        table = _configured_table(cfg)
        approx = downlink_snr_cdf(table, cfg.loading, cfg.alpha0, c0=cfg.lattice_target_c0)
        oracle = downlink_cdf_enumeration(table, cfg.loading, cfg.alpha0)
        dist = kolmogorov_distance(oracle, approx)
        ok = dist <= tolerance
        print(f"{'PASS' if ok else 'FAIL'} downlink-vs-joint-enum: "
              f"Kolmogorov distance={dist:.3e} tolerance={tolerance:.3e}")
        return EXIT_OK if ok else EXIT_FAIL

    # The remaining modes compare interference-cdf approximations on the
    # spec conditioned on one association event at the configured position.
    event, spec = _conditioned_spec(cfg, args.event)
    print(f"conditioning on event {args.event}: serving GBS {event.serving_id}, "
          f"{len(spec)} co-channel GBSs")
    _, la = la_cdf(spec, cfg.lattice_target_c0)

    if mode in ("la-vs-enum", "la-vs-mc"):
        # The lattice moves each atom by at most M / (2 beta) and promises
        # no more, so the check allows that displacement (widened by 1e-9
        # relative for float noise); the plain sup distance reads the mass
        # of any displaced atom and is printed for information only.
        if mode == "la-vs-enum":
            oracle, run = enumerate_cdf(spec), ""
        elif args.seed is None:
            raise ConfigError("--seed is required for la-vs-mc")
        else:
            oracle = mc_cdf(spec, args.samples, args.seed)
            run = f" (n={args.samples}, seed={args.seed})"
        slack = displacement_bound(spec, cfg.lattice_target_c0) * (1.0 + 1e-9)
        dist = quantization_adjusted_distance(la, oracle, slack)
        ok = dist <= tolerance
        print(f"{'PASS' if ok else 'FAIL'} {mode}: distance beyond the M/(2 beta) "
              f"displacement={dist:.3e} tolerance={tolerance:.3e}{run}; "
              f"plain Kolmogorov distance={kolmogorov_distance(oracle, la):.3e}")
        return EXIT_OK if ok else EXIT_FAIL

    # ga-vs-enum: the Gaussian baseline is expected to be the weaker
    # approximation; the lattice law is measured as in la-vs-enum.
    oracle = enumerate_cdf(spec)
    ga_dist = kolmogorov_distance(oracle, gaussian_cdf(spec))
    slack = displacement_bound(spec, cfg.lattice_target_c0) * (1.0 + 1e-9)
    la_dist = quantization_adjusted_distance(la, oracle, slack)
    ok = la_dist < ga_dist
    print(f"{'PASS' if ok else 'FAIL'} ga-vs-enum: LA distance beyond the M/(2 beta) "
          f"displacement={la_dist:.3e} < GA distance={ga_dist:.3e} is the pass rule; "
          f"plain LA Kolmogorov distance={kolmogorov_distance(oracle, la):.3e}")
    return EXIT_OK if ok else EXIT_FAIL


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _decibels(text: str) -> float:
    value = float(text)
    try:
        ok = math.isfinite(value) and db_to_linear(value) > 0.0
    except OverflowError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(
            f"must be a finite number of dB whose linear ratio is a positive float, got {text!r}"
        )
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavcov",
        description="Coverage analysis for cellular-connected UAVs",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="INI config file (defaults used if absent)")
    common.add_argument("--out", default=".", help="output directory for CSVs")
    common.add_argument("--workers", type=_positive_int, default=1,
                        help="parallel worker processes")
    common.add_argument("--seed", type=int, default=None, help="RNG seed (required for MC)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("layout", parents=[common], help="emit the site/band layout CSV")
    p.set_defaults(func=cmd_layout)

    for name, func in (("uplink-map", cmd_uplink_map), ("downlink-map", cmd_downlink_map)):
        p = sub.add_parser(name, parents=[common], help=f"{name.split('-')[0]} non-outage raster")
        p.add_argument("--altitude", type=_finite_float, default=None, help="UAV altitude in m")
        p.set_defaults(func=func)

    p = sub.add_parser("coverage-curve", parents=[common], help="coverage vs altitude or threshold")
    p.add_argument("--link", choices=("uplink", "downlink"), default="uplink")
    p.add_argument("--sweep", choices=("altitude", "threshold"), default="altitude")
    p.add_argument("--altitude", type=_finite_float, default=None,
                   help="altitude for threshold sweeps")
    p.add_argument("--min-db", type=_decibels, default=0.0, help="threshold sweep start (dB)")
    p.add_argument("--max-db", type=_decibels, default=20.0, help="threshold sweep end (dB)")
    p.add_argument("--points", type=_positive_int, default=10, help="threshold sweep length")
    p.set_defaults(func=cmd_coverage_curve)

    p = sub.add_parser("interference-cdf", parents=[common],
                       help="conditional interference cdf at the configured UAV position")
    p.add_argument("--event", type=int, default=0, help="association event index")
    p.add_argument("--methods", default="la", help="comma list from la,enum,mc,ga")
    p.add_argument("--samples", type=_positive_int, default=1_000_000, help="MC sample count")
    p.set_defaults(func=cmd_interference_cdf)

    p = sub.add_parser("validate", parents=[common], help="cross-check against oracles")
    p.add_argument("--mode", choices=VALIDATE_MODES, required=True)
    p.add_argument("--event", type=int, default=0, help="association event index")
    p.add_argument("--samples", type=_positive_int, default=1_000_000, help="MC sample count")
    p.add_argument("--tolerance", type=_tolerance, default=None,
                   help="pass/fail bound (mode-specific default)")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
