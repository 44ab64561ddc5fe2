"""The benchmark's workloads: seeded inputs for each command call and the
checks every call's CSV must pass.

Every call of a run gets its own inputs, drawn from (workload, seed, call
index), so no two calls of a run repeat a computation and a cache that
lives across command calls cannot make the loop faster than a user's
distinct runs would be.  The main drawn input of call i lies in stratum
i mod STRATA of its band, so every run covers each band evenly: the cost
of a `downlink-map` call grows by about half from 90 m to 110 m.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
STRATA = 4

# Bands the seed draws from (see BENCHMARK.json and README.md).
ALTITUDE_BAND_M = (90.0, 110.0)
THRESHOLD_WINDOW_DB = (-5.0, 15.0)
THRESHOLD_OFFSET_DB = (-2.0, 2.0)
SWEEP_LOW_M = (30.0, 40.0)
SWEEP_HIGH_M = (190.0, 200.0)

REFERENCE_ABS_TOL = 1e-9
AXIS_ABS_TOL = 1e-8


@dataclass(frozen=True)
class Call:
    """One command call: the INI text, the CLI arguments after the
    subcommand's `--config`/`--out`, and what its CSV must look like."""

    stratum: int
    ini: str
    argv: tuple[str, ...]
    csv_name: str
    rows: int
    axis: tuple[float, ...] | None  # expected first column, None for maps
    monotone_decreasing: bool

    @property
    def workers(self) -> int:
        return int(self.argv[self.argv.index("--workers") + 1])


def _ini(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                  for key, value in keys.items()]
        lines.append("")
    return "\n".join(lines)


def _linspace(lo: float, hi: float, n: int) -> tuple[float, ...]:
    if n == 1:
        return (lo,)
    return tuple(lo + (hi - lo) * k / (n - 1) for k in range(n))


def _stratified(rng: random.Random, index: int, band: tuple[float, float]) -> float:
    lo, hi = band
    return lo + (hi - lo) * (index % STRATA + rng.random()) / STRATA


def downlink_map(seed: int, index: int, smoke: bool) -> Call:
    # Default 367-site scene, reuse 3, at the triangle's centroid: ~121
    # co-channel interferers and 41-63 association events across the
    # band, each one spec build plus one N = 1024 lattice inversion.
    rng = random.Random(f"downlink-map/{seed}/{index}")
    sections: dict[str, dict[str, object]] = {
        "sampling": {"region": "triangle", "resolution": 1},
    }
    if smoke:
        sections["layout"] = {"radius_m": 1000}
    altitude = _stratified(rng, index, ALTITUDE_BAND_M)
    return Call(
        stratum=index % STRATA,
        ini=_ini(sections),
        argv=("downlink-map", "--altitude", repr(altitude), "--workers", "1"),
        csv_name="downlink_map.csv",
        rows=1,
        axis=None,
        monotone_decreasing=False,
    )


def threshold_sweep(seed: int, index: int, smoke: bool) -> Call:
    # 37-site scene (11 interferers per event): the per-event inversion
    # cost dominates, and all thresholds share the same per-point laws.
    rng = random.Random(f"threshold-sweep/{seed}/{index}")
    points = 3 if smoke else 10
    sections = {
        "layout": {"radius_m": 1500},
        "sampling": {"region": "triangle", "resolution": 1},
    }
    altitude = _stratified(rng, index, ALTITUDE_BAND_M)
    offset = rng.uniform(*THRESHOLD_OFFSET_DB)
    lo, hi = (edge + offset for edge in THRESHOLD_WINDOW_DB)
    return Call(
        stratum=index % STRATA,
        ini=_ini(sections),
        argv=("coverage-curve", "--link", "downlink", "--sweep", "threshold",
              "--altitude", repr(altitude), "--min-db", repr(lo), "--max-db", repr(hi),
              "--points", str(points), "--workers", "1"),
        csv_name="coverage_curve.csv",
        rows=points,
        axis=_linspace(lo, hi, points),
        monotone_decreasing=True,
    )


def _uplink_altitude(seed: int, index: int, smoke: bool, workers: int) -> Call:
    # Default scene with a 75 degree UAV half-beamwidth, which gives
    # non-trivial uplink coverage; every point x altitude is one link
    # table and one association walk, and no lattice inversion.
    rng = random.Random(f"uplink-altitude/{seed}/{index}")
    resolution = 1 if smoke else 2
    points = 3 if smoke else 10
    lo = _stratified(rng, index, SWEEP_LOW_M)
    hi = rng.uniform(*SWEEP_HIGH_M)
    sections: dict[str, dict[str, object]] = {
        "uav_antenna": {"half_beamwidth_deg": 75},
        "sampling": {
            "region": "cell",
            "resolution": resolution,
            "altitude_min_m": lo,
            "altitude_max_m": hi,
            "altitude_points": points,
        },
    }
    if smoke:
        sections["layout"] = {"radius_m": 1000}
    return Call(
        stratum=index % STRATA,
        ini=_ini(sections),
        argv=("coverage-curve", "--link", "uplink", "--sweep", "altitude",
              "--workers", str(workers)),
        csv_name="coverage_curve.csv",
        rows=points,
        axis=_linspace(lo, hi, points),
        monotone_decreasing=False,
    )


def uplink_altitude(seed: int, index: int, smoke: bool) -> Call:
    return _uplink_altitude(seed, index, smoke, workers=1)


def uplink_altitude_w2(seed: int, index: int, smoke: bool) -> Call:
    return _uplink_altitude(seed, index, smoke, workers=2)


# name -> (input generator, reference family).  The two uplink workloads
# draw identical inputs and must give identical CSVs, so they share one
# set of reference values.
WORKLOADS = {
    "downlink-map": (downlink_map, "downlink-map"),
    "threshold-sweep": (threshold_sweep, "threshold-sweep"),
    "uplink-altitude": (uplink_altitude, "uplink-altitude"),
    "uplink-altitude-w2": (uplink_altitude_w2, "uplink-altitude"),
}


def read_csv(path: Path) -> tuple[str, list[list[float]]]:
    """The config hash from the comment line, and the numeric rows."""
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        if not first.startswith("# config_sha256="):
            raise ValueError(f"{path.name}: missing config_sha256 comment line")
        reader = csv.reader(fh)
        next(reader)  # header
        rows = [[float(v) for v in row] for row in reader]
    return first.split("=", 1)[1], rows


def reference_entry(call: Call, rows: list[list[float]]) -> dict:
    """What reference.json records for one call: its inputs (the worker
    count aside, which must not change the output) and its coverage values."""
    return {"ini": call.ini, "argv": list(call.argv[:-2]), "values": [row[-1] for row in rows]}


def check(call: Call, rows: list[list[float]], reference: dict | None) -> list[str]:
    """Every way the CSV rows break the call's contract; empty if none.
    ``reference`` is the call's reference.json entry, if one was recorded."""
    problems = []
    if len(rows) != call.rows:
        return [f"expected {call.rows} rows, got {len(rows)}"]
    values = [row[-1] for row in rows]
    if any(not 0.0 <= v <= 1.0 for v in values):
        problems.append(f"coverage outside [0, 1]: {values}")
    if call.axis is not None:
        drift = max(abs(row[0] - want) for row, want in zip(rows, call.axis))
        if drift > AXIS_ABS_TOL:
            problems.append(f"first column differs from the requested axis by {drift:.3e}")
    if call.monotone_decreasing and any(b > a for a, b in zip(values, values[1:])):
        problems.append(f"coverage rises with the threshold: {values}")
    if reference is not None:
        recorded = reference_entry(call, rows)
        if (reference["ini"], reference["argv"]) != (recorded["ini"], recorded["argv"]):
            problems.append("inputs differ from the ones the reference was recorded with")
        elif len(reference["values"]) != len(values):
            problems.append(f"reference has {len(reference['values'])} values, CSV has {len(values)}")
        else:
            err = max(abs(a - b) for a, b in zip(values, reference["values"]))
            if err > REFERENCE_ABS_TOL:
                problems.append(f"differs from the reference by {err:.3e}")
    return problems
