"""Benchmark runner for uavcov.

    python3 perfbench/run.py --workload downlink-map --seed 0 --seconds 20 --trace 0

Runs one workload through the public entry point `uavcov.cli.main`,
in-process, as a closed loop with a single caller: each command call
starts after the previous one returned, until `--seconds` have passed
(at least one call).  Every call gets its own seeded inputs (an INI file
plus CLI arguments, see workloads.py) and its CSV is checked.

With `--trace 0` the last stdout line reports the end-to-end metrics:
wall_s and cpu_s (per call, the mean over input strata of the median
call), setup_s (median over fresh interpreters), peak_rss_mb and
success_rate.  Timings are scaled to a reference machine speed, see
calibration.py.  With `--trace 1` each call runs twice on the same
inputs, untraced and then traced, and the last line reports the
per-layer metrics of the traced calls (raw means per call) and the
tracing overhead.  Human-readable lines and a `run_record` line come
before the last line.  `--smoke` shrinks every workload to a fraction of
a second.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration
import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
REFERENCE_FILE = BENCH_DIR / "reference.json"
SETUP_REPEATS = 9
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Timed in a fresh interpreter: import, config, and the objects every
# command builds before its first point.
SETUP_SCRIPT = """
import sys, time
start = time.perf_counter()
import uavcov.cli
from uavcov.config import load_config
from uavcov.geometry import sample_region
cfg = load_config(sys.argv[1])
cfg.build_layout(); cfg.build_gbs_pattern(); cfg.build_uav_antenna(); cfg.build_channel()
sample_region(cfg.build_region(), cfg.inter_site_distance)
print(time.perf_counter() - start)
"""

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "success_rate": "fraction"}


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children's figure is the largest
    # reaped child (pool workers), added as one worker's worth.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Runner:
    """Makes one workload's command calls and checks their output."""

    def __init__(self, cli, workload: str, seed: int, smoke: bool, references: list) -> None:
        self.cli = cli
        self.make_call = workloads.WORKLOADS[workload][0]
        self.workers = self.make_call(seed, 0, smoke).workers
        self.seed = seed
        self.smoke = smoke
        self.references = references
        self.dir = WORK_DIR / workload
        self.dir.mkdir(parents=True, exist_ok=True)
        self.ini = self.dir / "scene.ini"
        self.config_hashes: list[str] = []
        self.failures: list[str] = []
        self.last_rows: list[list[float]] = []

    def call(self, index: int):
        """Run call `index`; returns (stratum, wall s, cpu s, passed)."""
        call = self.make_call(self.seed, index, self.smoke)
        self.ini.write_text(call.ini)
        csv_path = self.dir / call.csv_name
        csv_path.unlink(missing_ok=True)
        argv = [call.argv[0], "--config", str(self.ini), "--out", str(self.dir), *call.argv[1:]]
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except Exception:  # noqa: BLE001 - a crashing call counts as failed
            code = None
            traceback.print_exc()
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu0
        if code != 0:
            return call.stratum, wall, cpu, self._fail(index, f"exit code {code}")
        try:
            config_hash, rows = workloads.read_csv(csv_path)
        except (OSError, ValueError, StopIteration) as exc:
            return call.stratum, wall, cpu, self._fail(index, f"unreadable CSV: {exc}")
        self.last_rows = rows
        if config_hash not in self.config_hashes:
            self.config_hashes.append(config_hash)
        reference = self.references[index] if index < len(self.references) else None
        problems = workloads.check(call, rows, reference)
        if problems:
            return call.stratum, wall, cpu, self._fail(index, "; ".join(problems))
        return call.stratum, wall, cpu, True

    def _fail(self, index: int, why: str) -> bool:
        self.failures.append(f"call {index}: {why}")
        print(f"perfbench: call {index} failed: {why}", file=sys.stderr)
        return False


@contextlib.contextmanager
def one_cpu():
    """Keep this process, and the processes it starts, on one CPU, so a
    calibration and the fresh interpreter it scales run on the same core:
    the cores of a shared host slow down independently of each other."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def measure_setup(ini: Path) -> tuple[list[float], list[float]]:
    """Raw and calibrated seconds of SETUP_REPEATS fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    with one_cpu():
        before = calibration.scale()
        for _ in range(SETUP_REPEATS):
            done = subprocess.run(
                [sys.executable, "-c", SETUP_SCRIPT, str(ini)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=False,
            )
            if done.returncode != 0:
                raise RuntimeError(f"set-up interpreter failed:\n{done.stderr}")
            after = calibration.scale()
            raw.append(float(done.stdout.strip().splitlines()[-1]))
            scaled.append(raw[-1] * (before + after) / 2)
            before = after
    return raw, scaled


def stratified_median(strata: list[int], samples: list[float]) -> float:
    """Mean over input strata of the median sample in each.

    A call's cost depends on its drawn input (a `downlink-map` call at
    110 m does half as much work again as one at 90 m), so the plain
    median of a run moves with the handful of inputs it happened to draw;
    the per-stratum medians do not.
    """
    by_stratum: dict[int, list[float]] = {}
    for stratum, value in zip(strata, samples):
        by_stratum.setdefault(stratum, []).append(value)
    return statistics.fmean(statistics.median(v) for v in by_stratum.values())


def _describe(name: str, reported: float, raw: list[float], scaled: list[float]) -> None:
    print(f"{name}: {reported:.4f} s at reference speed; per sample median "
          f"{statistics.median(scaled):.4f} "
          f"(min {min(scaled):.4f}, max {max(scaled):.4f}); raw median "
          f"{statistics.median(raw):.4f}, min {min(raw):.4f}, max {max(raw):.4f} s "
          f"(n={len(raw)})")


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, int, int]:
    strata, raw_walls, raw_cpus, walls, cpus, failed = [], [], [], [], [], 0
    deadline = time.perf_counter() + seconds
    index = 0
    # A pool spreads a call over every CPU, so its calibration does too.
    pool_cpus = os.sched_getaffinity(0) if runner.workers > 1 else None
    before = calibration.scale(pool_cpus)
    while True:
        stratum, wall, cpu, ok = runner.call(index)
        after = calibration.scale(pool_cpus)
        factor = (before + after) / 2
        before = after
        strata.append(stratum)
        raw_walls.append(wall)
        raw_cpus.append(cpu)
        walls.append(wall * factor)
        cpus.append(cpu * factor)
        failed += not ok
        index += 1
        if time.perf_counter() >= deadline:
            break
    peak = _peak_rss_mb()
    raw_setups, setups = measure_setup(runner.ini)
    attempted = len(walls)
    values = {
        "wall_s": stratified_median(strata, walls),
        "cpu_s": stratified_median(strata, cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
        "success_rate": (attempted - failed) / attempted,
    }
    print(f"calls: {attempted} (failed {failed}), error_rate = {failed / attempted} fraction")
    for name, raw, scaled in (("wall_s", raw_walls, walls), ("cpu_s", raw_cpus, cpus),
                              ("setup_s", raw_setups, setups)):
        _describe(name, values[name], raw, scaled)
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in values.items()}
    return metrics, attempted, failed


def _layer_metrics(t: tracing.Tracer, traced_wall: float, untraced_wall: float,
                   absent: list[str]) -> dict:
    n = t.calls

    def calls(name):
        return t.stats[name][0] / n

    def incl(name):
        return t.stats[name][1] / n

    def own(name):
        return t.stats[name][2] / n

    law_builds = t.stats["coverage.uplink_snr_pmf"][0] + t.stats["coverage.downlink_snr_cdf"][0]
    outage = ("coverage.UplinkSnrPmf.outage", "coverage.DownlinkSnrCdf.outage")
    lattice_n = t.counts["lattice_n"]
    s, count, ratio = "s", "count", "ratio"
    values = {
        "channel.build_link_table.calls": (calls("channel.build_link_table"), count),
        "channel.build_link_table.s": (incl("channel.build_link_table"), s),
        "channel.link_rows": (t.counts["link_rows"] / n, count),
        "coverage.association_pmf.calls": (calls("coverage.association_pmf"), count),
        "coverage.association_pmf.s": (incl("coverage.association_pmf"), s),
        "coverage.events": (t.counts["events"] / n, count),
        "coverage.conditional_interference_spec.calls":
            (calls("coverage.conditional_interference_spec"), count),
        "coverage.conditional_interference_spec.s":
            (incl("coverage.conditional_interference_spec"), s),
        "coverage.summands": (t.counts["summands"] / n, count),
        "coverage.downlink_snr_cdf.self_s": (own("coverage.downlink_snr_cdf"), s),
        "coverage.coverage_at_altitude.self_s": (own("coverage.coverage_at_altitude"), s),
        "coverage.outage.calls": (sum(calls(name) for name in outage), count),
        "coverage.outage.s": (sum(incl(name) for name in outage), s),
        "coverage.law_reuse": (t.counts["distinct_positions"] / law_builds if law_builds else 0.0,
                               ratio),
        "gpm.DiscreteSummand.from_pairs.calls": (calls("gpm.DiscreteSummand.from_pairs"), count),
        "gpm.DiscreteSummand.from_pairs.s": (incl("gpm.DiscreteSummand.from_pairs"), s),
        "gpm.la_cdf.calls": (calls("gpm.la_cdf"), count),
        "gpm.la_cdf.self_s": (own("gpm.la_cdf"), s),
        "gpm.lattice_invert.calls": (calls("gpm.lattice_invert"), count),
        "gpm.lattice_invert.s": (incl("gpm.lattice_invert"), s),
        "gpm.cf_sample.s": (incl("gpm.cf_sample"), s),
        "gpm.lattice_n.sum": (lattice_n / n, count),
        "gpm.lattice_n.max": (t.lattice_n_max, count),
        "gpm.lattice_fill": (t.counts["lattice_filled"] / lattice_n if lattice_n else 0.0, ratio),
        "gpm.fft_ops_computed": (t.counts["fft_ops"] / n, count),
        "gpm.cf_evals_computed": (t.counts["cf_evals"] / n, count),
        "config.load_config.s": (incl("config.load_config"), s),
        "geometry.build_hex_layout.s": (incl("geometry.build_hex_layout"), s),
        "geometry.sample_region.points": (t.counts["sample_points"] / n, count),
        "cli.main.self_s": (own("cli.main"), s),
        "trace.wall_s": (traced_wall, s),
        "trace.overhead_s": (traced_wall - untraced_wall, s),
        "trace.absent": (len(absent) + len(t.counter_errors), count),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_traced(runner: Runner, seconds: float, seed: int, workload: str) -> tuple[dict, int, int]:
    t = tracing.Tracer()
    untraced, traced, failed = [], [], 0
    with tracing.installed(t) as absent:
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            _, wall, _, ok = runner.call(index)
            untraced.append(wall)
            failed += not ok
            t.begin_call(index)
            try:
                _, wall, _, ok = runner.call(index)
            finally:
                t.end_call()
            traced.append(wall)
            failed += not ok
            index += 1
            if time.perf_counter() >= deadline:
                break
    traced_wall = statistics.fmean(traced)
    untraced_wall = statistics.fmean(untraced)
    spans_path = WORK_DIR / f"spans-{workload}-{seed}.csv"
    tracing.write_spans(t, spans_path)

    for name in absent:
        print(f"absent: {name}")
    for name in sorted(t.counter_errors):
        print(f"absent: counters of {name} (unreadable signature or result)")
    print(f"traced calls: {t.calls}; spans kept {len(t.spans)}, dropped {t.spans_dropped}; "
          f"written to {spans_path.relative_to(ROOT)}")
    print(f"{'span':45s} {'calls/call':>12s} {'s/call':>10s} {'self s/call':>12s}")
    self_total = 0.0
    for name in tracing.TRACED:
        if name not in t.stats:
            continue
        n_calls, incl, own = t.stats[name]
        self_total += own / t.calls
        print(f"{name:45s} {n_calls / t.calls:12.1f} {incl / t.calls:10.4f} {own / t.calls:12.4f}")
    print(f"self-time sum {self_total:.4f} s/call; traced wall {traced_wall:.4f}, "
          f"untraced wall {untraced_wall:.4f}, overhead {traced_wall - untraced_wall:.4f} s/call")
    metrics = _layer_metrics(t, traced_wall, untraced_wall, absent)
    return metrics, len(untraced) + len(traced), failed


def _git_commit() -> str | None:
    git_dir = ROOT / ".git"
    if not git_dir.is_dir():
        return None
    try:
        done = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:  # no git program
        return None
    return done.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "uavcov").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(args, runner: Runner) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "config_sha256": runner.config_hashes,
        "failures": runner.failures,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure for this long (0 makes one call)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny version of the workload, for the benchmark's own tests")
    return parser.parse_args(argv)


def import_cli():
    """The checkout's own `uavcov.cli`; exits non-zero when there is none."""
    if not (SRC / "uavcov" / "cli.py").is_file():
        sys.exit(f"perfbench: no uavcov sources under {SRC}; run from a uavcov checkout")
    sys.path.insert(0, str(SRC))
    import uavcov.cli

    if Path(uavcov.cli.__file__).resolve().parent != SRC / "uavcov":
        sys.exit(f"perfbench: imported uavcov from {uavcov.cli.__file__}, not {SRC}")
    return uavcov.cli


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    references = []
    if args.seed == workloads.DEFAULT_SEED and not args.smoke:
        family = workloads.WORKLOADS[args.workload][1]
        references = json.loads(REFERENCE_FILE.read_text())[family]
    runner = Runner(cli, args.workload, args.seed, args.smoke, references)
    if args.trace:
        metrics, attempted, failed = run_traced(runner, args.seconds, args.seed, args.workload)
    else:
        metrics, attempted, failed = run_untraced(runner, args.seconds)
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']!r} {metric['unit']}")
    print("run_record " + json.dumps(run_record(args, runner), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
