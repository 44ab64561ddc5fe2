"""Span tracing of uavcov's public functions from outside the package.

`installed(tracer)` wraps each name in `TRACED` for as long as the
context lasts.  `coverage` and `cli` import functions by name (for example
`uavcov.coverage.la_cdf`), so a module-level function is replaced in every
loaded `uavcov` module that holds a reference to it, not only where it is
defined; a method is replaced on its class.  A name that does not exist
in the code under test is reported as absent and skipped.

A span records its name, start, end, parent span and command call.
Spans stay in memory, up to `SPAN_CAP` of them, and are written out by
`write_spans`.  Self time is a span's duration minus its child spans'.
Only the process that installed the tracer records: pool workers forked
from it run the wrappers as plain pass-throughs, so a run with
`--workers 2` sees the parent-side spans only.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import os
import sys
import time
from collections import defaultdict

PACKAGE = "uavcov"
SPAN_CAP = 200_000

# Dotted names below the package: module, then attribute path.
TRACED = (
    "cli.main",
    "config.load_config",
    "geometry.build_hex_layout",
    "geometry.sample_region",
    "channel.build_link_table",
    "coverage.coverage_over_altitudes",
    "coverage.coverage_at_altitude",
    "coverage.association_pmf",
    "coverage.uplink_snr_pmf",
    "coverage.downlink_snr_cdf",
    "coverage.conditional_interference_spec",
    "coverage.UplinkSnrPmf.outage",
    "coverage.DownlinkSnrCdf.outage",
    "gpm.DiscreteSummand.from_pairs",
    "gpm.la_cdf",
    "gpm.lattice_invert",
    "gpm.cf_sample",
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _pow2_at_least(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


class Tracer:
    """Spans and counters of the command calls made between `begin_call`
    and `end_call`."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.call_id: int | None = None
        self.calls = 0
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._next_span = 0
        self._stack: list[list] = []  # [span id, child seconds]
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.lattice_n_max = 0
        self.counter_errors: set[str] = set()
        self._positions: set[tuple] = set()

    def begin_call(self, call_id: int) -> None:
        self.call_id = call_id
        self._positions = set()

    def end_call(self) -> None:
        self.counts["distinct_positions"] += len(self._positions)
        self.call_id = None
        self.calls += 1

    def wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.call_id is None or os.getpid() != self.pid:
                return fn(*args, **kwargs)
            span_id = self._next_span
            self._next_span += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                stat = self.stats[name]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((name, start, end, parent, span_id, self.call_id))
                else:
                    self.spans_dropped += 1
            if count is not None:
                # A counter that cannot read a changed signature or
                # result must not stop the traced run; it is reported.
                try:
                    count(self, args, kwargs, result)
                except Exception:  # noqa: BLE001 - boundary, reported below
                    self.counter_errors.add(name)
            return result

        return traced

    # -- counters -----------------------------------------------------

    def _link_table(self, args, kwargs, table) -> None:
        self.counts["link_rows"] += len(table)
        self._positions.add(tuple(float(v) for v in _arg(args, kwargs, 4, "uav_xyz")))

    def _events(self, args, kwargs, events) -> None:
        self.counts["events"] += len(events)

    def _summands(self, args, kwargs, spec) -> None:
        self.counts["summands"] += len(spec)

    def _points(self, args, kwargs, points) -> None:
        self.counts["sample_points"] += len(points)

    def _lattice(self, args, kwargs, result) -> None:
        spec = _arg(args, kwargs, 0, "spec")
        pmf = result[0].pmf
        n = _pow2_at_least(pmf.size)
        self.counts["lattice_n"] += n
        self.counts["lattice_filled"] += int((pmf > 0.0).sum())
        self.counts["fft_ops"] += 5 * n * math.log2(n) if n > 1 else 0
        self.counts["cf_evals"] += n * sum(s.support_size for s in spec.summands)
        self.lattice_n_max = max(self.lattice_n_max, n)


_COUNTERS = {
    "channel.build_link_table": Tracer._link_table,
    "coverage.association_pmf": Tracer._events,
    "coverage.conditional_interference_spec": Tracer._summands,
    "geometry.sample_region": Tracer._points,
    "gpm.la_cdf": Tracer._lattice,
}


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every name in `TRACED`; yields the names that are absent."""
    patches = []  # (holder, attribute, original)
    absent = []
    try:
        for name in TRACED:
            module_name, *path = name.split(".")
            holder = sys.modules.get(f"{PACKAGE}.{module_name}")
            for part in path[:-1]:
                holder = getattr(holder, part, None)
            attr = path[-1]
            if holder is None:
                absent.append(name)
            elif isinstance(holder, type):
                raw = holder.__dict__.get(attr)
                if isinstance(raw, classmethod):
                    replacement = classmethod(tracer.wrap(name, raw.__func__))
                elif callable(raw):
                    replacement = tracer.wrap(name, raw)
                else:
                    absent.append(name)
                    continue
                setattr(holder, attr, replacement)
                patches.append((holder, attr, raw))
            else:
                original = getattr(holder, attr, None)
                if not callable(original):
                    absent.append(name)
                    continue
                wrapper = tracer.wrap(name, original)
                for module in _package_modules():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            patches.append((module, key, original))
        yield absent
    finally:
        for holder, attr, original in reversed(patches):
            setattr(holder, attr, original)


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("name", "start_s", "end_s", "parent_span", "span", "call"))
        writer.writerows(tracer.spans)
