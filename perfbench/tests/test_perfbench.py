"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

Smoke runs use `--smoke`, a tiny version of every workload, and
`--seconds 0`, which makes exactly one command call (one untraced and one
traced call with `--trace 1`).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RATIOS = ("coverage.law_reuse", "gpm.lattice_fill")


def bench(workload, trace, cwd=ROOT, root=ROOT, seed=5):
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    return done


def result_of(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric_without_errors(workload):
    lines, result = result_of(bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert units(result) == want
    for name, unit in want.items():
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert result["metrics"]["success_rate"]["value"] == 1.0
    assert "calls: 1 (failed 0), error_rate = 0.0 fraction" in lines
    record = json.loads(next(line for line in lines if line.startswith("run_record "))
                        .split(" ", 1)[1])
    assert record["config_sha256"] and record["nproc"] >= 1
    assert {"python", "numpy", "scipy", "blas_env", "git_commit"} <= set(record)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_the_same_seed(workload):
    runs = [result_of(bench(workload, trace=1))[1] for _ in range(2)]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = []
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert units(result) == want
        counts.append({name: metric["value"] for name, metric in result["metrics"].items()
                       if metric["unit"] == "count" or name in RATIOS})
    assert counts[0] == counts[1]
    assert counts[0]["trace.absent"] == 0
    if workload in ("downlink-map", "threshold-sweep"):
        for name in ("coverage.events", "coverage.summands", "gpm.lattice_n.sum",
                     "channel.link_rows", "gpm.la_cdf.calls"):
            assert counts[0][name] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("downlink-map", trace=0, cwd=tmp_path, root=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tracer_rebinds_imported_names_and_reports_absent_ones(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import uavcov.cli
    import uavcov.coverage
    import uavcov.gpm

    originals = (uavcov.coverage.la_cdf, uavcov.cli.coverage_at_altitude,
                 uavcov.gpm.DiscreteSummand.__dict__["from_pairs"])
    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + (
        "gpm.no_such_function", "gpm.DiscreteSummand.no_such_method", "no_such_module.f"))
    t = tracer.Tracer()
    with tracer.installed(t) as absent:
        assert absent == ["gpm.no_such_function", "gpm.DiscreteSummand.no_such_method",
                          "no_such_module.f"]
        assert uavcov.coverage.la_cdf is not originals[0]
        assert uavcov.coverage.la_cdf is uavcov.gpm.la_cdf
        assert uavcov.cli.coverage_at_altitude is uavcov.coverage.coverage_at_altitude
        assert uavcov.cli.coverage_at_altitude is not originals[1]
        t.begin_call(0)
        uavcov.gpm.DiscreteSummand.from_pairs([(0.0, 0.5), (1.0, 0.5)])
        t.end_call()
    assert t.stats["gpm.DiscreteSummand.from_pairs"][0] == 1
    assert (uavcov.coverage.la_cdf, uavcov.cli.coverage_at_altitude,
            uavcov.gpm.DiscreteSummand.__dict__["from_pairs"]) == originals
