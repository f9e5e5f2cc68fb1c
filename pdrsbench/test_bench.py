"""Tests of the benchmark itself.

    python3 -m pytest -q pdrsbench

They cover the output checks, that every metric BENCHMARK.json names is
printed with its unit, that the same seed gives the same simulated outputs,
and that the benchmark refuses to run without the library's sources.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from pdrslink import ResultRow  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAN = math.nan


def _row(**kw) -> ResultRow:
    fields = dict(
        sweep_var="snr_db", sweep_value=4.0, snr_db=4.0, K=96, L=96, N=1000, M=128, l=4,
        zeta=96, detector="pdrs", trials=60, miss_rate=0.003, false_pos_rate=3e-4, ser=0.045,
        mean_post_sinr_db=6.4, modeled_mults=6_036_480, counted_mults=6_040_480,
        wall_clock_ms=6.0, seed=65537,
    )
    fields.update(kw)
    return ResultRow(**fields)


def _diagnostic(detector: str) -> ResultRow:
    return _row(detector=detector, miss_rate=NAN, false_pos_rate=NAN, ser=NAN,
                mean_post_sinr_db=NAN, counted_mults=0, wall_clock_ms=NAN)


def test_checks_pass_good_rows_and_guarded_nan():
    fpr = dict(modeled_mults=12_416_000, counted_mults=12_416_000)
    rows = [
        _row(),
        _row(detector="pdrs-lszf", mean_post_sinr_db=6.4 * (1 + 1e-9)),
        _row(detector="fpr", miss_rate=NAN, false_pos_rate=NAN, **fpr),
        _row(detector="oracle", miss_rate=0.0, false_pos_rate=0.0, modeled_mults=0, counted_mults=0),
        _row(detector="bomp", miss_rate=0.23, modeled_mults=1_443_062_016,
             counted_mults=1_443_062_016),
    ]
    assert checks.check_rows(rows) == []
    assert checks.failed_trials(rows) == 0


@pytest.mark.parametrize(
    "rows, expect",
    [
        ([_diagnostic("pdrs")], "diagnostic row"),
        ([_row(counted_mults=int(6_036_480 * 1.11))], "not within 10%"),
        ([_row(miss_rate=0.021)], "above 0.02"),
        ([_row(detector="bomp", miss_rate=0.03, modeled_mults=10, counted_mults=10)], "not above"),
        ([_row(detector="oracle", miss_rate=0.01, modeled_mults=0, counted_mults=0)], "oracle"),
        ([_row(), _row(detector="pdrs-lszf", ser=0.046)], "pdrs vs pdrs-lszf"),
    ],
)
def test_checks_reject(rows, expect):
    problems = checks.check_rows(rows)
    assert len(problems) == 1 and expect in problems[0], problems


def test_ledger_gap_just_inside_tolerance_passes():
    assert checks.check_rows([_row(counted_mults=int(6_036_480 * 1.09))]) == []


def test_diagnostic_row_fails_every_trial_of_its_point_once():
    point = [_diagnostic("pdrs"), _diagnostic("pdrs-lszf")]
    other = [_row(sweep_value=6.0, snr_db=6.0), _row(detector="pdrs-lszf", sweep_value=6.0, snr_db=6.0)]
    assert checks.failed_trials(point + other) == 60


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_outputs(name):
    w = WORKLOADS[name]
    a = w.run(seed=3, call=1, trials=2)
    b = w.run(seed=3, call=1, trials=2)
    assert len(a) == len(w.detectors) * w.n_points
    assert checks.same_outputs(a, b)


def test_calls_of_one_run_draw_distinct_inputs():
    w = WORKLOADS["anchor-pdrs"]
    assert not checks.same_outputs(w.run(3, 1, 2), w.run(3, 2, 2))


def test_self_time_is_span_minus_children():
    tr = tracing.Tracer()
    tr.current_trial = 0
    with tr.span("harness.trial"):
        with tr.span("combining.lszf"):
            with tr.span("linalg.pinv"):
                pass
            with tr.span("trace.rank"):
                pass
    stats = tracing.SpanStats(tr)
    assert sum(stats.self_time) == pytest.approx(stats.dur[0], rel=1e-12)
    assert stats.layer_time[1] == pytest.approx(stats.dur[1] - stats.dur[3], rel=1e-12)
    assert stats.samples("linalg.pinv", caller="combining.").size == 1


@pytest.mark.parametrize("n, pct", [(19, 50.0), (100, 90.0), (1920, 99.0), (10000, 99.9)])
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    assert tracing.tail_percentile(n) == pct


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "pdrsbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(trace, key):
    declared = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    proc = _bench(ROOT, "--workload", "anchor-pdrs", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for name, m in result["metrics"].items():
        assert f"{name} {m['value']!r} {m['unit']}" in lines
    assert any(line.startswith("env ") for line in lines)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "pdrsbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "anchor-pdrs", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
