"""The benchmark's layer trace replays the library's rows at small sizes.

``pdrsbench/tracing.py`` calls each module's public functions itself, in the
order ``harness`` does, and reads attributes such as
``SystemConfig.svd_cost``, ``WeightMatrix.apply`` and
``DetectionResult.y_pinv`` on the way.  ``test_bench_contract.py`` checks the
calls' shapes only, so this test runs the replay of every detector and
compares its outputs with ``run_point``'s rows.  The module is loaded from
its file when the test runs, not when it is collected.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from pdrslink import SystemConfig, run_point
from pdrslink.harness import DETECTORS

TRACING = Path(__file__).resolve().parents[1] / "pdrsbench" / "tracing.py"
SNRS_DB = (0.0, 4.0, 8.0)
SMALL = dict(M=12, N=24, L=8, l=4, K=5, zeta=5, D=6, trials=4, seed=21)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("pdrsbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "kw",
    [{}, {"zeta": 10}, {"M": 6}, {"M": 6, "zeta": 10}, {"pdrs_mode": "orthogonal-reuse", "l": 3}],
    ids=["zeta=K", "zeta>L", "M<L", "M<L,zeta>L", "orthogonal-reuse"],
)
def test_the_layer_trace_replays_every_detectors_rows(kw):
    tracing = _load_tracing()
    base = SystemConfig(**(SMALL | kw))
    points = [replace(base, snr_db=snr) for snr in SNRS_DB]
    rows = [row for cfg in points for row in run_point(cfg, list(DETECTORS))]

    tr = tracing.Tracer()
    tallies = {}
    with tracing.traced_pinv(tr):
        for k, cfg in enumerate(points):
            for name, tally in tracing.replay_point(tr, cfg, DETECTORS, k * cfg.trials).items():
                tallies[(cfg.snr_db, name)] = tally
    assert len(rows) == len(tallies) == len(SNRS_DB) * len(DETECTORS)
    assert tracing.replay_mismatches(rows, tallies) == []
    assert "linalg.pinv" in tr.names
