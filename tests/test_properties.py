"""Property tests over small random scenarios, derandomised and bounded.

Every detector that takes a support size must return exactly zeta sorted,
distinct, in-range indices, whatever the dimensions: zeta above the pilot
length or equal to the pool size, every user active, one-symbol reference
signals, no data block, noiseless frames and pools with repeated pilots.
Every counted ledger must equal its closed-form model, and ``run_point``
rows must not depend on the number of trial workers.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdrslink.detectors import detect_bomp, detect_fpr, detect_pdrs_dwe, fpr_gram_pinv, oracle_support
from pdrslink.harness import DETECTORS, run_point
from pdrslink.metrics import complexity_model
from pdrslink.rng import RngStream
from pdrslink.scenario import (
    PDRS_MODES,
    PilotPool,
    SystemConfig,
    assemble_frame,
    gen_pdrs_codebook,
    gen_pilot_pool,
    sample_activity,
)


@st.composite
def scenarios(draw):
    L = draw(st.integers(1, 6))
    N = draw(st.integers(L + 1, 12))
    cfg = SystemConfig(
        M=draw(st.integers(1, 6)),
        N=N,
        L=L,
        l=draw(st.integers(1, 3)),
        K=draw(st.integers(1, N)),
        zeta=draw(st.integers(1, N)),
        snr_db=draw(st.sampled_from([0.0, 10.0, float("inf")])),
        D=draw(st.integers(0, 3)),
        pdrs_mode=draw(st.sampled_from(PDRS_MODES)),
        trials=1,
        seed=draw(st.integers(0, 2**16)),
    )
    # each listed user takes over the pilot of a lower-indexed one
    copies = draw(st.lists(st.integers(1, N - 1), max_size=3, unique=True))
    return cfg, copies


def _frame(cfg, copies):
    P = gen_pilot_pool(cfg, RngStream(cfg.seed, 0)).P
    for n in copies:
        P[n] = P[n - 1]
    pool = PilotPool(P)
    codebook = gen_pdrs_codebook(cfg, RngStream(cfg.seed, 1))
    rng = RngStream(cfg.seed, 16)
    frame = assemble_frame(cfg, pool, codebook, sample_activity(cfg, rng), rng)
    return frame, pool, codebook


def _assert_support(detected, size, N):
    assert detected.dtype.kind == "i"
    assert detected.size == size
    assert np.all(np.diff(detected) > 0)
    assert detected[0] >= 0 and detected[-1] < N


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(scenarios())
def test_every_detector_returns_zeta_distinct_sorted_indices(scenario):
    cfg, copies = scenario
    frame, pool, codebook = _frame(cfg, copies)
    pdrs = detect_pdrs_dwe(frame, pool, codebook, cfg.zeta)
    bomp = detect_bomp(frame, pool, cfg.zeta)
    fpr = detect_fpr(frame, pool, cfg.zeta, fpr_gram_pinv(pool))
    for res in (pdrs, bomp, fpr):
        _assert_support(res.detected, cfg.zeta, cfg.N)
    _assert_support(oracle_support(frame).detected, cfg.K, cfg.N)
    assert pdrs.mults == complexity_model(cfg, "pdrs").detect_mults
    fpr_model = complexity_model(cfg, "fpr")
    assert (fpr.mults, fpr.real_mults) == (fpr_model.detect_mults, fpr_model.real_mults)
    if not copies:
        # distinct random pilots never trip the in-span skip, so BOMP's
        # ledger follows the closed-form model, zeta > L included
        assert bomp.mults == complexity_model(cfg, "bomp").detect_mults


def _rows_without_wall_clock(cfg, threads):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PDRS_THREADS", threads)
        rows = run_point(cfg, list(DETECTORS))
    # nan rates compare equal through repr
    return [repr({**vars(r), "wall_clock_ms": None}) for r in rows]


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(scenarios(), st.integers(1, 4))
def test_run_point_rows_do_not_depend_on_the_worker_count(scenario, trials):
    cfg = replace(scenario[0], trials=trials)
    assert _rows_without_wall_clock(cfg, "1") == _rows_without_wall_clock(cfg, "2")
