"""Property tests over small random scenarios, derandomised and bounded.

Every detector that takes a support size must return exactly zeta sorted,
distinct, in-range indices, whatever the dimensions: zeta above the pilot
length or equal to the pool size, every user active, one-symbol reference
signals, no data block, noiseless frames and pools with repeated pilots.
Every counted ledger must equal its closed-form model, and ``run_point``
rows must not depend on the number of trial workers.  A config file of small
or junk values is either rejected with a ValueError or synthesises a frame,
and so is a sweep of repeated, fractional or non-finite values and repeated
or unknown detectors: rejected, or one row per distinct value and detector.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdrslink.detectors import detect_bomp, detect_fpr, detect_pdrs_dwe, fpr_gram_pinv, oracle_support
from pdrslink.harness import DETECTORS, SWEEP_VARS, SweepSpec, parse_config, run_point, run_sweep
from pdrslink.metrics import complexity_model
from pdrslink.scenario import (
    PDRS_MODES,
    PilotPool,
    SystemConfig,
    synth_codebook,
    synth_frame,
    synth_pool,
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
    P = synth_pool(cfg).P
    for n in copies:
        P[n] = P[n - 1]
    pool, codebook = PilotPool(P), synth_codebook(cfg)
    return synth_frame(cfg, pool, codebook, 0), pool, codebook


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


#: Values that no key, or only some keys, take as valid.
JUNK = ["", "x", "1.5", "-1", "0", "1e400", "-4000", "nan", "-inf", str(2**64), "orthogonal-reuse"]

#: Small ranges of the integer keys, so a valid config allocates little.
SMALL = {"M": (1, 8), "N": (2, 12), "L": (1, 8), "l": (1, 4), "K": (1, 8), "zeta": (1, 12),
         "D": (0, 4), "trials": (1, 3), "svd_cost": (1, 4)}


def _small(key: str):
    if key == "snr_db":
        return st.one_of(st.floats(-30.0, 30.0).map(repr), st.just("inf"))
    if key == "pdrs_mode":
        return st.sampled_from(PDRS_MODES)
    if key == "seed":
        return st.sampled_from([0, 1, 2**64 - 1]).map(str)
    return st.integers(*SMALL[key]).map(str)


@st.composite
def config_texts(draw):
    """Every SystemConfig key once in any order, up to two with junk values, maybe one key again."""
    keys = draw(st.permutations([f.name for f in fields(SystemConfig)]))
    junk = draw(st.lists(st.sampled_from(keys), max_size=2))
    keys += draw(st.lists(st.sampled_from(keys), max_size=1))
    values = [draw(st.sampled_from(JUNK) if key in junk else _small(key)) for key in keys]
    return "".join(f"{key} = {value}  # c\n\n" for key, value in zip(keys, values))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(config_texts())
def test_a_config_file_is_rejected_or_synthesises_a_frame(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "property.cfg"
    path.write_text(text)
    try:
        cfg = parse_config(path)
    except ValueError:
        return
    pool, codebook = synth_pool(cfg), synth_codebook(cfg)
    synth_frame(cfg, pool, codebook, 0)


#: Sweep values: whole numbers, fractions, non-finite values and one so large
#: that ``alpha * K`` overflows; some variable rejects each kind.
SWEEP_VALUES = st.one_of(
    st.integers(0, 8).map(float),
    st.sampled_from([0.5, 1.5, 1e308, float("inf"), float("-inf"), float("nan")]),
)


@st.composite
def sweep_specs(draw):
    """SweepSpec arguments on a tiny base config; values and detectors may repeat."""
    base = SystemConfig(
        M=4, N=8, L=3, l=2, K=2, zeta=2, snr_db=10.0, D=2, trials=1, seed=draw(st.integers(0, 2**16))
    )
    variable = draw(st.sampled_from(SWEEP_VARS))
    values = draw(st.lists(SWEEP_VALUES, min_size=1, max_size=3))
    detectors = draw(st.lists(st.sampled_from(DETECTORS + ("bogus",)), min_size=1, max_size=3))
    return base, variable, values, detectors


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(sweep_specs())
def test_a_sweep_spec_is_rejected_or_runs_every_point(args):
    try:
        spec = SweepSpec(*args)
    except ValueError:
        return
    values = [float(v) for v in spec.values]
    assert len(set(values)) == len(values)
    assert len(set(spec.detectors)) == len(spec.detectors)
    assert all(isinstance(spec.config_at(v), SystemConfig) for v in spec.values)
    assert len(run_sweep(spec)) == len(spec.values) * len(spec.detectors)
