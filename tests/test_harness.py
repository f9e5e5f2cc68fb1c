import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from pdrslink import combining, harness, linalg
from pdrslink import detectors as detection
from pdrslink.combining import LsEstimate
from pdrslink.detectors import detect_fpr, fpr_gram_pinv
from pdrslink.harness import (
    CSV_HEADER,
    DETECTOR_TABLE,
    DETECTORS,
    LemmaReport,
    ResultRow,
    STAGE_TABLE,
    SweepSpec,
    _guarded_rate,
    emit_csv,
    lemma_check,
    parse_config,
    run_point,
    worker_count,
)
from pdrslink.linalg import BlasThreads, process_blas
from pdrslink.scenario import (
    FrameDraw,
    SystemConfig,
    draw_trial,
    synth_codebook,
    synth_pool,
)


def small_cfg(**kw):
    base = dict(M=12, N=24, L=8, l=2, K=5, zeta=5, snr_db=8.0, D=6, trials=6, seed=21)
    base.update(kw)
    return SystemConfig(**base)


def _stable_fields(row: ResultRow):
    return (
        row.sweep_var,
        row.sweep_value,
        row.snr_db,
        row.K,
        row.L,
        row.N,
        row.M,
        row.l,
        row.zeta,
        row.detector,
        row.trials,
        row.miss_rate,
        row.false_pos_rate,
        row.ser,
        row.mean_post_sinr_db,
        row.modeled_mults,
        row.counted_mults,
        row.seed,
    )


def trial_at_one_point(cfg, t, detectors, gram_pinv=None):
    """Trial ``t`` of ``cfg`` at its one point, by ``harness._trial_at_points``; raises its error."""
    specs = {name: DETECTOR_TABLE[name] for name in detectors}
    groups = [(synth_codebook(cfg), [(0, cfg)])]
    (result,) = harness._trial_at_points(synth_pool(cfg), gram_pinv, specs, groups, t)
    if isinstance(result, Exception):
        raise result
    return result


def test_a_trial_is_deterministic():
    cfg = small_cfg()
    a = trial_at_one_point(cfg, 3, ["pdrs"])["pdrs"]
    b = trial_at_one_point(cfg, 3, ["pdrs"])["pdrs"]
    assert (a.miss, a.false_pos, a.sym_errors) == (b.miss, b.false_pos, b.sym_errors)
    assert np.array_equal(a.post_sinr_db, b.post_sinr_db)


def test_trial_frame_independent_of_detector_list():
    cfg = small_cfg()
    (alone,) = run_point(cfg, ["pdrs"])
    paired, _ = run_point(cfg, ["pdrs", "oracle"])
    assert _stable_fields(alone) == _stable_fields(paired)


def test_trial_errors_carry_the_trial_index(monkeypatch):
    cfg = small_cfg()

    def boom(*a, **kw):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(harness, "detect_pdrs_dwe", boom)
    with pytest.raises(RuntimeError, match=r"^trial 7, detector pdrs, detect: synthetic failure$"):
        trial_at_one_point(cfg, 7, ["pdrs"])


@pytest.mark.parametrize(
    "detector, target, step",
    [
        ("pdrs", "draw_trial", "synthesis"),
        ("pdrs", "dwe_weights", "combine"),
        ("pdrs-lszf", "ls_channel_estimate", "combine"),
        ("pdrs-lszf", "support_inverse", "combine"),
        ("pdrs-lszf", "zf_weights", "combine"),
        ("pdrs", "detection_metrics", "score"),
        ("pdrs", "demod_qpsk", "demod"),
        ("pdrs-lszf", "symbol_errors", "demod"),
        ("pdrs", "post_sinr", "sinr"),
    ],
)
def test_trial_errors_name_the_step_that_raised(monkeypatch, detector, target, step):
    cfg = small_cfg(snr_db=float("inf"), zeta=8)

    def boom(*a, **kw):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(harness, target, boom)
    where = "synthesis" if step == "synthesis" else f"detector {detector}, {step}"
    with pytest.raises(RuntimeError, match=rf"^trial 3, {where}: synthetic failure$"):
        trial_at_one_point(cfg, 3, [detector])


def test_a_missing_gram_fails_the_trial_and_names_it():
    # run_sweep forms the Gram whenever a stage needs it, so only a direct call can omit it
    with pytest.raises(RuntimeError, match=r"^trial 2, detector fpr, detect: gram_pinv"):
        trial_at_one_point(small_cfg(), 2, ["fpr"])


def test_run_point_schedule_invariance(monkeypatch):
    cfg = small_cfg()
    monkeypatch.setenv("PDRS_THREADS", "1")
    serial = run_point(cfg, ["pdrs", "oracle"])
    monkeypatch.setenv("PDRS_THREADS", "3")
    threaded = run_point(cfg, ["pdrs", "oracle"])
    assert [_stable_fields(r) for r in serial] == [_stable_fields(r) for r in threaded]


def test_the_trial_path_makes_no_call_that_holds_the_interpreter_lock(monkeypatch):
    # zeta > L makes the least-squares pilot block tall, so every pinv rule but the SVD runs
    cfg = small_cfg(zeta=12, trials=3)
    calls = []
    for name in ("qr", "solve", "det", "inv"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    run_point(cfg, list(DETECTORS))
    assert calls.count("qr") == calls.count("solve") == calls.count("det") == 0
    assert "inv" in calls


class FakeBlas:
    """A BLAS thread count that records every change."""

    def __init__(self, threads):
        self.count = threads
        self.sets = []

    def set(self, n):
        self.sets.append(n)
        self.count = n

    def get(self):
        return self.count


def test_nested_pins_restore_the_callers_count_only_when_the_last_one_exits():
    fake = FakeBlas(4)
    blas = BlasThreads(fake.set, fake.get, "fake_set_num_threads")
    with blas.pinned():
        with blas.pinned():
            assert blas.threads() == 1
        assert blas.threads() == 1
    assert blas.threads() == 4
    assert fake.sets == [1, 4]


def test_concurrent_pins_restore_the_callers_count_only_when_the_last_one_exits():
    fake = FakeBlas(3)
    blas = BlasThreads(fake.set, fake.get, "fake_set_num_threads")
    first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def first():
        with blas.pinned():
            first_in.set()
            second_in.wait(10)
        seen["after first"] = blas.threads()
        first_out.set()

    def second():
        first_in.wait(10)
        with blas.pinned():
            second_in.set()
            first_out.wait(10)
            seen["second alone"] = blas.threads()

    workers = [threading.Thread(target=first), threading.Thread(target=second)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(20)
    assert not any(w.is_alive() for w in workers)
    assert seen == {"after first": 1, "second alone": 1}
    assert blas.threads() == 3
    assert fake.sets == [1, 3]


def test_many_threads_pinning_at_once_never_lose_a_holder():
    fake = FakeBlas(4)
    blas = BlasThreads(fake.set, fake.get, "fake_set_num_threads")
    unpinned_inside = []

    def hold():
        for _ in range(200):
            with blas.pinned():
                if blas.threads() != 1:
                    unpinned_inside.append(blas.threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hold) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert unpinned_inside == []
    assert blas.threads() == 4
    assert fake.sets[-1] == 4 and fake.sets.count(1) == fake.sets.count(4)


@pytest.mark.parametrize(
    "env, serial",
    [({}, True), ({"OMP_NUM_THREADS": "4"}, True), ({"OPENBLAS_NUM_THREADS": "1"}, False),
     ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, True)],
)
def test_without_a_known_symbol_an_unpinned_blas_gets_one_trial_worker(monkeypatch, env, serial):
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(linalg, "_blas", BlasThreads(env_pinned=linalg._env_pins_blas()))
    monkeypatch.setenv("PDRS_THREADS", "3")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    blas = process_blas()
    assert blas.symbol is None and blas.serial_only is serial
    assert blas.path == ("unknown: one trial worker" if serial else "pinned by environment")
    assert worker_count() == (1 if serial else 3)


@pytest.mark.skipif(process_blas().symbol is None, reason="numpy's BLAS exports no known thread setter")
def test_a_sweep_runs_its_trials_on_one_blas_thread_and_then_restores_the_count(monkeypatch):
    blas = process_blas()
    before = blas.threads()
    seen = []

    def draw_and_count(*args):
        seen.append(blas.threads())
        return draw_trial(*args)

    monkeypatch.setattr(harness, "draw_trial", draw_and_count)
    run_point(small_cfg(trials=4), ["pdrs"])
    assert seen == [1] * 4
    assert blas.threads() == before


OVERSHOOT_ROWS = """
import json, sys
from pdrslink import SystemConfig, run_point
cfg = SystemConfig(M=128, N=1000, L=96, l=1, K=96, zeta=192, snr_db=4.0, D=240, trials=12, seed=7)
rows = run_point(cfg, ["pdrs", "pdrs-lszf"])
print(json.dumps([repr({**vars(r), "wall_clock_ms": None}) for r in rows]))
"""


@pytest.mark.skipif(process_blas().symbol is None, reason="numpy's BLAS exports no known thread setter")
def test_rows_do_not_depend_on_the_blas_thread_count_of_the_environment():
    src = os.path.dirname(os.path.dirname(harness.__file__))
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars + ("PDRS_THREADS",)}
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    outputs = []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        done = subprocess.run(
            [sys.executable, "-c", OVERSHOOT_ROWS], env={**env, **extra},
            capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.append(json.loads(done.stdout.splitlines()[-1]))
    assert len(outputs[0]) == 2
    assert outputs[0] == outputs[1]


def test_run_point_rejects_empty_detectors():
    with pytest.raises(ValueError):
        run_point(small_cfg(), [])


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_point_failure_yields_diagnostic_rows(monkeypatch, capsys, threads):
    cfg = small_cfg(trials=3)

    def boom(*a, **kw):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(harness, "detect_pdrs_dwe", boom)
    monkeypatch.setenv("PDRS_THREADS", threads)
    rows = run_point(cfg, ["pdrs"])
    assert len(rows) == 1
    assert math.isnan(rows[0].miss_rate) and math.isnan(rows[0].ser)
    assert rows[0].counted_mults == 0
    err = capsys.readouterr().err
    assert "3 of 3 trials failed; first: trial 0, detector pdrs, detect: synthetic failure" in err


@pytest.mark.parametrize("failing, count", [({1}, 1), ({1, 3}, 2)])
def test_run_point_counts_every_failed_trial(monkeypatch, capsys, failing, count):
    cfg = small_cfg(trials=4)

    def flaky(cfg, pool, codebook, t):
        if t in failing:
            raise ValueError("synthetic failure")
        return draw_trial(cfg, pool, codebook, t)

    monkeypatch.setattr(harness, "draw_trial", flaky)
    monkeypatch.setenv("PDRS_THREADS", "2")
    rows = run_point(cfg, ["pdrs", "oracle"])
    assert [r.detector for r in rows] == ["pdrs", "oracle"]
    assert all(math.isnan(r.miss_rate) and r.counted_mults == 0 for r in rows)
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"sweep point snr_db=8.0: {count} of 4 trials failed; first: trial 1, synthesis: synthetic failure"
    ]


#: sha256 of the active set, channel and data symbols of trials 0 and 1 under
#: determinism contract v2.  They are Philox draws scaled element-wise, so
#: neither the BLAS nor the CPU moves them.
FRAME_DRAW_DIGESTS_V2 = {
    0: "a6e578facaebaa40c6a9527512559eef7c0d1411682d9389f497dc835aae654a",
    1: "664a457d3d7ff42dfcc4b7e41eba037ae5b2905ea5419fec8b4631bb791156fa",
}


@pytest.mark.parametrize("t", [0, 1])
def test_trial_draws_are_pinned_by_the_determinism_contract(t):
    cfg = small_cfg()
    frame = draw_trial(cfg, synth_pool(cfg), synth_codebook(cfg), t).frame(cfg.sigma2)
    assert frame.H.shape == (cfg.M, cfg.K)
    digest = hashlib.sha256()
    for block in (frame.ground_truth.active, frame.H, frame.X_D):
        digest.update(block.tobytes())
    assert digest.hexdigest() == FRAME_DRAW_DIGESTS_V2[t], (
        "trial draws changed, so the determinism contract changed: bump its version in "
        "README \"Determinism\" and declare the new version in CHANGES.md"
    )


def test_sweep_spec_validation():
    cfg = small_cfg()
    with pytest.raises(ValueError):
        SweepSpec(base=cfg, variable="bogus", values=[1])
    with pytest.raises(ValueError):
        SweepSpec(base=cfg, variable="snr_db", values=[])
    with pytest.raises(ValueError):
        SweepSpec(base=cfg, variable="snr_db", values=[0.0], detectors=[])
    with pytest.raises(ValueError):
        SweepSpec(base=cfg, variable="snr_db", values=[0.0], detectors=["nope"])
    with pytest.raises(ValueError):
        # K above the pool size must be rejected up front
        SweepSpec(base=cfg, variable="K", values=[cfg.N + 1])


@pytest.mark.parametrize(
    "variable, value", [("K", 4.6), ("l", 1.5), ("l", 2.9), ("K", float("nan")), ("l", float("inf"))]
)
def test_sweep_spec_rejects_a_fractional_whole_number(variable, value):
    cfg = small_cfg()
    assert getattr(SweepSpec(cfg, variable, [2.0]).config_at(2.0), variable) == 2
    with pytest.raises(ValueError, match=f"{variable} takes whole numbers, got {value}"):
        SweepSpec(cfg, variable, [2, value])


@pytest.mark.parametrize(
    "values, detectors, repeated",
    [([4, 4.0], ["pdrs"], "value 4.0"), ([0.0, 4.0], ["oracle", "pdrs", "oracle"], "detector 'oracle'")],
)
def test_sweep_spec_rejects_a_repeated_entry(values, detectors, repeated):
    with pytest.raises(ValueError, match=f"^sweep {repeated} is repeated$"):
        SweepSpec(small_cfg(), "snr_db", values, detectors)


def test_run_point_rejects_a_repeated_detector():
    with pytest.raises(ValueError, match="^sweep detector 'pdrs' is repeated$"):
        run_point(small_cfg(), ["pdrs", "pdrs"])


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_sweep_spec_rejects_a_non_finite_alpha(value):
    with pytest.raises(ValueError, match=f"^sweep variable alpha takes finite values, got {value}$"):
        SweepSpec(small_cfg(), "alpha", [1.0, value])


@pytest.mark.parametrize(
    "variable, base, values, message",
    [
        ("alpha", SystemConfig(trials=1), [1, 0.004], "round(0.004 * 96) = 0 must lie in [1, N=1000]"),
        (
            "K",
            SystemConfig(M=8, N=40, L=6, l=2, K=4, zeta=8),
            [4, 30],
            "round(2.0 * 30) = 60 must lie in [1, N=40]",
        ),
    ],
    ids=["alpha", "K"],
)
def test_a_derived_zeta_out_of_range_names_alpha_k_and_the_value(variable, base, values, message):
    with pytest.raises(ValueError, match="^" + re.escape(f"zeta = round(alpha * K) = {message}") + "$"):
        SweepSpec(base, variable, values)


def test_every_stage_is_the_detector_of_its_own_name():
    # the complexity verb runs each stage as the detector of its name
    for name in STAGE_TABLE:
        assert DETECTOR_TABLE[name].stage == name


def test_a_stage_with_no_cost_model_fails_before_any_trial_is_drawn(monkeypatch):
    drawn = []

    def draw_and_count(*args):
        drawn.append(args[-1])
        return draw_trial(*args)

    monkeypatch.setattr(harness, "draw_trial", draw_and_count)
    monkeypatch.setitem(harness.STAGE_TABLE, "xyz", STAGE_TABLE["oracle"])
    monkeypatch.setitem(harness.DETECTOR_TABLE, "xyz", DETECTOR_TABLE["oracle"]._replace(stage="xyz"))
    with pytest.raises(ValueError, match="unknown detector 'xyz'"):
        run_point(small_cfg(trials=7), ["xyz"])
    assert drawn == []


def test_sweep_config_application():
    cfg = small_cfg(K=5, zeta=10)  # alpha = 2
    spec = SweepSpec(base=cfg, variable="K", values=[3, 5, 8], detectors=["pdrs"])
    assert spec.config_at(3).zeta == 6
    assert spec.config_at(8).zeta == 16

    alpha_spec = SweepSpec(base=small_cfg(), variable="alpha", values=[1.0, 2.0], detectors=["pdrs"])
    assert alpha_spec.config_at(2.0).zeta == 10

    snr_spec = SweepSpec(base=small_cfg(), variable="snr_db", values=[0.0], detectors=["pdrs"])
    assert snr_spec.config_at(0.0).snr_db == 0.0

    l_spec = SweepSpec(base=small_cfg(), variable="l", values=[1, 4], detectors=["pdrs"])
    assert l_spec.config_at(4).l == 4


def test_run_sweep_ordering_and_shape():
    cfg = small_cfg(trials=3, D=0)
    spec = SweepSpec(
        base=cfg, variable="snr_db", values=[6.0, 0.0], detectors=["oracle", "pdrs"]
    )
    rows = harness.run_sweep(spec)
    assert [(r.sweep_value, r.detector) for r in rows] == [
        (0.0, "oracle"),
        (0.0, "pdrs"),
        (6.0, "oracle"),
        (6.0, "pdrs"),
    ]
    assert all(r.sweep_var == "snr_db" for r in rows)


def test_a_built_sweep_spec_cannot_change():
    spec = SweepSpec(small_cfg(trials=2, D=0), "snr_db", [0.0, 4.0], ["oracle"])
    before = harness.run_sweep(spec)
    with pytest.raises(AttributeError):
        spec.values.append(4.0)
    with pytest.raises(FrozenInstanceError):
        spec.values = [0.0, 4.0, 4.0]
    with pytest.raises(FrozenInstanceError):
        spec.detectors = ["oracle", "oracle"]
    assert (spec.values, spec.detectors) == ((0.0, 4.0), ("oracle",))
    assert _rows_without_wall_clock(harness.run_sweep(spec)) == _rows_without_wall_clock(before)


def test_run_sweep_orders_values_as_numbers():
    spec = SweepSpec(small_cfg(trials=2, D=0), "snr_db", ["10", "4"], ["oracle"])
    assert spec.values == (4.0, 10.0)
    assert [r.sweep_value for r in harness.run_sweep(spec)] == [4.0, 10.0]


def _rows_without_wall_clock(rows):
    """Every field but wall_clock_ms, as reprs so nan equals nan and floats match bit for bit."""
    return [
        tuple(repr(getattr(r, f.name)) for f in fields(r) if f.name != "wall_clock_ms")
        for r in rows
    ]


@pytest.mark.parametrize(
    "variable,values",
    [("snr_db", [6.0, 0.0, 3.0]), ("l", [3, 1]), ("alpha", [1.0, 2.0]), ("K", [4, 6])],
)
def test_run_sweep_rows_equal_run_point_rows(variable, values):
    cfg = small_cfg(trials=4)
    dets = ["pdrs", "fpr", "oracle"]
    spec = SweepSpec(base=cfg, variable=variable, values=values, detectors=dets)
    swept = harness.run_sweep(spec)
    separate = []
    for v in sorted(values):
        rows = run_point(spec.config_at(v), dets)
        separate.extend(replace(r, sweep_var=variable, sweep_value=float(v)) for r in rows)
    assert _rows_without_wall_clock(swept) == _rows_without_wall_clock(separate)


def test_a_failed_point_leaves_the_other_points_of_its_sweep_alone(monkeypatch, capsys):
    cfg = small_cfg(trials=4)
    dets = ["pdrs", "oracle"]
    spec = SweepSpec(cfg, "snr_db", [0.0, 4.0, 8.0], dets)
    healthy = {v: run_point(spec.config_at(v), dets) for v in (0.0, 8.0)}
    # the draw serves every point, so the failure sits in a per-point step: detection of
    # the 4 dB frame of every trial but trial 2, told apart by its active set
    pool, cb = synth_pool(cfg), synth_codebook(cfg)
    actives = [draw_trial(cfg, pool, cb, t).ground_truth.active for t in range(4)]
    assert all(not np.array_equal(actives[t], actives[2]) for t in (0, 1, 3))
    detect = harness.detect_pdrs_dwe

    def flaky(frame, *args):
        if frame.sigma2 == spec.config_at(4.0).sigma2 and not np.array_equal(
            frame.ground_truth.active, actives[2]
        ):
            raise ValueError("synthetic failure")
        return detect(frame, *args)

    monkeypatch.setattr(harness, "detect_pdrs_dwe", flaky)
    monkeypatch.setenv("PDRS_THREADS", "2")
    capsys.readouterr()
    rows = harness.run_sweep(spec)
    assert capsys.readouterr().err.splitlines() == [
        "sweep point snr_db=4.0: 3 of 4 trials failed; first: trial 0, detector pdrs, detect: "
        "synthetic failure"
    ]
    failed = [r for r in rows if r.sweep_value == 4.0]
    assert [r.detector for r in failed] == dets
    assert all(math.isnan(r.miss_rate) and r.counted_mults == 0 for r in failed)
    for v, alone in healthy.items():
        assert _rows_without_wall_clock([r for r in rows if r.sweep_value == v]) == (
            _rows_without_wall_clock(alone)
        )


def test_a_failed_frame_fails_only_its_point(monkeypatch, capsys):
    dets = ["pdrs", "oracle"]
    spec = SweepSpec(small_cfg(trials=4), "snr_db", [0.0, 4.0, 8.0], dets)
    healthy = {v: run_point(spec.config_at(v), dets) for v in (0.0, 8.0)}
    form, failing = FrameDraw.frame, spec.config_at(4.0).sigma2

    def flaky(self, sigma2):
        if sigma2 == failing:
            raise ValueError("synthetic failure")
        return form(self, sigma2)

    monkeypatch.setattr(FrameDraw, "frame", flaky)
    capsys.readouterr()
    rows = harness.run_sweep(spec)
    assert capsys.readouterr().err.splitlines() == [
        "sweep point snr_db=4.0: 4 of 4 trials failed; first: trial 0, synthesis: synthetic failure"
    ]
    failed = [r for r in rows if r.sweep_value == 4.0]
    assert [r.detector for r in failed] == dets
    assert all(math.isnan(r.miss_rate) and r.counted_mults == 0 for r in failed)
    for v, alone in healthy.items():
        assert _rows_without_wall_clock([r for r in rows if r.sweep_value == v]) == (
            _rows_without_wall_clock(alone)
        )


@pytest.mark.parametrize(
    "variable, values, failing",
    [("snr_db", [0.0, 4.0, float("inf")], (0.0, 4.0, float("inf"))), ("l", [1, 2], (1.0,))],
)
def test_a_failed_draw_fails_its_trial_at_every_point_that_shares_it(
    monkeypatch, capsys, variable, values, failing
):
    dets = ["pdrs", "oracle"]
    spec = SweepSpec(small_cfg(trials=4, l=1), variable, values, dets)
    healthy = {
        v: [replace(r, sweep_var=variable, sweep_value=v) for r in run_point(spec.config_at(v), dets)]
        for v in spec.values
        if v not in failing
    }

    def flaky(cfg, pool, codebook, t):
        if t == 1 and cfg.l == 1:
            raise ValueError("synthetic failure")
        return draw_trial(cfg, pool, codebook, t)

    monkeypatch.setattr(harness, "draw_trial", flaky)
    monkeypatch.setenv("PDRS_THREADS", "2")
    capsys.readouterr()
    rows = harness.run_sweep(spec)
    assert capsys.readouterr().err.splitlines() == [
        f"sweep point {variable}={v}: 1 of 4 trials failed; first: trial 1, synthesis: "
        "synthetic failure"
        for v in failing
    ]
    failed = [r for r in rows if r.sweep_value in failing]
    assert len(failed) == len(failing) * len(dets)
    assert all(math.isnan(r.miss_rate) and r.counted_mults == 0 for r in failed)
    for v, alone in healthy.items():
        assert _rows_without_wall_clock([r for r in rows if r.sweep_value == v]) == (
            _rows_without_wall_clock(alone)
        )


def test_run_sweep_builds_pool_and_gram_once(monkeypatch):
    calls = {"fpr_gram_pinv": 0, "synth_pool": 0, "ThreadPoolExecutor": 0, "synth_codebook": 0}
    order = []

    def counted(name):
        original = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            order.append((name, threading.get_ident()))
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, name, wrapper)

    counted("fpr_gram_pinv")
    counted("synth_pool")
    counted("ThreadPoolExecutor")
    counted("synth_codebook")
    spec = SweepSpec(
        base=small_cfg(trials=2), variable="snr_db", values=[0.0, 4.0, 8.0, 12.0], detectors=["fpr"]
    )
    rows = harness.run_sweep(spec)
    assert len(rows) == 4
    assert calls == {"fpr_gram_pinv": 1, "synth_pool": 1, "ThreadPoolExecutor": 1, "synth_codebook": 1}
    assert len(run_point(spec.base, ["fpr"])) == 1
    assert calls == {"fpr_gram_pinv": 2, "synth_pool": 2, "ThreadPoolExecutor": 2, "synth_codebook": 2}
    assert len(harness.run_sweep(SweepSpec(spec.base, "l", [1, 2], ["fpr"]))) == 2
    assert calls == {"fpr_gram_pinv": 3, "synth_pool": 3, "ThreadPoolExecutor": 3, "synth_codebook": 4}
    # each sweep forms the Gram on its caller's thread, before it builds its trial pool
    caller = threading.get_ident()
    gram_and_pool = [call for call in order if call[0] in ("fpr_gram_pinv", "ThreadPoolExecutor")]
    assert gram_and_pool == [("fpr_gram_pinv", caller), ("ThreadPoolExecutor", caller)] * 3


@pytest.mark.parametrize(
    "stage, detectors",
    [("pdrs", ["pdrs", "pdrs-lszf"]), ("oracle", ["oracle", "oracle-dwe"])],
    ids=["pdrs", "oracle"],
)
def test_a_shared_stage_runs_once_per_frame(monkeypatch, stage, detectors):
    cfg = small_cfg(trials=5)
    alone = [row for name in detectors for row in run_point(cfg, [name])]
    calls = []
    spec = harness.STAGE_TABLE[stage]

    def counted(*args):
        calls.append(1)  # list.append is atomic across the trial threads
        return spec.detect(*args)

    monkeypatch.setitem(harness.STAGE_TABLE, stage, spec._replace(detect=counted))
    shared = run_point(cfg, detectors)
    assert len(calls) == cfg.trials
    assert _rows_without_wall_clock(shared) == _rows_without_wall_clock(alone)


def _coinciding_cfg(**kw):
    """A config where fpr finds the true support in every trial, so it shares oracle's."""
    return small_cfg(M=32, K=3, zeta=3, snr_db=20.0, **kw)


@pytest.mark.parametrize("coincide", [True, False], ids=["same-support", "fpr-errs"])
def test_detectors_share_their_combining_only_on_a_shared_support(monkeypatch, coincide):
    cfg = _coinciding_cfg() if coincide else small_cfg()
    dets = ["fpr", "oracle"]
    alone = [row for name in dets for row in run_point(cfg, [name])]
    assert (alone[0].miss_rate == 0.0 and alone[0].false_pos_rate == 0.0) is coincide
    calls = []
    zf = harness.zf_weights

    def counted(*args):
        calls.append(1)  # list.append is atomic across the trial threads
        return zf(*args)

    monkeypatch.setattr(harness, "zf_weights", counted)
    shared = run_point(cfg, dets)
    if coincide:
        assert len(calls) == cfg.trials
    else:
        assert cfg.trials < len(calls) <= 2 * cfg.trials
    assert _rows_without_wall_clock(shared) == _rows_without_wall_clock(alone)


def test_shared_combining_is_charged_in_full_to_every_detector(monkeypatch):
    zf = harness.zf_weights

    def slow(*args):
        time.sleep(0.005)
        return zf(*args)

    monkeypatch.setattr(harness, "zf_weights", slow)
    rows = run_point(_coinciding_cfg(trials=3), ["fpr", "oracle"])
    assert [r.detector for r in rows] == ["fpr", "oracle"]
    assert all(r.wall_clock_ms >= 5.0 for r in rows)


def _repeating_supports_cfg(**kw):
    """9 users, 8 active: 12 trials must repeat an active set, and fpr errs in some trials."""
    return small_cfg(N=9, L=8, K=8, zeta=8, snr_db=0.0, trials=12, **kw)


def _pilot_pinv_calls(monkeypatch, sleep_s=0.0):
    """Wrap the harness's support inverse; returns the pilot blocks it inverted by ``pinv``,
    not those it factored (a wide estimate's)."""
    blocks = []
    original = harness.support_inverse

    def counted(P):
        time.sleep(sleep_s)
        out = original(P)
        if isinstance(out, np.ndarray):
            blocks.append(P)  # list.append is atomic across the trial threads
        return out

    monkeypatch.setattr(harness, "support_inverse", counted)
    return blocks


def test_a_trial_inverts_each_detected_pilot_block_once_per_draw(monkeypatch):
    cfg = _repeating_supports_cfg()
    values = [-4.0, 0.0, 4.0, 8.0]
    pool, codebook = synth_pool(cfg), synth_codebook(cfg)
    gram = fpr_gram_pinv(pool)
    pairs = set()
    for t in range(cfg.trials):
        draw = draw_trial(cfg, pool, codebook, t)
        pairs.add((t, draw.ground_truth.active.tobytes()))
        for v in values:
            frame = draw.frame(replace(cfg, snr_db=v).sigma2)
            pairs.add((t, detect_fpr(frame, pool, cfg.zeta, gram).detected.tobytes()))
    # a trial with two supports and two trials with one, so a memo key without either fails
    assert len(pairs) > cfg.trials > len({support for _, support in pairs})
    blocks = _pilot_pinv_calls(monkeypatch)
    rows = harness.run_sweep(SweepSpec(cfg, "snr_db", values, ["fpr", "oracle"]))
    assert len(blocks) == len(pairs)
    alone = [row for v in values for row in run_point(replace(cfg, snr_db=v), ["fpr", "oracle"])]
    assert _rows_without_wall_clock(rows) == _rows_without_wall_clock(alone)


@pytest.mark.parametrize(
    "variable, values, dets",
    [
        ("l", [1, 2, 3], ["oracle"]),
        ("l", [1, 2], ["fpr", "oracle"]),
        ("K", [6, 7, 8], ["fpr", "oracle"]),
    ],
    ids=["l-oracle", "l-fpr-oracle", "K-fpr-oracle"],
)
def test_a_sweep_that_draws_at_every_point_inverts_each_support_once_per_trial(
    monkeypatch, variable, values, dets
):
    spec = SweepSpec(_repeating_supports_cfg(), variable, values, dets)
    pool = synth_pool(spec.base)
    gram = fpr_gram_pinv(pool)
    pairs = set()
    for v in spec.values:
        cfg = spec.config_at(v)
        codebook = synth_codebook(cfg)
        for t in range(cfg.trials):
            frame = draw_trial(cfg, pool, codebook, t).frame(cfg.sigma2)
            for d in dets:
                stage = STAGE_TABLE[DETECTOR_TABLE[d].stage]
                res = stage.detect(frame, pool, codebook, cfg.zeta, cfg.svd_cost, gram)
                pairs.add((t, res.detected.tobytes()))
    if dets == ["oracle"]:  # oracle's support reads only seed, N and K: one per trial
        assert len(pairs) == spec.base.trials
    blocks = _pilot_pinv_calls(monkeypatch)
    rows = harness.run_sweep(spec)
    assert len(blocks) == len(pairs)
    alone = [
        replace(r, sweep_var=variable, sweep_value=v)
        for v in spec.values
        for r in run_point(spec.config_at(v), dets)
    ]
    assert _rows_without_wall_clock(rows) == _rows_without_wall_clock(alone)


def test_a_shared_pilot_pinv_is_charged_in_full_at_every_point(monkeypatch):
    _pilot_pinv_calls(monkeypatch, sleep_s=0.005)
    values = [0.0, 2.0, 4.0, 6.0]
    rows = harness.run_sweep(SweepSpec(small_cfg(trials=3), "snr_db", values, ["fpr", "oracle"]))
    oracle = [r for r in rows if r.detector == "oracle"]
    assert [r.sweep_value for r in oracle] == values
    assert all(r.wall_clock_ms >= 5.0 for r in oracle)


def _pilot_pinv_lifetimes(monkeypatch):
    """Weak references to every support inverse, and whether each was alive at each ZF entry."""
    refs, alive_at_zf = [], []
    original, zf = harness.support_inverse, harness.zf_weights

    def tracked(P):
        out = original(P)
        refs.append(weakref.ref(out))
        return out

    def checked(*args):
        alive_at_zf.append([ref() is not None for ref in refs])
        return zf(*args)

    monkeypatch.setattr(harness, "support_inverse", tracked)
    monkeypatch.setattr(harness, "zf_weights", checked)
    return refs, alive_at_zf


def test_a_one_point_trial_frees_its_pilot_pinv_before_zero_forcing(monkeypatch):
    refs, alive_at_zf = _pilot_pinv_lifetimes(monkeypatch)
    run_point(small_cfg(trials=1), ["oracle"])
    assert len(refs) == 1
    assert alive_at_zf == [[False]]


def test_a_draws_last_point_frees_its_pilot_pinv_before_zero_forcing(monkeypatch):
    cfg = small_cfg(trials=1)
    refs, alive_at_zf = _pilot_pinv_lifetimes(monkeypatch)
    harness.run_sweep(SweepSpec(cfg, "snr_db", [0.0, 4.0, 8.0], ["oracle"]))
    assert len(refs) == 1
    assert alive_at_zf == [[True], [True], [False]]


def _pilot_factor_lifetimes(monkeypatch):
    """Weak references to every pilot factor the harness forms, and whether each was alive at
    each ZF entry, with the type of the estimate ZF was given; and whether the pilot block each
    factor was formed of was alive at each ZF entry."""
    refs, block_refs, alive_at_zf, blocks_alive_at_zf, estimates = [], [], [], [], []
    original, zf = combining.pilot_factor, harness.zf_weights

    def tracked(P):
        out = original(P)
        refs.append(weakref.ref(out))
        block_refs.append(weakref.ref(P))
        return out

    def checked(h_est, users):
        alive_at_zf.append([ref() is not None for ref in refs])
        blocks_alive_at_zf.append([ref() is not None for ref in block_refs])
        estimates.append(type(h_est))
        return zf(h_est, users)

    monkeypatch.setattr(combining, "pilot_factor", tracked)  # where support_inverse looks it up
    monkeypatch.setattr(harness, "zf_weights", checked)
    return refs, alive_at_zf, estimates, blocks_alive_at_zf


def test_a_wide_estimate_holds_its_pilot_factor_through_zf_and_frees_it_with_trial(monkeypatch):
    # zeta > L: the memo holds the pilot block's factor, and ZF reads it
    blocks = _pilot_pinv_calls(monkeypatch)
    refs, alive_at_zf, estimates, _ = _pilot_factor_lifetimes(monkeypatch)
    run_point(small_cfg(zeta=10, trials=1), ["pdrs-lszf"])
    assert blocks == []  # no pinv of the pilot block
    assert estimates == [LsEstimate]
    assert len(refs) == 1
    assert alive_at_zf == [[True]]
    assert refs[0]() is None


def test_an_overshoot_shaped_trial_frees_each_pilot_block_before_zero_forcing(monkeypatch):
    # zeta > M > L, as in overshoot-pdrs: the memo holds each support's factor through ZF,
    # but the factor keeps no copy of the block it was formed of
    cfg = small_cfg(zeta=16, trials=1)
    refs, alive_at_zf, estimates, blocks_alive_at_zf = _pilot_factor_lifetimes(monkeypatch)
    harness.run_sweep(SweepSpec(cfg, "snr_db", [0.0, 4.0, 8.0], ["pdrs-lszf", "bomp"]))
    assert refs and set(estimates) == {LsEstimate}
    assert all(any(alive) for alive in alive_at_zf)
    assert blocks_alive_at_zf == [[False] * len(alive) for alive in alive_at_zf]


def test_an_snr_sweep_forms_each_wide_supports_pilot_factor_once_per_trial(monkeypatch):
    cfg = small_cfg(K=6, zeta=10, snr_db=0.0)  # zeta > L = 8: all estimates wide
    values = [-4.0, 0.0, 4.0, 8.0]
    dets = ["pdrs-lszf", "fpr"]
    pool, codebook = synth_pool(cfg), synth_codebook(cfg)
    gram = fpr_gram_pinv(pool)
    pairs = set()
    for t in range(cfg.trials):
        draw = draw_trial(cfg, pool, codebook, t)
        for v in values:
            frame = draw.frame(replace(cfg, snr_db=v).sigma2)
            for d in dets:
                stage = STAGE_TABLE[DETECTOR_TABLE[d].stage]
                res = stage.detect(frame, pool, codebook, cfg.zeta, cfg.svd_cost, gram)
                pairs.add((t, res.detected.tobytes()))
    # some trial detects two supports, and some support at several points or by both detectors,
    # so a memo per trial without the support in its key, or one per point, fails
    assert cfg.trials < len(pairs) < cfg.trials * len(values) * len(dets)
    blocks = _pilot_pinv_calls(monkeypatch)
    refs, alive_at_zf, estimates, _ = _pilot_factor_lifetimes(monkeypatch)
    rows = harness.run_sweep(SweepSpec(cfg, "snr_db", values, dets))
    assert len(refs) == len(pairs)
    assert blocks == [] and set(estimates) == {LsEstimate}
    assert [ref() for ref in refs] == [None] * len(refs)
    alone = [row for v in values for row in run_point(replace(cfg, snr_db=v), dets)]
    assert _rows_without_wall_clock(rows) == _rows_without_wall_clock(alone)


def test_an_overshoot_shaped_trial_inverts_no_wide_matrix(monkeypatch):
    cfg = small_cfg(zeta=16, trials=3)  # zeta > M >= L, as in overshoot-pdrs: the estimate H is M x zeta, wide
    shapes = []
    for module in (harness, combining, detection):
        original = module.pinv

        def recorded(a, *args, _original=original):
            shapes.append(np.shape(a))
            return _original(a, *args)

        monkeypatch.setattr(module, "pinv", recorded)
    # every detector that picks zeta users; oracle's K = 5 < L pilot rows are a wide block
    run_point(cfg, ["pdrs", "pdrs-lszf", "bomp", "fpr"])
    assert (cfg.M, cfg.L) in shapes  # pdrs's pinv(Y) and the factored ZF's B = Y R^-H
    assert [s for s in shapes if s[0] < s[1]] == []
    assert (cfg.zeta, cfg.L) not in shapes  # the zeta x L pilot block is factored, not inverted


def test_dwe_forms_weight_rows_only_for_the_users_it_scores(monkeypatch):
    cfg = small_cfg(zeta=10)  # pdrs detects five users that are not active
    given = []
    dwe = harness.dwe_weights

    def recorded(frame, pool, users, y_pinv=None):
        given.append((users, frame.ground_truth.active))
        return dwe(frame, pool, users, y_pinv=y_pinv)

    monkeypatch.setattr(harness, "dwe_weights", recorded)
    run_point(replace(cfg, trials=1), ["pdrs", "oracle-dwe"])
    (pdrs_users, active), (oracle_users, _) = given
    assert pdrs_users.size < cfg.zeta and np.all(np.isin(pdrs_users, active))
    assert np.array_equal(oracle_users, active)


def test_no_pilot_pinv_outlives_its_trial(monkeypatch):
    refs, _ = _pilot_pinv_lifetimes(monkeypatch)
    values = [-12.0, -6.0, 0.0, 20.0]
    harness.run_sweep(SweepSpec(small_cfg(trials=1), "snr_db", values, ["fpr", "oracle"]))
    # the last point uses at most two supports, so some entry is never used there
    assert len(refs) > 2
    assert [ref() for ref in refs] == [None] * len(refs)


def test_a_draw_is_let_go_before_its_last_point_is_detected(monkeypatch):
    refs, alive_at_detect = [], []
    draw = harness.draw_trial
    stage = STAGE_TABLE["oracle"]

    def tracked(*args):
        out = draw(*args)
        refs.append(weakref.ref(out))
        return out

    def checked(*args):
        alive_at_detect.append([ref() is not None for ref in refs])
        return stage.detect(*args)

    monkeypatch.setattr(harness, "draw_trial", tracked)
    monkeypatch.setitem(harness.STAGE_TABLE, "oracle", stage._replace(detect=checked))
    harness.run_sweep(SweepSpec(small_cfg(trials=1), "snr_db", [0.0, 4.0, 8.0], ["oracle"]))
    assert alive_at_detect == [[True], [True], [False]]


def test_a_points_frame_is_let_go_before_the_next_is_formed(monkeypatch):
    refs, alive_at_form = [], []
    form = FrameDraw.frame

    def tracked(self, sigma2):
        alive_at_form.append([ref() is not None for ref in refs])
        out = form(self, sigma2)
        refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(FrameDraw, "frame", tracked)
    harness.run_sweep(SweepSpec(small_cfg(trials=1), "snr_db", [0.0, 4.0, 8.0], ["oracle"]))
    assert alive_at_form == [[], [False], [False, False]]


def test_snr_monotonicity_with_slack():
    cfg = small_cfg(M=10, N=24, L=8, l=1, K=5, zeta=5, D=0, trials=120, seed=33)
    spec = SweepSpec(base=cfg, variable="snr_db", values=[-6.0, 0.0, 6.0, 12.0], detectors=["pdrs"])
    rows = harness.run_sweep(spec)
    rates, ses = [], []
    for r in rows:
        p = 0.0 if math.isnan(r.miss_rate) else r.miss_rate
        n = r.trials * r.K
        rates.append(p)
        ses.append(math.sqrt(max(p * (1 - p), 1e-12) / n))
    for i in range(len(rates) - 1):
        assert rates[i + 1] <= rates[i] + ses[i] + ses[i + 1]


def test_csv_header_and_shape(tmp_path):
    cfg = small_cfg(trials=2, D=0)
    rows = run_point(cfg, ["oracle"])
    path = tmp_path / "out.csv"
    emit_csv(rows, path)
    text = path.read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert (
        CSV_HEADER == "sweep_var,sweep_value,snr_db,K,L,N,M,l,zeta,detector,trials,"
        "miss_rate,false_pos_rate,ser,mean_post_sinr_db,modeled_mults,counted_mults,"
        "wall_clock_ms,seed"
    )
    assert len(lines) == 2
    assert len(lines[1].split(",")) == len(CSV_HEADER.split(","))


def test_csv_round_trip(tmp_path):
    cfg = small_cfg(trials=4)
    rows = run_point(cfg, ["pdrs"])
    path = tmp_path / "out.csv"
    emit_csv(rows, path)
    with open(path, newline="", encoding="utf-8") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 1
    got = parsed[0]
    row = rows[0]
    assert got["detector"] == row.detector
    assert int(got["K"]) == row.K
    assert int(got["seed"]) == row.seed
    for name in ("miss_rate", "false_pos_rate", "ser", "mean_post_sinr_db"):
        want = getattr(row, name)
        have = float(got[name])
        if math.isnan(want):
            assert math.isnan(have)
        else:
            assert have == want


def test_emit_csv_rejects_empty_and_bad_path(tmp_path):
    with pytest.raises(ValueError):
        emit_csv([], tmp_path / "x.csv")
    cfg = small_cfg(trials=2, D=0)
    rows = run_point(cfg, ["oracle"])
    with pytest.raises(OSError):
        emit_csv(rows, tmp_path / "missing_dir" / "x.csv")


def test_parse_config(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "# anchor dimensions\n"
        "M = 32\n"
        "N = 100\n"
        "L = 16   # pilot length\n"
        "l = 2\n"
        "K = 10\n"
        "zeta = 10\n"
        "snr_db = inf\n"
        "pdrs_mode = orthogonal-reuse\n"
        "\n"
        "trials = 7\n"
    )
    cfg = parse_config(path)
    assert (cfg.M, cfg.N, cfg.L, cfg.l, cfg.K, cfg.zeta) == (32, 100, 16, 2, 10, 10)
    assert cfg.snr_db == float("inf")
    assert cfg.pdrs_mode == "orthogonal-reuse"
    assert cfg.trials == 7
    assert cfg.D == SystemConfig().D  # unset keys keep defaults


def test_parse_config_takes_whole_floats_and_keeps_big_ints_exact(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(f"M = 16.0\nN = 1e3\nseed = {2**64 - 1}\n")
    cfg = parse_config(path)
    assert (cfg.M, cfg.N, cfg.seed) == (16, 1000, 2**64 - 1)
    assert all(type(v) is int for v in (cfg.M, cfg.N, cfg.seed))


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("bandwidth = 5\n")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config(path)


def test_parse_config_rejects_a_repeated_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("M = 8\nN = 100\n\nM = 16\n")
    with pytest.raises(ValueError, match=r"cfg\.txt:4: M is set again \(first on line 1\)$"):
        parse_config(path)


def test_parse_config_rejects_malformed_line(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("M 32\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config(path)


@pytest.mark.parametrize(("line", "key"), [("M = 1.5", "M"), ("snr_db = loud", "snr_db")])
def test_parse_config_names_unparsable_value(tmp_path, line, key):
    path = tmp_path / "cfg.txt"
    path.write_text(f"# dims\nN = 100\n{line}\n")
    with pytest.raises(ValueError, match=rf"cfg\.txt:3: {key} = ") as info:
        parse_config(path)
    assert info.value.__cause__ is None


def test_parse_config_names_the_file_when_the_config_is_rejected(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("N = 100\nM = 0\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: M must be >= 1, got 0$") as info:
        parse_config(path)
    assert info.value.__cause__ is None


def test_guarded_rate():
    assert _guarded_rate(0, 1000) == 0.0
    assert _guarded_rate(100, 1000) == 0.1
    # 1 hit in 1000: standard error ~ p, withheld
    assert math.isnan(_guarded_rate(1, 1000))
    assert _guarded_rate(0, 0) == 0.0


def test_worker_count(monkeypatch):
    monkeypatch.setenv("PDRS_THREADS", "2")
    assert worker_count() <= 2
    monkeypatch.setenv("PDRS_THREADS", "abc")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.delenv("PDRS_THREADS")
    assert worker_count() >= 1


def test_worker_count_follows_the_cpu_affinity_mask(monkeypatch):
    monkeypatch.setattr(linalg, "_blas", BlasThreads(env_pinned=True))
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.delenv("PDRS_THREADS", raising=False)
    assert worker_count() == 3  # taskset or a cpuset leaves 3 of the 16 CPUs
    monkeypatch.setenv("PDRS_THREADS", "2")
    assert worker_count() == 2


def test_worker_count_falls_back_on_the_cpu_count_without_an_affinity_mask(monkeypatch):
    monkeypatch.setattr(linalg, "_blas", BlasThreads(env_pinned=True))
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.delenv("PDRS_THREADS", raising=False)
    assert worker_count() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable: one worker
    assert worker_count() == 1


@pytest.mark.parametrize("cap", ["0", "-2"])
def test_worker_count_rejects_non_positive_cap(monkeypatch, cap):
    monkeypatch.setenv("PDRS_THREADS", cap)
    with pytest.raises(ValueError, match="PDRS_THREADS"):
        worker_count()
    # a bad cap is a bad input, not a failed trial: no nan row hides it
    with pytest.raises(ValueError, match="PDRS_THREADS"):
        run_point(small_cfg(), ["oracle"])


def test_lemma_check_passes_at_modest_size():
    report = lemma_check(iterations=20, seed=5)
    assert isinstance(report, LemmaReport)
    assert report.ok
    assert report.mp_worst <= 1e-9
    assert report.noisy_equiv_worst <= 1e-8
    assert report.noiseless_equiv_worst <= 1e-8
    assert len(report.lines()) == 3
    assert all("pass" in line for line in report.lines())


def test_lemma_check_rejects_bad_iterations():
    with pytest.raises(ValueError):
        lemma_check(iterations=0)
    with pytest.raises(ValueError, match="^iterations takes whole numbers, got 1.5$"):
        lemma_check(iterations=1.5)


def test_lemma_check_bounds_are_the_acceptance_bounds():
    # acceptance criteria 1-3 hold pinv to 1e-9 and the weight chain to 1e-8
    assert harness.MP_TOL == 1e-9
    assert harness.EQUIV_TOL == 1e-8


def test_lemma_report_failure_lines():
    report = LemmaReport(
        mp_worst=1.0,
        noisy_equiv_worst=0.0,
        noiseless_equiv_worst=0.0,
        instances=10,
    )
    assert not report.ok
    assert "FAIL" in report.lines()[0]
