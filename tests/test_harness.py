import csv
import hashlib
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from pdrslink import harness
from pdrslink.harness import (
    CSV_HEADER,
    LemmaReport,
    ResultRow,
    SweepSpec,
    _guarded_rate,
    emit_csv,
    lemma_check,
    parse_config,
    run_point,
    run_trial,
    worker_count,
)
from pdrslink.scenario import SystemConfig, synth_codebook, synth_frame, synth_pool


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


def test_run_trial_is_deterministic():
    cfg = small_cfg()
    pool, cb = synth_pool(cfg), synth_codebook(cfg)
    a = run_trial(cfg, pool, cb, None, 3, ["pdrs"])["pdrs"]
    b = run_trial(cfg, pool, cb, None, 3, ["pdrs"])["pdrs"]
    assert (a.miss, a.false_pos, a.sym_errors) == (b.miss, b.false_pos, b.sym_errors)
    assert np.array_equal(a.post_sinr_db, b.post_sinr_db)


def test_trial_frame_independent_of_detector_list():
    cfg = small_cfg()
    pool, cb = synth_pool(cfg), synth_codebook(cfg)
    alone = run_trial(cfg, pool, cb, None, 0, ["pdrs"])["pdrs"]
    paired = run_trial(cfg, pool, cb, None, 0, ["pdrs", "oracle"])["pdrs"]
    assert (alone.miss, alone.false_pos, alone.sym_errors) == (
        paired.miss,
        paired.false_pos,
        paired.sym_errors,
    )


def test_trial_errors_carry_the_trial_index(monkeypatch):
    cfg = small_cfg()
    pool, cb = synth_pool(cfg), synth_codebook(cfg)

    def boom(*a, **kw):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(harness, "detect_pdrs_dwe", boom)
    with pytest.raises(RuntimeError, match=r"^trial 7, detector pdrs, detect: synthetic failure$"):
        run_trial(cfg, pool, cb, None, 7, ["pdrs"])


@pytest.mark.parametrize(
    "detector, target, step",
    [
        ("pdrs", "synth_frame", "synthesis"),
        ("pdrs", "dwe_weights", "combine"),
        ("pdrs-lszf", "ls_channel_estimate", "combine"),
        ("pdrs-lszf", "zf_weights", "combine"),
        ("pdrs", "detection_metrics", "score"),
        ("pdrs", "demod_qpsk", "demod"),
        ("pdrs-lszf", "symbol_errors", "demod"),
        ("pdrs", "post_sinr", "sinr"),
    ],
)
def test_trial_errors_name_the_step_that_raised(monkeypatch, detector, target, step):
    cfg = small_cfg(snr_db=float("inf"), zeta=8)
    pool, cb = synth_pool(cfg), synth_codebook(cfg)

    def boom(*a, **kw):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(harness, target, boom)
    where = "synthesis" if step == "synthesis" else f"detector {detector}, {step}"
    with pytest.raises(RuntimeError, match=rf"^trial 3, {where}: synthetic failure$"):
        run_trial(cfg, pool, cb, None, 3, [detector])


def test_run_point_schedule_invariance(monkeypatch):
    cfg = small_cfg()
    monkeypatch.setenv("PDRS_THREADS", "1")
    serial = run_point(cfg, ["pdrs", "oracle"])
    monkeypatch.setenv("PDRS_THREADS", "3")
    threaded = run_point(cfg, ["pdrs", "oracle"])
    assert [_stable_fields(r) for r in serial] == [_stable_fields(r) for r in threaded]


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
        return synth_frame(cfg, pool, codebook, t)

    monkeypatch.setattr(harness, "synth_frame", flaky)
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
    frame = synth_frame(cfg, synth_pool(cfg), synth_codebook(cfg), t)
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


@pytest.mark.parametrize("variable, value", [("K", 4.6), ("l", 1.5), ("l", 2.9)])
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


def _rows_without_wall_clock(rows):
    """Every field but wall_clock_ms, as reprs so nan equals nan and floats match bit for bit."""
    return [
        tuple(repr(getattr(r, f.name)) for f in fields(r) if f.name != "wall_clock_ms")
        for r in rows
    ]


@pytest.mark.parametrize("variable,values", [("snr_db", [6.0, 0.0, 3.0]), ("l", [3, 1])])
def test_run_sweep_rows_equal_run_point_rows(variable, values):
    cfg = small_cfg(trials=4)
    dets = ["pdrs", "fpr", "oracle"]
    spec = SweepSpec(base=cfg, variable=variable, values=values, detectors=dets)
    swept = harness.run_sweep(spec)
    separate = []
    for v in sorted(values):
        rows = run_point(spec.config_at(v), sorted(dets))
        separate.extend(replace(r, sweep_var=variable, sweep_value=float(v)) for r in rows)
    assert _rows_without_wall_clock(swept) == _rows_without_wall_clock(separate)


def test_run_sweep_builds_pool_and_gram_once(monkeypatch):
    calls = {"fpr_gram_pinv": 0, "synth_pool": 0}

    def counted(name):
        original = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, name, wrapper)

    counted("fpr_gram_pinv")
    counted("synth_pool")
    spec = SweepSpec(
        base=small_cfg(trials=2), variable="snr_db", values=[0.0, 4.0, 8.0], detectors=["fpr"]
    )
    rows = harness.run_sweep(spec)
    assert len(rows) == 3
    assert calls == {"fpr_gram_pinv": 1, "synth_pool": 1}


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
            assert have == float(f"{want:.6g}")


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


def test_lemma_report_failure_lines():
    report = LemmaReport(
        mp_worst=1.0,
        noisy_equiv_worst=0.0,
        noiseless_equiv_worst=0.0,
        mp_tol=1e-9,
        equiv_tol=1e-8,
        instances=10,
    )
    assert not report.ok
    assert "FAIL" in report.lines()[0]
