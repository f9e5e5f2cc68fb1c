"""Acceptance gate.

Ten numbered criteria covering the pseudo-inverse library, the two
weight-equivalence identities, exact noiseless detection, weight
detection-independence, the miss-rate anchors at the reference operating
point, detector ordering, the complexity ledger, the combined-SER
equivalence, and the documented scope substitutions.  Each test prints one
pass/fail line; tolerances are pinned in the asserts.
"""

import math
import time
from pathlib import Path

import numpy as np

import pdrslink as pl
from pdrslink.combining import demod_qpsk, dwe_weights, ls_channel_estimate, zf_weights
from pdrslink.detectors import detect_bomp, detect_fpr, detect_pdrs_dwe, fpr_gram_pinv
from pdrslink.harness import _mp_suite, _weight_equiv_suite
from pdrslink.metrics import complexity_model
from pdrslink.scenario import RngStream
from pdrslink.scenario import (
    TRIAL_STREAM_BASE,
    SystemConfig,
    assemble_frame,
    sample_activity,
    draw_trial,
    synth_codebook,
    synth_pool,
)

SEED = 2024

#: Reference operating point: 128 antennas, 1000 pilots of length 96,
#: 96 active users, 4 dB SNR.
def anchor_cfg(**kw):
    base = dict(
        M=128, N=1000, L=96, l=4, K=96, zeta=96, snr_db=4.0, D=0, trials=210, seed=SEED
    )
    base.update(kw)
    return SystemConfig(**base)


_shared: dict = {}


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_pseudo_inverse_identities(capsys):
    t0 = time.perf_counter()
    worst = _mp_suite(200, SEED)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(
        capsys, 1,
        ok,
        f"200 random matrices, four defining identities: worst rel err "
        f"{worst:.2e} (tol 1e-9), {elapsed:.2f}s",
    )


def test_criterion_2_weight_equivalence_noisy(capsys):
    t0 = time.perf_counter()
    worst = _weight_equiv_suite(100, SEED, noisy=True)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(
        capsys, 2,
        ok,
        f"100 noisy instances, direct weights vs estimate-then-invert: worst "
        f"rel diff {worst:.2e} (tol 1e-8), {elapsed:.2f}s",
    )


def test_criterion_3_weight_equivalence_noiseless(capsys):
    t0 = time.perf_counter()
    worst = _weight_equiv_suite(100, SEED + 1, noisy=False)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(
        capsys, 3,
        ok,
        f"100 noiseless oracle instances: worst rel diff {worst:.2e} "
        f"(tol 1e-8), {elapsed:.2f}s",
    )


def test_criterion_4_noiseless_exact_detection(capsys):
    cfg = SystemConfig(
        M=16, N=32, L=12, l=4, K=8, zeta=8, snr_db=float("inf"), D=0,
        trials=1000, seed=SEED,
    )
    t0 = time.perf_counter()
    rows = pl.run_point(cfg, ["pdrs"])
    elapsed = time.perf_counter() - t0
    row = rows[0]
    ok = row.miss_rate == 0.0 and row.false_pos_rate == 0.0 and elapsed < 10.0
    _report(
        capsys, 4,
        ok,
        f"1000 noiseless trials: miss rate {row.miss_rate}, false-positive "
        f"rate {row.false_pos_rate}, {elapsed:.2f}s",
    )


def test_criterion_5_weight_detection_independence(capsys):
    worst_equal = True
    for i in range(50):
        cfg = SystemConfig(
            M=16, N=32, L=12, l=4, K=6, zeta=6, snr_db=6.0, D=0, trials=1, seed=SEED + i
        )
        pool, cb = synth_pool(cfg), synth_codebook(cfg)
        # trial 0's frame, keyed by hand: the extras below continue its stream
        rng = RngStream(cfg.seed, TRIAL_STREAM_BASE)
        act = sample_activity(cfg, rng)
        frame = assemble_frame(cfg, pool, cb, act, rng)
        subset = act.active
        extras = np.setdiff1d(np.arange(cfg.N), subset)[: int(rng.gen.integers(1, 5))]
        alone = dwe_weights(frame, pool, subset)
        padded = dwe_weights(frame, pool, np.sort(np.concatenate([subset, extras])))
        rows = np.searchsorted(padded.users, subset)
        if not np.array_equal(padded.W[rows], alone.W):
            worst_equal = False
            break
    _report(
        capsys, 5,
        worst_equal,
        "50 frames: weight rows bit-identical with and without extra false positives",
    )


def _miss_rate_anchor(l, zeta, key):
    if key not in _shared:
        cfg = anchor_cfg(l=l, zeta=zeta)
        _shared[key] = pl.run_point(cfg, ["pdrs"])[0]
    return _shared[key]


def test_criterion_6_miss_rate_anchors(capsys):
    t0 = time.perf_counter()
    row_a = _miss_rate_anchor(4, 96, "tight")
    row_b = _miss_rate_anchor(1, 192, "aggressive")
    elapsed = time.perf_counter() - t0
    samples = row_a.trials * row_a.K
    ok = samples >= 2e4 and row_a.miss_rate <= 2e-2 and row_b.miss_rate <= 2e-2
    _report(
        capsys, 6,
        ok,
        f"4 dB anchor, {samples} active-user samples: miss rate "
        f"{row_a.miss_rate:.2e} (l=4, matched support) and "
        f"{row_b.miss_rate:.2e} (l=1, doubled support), both <= 2e-2 "
        f"(point target 1e-2), {elapsed:.1f}s",
    )


def test_criterion_7_detector_ordering(capsys):
    row_pdrs = _miss_rate_anchor(4, 96, "tight")
    cfg = anchor_cfg(trials=50)
    t0 = time.perf_counter()
    row_bomp = pl.run_point(cfg, ["bomp"])[0]
    elapsed = time.perf_counter() - t0
    ok = row_bomp.miss_rate > 2.0 * row_pdrs.miss_rate
    _report(
        capsys, 7,
        ok,
        f"greedy baseline miss rate {row_bomp.miss_rate:.3f} vs "
        f"{row_pdrs.miss_rate:.2e}, ratio "
        f"{row_bomp.miss_rate / max(row_pdrs.miss_rate, 1e-12):.0f}x "
        f"(need >= 2x), {elapsed:.1f}s",
    )


def test_criterion_8_complexity_ledger(capsys):
    cfg = anchor_cfg()
    t0 = time.perf_counter()
    models = {name: complexity_model(cfg, name) for name in ("pdrs", "bomp", "fpr")}

    pool, cb = synth_pool(cfg), synth_codebook(cfg)
    frame = draw_trial(cfg, pool, cb, 0).frame(cfg.sigma2)
    counted = {
        "pdrs": detect_pdrs_dwe(frame, pool, cb, cfg.zeta, cfg.svd_cost).mults,
        "bomp": detect_bomp(frame, pool, cfg.zeta, cfg.svd_cost).mults,
        "fpr": detect_fpr(frame, pool, cfg.zeta, fpr_gram_pinv(pool)).mults,
    }
    elapsed = time.perf_counter() - t0

    norm = cfg.K**3
    m = {k: v.detect_mults for k, v in models.items()}
    agreement = {k: abs(counted[k] - m[k]) / m[k] for k in m}
    ok = (
        norm == 884_736
        and m["bomp"] / m["fpr"] >= 50
        and m["fpr"] / m["pdrs"] >= 2
        and counted["bomp"] / counted["fpr"] >= 50
        and counted["fpr"] / counted["pdrs"] >= 2
        and all(v <= 0.10 for v in agreement.values())
    )
    _report(
        capsys, 8,
        ok,
        f"modeled ratios greedy/power-recovery {m['bomp'] / m['fpr']:.1f}, "
        f"power-recovery/reference-residual {m['fpr'] / m['pdrs']:.2f} "
        f"(counted {counted['bomp'] / counted['fpr']:.1f}, "
        f"{counted['fpr'] / counted['pdrs']:.2f}); worst count-vs-model gap "
        f"{max(agreement.values()):.2%} (tol 10%); normalized by K^3={norm} "
        f"-> reference-residual at {m['pdrs'] / norm:.2f}, {elapsed:.1f}s",
    )


def test_criterion_9_combined_ser_equivalence(capsys):
    cfg = anchor_cfg(D=240, trials=25)
    pool, cb = synth_pool(cfg), synth_codebook(cfg)
    t0 = time.perf_counter()

    total = 0
    differing = 0
    worst_weight_gap = 0.0
    boundary_ok = True
    for t in range(cfg.trials):
        frame = draw_trial(cfg, pool, cb, t).frame(cfg.sigma2)
        res = detect_pdrs_dwe(frame, pool, cb, cfg.zeta)
        assert np.linalg.matrix_rank(pool.P[res.detected]) == cfg.L
        direct = dwe_weights(frame, pool, res.detected, y_pinv=res.y_pinv)
        two_stage = zf_weights(
            ls_channel_estimate(frame, pool, res.detected), res.detected
        )
        gap = np.linalg.norm(direct.W - two_stage.W) / np.linalg.norm(direct.W)
        worst_weight_gap = max(worst_weight_gap, float(gap))

        x1 = direct.apply(frame.Y_D)
        x2 = two_stage.apply(frame.Y_D)
        d1, d2 = demod_qpsk(x1), demod_qpsk(x2)
        total += d1.size
        diff = d1 != d2
        differing += int(np.count_nonzero(diff))
        if np.any(diff):
            margin = np.minimum(
                np.minimum(np.abs(x1[diff].real), np.abs(x1[diff].imag)),
                np.minimum(np.abs(x2[diff].real), np.abs(x2[diff].imag)),
            )
            boundary_ok = boundary_ok and bool(np.all(margin <= 1e-6))
    elapsed = time.perf_counter() - t0

    identical_frac = 1.0 - differing / total
    ok = worst_weight_gap <= 1e-8 and identical_frac >= 0.999 and boundary_ok
    _report(
        capsys, 9,
        ok,
        f"matched support size = pilot length at 4 dB: worst weight gap "
        f"{worst_weight_gap:.2e} (tol 1e-8), {identical_frac:.6%} of "
        f"{total} hard decisions identical (floor 99.9%), differing symbols "
        f"all within 1e-6 of a decision boundary: {boundary_ok}, {elapsed:.1f}s",
    )


def test_criterion_10_scope_substitutions_documented(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").lower()
    needed = [
        "block-error",            # coded BLER curves are out of scope
        "message passing",        # no approximate-message-passing baseline
        "substitut",              # the proxy/property suites stand in
    ]
    missing = [s for s in needed if s not in text]
    ok = not missing
    _report(
        capsys, 10,
        ok,
        "README documents the out-of-scope coded/baseline curves and their "
        f"property-suite substitution (missing: {missing or 'none'})",
    )
