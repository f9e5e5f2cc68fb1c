from dataclasses import replace

import numpy as np
import pytest

from pdrslink.detectors import (
    detect_bomp,
    detect_fpr,
    detect_pdrs_dwe,
    fpr_gram_pinv,
    oracle_support,
)
from pdrslink.harness import STAGE_TABLE
from pdrslink.linalg import pinv
from pdrslink.metrics import complexity_model, pinv_mults
from pdrslink.scenario import (
    ActivityPattern,
    PdrsCodebook,
    PilotPool,
    ReceivedFrame,
    SystemConfig,
    synth_codebook,
    synth_frame,
    synth_pool,
)


def build(seed=1, **kw):
    base = dict(M=16, N=32, L=12, l=4, K=8, zeta=8, snr_db=12.0, D=0, trials=1, seed=seed)
    base.update(kw)
    cfg = SystemConfig(**base)
    pool, cb = synth_pool(cfg), synth_codebook(cfg)
    frame = synth_frame(cfg, pool, cb, 0)
    return cfg, pool, cb, frame.ground_truth, frame


# ---------------------------------------------------------------- reference
# implementations written as plain loops, kept independent of the package's
# linear algebra helpers


def pdrs_scores_reference(frame, pool, codebook):
    T = np.linalg.pinv(frame.Y) @ frame.Y_R
    scores = np.zeros(pool.n_pilots)
    for n in range(pool.n_pilots):
        e = pool.P[n] @ T - codebook.R[n]
        scores[n] = float(np.sum(np.abs(e) ** 2))
    return scores


def bomp_reference(Y, P, zeta):
    selected = []
    Z = Y.copy()
    for _ in range(zeta):
        best, best_power = -1, -np.inf
        for n in range(P.shape[0]):
            if n in selected:
                continue
            c = Z @ P[n].conj()
            power = float(np.sum(np.abs(c) ** 2))
            if power > best_power:
                best, best_power = n, power
        selected.append(best)
        A = P[selected].T
        coef, *_ = np.linalg.lstsq(A, Y.T, rcond=None)
        Z = (Y.T - A @ coef).T
    return np.sort(np.asarray(selected))


def bomp_pinv_reference(Y, P, zeta):
    """The SVD form of BOMP: a fresh ``pinv`` of the selected pilots per pick.

    Same operations as the detector before it kept an incremental QR, so the
    two must select the same support whenever zeta <= L.
    """
    P_h = P.conj().T
    Z = Y
    selected = []
    for _ in range(zeta):
        C = Z @ P_h
        power = np.einsum("ij,ij->j", C, C.conj()).real
        power[selected] = -np.inf
        selected.append(int(np.argmax(power)))
        Ps = P[selected]
        Z = Y - (Y @ pinv(Ps)) @ Ps
    return np.sort(np.asarray(selected))


def fpr_scores_reference(Y, P):
    N = P.shape[0]
    p_mf = np.zeros(N)
    for n in range(N):
        v = Y @ P[n].conj()
        p_mf[n] = float(np.sum(np.abs(v) ** 2))
    G = np.abs(P @ P.conj().T) ** 2
    return np.linalg.pinv(G) @ p_mf


# ------------------------------------------------------------------- tests


def test_pdrs_noiseless_is_exact():
    for seed in range(30):
        cfg, pool, cb, act, frame = build(seed=seed, snr_db=float("inf"))
        res = detect_pdrs_dwe(frame, pool, cb, cfg.zeta)
        assert np.array_equal(res.detected, act.active)


def test_pdrs_scores_match_loop_reference():
    cfg, pool, cb, act, frame = build(seed=5)
    res = detect_pdrs_dwe(frame, pool, cb, cfg.zeta)
    ref = pdrs_scores_reference(frame, pool, cb)
    assert np.allclose(res.scores, ref, rtol=1e-9, atol=1e-12)
    order = np.sort(np.argsort(ref, kind="stable")[: cfg.zeta])
    assert np.array_equal(res.detected, order)


def test_pdrs_detected_sorted_and_correct_size():
    cfg, pool, cb, act, frame = build(seed=2, zeta=11)
    res = detect_pdrs_dwe(frame, pool, cb, 11)
    assert res.detected.size == 11
    assert np.all(np.diff(res.detected) > 0)


def test_pdrs_active_residuals_are_small_noiseless():
    cfg, pool, cb, act, frame = build(seed=3, snr_db=float("inf"))
    res = detect_pdrs_dwe(frame, pool, cb, cfg.zeta)
    active_scores = res.scores[act.active]
    inactive = np.setdiff1d(np.arange(cfg.N), act.active)
    assert np.max(active_scores) < 1e-16
    assert np.min(res.scores[inactive]) > 1e-6


def test_pdrs_tie_breaks_to_lower_index():
    # users 2 and 3 share a pilot and a reference code, so their residuals
    # are computed from identical inputs and tie exactly
    P = np.array(
        [
            [np.sqrt(2.0), 0.0],
            [0.0, np.sqrt(2.0)],
            [1.0, 1.0],
            [1.0, 1.0],
        ],
        dtype=np.complex128,
    )
    R = np.ones((4, 1), dtype=np.complex128)
    pool, cb = PilotPool(P), PdrsCodebook(R)
    truth = ActivityPattern(np.array([0]), 4)
    Y = 2.0 * np.eye(2, dtype=np.complex128)
    Y_R = np.array([[1.0], [0.0]], dtype=np.complex128)
    frame = ReceivedFrame(
        Y_R=Y_R, Y=Y, Y_D=np.zeros((2, 0), dtype=np.complex128), ground_truth=truth, sigma2=0.1
    )
    res = detect_pdrs_dwe(frame, pool, cb, 2)
    assert res.scores[2] == res.scores[3]
    assert np.array_equal(res.detected, np.array([0, 2]))
    res3 = detect_pdrs_dwe(frame, pool, cb, 3)
    assert np.array_equal(res3.detected, np.array([0, 2, 3]))


def test_pdrs_counted_mults():
    cfg, pool, cb, act, frame = build(seed=1)
    res = detect_pdrs_dwe(frame, pool, cb, cfg.zeta, svd_cost=4)
    M, N, L, ell = cfg.M, cfg.N, cfg.L, cfg.l
    expect = pinv_mults(M, L, 4) + L * M * ell + N * L * ell + N * ell
    assert res.mults == expect
    assert res.real_mults == 0


def test_pdrs_returns_reusable_pinv():
    cfg, pool, cb, act, frame = build(seed=4)
    res = detect_pdrs_dwe(frame, pool, cb, cfg.zeta)
    assert res.y_pinv is not None
    assert np.allclose(res.y_pinv @ frame.Y @ res.y_pinv, res.y_pinv)


def test_bomp_matches_greedy_reference():
    for seed in range(10):
        cfg, pool, cb, act, frame = build(
            seed=100 + seed, M=6, N=12, L=5, K=3, zeta=3, snr_db=15.0
        )
        res = detect_bomp(frame, pool, cfg.zeta)
        ref = bomp_reference(frame.Y, pool.P, cfg.zeta)
        assert np.array_equal(res.detected, ref)


def test_bomp_single_iteration_counted_mults():
    cfg, pool, cb, act, frame = build(seed=6)
    res = detect_bomp(frame, pool, 1, svd_cost=4)
    M, N, L = cfg.M, cfg.N, cfg.L
    # correlation, powers, the two norms and the scaling of the first basis
    # vector, deflation
    expect = M * L * N + M * N + 3 * L + 2 * 1 * L * M
    assert res.mults == expect


def test_bomp_matches_pinv_reference_on_small_frames():
    # L >= 2: with L = 1 every unit-modulus pilot correlates with the same
    # power, so both forms pick by rounding noise
    rng = np.random.default_rng(2024)
    for seed in range(300):
        L = int(rng.integers(2, 13))
        N = int(rng.integers(L + 1, 41))
        M = int(rng.integers(1, 17))
        K = int(rng.integers(1, N + 1))
        zeta = int(rng.integers(1, L + 1))
        snr = float(rng.choice([0.0, 4.0, 10.0, 20.0]))
        cfg, pool, cb, act, frame = build(
            seed=1000 + seed, M=M, N=N, L=L, K=K, zeta=zeta, snr_db=snr
        )
        res = detect_bomp(frame, pool, zeta)
        ref = bomp_pinv_reference(frame.Y, pool.P, zeta)
        assert np.array_equal(res.detected, ref), (seed, M, N, L, K, zeta, snr)
        assert res.mults == complexity_model(cfg, "bomp").detect_mults


@pytest.mark.parametrize("snr_db", [0.0, 4.0])
def test_bomp_matches_pinv_reference_at_anchor(snr_db):
    cfg = SystemConfig(snr_db=snr_db, trials=4, seed=21)
    pool, cb = synth_pool(cfg), synth_codebook(cfg)
    model = complexity_model(cfg, "bomp").detect_mults
    for t in range(cfg.trials):
        frame = synth_frame(cfg, pool, cb, t)
        res = detect_bomp(frame, pool, cfg.zeta, cfg.svd_cost)
        assert np.array_equal(res.detected, bomp_pinv_reference(frame.Y, pool.P, cfg.zeta))
        assert res.mults == model


def test_bomp_skips_a_pilot_already_in_the_span():
    # scaled unit pilots keep the arithmetic exact; user 2 repeats user 1's
    # pilot and Y has no energy along e2, so after picks 0 and 1 users 2 and
    # 3 both score exactly 0 and the tie rule admits the repeat, which costs
    # Gram-Schmidt but adds no basis vector and no deflation
    L, M, N = 3, 2, 4
    s = np.sqrt(3.0)
    P = np.array([[s, 0, 0], [0, s, 0], [0, s, 0], [0, 0, s]], dtype=np.complex128)
    Y = np.array([[3.0, 2.0, 0.0], [1.0j, -1.0, 0.0]], dtype=np.complex128)
    frame = ReceivedFrame(
        Y_R=np.ones((M, 1), dtype=np.complex128),
        Y=Y,
        Y_D=np.zeros((M, 0), dtype=np.complex128),
        ground_truth=ActivityPattern(np.array([0, 1]), N),
        sigma2=0.1,
    )
    res = detect_bomp(frame, PilotPool(P), N)
    assert np.array_equal(res.detected, np.arange(N))
    assert res.scores[2] == 0.0 and res.scores[3] == 0.0
    correlation = N * (M * L * N + M * N)
    gram_schmidt = 3 * L + (4 * L + 3 * L) + (4 * L * 2 + 2 * L) + (4 * L * 2 + 3 * L)
    deflation = 2 * 1 * L * M + 2 * 2 * L * M
    assert res.mults == correlation + gram_schmidt + deflation


def test_bomp_picks_lowest_indices_once_the_span_is_full():
    # with zeta > L the first L picks span C^L, the residual is exactly zero,
    # and the remaining picks are the lowest unselected indices
    cfg, pool, cb, act, frame = build(seed=16, M=8, N=20, L=4, K=3, zeta=9)
    res = detect_bomp(frame, pool, cfg.zeta)
    first = detect_bomp(frame, pool, cfg.L).detected
    rest = np.setdiff1d(np.arange(cfg.N), first)[: cfg.zeta - cfg.L]
    assert np.array_equal(res.detected, np.union1d(first, rest))
    assert np.all(res.scores[rest] == 0.0)
    assert res.mults == complexity_model(cfg, "bomp").detect_mults


def test_bomp_selects_distinct_users():
    cfg, pool, cb, act, frame = build(seed=7, zeta=12)
    res = detect_bomp(frame, pool, 12)
    assert res.detected.size == 12
    assert np.unique(res.detected).size == 12


def test_fpr_matches_loop_reference():
    cfg, pool, cb, act, frame = build(seed=8, M=12, N=16, L=10, K=4, zeta=4)
    gram = fpr_gram_pinv(pool)
    res = detect_fpr(frame, pool, cfg.zeta, gram)
    ref = fpr_scores_reference(frame.Y, pool.P)
    assert np.allclose(res.scores, ref, rtol=1e-6, atol=1e-9)
    expect = np.sort(np.argsort(-ref, kind="stable")[: cfg.zeta])
    assert np.array_equal(res.detected, expect)


def test_fpr_counted_mults():
    cfg, pool, cb, act, frame = build(seed=9)
    gram = fpr_gram_pinv(pool)
    res = detect_fpr(frame, pool, cfg.zeta, gram)
    assert res.mults == cfg.M * cfg.L * cfg.N + cfg.M * cfg.N
    assert res.real_mults == cfg.N * cfg.N


def test_fpr_gram_pinv_is_real_and_consistent():
    cfg, pool, cb, act, frame = build(seed=10, N=24)
    gram = fpr_gram_pinv(pool)
    assert gram.dtype == np.float64
    G = np.abs(pool.P @ pool.P.conj().T) ** 2
    assert np.allclose(G @ gram @ G, G, rtol=1e-8, atol=1e-8)


def test_fpr_rejects_wrong_gram_shape():
    cfg, pool, cb, act, frame = build(seed=11)
    with pytest.raises(ValueError):
        detect_fpr(frame, pool, cfg.zeta, np.eye(3))


def test_oracle_support():
    cfg, pool, cb, act, frame = build(seed=12)
    res = oracle_support(frame)
    assert np.array_equal(res.detected, act.active)
    assert res.mults == 0
    # returned support is a copy, not a view into the truth
    res.detected[0] = -1
    assert act.active[0] != -1


def test_zeta_bounds_are_checked():
    cfg, pool, cb, act, frame = build(seed=13)
    for bad in (0, cfg.N + 1):
        with pytest.raises(ValueError):
            detect_pdrs_dwe(frame, pool, cb, bad)
        with pytest.raises(ValueError):
            detect_bomp(frame, pool, bad)
        with pytest.raises(ValueError):
            detect_fpr(frame, pool, bad, fpr_gram_pinv(pool))


def test_aggressive_support_contains_actives_noiseless():
    cfg, pool, cb, act, frame = build(seed=14, zeta=16, snr_db=float("inf"))
    res = detect_pdrs_dwe(frame, pool, cb, 16)
    assert np.all(np.isin(act.active, res.detected))


@pytest.mark.parametrize("block", ["Y", "Y_R"])
@pytest.mark.parametrize("name", ["pdrs", "bomp", "fpr"])
def test_a_nan_in_the_frame_is_never_ranked(name, block):
    cfg = SystemConfig(M=16, N=32, L=12, l=4, K=8, zeta=6, snr_db=12.0, D=0, trials=1, seed=3)
    pool, cb = synth_pool(cfg), synth_codebook(cfg)
    frame = synth_frame(cfg, pool, cb, 0)
    bad = getattr(frame, block).copy()
    bad[0, 0] = np.nan
    poisoned = replace(frame, **{block: bad})
    gram = fpr_gram_pinv(pool)

    def run(fr):
        return STAGE_TABLE[name].detect(fr, pool, cb, cfg.zeta, cfg.svd_cost, gram)

    if block == "Y" or name == "pdrs":
        # a ranked nan used to come back as a plausible support; pdrs checks
        # Y before pinv, whose SVD would fail without naming the block
        pdrs_y = (name, block) == ("pdrs", "Y")
        match = "frame block Y holds nan" if pdrs_y else "non-finite detection score"
        with pytest.raises(ValueError, match=match):
            run(poisoned)
    else:
        # bomp and fpr never read Y_R
        assert np.array_equal(run(poisoned).detected, run(frame).detected)
