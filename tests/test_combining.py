import re

import numpy as np
import pytest

from pdrslink.combining import (
    LsEstimate,
    PilotFactor,
    WeightMatrix,
    demod_qpsk,
    dwe_weights,
    ls_channel_estimate,
    pilot_factor,
    support_inverse,
    zf_weights,
)
from pdrslink.detectors import detect_pdrs_dwe
from pdrslink.linalg import DEFAULT_PINV_RTOL_SCALE, pinv
from pdrslink.scenario import RngStream, cgauss
from pdrslink.scenario import QPSK_POINTS, SystemConfig, draw_trial, synth_codebook, synth_pool


def build(seed=1, **kw):
    base = dict(M=16, N=32, L=12, l=4, K=6, zeta=6, snr_db=10.0, D=9, trials=1, seed=seed)
    base.update(kw)
    cfg = SystemConfig(**base)
    pool, cb = synth_pool(cfg), synth_codebook(cfg)
    frame = draw_trial(cfg, pool, cb, 0).frame(cfg.sigma2)
    return cfg, pool, cb, frame.ground_truth, frame


def test_dwe_rows_do_not_depend_on_companions():
    for seed in range(10):
        cfg, pool, cb, act, frame = build(seed=seed)
        subset = act.active[:3]
        extras = np.setdiff1d(np.arange(cfg.N), act.active)[:4]
        alone = dwe_weights(frame, pool, subset)
        padded = dwe_weights(frame, pool, np.sort(np.concatenate([subset, extras])))
        rows = np.searchsorted(padded.users, subset)
        assert np.array_equal(padded.W[rows], alone.W)


def test_dwe_reuses_supplied_pinv():
    cfg, pool, cb, act, frame = build(seed=3)
    res = detect_pdrs_dwe(frame, pool, cb, cfg.zeta)
    fresh = dwe_weights(frame, pool, res.detected)
    reused = dwe_weights(frame, pool, res.detected, y_pinv=res.y_pinv)
    assert np.array_equal(fresh.W, reused.W)


def test_dwe_row_is_pilot_times_pinv():
    cfg, pool, cb, act, frame = build(seed=4)
    w = dwe_weights(frame, pool, act.active)
    y_pinv = np.linalg.pinv(frame.Y)
    for i, n in enumerate(act.active):
        assert np.allclose(w.W[i], pool.P[n] @ y_pinv, rtol=1e-9, atol=1e-12)


def test_noiseless_dwe_zero_forces_the_channel():
    cfg, pool, cb, act, frame = build(seed=5, snr_db=float("inf"))
    w = dwe_weights(frame, pool, act.active)
    gain = w.W @ frame.H
    assert np.max(np.abs(gain - np.eye(act.K))) < 1e-9


def test_ls_estimate_recovers_channel_noiseless():
    cfg, pool, cb, act, frame = build(seed=6, snr_db=float("inf"))
    h_est = ls_channel_estimate(frame, pool, act.active)
    assert h_est.shape == (cfg.M, act.K)
    assert np.max(np.abs(h_est - frame.H)) < 1e-9


def test_ls_estimate_rejects_empty_support():
    cfg, pool, cb, act, frame = build(seed=7)
    with pytest.raises(ValueError):
        ls_channel_estimate(frame, pool, np.array([], dtype=np.int64))


@pytest.mark.parametrize("combine", [dwe_weights, ls_channel_estimate])
def test_a_pool_of_another_pilot_length_is_named(combine):
    cfg, pool, cb, act, frame = build(seed=7)
    _, short, _, _, _ = build(seed=7, L=10)
    message = "the pool's pilots have length 10, but the frame's L is 12"
    with pytest.raises(ValueError, match=re.escape(message)):
        combine(frame, short, act.active)


def test_ls_estimate_takes_a_pilot_pinv_computed_before():
    cfg, pool, cb, act, frame = build(seed=7)
    p_pinv = pinv(pool.P[act.active])
    assert np.array_equal(
        ls_channel_estimate(frame, pool, act.active, p_pinv),
        ls_channel_estimate(frame, pool, act.active),
    )


def test_ls_estimate_rejects_a_pilot_pinv_of_the_wrong_shape():
    cfg, pool, cb, act, frame = build(seed=7)
    wrong = pinv(pool.P[act.active[:-1]])
    expected = (cfg.L, act.K)
    with pytest.raises(ValueError, match=re.escape(f"{wrong.shape}") + ".*" + re.escape(f"{expected}")):
        ls_channel_estimate(frame, pool, act.active, wrong)


def test_zf_weights_orthonormal_channel_is_hermitian_transpose():
    q, _ = np.linalg.qr(cgauss(8, 3, 1.0, RngStream(60, 0)))
    w = zf_weights(q, np.array([0, 1, 2]))
    assert np.allclose(w.W, q.conj().T, rtol=1e-10, atol=1e-12)


def test_zf_weights_single_user_is_normalized_matched_filter():
    h = cgauss(6, 1, 1.0, RngStream(61, 0))
    w = zf_weights(h, np.array([4]))
    expect = h.conj().T / float(np.sum(np.abs(h) ** 2))
    assert np.allclose(w.W, expect, rtol=1e-10, atol=1e-12)


def test_zf_inverts_estimated_channel_noiseless():
    cfg, pool, cb, act, frame = build(seed=8, snr_db=float("inf"))
    h_est = ls_channel_estimate(frame, pool, act.active)
    w = zf_weights(h_est, act.active)
    gain = w.W @ frame.H
    assert np.max(np.abs(gain - np.eye(act.K))) < 1e-9


def test_weight_matrix_validation_and_apply():
    W = np.ones((2, 4), dtype=np.complex128)
    with pytest.raises(ValueError):
        WeightMatrix(W, np.array([1, 2, 3]))
    wm = WeightMatrix(W, np.array([5, 9]))
    out = wm.apply(np.ones((4, 3), dtype=np.complex128))
    assert out.shape == (2, 3)
    assert np.allclose(out, 4.0)


def test_demod_nearest_point():
    rail = np.sqrt(0.5)
    got = demod_qpsk(np.array([[0.9 + 0.8j]]))
    assert got[0, 0] == rail + rail * 1j
    assert got[0, 0] in QPSK_POINTS


def test_demod_boundary_decides_positive():
    rail = np.sqrt(0.5)
    got = demod_qpsk(np.array([[0.0 + 0.0j, -0.0 + 1.0j]]))
    assert got[0, 0] == rail + rail * 1j
    assert got[0, 1] == rail + rail * 1j


def test_demod_outputs_are_constellation_points():
    x = cgauss(5, 8, 4.0, RngStream(62, 0))
    got = demod_qpsk(x)
    assert np.all(np.isin(got, QPSK_POINTS))


def test_demod_is_identity_on_constellation():
    sent = QPSK_POINTS[RngStream(63, 0).gen.integers(0, 4, size=(4, 10))]
    assert np.array_equal(demod_qpsk(sent), sent)


def test_end_to_end_noiseless_recovery():
    cfg, pool, cb, act, frame = build(seed=9, snr_db=float("inf"))
    w = dwe_weights(frame, pool, act.active)
    decided = demod_qpsk(w.apply(frame.Y_D))
    assert np.array_equal(decided, frame.X_D)


def _wide_estimate(M=10, L=6, zeta=9, seed=70):
    """A Gaussian zeta x L pilot block, and the ``LsEstimate`` of a Gaussian Y (M x L) and its factor."""
    rng = RngStream(seed, 0)
    Y, P = cgauss(M, L, 1.0, rng), cgauss(zeta, L, 1.0, rng)
    return P, LsEstimate(Y, pilot_factor(P))


def _assert_takes_pinv_of_the_product(Y, P):
    """A block without a certified factor: its support inverse is ``pinv(P)``, and ZF is
    ``pinv(Y @ pinv(P))`` bit for bit."""
    assert pilot_factor(P) is None
    p_pinv = support_inverse(P)
    assert type(p_pinv) is np.ndarray and p_pinv.tobytes() == pinv(P).tobytes()
    W = zf_weights(Y @ p_pinv, np.arange(P.shape[0])).W
    assert np.array_equal(W.view(np.float64), pinv(Y @ pinv(P)).view(np.float64))


def _assert_is_pinv_of_the_product_at_its_cutoff(est, P, rank):
    """ZF of ``est``, whose factor is of the pilot block ``P``, keeps ``rank`` singular values of
    ``H = Y @ pinv(P)`` and is numpy's ``pinv(H)`` at H's cutoff, within a bound scaled by the
    condition number of the kept values."""
    W = zf_weights(est, np.arange(P.shape[0])).W
    H = est.Y @ pinv(P)
    cutoff = max(H.shape) * DEFAULT_PINV_RTOL_SCALE
    s = np.linalg.svd(H, compute_uv=False)
    kept = s[s > cutoff * s[0]]
    assert kept.size == rank
    ref = np.linalg.pinv(H, rtol=cutoff)
    assert np.linalg.matrix_rank(W, rtol=cutoff) == rank
    bound = 100 * (kept[0] / kept[-1]) * np.finfo(float).eps
    assert np.linalg.norm(W - ref) <= bound * np.linalg.norm(ref)


def test_a_wide_estimate_is_kept_as_its_factors_and_reads_as_their_product():
    cfg, pool, cb, act, frame = build(seed=10, zeta=20)
    res = detect_pdrs_dwe(frame, pool, cb, cfg.zeta)
    est = ls_channel_estimate(frame, pool, res.detected)
    assert isinstance(est, LsEstimate)
    R_inv_h, Q = est.pilot.R_inv_h, est.pilot.Q
    assert est.Y is frame.Y and Q.tobytes() == (pool.P[res.detected] @ R_inv_h).tobytes()
    assert R_inv_h.shape == (cfg.L, cfg.L) and Q.shape == (cfg.zeta, cfg.L)
    assert np.allclose(Q.conj().T @ Q, np.eye(cfg.L), rtol=0, atol=1e-12)  # orthonormal columns
    assert np.array_equal(np.triu(R_inv_h), R_inv_h)  # R^-H of a lower-triangular R
    product = frame.Y @ pinv(pool.P[res.detected])
    assert product.shape == (cfg.M, cfg.zeta)
    B = frame.Y @ R_inv_h
    assert np.linalg.norm(B @ Q.conj().T - product) <= 1e-12 * np.linalg.norm(product)


@pytest.mark.parametrize(
    "zeta, repeat, factored",
    [(8, False, False), (9, False, True), (9, True, False)],
    ids=["zeta=L", "zeta=L+1", "zeta=L+1,repeated pilots"],
)
def test_support_inverse_factors_the_block_exactly_when_zeta_exceeds_L(zeta, repeat, factored):
    P = cgauss(zeta, 8, 1.0, RngStream(73, zeta))  # L = 8
    if repeat:
        P[[1, 3]] = P[[0, 2]]  # two pilots shared: 7 distinct rows, rank L - 1, factor uncertified
    got = support_inverse(P)
    if factored:
        assert isinstance(got, PilotFactor) and got.Q.tobytes() == (P @ got.R_inv_h).tobytes()
    else:
        assert type(got) is np.ndarray
        assert got.tobytes() == pinv(P).tobytes()


def test_a_wide_estimate_takes_a_pilot_factor_computed_before():
    cfg, pool, cb, act, frame = build(seed=10, zeta=20)
    res = detect_pdrs_dwe(frame, pool, cb, cfg.zeta)
    factor = pilot_factor(pool.P[res.detected])
    est = ls_channel_estimate(frame, pool, res.detected, factor)
    assert est.pilot is factor
    fresh = ls_channel_estimate(frame, pool, res.detected)
    W, W_fresh = (zf_weights(e, res.detected).W for e in (est, fresh))
    assert np.array_equal(W.view(np.float64), W_fresh.view(np.float64))


@pytest.mark.parametrize("which", ["pinv", "short factor"])
def test_a_wide_estimate_rejects_anything_but_its_pilot_factor(which):
    # a given pilot inverse is checked by its shape alone: a right-shaped array gives the product
    cfg, pool, cb, act, frame = build(seed=10, zeta=20)
    res = detect_pdrs_dwe(frame, pool, cb, cfg.zeta)
    if which == "pinv":
        p_pinv = pinv(pool.P[res.detected])
        product = ls_channel_estimate(frame, pool, res.detected, p_pinv)
        assert type(product) is np.ndarray and product.tobytes() == (frame.Y @ p_pinv).tobytes()
        given, got = pinv(pool.P[res.detected[:-1]]), "an array of shape (12, 19)"
        due = "shape (12, 20)"
    else:
        given, got = pilot_factor(pool.P[res.detected[:-1]]), "a PilotFactor of a block of shape (19, 12)"
        due = "shape (20, 12)"
    with pytest.raises(ValueError, match=re.escape(got) + ".*" + re.escape(due)):
        ls_channel_estimate(frame, pool, res.detected, given)


def test_a_wide_estimate_is_zero_forced_from_its_factors():
    P, est = _wide_estimate()
    W = zf_weights(est, np.arange(9)).W
    # certified, so pinv(B) keeps the tall rule's result at either cutoff
    B_pinv = pinv(est.Y @ est.pilot.R_inv_h)
    assert np.array_equal(W.view(np.float64), (est.pilot.Q @ B_pinv).view(np.float64))
    ref = pinv(est.Y @ pinv(P))  # the wide product takes the SVD
    assert np.linalg.norm(W - ref) <= 1e-12 * np.linalg.norm(ref)


def test_zf_falls_back_when_cholesky_finds_the_pilot_gram_singular():
    P, est = _wide_estimate()
    P = P.copy()
    P[:, -1] = 0.0  # a pilot block of rank L - 1: its Gram has a zero pivot
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(P.conj().T @ P)
    _assert_takes_pinv_of_the_product(est.Y, P)


def test_zf_falls_back_when_the_cholesky_factor_is_too_ill_conditioned():
    P, est = _wide_estimate()
    # columns graded from 1 down to 1e-12: cholesky is blind to the grading and succeeds,
    # but ||R||_F ||R^-1||_F L eps > 1e-4
    P = P * np.logspace(0, -12, 6)
    R = np.linalg.cholesky(P.conj().T @ P)
    assert np.linalg.norm(R) * np.linalg.norm(np.linalg.inv(R)) * 6 * np.finfo(float).eps > 1e-4
    # Y undoes the grading, so B = Y R^-H is well conditioned and only the R bound can fail
    _assert_takes_pinv_of_the_product(est.Y @ R.conj().T, P)


def test_zf_falls_back_when_repeated_pilots_leave_the_pilot_block_short_of_rank():
    P = cgauss(9, 6, 1.0, RngStream(70, 10))
    P[[1, 3, 5, 7]] = P[[0, 2, 4, 6]]  # four users share a pilot with another: rank 5 < L = 6
    # the Gram's zero eigenvalue rounds to about eps, so cholesky succeeds and R looks only
    # moderately ill conditioned; the bound holds unsquared and fails squared.  The sign of
    # that rounding depends on the BLAS kernel set: this draw rounds it positive under the
    # SkylakeX, Haswell and Sandybridge sets (tests/test_blas_kernels.py runs it under each)
    R = np.linalg.cholesky(P.conj().T @ P)
    cond_R = np.linalg.norm(R) * np.linalg.norm(np.linalg.inv(R))
    assert cond_R * 6 * np.finfo(float).eps < 1e-4 < cond_R**2 * 9 * np.finfo(float).eps
    _assert_takes_pinv_of_the_product(_wide_estimate()[1].Y, P)


def test_zf_falls_back_when_y_has_lost_rank():
    # B = Y R^-H has rank 4 < L = 6: pinv(B) leaves the tall rule for its SVD, which keeps 4 values
    P, est = _wide_estimate()
    rng = RngStream(71, 0)
    Y = cgauss(10, 4, 1.0, rng) @ cgauss(4, 6, 1.0, rng)
    _assert_is_pinv_of_the_product_at_its_cutoff(LsEstimate(Y, est.pilot), P, rank=4)


def test_zf_falls_back_when_an_svd_of_h_would_drop_a_singular_value():
    # B has singular values 1 down to 1e-10: pinv(B) at its own cutoff, max(M, L) 1e-12 = 1e-11,
    # keeps all six, but at H's cutoff, max(M, zeta) 1e-12 = 1.2e-10, it takes the SVD and keeps 5
    P, est = _wide_estimate(zeta=120)
    rng = RngStream(72, 0)
    u = np.linalg.qr(cgauss(10, 6, 1.0, rng))[0]
    vh = np.linalg.qr(cgauss(6, 6, 1.0, rng))[0]
    B = (u * np.logspace(0, -10, 6)) @ vh
    R = np.linalg.cholesky(P.conj().T @ P)
    est = LsEstimate(B @ R.conj().T, est.pilot)  # so that Y R^-H = B
    B = est.Y @ est.pilot.R_inv_h
    assert abs(np.trace(pinv(B) @ B) - 6) < 0.5
    _assert_is_pinv_of_the_product_at_its_cutoff(est, P, rank=5)


def test_fewer_antennas_than_pilot_symbols_zero_force_from_the_pilot_factor():
    # M = 10 < L = 12 < zeta = 20: B = Y R^-H is wide, and its pinv takes the SVD
    cfg, pool, cb, act, frame = build(seed=11, M=10, zeta=20)
    res = detect_pdrs_dwe(frame, pool, cb, cfg.zeta)
    h_est = ls_channel_estimate(frame, pool, res.detected)
    assert isinstance(h_est, LsEstimate)
    _assert_is_pinv_of_the_product_at_its_cutoff(h_est, pool.P[res.detected], rank=cfg.M)
