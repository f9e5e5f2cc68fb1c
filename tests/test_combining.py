import re

import numpy as np
import pytest

from pdrslink.combining import (
    WeightMatrix,
    demod_qpsk,
    dwe_weights,
    ls_channel_estimate,
    zf_weights,
)
from pdrslink.detectors import detect_pdrs_dwe
from pdrslink.linalg import pinv
from pdrslink.scenario import RngStream, cgauss
from pdrslink.scenario import QPSK_POINTS, SystemConfig, synth_codebook, synth_frame, synth_pool


def build(seed=1, **kw):
    base = dict(M=16, N=32, L=12, l=4, K=6, zeta=6, snr_db=10.0, D=9, trials=1, seed=seed)
    base.update(kw)
    cfg = SystemConfig(**base)
    pool, cb = synth_pool(cfg), synth_codebook(cfg)
    frame = synth_frame(cfg, pool, cb, 0)
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
