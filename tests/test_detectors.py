import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pdrslink import detectors, linalg
from pdrslink._kernels import col_norms_sq
from pdrslink.detectors import (
    detect_bomp,
    detect_fpr,
    detect_pdrs_dwe,
    fpr_gram_pinv,
    oracle_support,
)
from pdrslink.harness import STAGE_TABLE
from pdrslink.linalg import SCHUR_LEAF, pinv
from pdrslink.metrics import complexity_model, pinv_mults
from pdrslink.linalg import process_blas
from pdrslink.scenario import (
    ActivityPattern,
    PdrsCodebook,
    PilotPool,
    ReceivedFrame,
    SystemConfig,
    draw_trial,
    synth_codebook,
    synth_pool,
)
from test_blas_kernels import FULL_PRODUCT_BIT_KERNELS, correlation_keeps_full_bits, loaded_kernel


def build(seed=1, **kw):
    base = dict(M=16, N=32, L=12, l=4, K=8, zeta=8, snr_db=12.0, D=0, trials=1, seed=seed)
    base.update(kw)
    cfg = SystemConfig(**base)
    pool, cb = synth_pool(cfg), synth_codebook(cfg)
    frame = draw_trial(cfg, pool, cb, 0).frame(cfg.sigma2)
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
        frame = draw_trial(cfg, pool, cb, t).frame(cfg.sigma2)
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


@pytest.mark.parametrize("zeta", [5, 9, 20])
def test_bomp_stops_correlating_once_its_picks_span_c_l(monkeypatch, zeta):
    # no pilot repeats, so the first L picks span C^L and the pursuit ends:
    # the tail costs no correlation and the ledger is that of zeta = L
    cfg, pool, cb, act, frame = build(seed=16, M=8, N=20, L=4, K=3, zeta=zeta)
    calls = []
    powers = detectors._correlation_powers

    def counted(Z, P):
        calls.append(Z)
        return powers(Z, P)

    monkeypatch.setattr(detectors, "_correlation_powers", counted)
    res = detect_bomp(frame, pool, zeta)
    assert len(calls) == cfg.L
    assert res.mults == detect_bomp(frame, pool, cfg.L).mults


def test_bomp_never_admits_a_nan_power_after_the_first_pick(monkeypatch):
    cfg, pool, cb, act, frame = build(seed=3, zeta=6)
    firsts = []

    def poisoned(C):
        power = col_norms_sq(C)
        if firsts:  # the second pick: poison a user the first pick did not admit
            power[(firsts[0] + 1) % power.size] = np.nan
        firsts.append(int(np.argmax(power)))
        return power

    monkeypatch.setattr(detectors, "col_norms_sq", poisoned)
    with pytest.raises(ValueError, match="non-finite detection score"):
        detect_bomp(frame, pool, cfg.zeta)
    assert len(firsts) == 2


def test_bomp_rejects_powers_that_overflow():
    cfg, pool, cb, act, frame = build(seed=3)
    huge = replace(frame, Y=frame.Y * 1e160)
    assert np.all(np.isfinite(huge.Y))
    with pytest.raises(ValueError, match="non-finite detection score"):
        detect_bomp(huge, pool, cfg.zeta)


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


def test_fpr_gram_pinv_squared_in_place_equals_the_power_bit_for_bit():
    cfg, pool, cb, act, frame = build(seed=11, N=40)  # one row block of the Gram, one Schur leaf
    G = np.abs(pool.P.conj() @ pool.P.T) ** 2
    upper = np.triu_indices(pool.n_pilots, 1)
    G[upper] = G.T[upper]  # the strict lower triangle mirrored, as the Gram is built on any kernel set
    assert np.array_equal(fpr_gram_pinv(pool), pinv(G))


def test_fpr_gram_pinv_stays_off_the_eigh_and_svd_paths(monkeypatch):
    # N = 200 > SCHUR_LEAF, so an LU inverse of the whole Gram would be seen
    cfg, pool, cb, act, frame = build(seed=10, N=200, L=24)
    inv = np.linalg.inv

    def refuse(*args, **kwargs):
        raise AssertionError("eigh or svd called on a full-rank Gram")

    def leaf_inv(a, *args, **kwargs):
        if np.shape(a)[0] > SCHUR_LEAF:
            raise AssertionError(f"LU inverse of a {np.shape(a)[0]}-row block of a full-rank Gram")
        return inv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "inv", leaf_inv)
    assert fpr_gram_pinv(pool).dtype == np.float64


def _gram_schur_runs(monkeypatch, n):
    """Wrap ``linalg._schur_inv``; returns a list that gains one entry per run on a whole n x n Gram."""
    runs = []
    schur_inv = linalg._schur_inv

    def counted(m):
        if m.shape[0] == n:  # the recursion's own calls are on halves
            runs.append(m)
        return schur_inv(m)

    monkeypatch.setattr(linalg, "_schur_inv", counted)
    return runs


def test_fpr_gram_pinv_of_a_duplicated_pool_takes_one_svd(monkeypatch):
    cfg, pool, cb, act, frame = build(seed=10)
    dup = PilotPool(np.vstack([pool.P, pool.P[:4]]))
    calls = []
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    runs = _gram_schur_runs(monkeypatch, dup.n_pilots)
    gram = fpr_gram_pinv(dup)
    assert len(calls) == 1
    assert len(runs) == 1  # the fallback goes straight to pinv's LU, then its SVD
    assert gram.dtype == np.float64
    G = linalg._squared_gram(dup.P)
    assert np.linalg.matrix_rank(gram) == np.linalg.matrix_rank(G) < dup.n_pilots
    # the failed in-place attempt leaves no trace: the Gram is formed again for pinv
    assert np.array_equal(gram, pinv(G))


def test_fpr_gram_pinv_over_the_schur_bound_returns_lu_of_the_formed_gram(monkeypatch):
    cfg, pool, cb, act, frame = build(seed=10, N=200, L=24)
    G = linalg._squared_gram(pool.P)
    buffers = []
    schur_pinv = linalg._schur_pinv

    def recorded(m, *args, **kwargs):
        buffers.append(m)
        return schur_pinv(m, *args, **kwargs)

    monkeypatch.setattr(linalg, "_schur_pinv", recorded)
    monkeypatch.setattr(linalg, "SCHUR_BOUND", 1.0)  # below n, which ||G||_F ||G^-1||_F always reaches
    runs = _gram_schur_runs(monkeypatch, pool.n_pilots)
    gram = fpr_gram_pinv(pool)
    # the attempt inverted the Gram's own buffer before its bound failed, and only that attempt ran
    assert len(buffers) == 1 and not np.array_equal(buffers[0], G)
    assert len(runs) == 1 and runs[0] is buffers[0]
    assert np.array_equal(gram, np.linalg.inv(G))


def test_fpr_gram_pinv_is_read_only():
    cfg, pool, cb, act, frame = build(seed=11)
    dup = PilotPool(np.vstack([pool.P, pool.P[:4]]))  # takes the fallback
    for gram in (fpr_gram_pinv(pool), fpr_gram_pinv(dup)):
        with pytest.raises(ValueError, match="read-only"):
            gram[0, 0] = 1.0


def test_the_anchor_gram_build_peaks_below_two_n_by_n_float_arrays():
    # the Gram is formed and inverted in one N x N float64 buffer, with temporaries of a few
    # rows only; a row block formed across all N columns, or an h x h array beside the
    # buffer in the Schur recursion, reaches the limit
    pool = synth_pool(SystemConfig())  # the anchor pool: N = 1000 pilots of length L = 96
    N = pool.n_pilots
    tracemalloc.start()
    try:
        gram = fpr_gram_pinv(pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gram.shape == (N, N)
    assert peak < 1.2 * N**2 * 8


@pytest.mark.parametrize(
    "M, blocks, extra, zero",
    [
        (16, 0, 100, False),
        (16, 1, 0, False),
        (16, 1, 1, False),
        (16, 2, 1, False),
        (1, 1, 1, False),
        (16, 1, 1, True),
        (128, 3, 232, False),
    ],
    ids=["below the block", "one block", "one past the block", "two blocks and one", "M=1", "zero Z", "anchor M and N"],
)
def test_correlation_powers_equal_those_of_the_full_product_bit_for_bit(M, blocks, extra, zero):
    N = blocks * detectors._CORRELATION_BLOCK + extra
    rng = np.random.default_rng(N + M)
    Z = rng.standard_normal((M, 12)) + 1j * rng.standard_normal((M, 12))
    if zero:
        Z[:] = 0.0  # BOMP's residual once the selected pilots span C^L
    P = rng.standard_normal((N, 12)) + 1j * rng.standard_normal((N, 12))
    with process_blas().pinned():  # as run_sweep runs it: a threaded product splits otherwise
        power = detectors._correlation_powers(Z, P)
        full = col_norms_sq(Z @ P.conj().T)
    if correlation_keeps_full_bits(M):
        assert np.array_equal(power.view(np.uint64), full.view(np.uint64))
    else:  # the kernel set rounds a pilot block's edge otherwise than the full product
        assert np.linalg.norm(power - full) <= 1e-14 * np.linalg.norm(full)


def test_the_anchor_squared_gram_is_the_conjugate_product_bit_for_bit_and_symmetric():
    pool = synth_pool(SystemConfig())  # the anchor pool, several row blocks long
    G = linalg._squared_gram(pool.P)
    assert np.array_equal(G, G.T)  # by construction, on any kernel set
    full = np.abs(pool.P @ pool.P.conj().T) ** 2
    if loaded_kernel() in FULL_PRODUCT_BIT_KERNELS:
        assert np.array_equal(G, full)
    else:  # the full product need not even be symmetric here
        assert np.linalg.norm(G - full) <= 1e-14 * np.linalg.norm(full)


@pytest.mark.parametrize("name", ["bomp", "fpr"])
def test_an_anchor_detection_peaks_below_one_m_by_n_complex_array(name):
    # correlating the pool block by block never forms the M x N product
    cfg = SystemConfig()
    pool, cb = synth_pool(cfg), synth_codebook(cfg)
    frame = draw_trial(cfg, pool, cb, 0).frame(cfg.sigma2)
    gram = fpr_gram_pinv(pool) if name == "fpr" else None
    tracemalloc.start()
    try:
        STAGE_TABLE[name].detect(frame, pool, cb, cfg.zeta, cfg.svd_cost, gram)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cfg.M * cfg.N * 16


def test_fpr_rejects_a_complex_gram():
    cfg, pool, cb, act, frame = build(seed=11)
    G = np.abs(pool.P @ pool.P.conj().T) ** 2
    with pytest.raises(ValueError, match="gram_pinv must be the float64"):
        detect_fpr(frame, pool, cfg.zeta, pinv(G.astype(np.complex128)))


def test_fpr_names_a_non_finite_gram():
    cfg, pool, cb, act, frame = build(seed=11)
    gram = fpr_gram_pinv(pool).copy()
    gram[3, 5] = np.nan
    with pytest.raises(ValueError, match="gram_pinv holds nan or inf"):
        detect_fpr(frame, pool, cfg.zeta, gram)


def test_fpr_names_recovered_powers_that_overflow_a_finite_gram():
    cfg, pool, cb, act, frame = build(seed=11)
    gram = np.full((cfg.N, cfg.N), 1e306)
    # the named error, not numpy's overflow warning, is what a caller sees
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="non-finite detection score: the recovered powers overflow"):
            detect_fpr(frame, pool, cfg.zeta, gram)


@pytest.mark.parametrize("kind", ["none", "list"])
def test_fpr_rejects_a_gram_that_is_not_an_ndarray(kind):
    cfg, pool, cb, act, frame = build(seed=11)
    gram = None if kind == "none" else fpr_gram_pinv(pool).tolist()
    with pytest.raises(ValueError, match="gram_pinv"):
        detect_fpr(frame, pool, cfg.zeta, gram)


def test_fpr_rejects_wrong_gram_shape():
    cfg, pool, cb, act, frame = build(seed=11)
    with pytest.raises(ValueError):
        detect_fpr(frame, pool, cfg.zeta, np.eye(3))


@pytest.mark.parametrize(
    "other, shape", [({"N": 40}, (40, 4)), ({"l": 3}, (32, 3))], ids=["pilot count", "reference length"]
)
def test_pdrs_names_a_codebook_that_does_not_fit_the_pool_and_frame(other, shape):
    cfg, pool, cb, act, frame = build(seed=11)
    _, _, wrong, _, _ = build(seed=11, **other)
    message = f"codebook R has shape {shape}, but the pool and Y_R take (32, 4)"
    with pytest.raises(ValueError, match=re.escape(message)):
        detect_pdrs_dwe(frame, pool, wrong, cfg.zeta)


@pytest.mark.parametrize("name", ["pdrs", "bomp", "fpr"])
def test_a_pool_of_another_pilot_length_is_named(name):
    cfg, pool, cb, act, frame = build(seed=11)
    _, short, _, _, _ = build(seed=11, L=10)
    gram = fpr_gram_pinv(short)
    message = "the pool's pilots have length 10, but the frame's L is 12"
    with pytest.raises(ValueError, match=re.escape(message)):
        STAGE_TABLE[name].detect(frame, short, cb, cfg.zeta, cfg.svd_cost, gram)


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
    frame = draw_trial(cfg, pool, cb, 0).frame(cfg.sigma2)
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
