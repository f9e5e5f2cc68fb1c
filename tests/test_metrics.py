import math

import numpy as np
import pytest

from pdrslink.detectors import DetectionResult
from pdrslink.metrics import (
    SINR_CAP_DB,
    ComplexityModel,
    TrialMetrics,
    complexity_model,
    detection_metrics,
    matmul_mults,
    pinv_mults,
    post_sinr,
    symbol_errors,
)
from pdrslink.scenario import RngStream, cgauss
from pdrslink.scenario import ActivityPattern, SystemConfig

ANCHOR = SystemConfig(M=128, N=1000, L=96, l=4, K=96, zeta=96, snr_db=4.0)


def _result(detected) -> DetectionResult:
    detected = np.array(list(detected), dtype=np.int64)
    return DetectionResult(detected, np.zeros(detected.size), 0)


def test_detection_metrics_examples():
    truth = ActivityPattern(np.array([1, 3]), 8)
    m = detection_metrics(_result([1, 2]), truth)
    assert (m.true_pos, m.false_pos, m.miss) == (1, 1, 1)
    assert m.per_user_miss_rate == 0.5

    exact = detection_metrics(_result([1, 3]), truth)
    assert (exact.true_pos, exact.false_pos, exact.miss) == (2, 0, 0)
    assert exact.per_user_miss_rate == 0.0


def test_detection_metrics_aggressive_support():
    # support twice the active count: every active caught, K false positives
    truth = ActivityPattern(np.arange(4), 16)
    m = detection_metrics(_result(range(8)), truth)
    assert (m.true_pos, m.false_pos, m.miss) == (4, 4, 0)
    assert m.zeta == 8


def test_trial_metrics_invariants():
    TrialMetrics(true_pos=3, false_pos=1, miss=2, K=5, zeta=4)
    with pytest.raises(ValueError):
        TrialMetrics(true_pos=3, false_pos=1, miss=1, K=5, zeta=4)
    with pytest.raises(ValueError):
        TrialMetrics(true_pos=3, false_pos=2, miss=2, K=5, zeta=4)


def sinr_loop_reference(W, users, H, active, sigma2):
    # column k of H is the channel of user active[k]
    col = {int(n): k for k, n in enumerate(active)}
    out = []
    for i, n in enumerate(users):
        w = W[i]
        sig = abs(w @ H[:, col[n]]) ** 2
        interf = sum(abs(w @ H[:, col[j]]) ** 2 for j in active if j != n)
        noise = sigma2 * float(np.sum(np.abs(w) ** 2))
        out.append(10.0 * math.log10(sig / (interf + noise)))
    return np.array(out)


def test_post_sinr_matches_loop_reference():
    rng = RngStream(70, 0)
    active = np.array([1, 4, 7, 9])
    H = cgauss(8, active.size, 1.0, rng)
    W = cgauss(3, 8, 1.0, rng)
    users = np.array([1, 7, 9])
    got = post_sinr(W, users, H, active, 0.3)
    assert np.allclose(got, sinr_loop_reference(W, users, H, active, 0.3), atol=1e-9)


def test_post_sinr_matched_filter_single_user():
    h = cgauss(16, 1, 1.0, RngStream(71, 0))
    w = (h.conj() / np.sum(np.abs(h) ** 2)).T
    sigma2 = 0.25
    got = post_sinr(w, np.array([0]), h, np.array([0]), sigma2)
    expect = 10.0 * math.log10(float(np.sum(np.abs(h) ** 2)) / sigma2)
    assert abs(got[0] - expect) < 1e-9


def test_post_sinr_caps_at_sentinel():
    # orthogonal single-path channels: the combiner nulls interference exactly
    active = np.array([0, 2])
    H = np.eye(6, dtype=np.complex128)[:, active]
    W = H.conj().T.copy()
    got = post_sinr(W, active, H, active, 0.0)
    assert np.all(got == SINR_CAP_DB)


def test_post_sinr_rejects_a_channel_of_the_wrong_width():
    # an M x N channel of all users must not be scored column by column
    H = cgauss(4, 6, 1.0, RngStream(75, 0))
    W = cgauss(1, 4, 1.0, RngStream(75, 1))
    with pytest.raises(ValueError, match=r"H \(4, 6\), active \(2,\)"):
        post_sinr(W, np.array([1]), H, np.array([0, 1]), 0.1)


def test_post_sinr_names_a_weight_row_too_many():
    H = cgauss(4, 2, 1.0, RngStream(74, 0))
    W = cgauss(2, 4, 1.0, RngStream(74, 1))
    with pytest.raises(ValueError, match=r"one weight row per user.*W \(2, 4\), users \(1,\)"):
        post_sinr(W, np.array([1]), H, np.array([0, 1]), 0.1)


def test_post_sinr_rejects_inactive_user():
    H = cgauss(4, 2, 1.0, RngStream(73, 0))
    W = cgauss(1, 4, 1.0, RngStream(73, 1))
    with pytest.raises(ValueError):
        post_sinr(W, np.array([3]), H, np.array([0, 1]), 0.1)
    with pytest.raises(ValueError):
        post_sinr(W, np.array([5]), H, np.array([0, 1]), 0.1)


def test_post_sinr_empty():
    H = cgauss(4, 1, 1.0, RngStream(74, 0))
    got = post_sinr(np.zeros((0, 4), dtype=np.complex128), np.array([], dtype=np.int64), H, np.array([0]), 0.1)
    assert got.size == 0


def test_symbol_errors():
    a = np.array([[1 + 1j, 1 - 1j]])
    b = np.array([[1 + 1j, -1 - 1j]])
    assert symbol_errors(a, b) == 1
    with pytest.raises(ValueError):
        symbol_errors(a, b.T)


def test_cost_helpers():
    assert matmul_mults(3, 4, 5) == 60
    assert pinv_mults(8, 3, 4) == 4 * 8 * 9 + 27
    assert pinv_mults(3, 8, 4) == pinv_mults(8, 3, 4)
    assert pinv_mults(5, 5, 2) == 2 * 125 + 125


def test_model_anchor_values():
    # correlation work across all greedy iterations: zeta * N * L * M
    bomp = complexity_model(ANCHOR, "bomp")
    correlation = ANCHOR.zeta * ANCHOR.N * ANCHOR.L * ANCHOR.M
    assert correlation == 1_179_648_000
    assert bomp.detect_mults > correlation

    fpr = complexity_model(ANCHOR, "fpr")
    assert ANCHOR.N * ANCHOR.M * ANCHOR.L == 12_288_000
    assert fpr.detect_mults == 12_288_000 + ANCHOR.M * ANCHOR.N
    assert fpr.real_mults == ANCHOR.N**2

    assert ANCHOR.K**3 == 884_736


def test_model_ordering_at_anchor():
    bomp = complexity_model(ANCHOR, "bomp").detect_mults
    fpr = complexity_model(ANCHOR, "fpr").detect_mults
    pdrs = complexity_model(ANCHOR, "pdrs").detect_mults
    assert bomp > fpr > pdrs
    assert bomp / fpr >= 50
    assert fpr / pdrs >= 2


def test_pdrs_model_terms():
    m = complexity_model(ANCHOR, "pdrs")
    expect = (
        pinv_mults(ANCHOR.M, ANCHOR.L, ANCHOR.svd_cost)
        + ANCHOR.L * ANCHOR.M * ANCHOR.l
        + ANCHOR.N * ANCHOR.L * ANCHOR.l
        + ANCHOR.N * ANCHOR.l
    )
    assert m.detect_mults == expect == 6_040_480
    assert m.weight_mults == ANCHOR.zeta * ANCHOR.L * ANCHOR.M


def test_bomp_model_single_iteration():
    cfg = SystemConfig(M=16, N=32, L=12, l=4, K=8, zeta=1, snr_db=10.0)
    m = complexity_model(cfg, "bomp")
    # correlation, powers, the two norms and the scaling of the first basis
    # vector, deflation
    assert m.detect_mults == 16 * 12 * 32 + 16 * 32 + 3 * 12 + 2 * 12 * 16


def test_oracle_model_is_free():
    m = complexity_model(ANCHOR, "oracle")
    assert m.detect_mults == 0 and m.weight_mults == 0 and m.real_mults == 0


def test_unknown_detector_rejected():
    with pytest.raises(ValueError):
        complexity_model(ANCHOR, "magic")


def test_svd_cost_is_configurable():
    cheap = SystemConfig(M=128, N=1000, L=96, l=4, K=96, zeta=96, svd_cost=1)
    assert complexity_model(cheap, "pdrs").detect_mults < complexity_model(ANCHOR, "pdrs").detect_mults


def test_complexity_model_is_frozen():
    m = complexity_model(ANCHOR, "fpr")
    assert isinstance(m, ComplexityModel)
    with pytest.raises(AttributeError):
        m.detect_mults = 0
