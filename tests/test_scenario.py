import math

import numpy as np
import pytest

from pdrslink.rng import RngStream
from pdrslink.scenario import (
    QPSK_POINTS,
    ActivityPattern,
    PdrsCodebook,
    PilotPool,
    ReceivedFrame,
    SystemConfig,
    gen_pdrs_codebook,
    gen_pilot_pool,
    noise_power,
    sample_activity,
    synth_codebook,
    synth_frame,
    synth_pool,
)


def small_cfg(**kw):
    base = dict(M=6, N=20, L=8, l=3, K=5, zeta=5, snr_db=10.0, D=12, trials=2, seed=3)
    base.update(kw)
    return SystemConfig(**base)


def test_noise_power():
    assert noise_power(0.0) == 1.0
    assert math.isclose(noise_power(10.0), 0.1)
    assert math.isclose(noise_power(4.0), 10.0 ** -0.4)
    assert noise_power(float("inf")) == 0.0


def test_config_properties():
    cfg = small_cfg(zeta=10)
    assert cfg.alpha == 2.0
    assert math.isclose(cfg.sigma2, 0.1)
    assert cfg.with_zeta_from_alpha(1.0).zeta == cfg.K


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(K=0)
    with pytest.raises(ValueError):
        small_cfg(K=21)
    with pytest.raises(ValueError):
        small_cfg(L=20)
    with pytest.raises(ValueError):
        small_cfg(zeta=0)
    with pytest.raises(ValueError):
        small_cfg(zeta=21)
    with pytest.raises(ValueError):
        small_cfg(l=0)
    with pytest.raises(ValueError):
        small_cfg(M=0)
    with pytest.raises(ValueError):
        small_cfg(D=-1)
    with pytest.raises(ValueError):
        small_cfg(trials=0)
    with pytest.raises(ValueError):
        small_cfg(snr_db=float("nan"))
    with pytest.raises(ValueError):
        small_cfg(snr_db=float("-inf"))
    with pytest.raises(ValueError, match="snr_db"):
        small_cfg(snr_db=-4000.0)  # its noise power overflows a float
    with pytest.raises(ValueError):
        small_cfg(pdrs_mode="fancy")
    with pytest.raises(ValueError):
        small_cfg(svd_cost=0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_config_rejects_a_seed_outside_the_philox_key(seed):
    small_cfg(seed=0)
    small_cfg(seed=2**64 - 1)
    with pytest.raises(ValueError, match=rf"^seed must satisfy 0 <= seed < 2\*\*64, got {seed}$"):
        small_cfg(seed=seed)


def test_qpsk_points_have_unit_modulus():
    # unit power to within one ulp of the sqrt(0.5) rails
    assert np.max(np.abs(np.abs(QPSK_POINTS) - 1.0)) < 1e-15
    # all four quadrants present
    assert len({(p.real > 0, p.imag > 0) for p in QPSK_POINTS}) == 4


def test_pilot_pool_row_norms():
    cfg = small_cfg()
    pool = gen_pilot_pool(cfg, RngStream(cfg.seed, 0))
    assert pool.P.shape == (cfg.N, cfg.L)
    norms = np.sum(np.abs(pool.P) ** 2, axis=1)
    assert np.max(np.abs(norms - cfg.L)) < 1e-10


def test_pilot_pool_rejects_bad_norms():
    with pytest.raises(ValueError):
        PilotPool(2.0 * np.ones((4, 3), dtype=np.complex128))


def test_gaussian_codebook_row_norms():
    cfg = small_cfg()
    cb = gen_pdrs_codebook(cfg, RngStream(cfg.seed, 1))
    assert cb.R.shape == (cfg.N, cfg.l)
    assert cb.mode == "gaussian"
    norms = np.sum(np.abs(cb.R) ** 2, axis=1)
    assert np.max(np.abs(norms - cfg.l)) < 1e-10


def test_orthogonal_reuse_codebook():
    cfg = small_cfg(l=4, pdrs_mode="orthogonal-reuse")
    cb = gen_pdrs_codebook(cfg, RngStream(cfg.seed, 1))
    assert cb.mode == "orthogonal-reuse"
    # every row is one of the l base codes, and the base codes are orthogonal
    j, k = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    base = np.exp(-2j * np.pi * j * k / 4)
    matches = np.array([[np.allclose(row, b) for b in base] for row in cb.R])
    assert np.all(matches.sum(axis=1) == 1)
    gram = base @ base.conj().T
    assert np.allclose(gram, 4 * np.eye(4), atol=1e-12)
    # with N >> l the codes must actually be reused
    assert np.unique(matches.argmax(axis=1)).size == 4


def test_orthogonal_reuse_single_code():
    cfg = small_cfg(l=1, pdrs_mode="orthogonal-reuse")
    cb = gen_pdrs_codebook(cfg, RngStream(cfg.seed, 1))
    assert np.allclose(cb.R, 1.0)


def test_sample_activity():
    cfg = small_cfg()
    seen = set()
    for t in range(40):
        act = sample_activity(cfg, RngStream(cfg.seed, 16 + t))
        assert act.K == cfg.K
        assert np.all(np.diff(act.active) > 0)
        assert act.active[0] >= 0 and act.active[-1] < cfg.N
        seen.add(tuple(act.active))
    assert len(seen) > 1


def test_activity_pattern_validation():
    ActivityPattern(np.array([0, 3, 7]), 10)
    with pytest.raises(ValueError):
        ActivityPattern(np.array([3, 0]), 10)
    with pytest.raises(ValueError):
        ActivityPattern(np.array([0, 0]), 10)
    with pytest.raises(ValueError):
        ActivityPattern(np.array([0, 10]), 10)
    with pytest.raises(ValueError):
        ActivityPattern(np.array([[0, 1]]), 10)


def test_activity_flags():
    act = ActivityPattern(np.array([1, 3]), 5)
    assert np.array_equal(act.flags(), np.array([0, 1, 0, 1, 0], dtype=np.int8))


def _frame(cfg):
    pool, cb = synth_pool(cfg), synth_codebook(cfg)
    frame = synth_frame(cfg, pool, cb, 0)
    return pool, cb, frame.ground_truth, frame


def test_noiseless_frame_is_exact_product():
    cfg = small_cfg(snr_db=float("inf"))
    pool, cb, act, frame = _frame(cfg)
    a = act.active
    assert frame.H.shape == (cfg.M, cfg.K)
    assert np.array_equal(frame.Y, frame.H @ pool.P[a])
    assert np.array_equal(frame.Y_R, frame.H @ cb.R[a])
    assert np.array_equal(frame.Y_D, frame.H @ frame.X_D)
    assert frame.sigma2 == 0.0


def test_noisy_frame_departs_from_product():
    cfg = small_cfg(snr_db=0.0)
    pool, cb, act, frame = _frame(cfg)
    a = act.active
    assert not np.array_equal(frame.Y, frame.H @ pool.P[a])
    assert frame.sigma2 == 1.0


def test_frame_energy_scales_with_k():
    cfg = small_cfg(M=64, N=40, L=32, K=10, zeta=10, snr_db=float("inf"))
    _, _, _, frame = _frame(cfg)
    # unit-power users over unit-variance channels: mean |Y| entry power is K
    mean_power = float(np.mean(np.abs(frame.Y) ** 2))
    assert 0.7 * cfg.K < mean_power < 1.3 * cfg.K


def test_frame_determinism_and_stream_separation():
    cfg = small_cfg()
    _, _, _, f1 = _frame(cfg)
    _, _, _, f2 = _frame(cfg)
    assert np.array_equal(f1.Y, f2.Y)
    assert np.array_equal(f1.Y_R, f2.Y_R)
    assert np.array_equal(f1.Y_D, f2.Y_D)
    _, _, _, f3 = _frame(small_cfg(seed=4))
    assert not np.array_equal(f1.Y, f3.Y)


def test_qpsk_symbols_come_from_constellation():
    cfg = small_cfg()
    _, _, _, frame = _frame(cfg)
    assert frame.X_D.shape == (cfg.K, cfg.D)
    assert np.all(np.isin(frame.X_D, QPSK_POINTS))


def test_zero_length_data_segment():
    cfg = small_cfg(D=0)
    _, _, _, frame = _frame(cfg)
    assert frame.Y_D.shape == (cfg.M, 0)
    assert frame.X_D.shape == (cfg.K, 0)


def test_received_frame_validation():
    cfg = small_cfg()
    _, _, act, frame = _frame(cfg)
    with pytest.raises(ValueError):
        ReceivedFrame(
            Y_R=frame.Y_R[:-1], Y=frame.Y, Y_D=frame.Y_D, ground_truth=act, sigma2=0.1
        )
    with pytest.raises(ValueError):
        ReceivedFrame(Y_R=frame.Y_R, Y=frame.Y, Y_D=frame.Y_D, ground_truth=act, sigma2=-0.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma2"):
            ReceivedFrame(Y_R=frame.Y_R, Y=frame.Y, Y_D=frame.Y_D, ground_truth=act, sigma2=bad)
    with pytest.raises(ValueError):
        ReceivedFrame(
            Y_R=frame.Y_R,
            Y=frame.Y,
            Y_D=frame.Y_D,
            ground_truth=act,
            sigma2=0.1,
            H=np.zeros((2, 2), dtype=np.complex128),
        )
    with pytest.raises(ValueError, match="M x K"):
        # the channel of all N users is not a frame's channel
        ReceivedFrame(
            Y_R=frame.Y_R,
            Y=frame.Y,
            Y_D=frame.Y_D,
            ground_truth=act,
            sigma2=0.1,
            H=np.zeros((cfg.M, cfg.N), dtype=np.complex128),
        )


def test_pool_and_codebook_reject_nan():
    cfg = small_cfg()
    P = synth_pool(cfg).P.copy()
    P[2, 1] = np.nan
    with pytest.raises(ValueError, match="pilot pool"):
        PilotPool(P)
    R = synth_codebook(cfg).R.copy()
    R[4, 0] = np.nan
    with pytest.raises(ValueError, match="codebook"):
        PdrsCodebook(R)


def test_codebook_mode_validation():
    with pytest.raises(ValueError):
        PdrsCodebook(np.ones((3, 1), dtype=np.complex128), mode="bogus")
