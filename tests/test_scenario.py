import math
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from pdrslink import _kernels
from pdrslink.scenario import RngStream
from pdrslink.scenario import (
    QPSK_POINTS,
    TRIAL_STREAM_BASE,
    ActivityPattern,
    PdrsCodebook,
    PilotPool,
    ReceivedFrame,
    SystemConfig,
    cgauss,
    draw_key,
    draw_trial,
    gen_pdrs_codebook,
    gen_pilot_pool,
    noise_power,
    sample_activity,
    synth_codebook,
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
    with pytest.raises(FrozenInstanceError):
        cfg.K = 6


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
    with pytest.raises(ValueError, match="^snr_db takes real numbers, got '4'$"):
        small_cfg(snr_db="4")
    assert small_cfg(snr_db=4).snr_db == 4.0 and type(small_cfg(snr_db=4).snr_db) is float
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


def _too_big(a, b, cfg):
    """The message of a config whose drawn a x b array, sized by ``cfg``'s fields, does not fit numpy."""
    most = np.iinfo(np.intp).max // 16
    return rf"^{a} x {b} sizes a drawn array, so {a} \* {b} must be <= {most}, got {a}={cfg[a]}, {b}={cfg[b]}$"


@pytest.mark.parametrize("name", ["M", "N", "L", "l", "D"])
def test_config_rejects_an_axis_longer_than_numpy_takes(name):
    # else the config passes and the draw fails in numpy, naming no field; the first drawn
    # array that does not fit is named, with both its fields
    a, b = {"M": ("M", "L"), "N": ("N", "L"), "L": ("M", "L"), "l": ("M", "l"), "D": ("M", "D")}[name]
    cfg = {**vars(small_cfg()), name: 2**64}
    with pytest.raises(ValueError, match=_too_big(a, b, cfg)):
        small_cfg(**{name: 2**64})


def test_config_rejects_a_drawn_array_too_big_for_numpy():
    # every axis is one numpy can index, but the M x L block is more than 2**63 bytes
    cfg = dict(M=2**62, N=24, L=8, l=2, K=5, zeta=5, D=4)
    with pytest.raises(ValueError, match=_too_big("M", "L", cfg)):
        SystemConfig(**cfg)


#: Every SystemConfig field declared int.
WHOLE_FIELDS = ("M", "N", "L", "l", "K", "zeta", "D", "trials", "seed", "svd_cost")


@pytest.mark.parametrize("bad", [1.5, float("nan"), "16"])
@pytest.mark.parametrize("name", WHOLE_FIELDS)
def test_a_whole_number_field_rejects_anything_else(name, bad):
    with pytest.raises(ValueError, match=f"^{name} takes whole numbers, got {re.escape(repr(bad))}$"):
        small_cfg(**{name: bad})


@pytest.mark.parametrize("name", WHOLE_FIELDS)
def test_a_whole_number_field_stores_an_int(name):
    for value in (16.0, np.int64(16)):
        stored = getattr(small_cfg(**{name: value}), name)
        assert type(stored) is int and stored == 16


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_long_rows_pass_the_row_norm_check_and_a_bad_long_row_fails(seed):
    # rounding in a squared norm grows with the row length, so the bound is relative
    cb = synth_codebook(SystemConfig(M=4, N=20, L=4, l=16000, K=2, zeta=2, seed=seed))
    assert cb.R.shape == (20, 16000)
    P = cgauss(3, 20000, 1.0, RngStream(seed, 0))
    P *= (np.sqrt(20000) / np.sqrt(_kernels.row_norms_sq(P)))[:, None]
    assert PilotPool(P).length == 20000
    P[1] *= 1.0 + 1e-8
    with pytest.raises(ValueError, match="pilot pool rows must have squared norm 20000.0"):
        PilotPool(P)


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
    frame = draw_trial(cfg, pool, cb, 0).frame(cfg.sigma2)
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


@pytest.mark.parametrize("snr_db", [0.0, 4.0])
def test_frame_noise_is_the_replayed_normal_draws(snr_db):
    # replay the trial stream: active set, channel, data symbols, then each block's noise
    cfg = small_cfg(snr_db=snr_db)
    pool, cb, act, frame = _frame(cfg)
    rng = RngStream(cfg.seed, TRIAL_STREAM_BASE + 0)
    assert np.array_equal(sample_activity(cfg, rng).active, act.active)

    def draw(rows, cols, variance):
        re = rng.gen.standard_normal((rows, cols))
        im = rng.gen.standard_normal((rows, cols))
        return (re + 1j * im) * np.sqrt(0.5) * np.sqrt(variance)

    H = draw(cfg.M, cfg.K, 1.0)
    X_D = QPSK_POINTS[rng.gen.integers(0, 4, size=(cfg.K, cfg.D))]
    a = act.active
    expect = {
        "Y_R": H @ cb.R[a] + draw(cfg.M, cfg.l, cfg.sigma2),
        "Y": H @ pool.P[a] + draw(cfg.M, cfg.L, cfg.sigma2),
        "Y_D": H @ X_D + draw(cfg.M, cfg.D, cfg.sigma2),
    }
    assert np.array_equal(frame.H.view(np.float64), H.view(np.float64))
    for block, want in expect.items():
        assert np.array_equal(getattr(frame, block).view(np.float64), want.view(np.float64)), block


def test_a_draw_serves_any_number_of_frames_in_new_arrays_and_never_changes():
    cfg = small_cfg(snr_db=0.0)
    pool, cb = synth_pool(cfg), synth_codebook(cfg)
    draw = draw_trial(cfg, pool, cb, 0)
    owned = [draw.Y_R, draw.Y, draw.Y_D, draw.H, draw.X_D, *draw.noise]
    before = [a.copy() for a in owned]
    sigma2s = [0.0, 1.0, 0.25, 1.0, 0.0]  # 0.0 is infinite SNR
    frames = [draw.frame(s) for s in sigma2s]
    after = [draw.Y_R, draw.Y, draw.Y_D, draw.H, draw.X_D, *draw.noise]
    assert all(x is y and np.array_equal(x, b) for x, y, b in zip(after, owned, before))
    blocks = ("Y_R", "Y", "Y_D")
    for f in frames:
        for name in blocks:
            assert not any(np.shares_memory(getattr(f, name), a) for a in owned), name
    for i, j in ((1, 3), (0, 4)):  # two frames at one sigma2: equal, sharing no block
        for name in blocks:
            a, b = getattr(frames[i], name), getattr(frames[j], name)
            assert np.array_equal(a, b) and not np.shares_memory(a, b), (sigma2s[i], name)
    # the noiseless frame stays noiseless after later frames add noise
    noiseless = frames[0]
    a = noiseless.ground_truth.active
    assert np.array_equal(noiseless.Y, noiseless.H @ pool.P[a])
    assert np.array_equal(noiseless.Y_D, noiseless.H @ noiseless.X_D)
    assert not np.array_equal(frames[1].Y, noiseless.Y)


def test_the_draw_key_ignores_exactly_snr_db_and_zeta():
    cfg = small_cfg()
    key = draw_key(cfg)
    for same in (replace(cfg, snr_db=-5.0), replace(cfg, snr_db=float("inf")), replace(cfg, zeta=9)):
        assert draw_key(same) == key
    other = dict(
        M=7, N=21, L=9, l=4, K=6, D=13, pdrs_mode="orthogonal-reuse", trials=3, seed=4, svd_cost=5
    )
    assert set(other) == {f.name for f in fields(SystemConfig)} - {"snr_db", "zeta"}
    for name, value in other.items():
        assert draw_key(replace(cfg, **{name: value})) != key, name


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
    with pytest.raises(ValueError, match=r"X_D must be K x D when present, got \(12, 5\)"):
        ReceivedFrame(
            Y_R=frame.Y_R, Y=frame.Y, Y_D=frame.Y_D, ground_truth=act, sigma2=0.1, X_D=frame.X_D.T
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


@pytest.mark.parametrize("kind", ["pool", "codebook"])
def test_pool_and_codebook_own_a_read_only_copy_and_are_frozen(kind):
    cfg = small_cfg()
    build, name = (PilotPool, "P") if kind == "pool" else (PdrsCodebook, "R")
    mine = getattr(synth_pool(cfg) if kind == "pool" else synth_codebook(cfg), name).copy()
    before = mine.copy()
    built = build(mine)
    held = getattr(built, name)
    assert np.array_equal(held, before) and not np.shares_memory(held, mine)
    assert held.flags.owndata and not held.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        held[0, 0] = 0.0
    with pytest.raises(FrozenInstanceError):
        setattr(built, name, before)
    mine[0, 0] = 0.0  # the caller's array stays writeable, and the object does not see it
    assert np.array_equal(getattr(built, name), before)


@pytest.mark.parametrize("kind", ["pool", "codebook"])
def test_pool_and_codebook_keep_a_handed_over_array_and_copy_a_read_only_view(kind):
    cfg = small_cfg()
    build, name = (PilotPool, "P") if kind == "pool" else (PdrsCodebook, "R")
    mine = getattr(synth_pool(cfg) if kind == "pool" else synth_codebook(cfg), name).copy()
    view = mine.view()
    view.flags.writeable = False  # read-only, but its base is not
    assert not np.shares_memory(getattr(build(view), name), mine)
    mine.flags.writeable = False  # handed over: nothing can write to it any more
    assert getattr(build(mine), name) is mine


def test_codebook_mode_validation():
    with pytest.raises(ValueError):
        PdrsCodebook(np.ones((3, 1), dtype=np.complex128), mode="bogus")
