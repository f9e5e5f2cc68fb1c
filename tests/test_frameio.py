import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdrslink.frameio import _HEADER, MAGIC, MAGIC_V1, load_frame, save_frame
from pdrslink.scenario import PDRS_MODES, SystemConfig, draw_trial, synth_codebook, synth_pool


def make_frame(seed=9, **kw):
    base = dict(M=5, N=16, L=6, l=2, K=4, zeta=4, snr_db=8.0, D=7, trials=1, seed=seed)
    base.update(kw)
    cfg = SystemConfig(**base)
    pool, cb = synth_pool(cfg), synth_codebook(cfg)
    return draw_trial(cfg, pool, cb, 0).frame(cfg.sigma2), pool, cb


def test_round_trip_bitwise(tmp_path):
    frame, pool, cb = make_frame()
    path = tmp_path / "frame.pdrs"
    save_frame(path, frame, pool, cb)
    got, got_pool, got_cb = load_frame(path)
    assert np.array_equal(got.Y_R, frame.Y_R)
    assert np.array_equal(got.Y, frame.Y)
    assert np.array_equal(got.Y_D, frame.Y_D)
    assert np.array_equal(got_pool.P, pool.P)
    assert np.array_equal(got_cb.R, cb.R)
    assert np.array_equal(got.ground_truth.active, frame.ground_truth.active)
    assert got.ground_truth.n_pilots == frame.ground_truth.n_pilots
    assert got.sigma2 == frame.sigma2
    # the container deliberately drops the channel and sent symbols
    assert got.H is None and got.X_D is None


@st.composite
def frame_configs(draw):
    L = draw(st.integers(1, 6))
    N = draw(st.integers(L + 1, 12))
    K = draw(st.integers(1, N))
    return dict(
        M=draw(st.integers(1, 6)),
        N=N,
        L=L,
        l=draw(st.integers(1, 3)),
        K=K,
        zeta=K,
        snr_db=draw(st.sampled_from([-5.0, 10.0, float("inf")])),
        D=draw(st.integers(0, 4)),
        pdrs_mode=draw(st.sampled_from(PDRS_MODES)),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(frame_configs())
def test_round_trip_is_bit_for_bit(tmp_path_factory, kw):
    frame, pool, cb = make_frame(**kw)
    path = tmp_path_factory.mktemp("frames") / "frame.pdrs"
    save_frame(path, frame, pool, cb)
    got, got_pool, got_cb = load_frame(path)
    for a, b in ((got.Y_R, frame.Y_R), (got.Y, frame.Y), (got.Y_D, frame.Y_D),
                 (got_pool.P, pool.P), (got_cb.R, cb.R)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert np.array_equal(got.ground_truth.active, frame.ground_truth.active)
    assert got.ground_truth.n_pilots == kw["N"]
    assert struct.pack("<d", got.sigma2) == struct.pack("<d", frame.sigma2)
    assert got_cb.mode == kw["pdrs_mode"]
    again = path.with_name("again.pdrs")
    save_frame(again, got, got_pool, got_cb)
    assert again.read_bytes() == path.read_bytes()


def test_magic_is_stable(tmp_path):
    frame, pool, cb = make_frame()
    path = tmp_path / "frame.pdrs"
    save_frame(path, frame, pool, cb)
    assert path.read_bytes()[:8] == MAGIC == b"PDRSFRM2"
    assert MAGIC_V1 == b"PDRSFRM1"


@pytest.mark.parametrize("mode", ["gaussian", "orthogonal-reuse"])
def test_round_trip_keeps_codebook_mode(tmp_path, mode):
    frame, pool, cb = make_frame(pdrs_mode=mode)
    assert cb.mode == mode
    path = tmp_path / "frame.pdrs"
    save_frame(path, frame, pool, cb)
    _, _, got_cb = load_frame(path)
    assert got_cb.mode == mode
    assert np.array_equal(got_cb.R, cb.R)


def test_reads_version_1_as_gaussian(tmp_path):
    # a v1 container is the v2 one without the mode byte after the header
    frame, pool, cb = make_frame(pdrs_mode="orthogonal-reuse")
    path = tmp_path / "frame.pdrs"
    save_frame(path, frame, pool, cb)
    raw = path.read_bytes()
    mode_at = len(MAGIC) + _HEADER.size
    v1 = tmp_path / "v1.pdrs"
    v1.write_bytes(MAGIC_V1 + raw[len(MAGIC) : mode_at] + raw[mode_at + 1 :])
    got, got_pool, got_cb = load_frame(v1)
    assert got_cb.mode == "gaussian"
    assert np.array_equal(got_cb.R, cb.R)
    assert np.array_equal(got.Y, frame.Y)
    assert np.array_equal(got_pool.P, pool.P)


def test_rejects_unknown_mode_byte(tmp_path):
    frame, pool, cb = make_frame()
    path = tmp_path / "frame.pdrs"
    save_frame(path, frame, pool, cb)
    raw = bytearray(path.read_bytes())
    raw[len(MAGIC) + _HEADER.size] = 7
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="mode byte 7"):
        load_frame(path)


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pdrs"
    path.write_bytes(b"NOTAFRM1" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_frame(path)


def test_rejects_truncated_file(tmp_path):
    frame, pool, cb = make_frame()
    path = tmp_path / "frame.pdrs"
    save_frame(path, frame, pool, cb)
    whole = path.read_bytes()
    clipped = tmp_path / "clipped.pdrs"
    clipped.write_bytes(whole[: len(whole) // 2])
    with pytest.raises(ValueError):
        load_frame(clipped)
    tiny = tmp_path / "tiny.pdrs"
    tiny.write_bytes(b"PDRS")
    with pytest.raises(ValueError, match="short"):
        load_frame(tiny)


def test_rejects_trailing_garbage(tmp_path):
    frame, pool, cb = make_frame()
    path = tmp_path / "frame.pdrs"
    save_frame(path, frame, pool, cb)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="size mismatch"):
        load_frame(path)


def test_save_rejects_inconsistent_inputs(tmp_path):
    frame, pool, cb = make_frame()
    other_frame, _, _ = make_frame(seed=10, L=7)
    with pytest.raises(ValueError):
        save_frame(tmp_path / "x.pdrs", other_frame, pool, cb)


def test_save_names_a_ground_truth_of_another_pool_size(tmp_path):
    frame, pool, cb = make_frame()
    bigger, _, _ = make_frame(N=20)
    with pytest.raises(ValueError, match="ground truth counts 20 pilots, the pool has 16"):
        save_frame(tmp_path / "x.pdrs", bigger, pool, cb)


def test_save_names_a_codebook_of_another_pool_size(tmp_path):
    frame, pool, _ = make_frame(N=30)
    _, _, bigger = make_frame(N=40)
    with pytest.raises(ValueError, match="codebook has 40 reference rows, the pool has 30 pilots"):
        save_frame(tmp_path / "x.pdrs", frame, pool, bigger)
    assert not (tmp_path / "x.pdrs").exists()


def test_noiseless_round_trip_sigma(tmp_path):
    frame, pool, cb = make_frame(snr_db=float("inf"))
    path = tmp_path / "frame.pdrs"
    save_frame(path, frame, pool, cb)
    got, _, _ = load_frame(path)
    assert got.sigma2 == 0.0


def test_rejects_nan_noise_variance(tmp_path):
    frame, pool, cb = make_frame()
    path = tmp_path / "frame.pdrs"
    save_frame(path, frame, pool, cb)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, len(MAGIC) + _HEADER.size - 8, float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="sigma2"):
        load_frame(path)


@pytest.mark.parametrize(
    ("block", "entries_before"),
    # complex entries stored ahead of the block, at M=5, l=2, L=6, D=7
    [("Y_R", 0), ("Y", 5 * 2), ("Y_D", 5 * 2 + 5 * 6), ("pilot pool", 5 * 2 + 5 * 6 + 5 * 7)],
)
def test_rejects_non_finite_blocks(tmp_path, block, entries_before):
    frame, pool, cb = make_frame()
    path = tmp_path / "frame.pdrs"
    save_frame(path, frame, pool, cb)
    raw = bytearray(path.read_bytes())
    start = len(MAGIC) + _HEADER.size + 1 + 16 * entries_before
    struct.pack_into("<d", raw, start, float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=rf"(^|\s){block} "):
        load_frame(path)


def _corrupt(data, raw: bytes) -> bytes:
    """``raw`` truncated, with one byte or one header u32 overwritten, or with bytes appended."""
    kind = data.draw(st.sampled_from(["truncate", "byte", "header", "append"]))
    if kind == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if kind == "append":
        return raw + data.draw(st.binary(min_size=1, max_size=64))
    out = bytearray(raw)
    if kind == "byte":
        out[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    else:
        field = data.draw(st.integers(0, 5))  # M, N, L, l, D, K
        value = data.draw(st.one_of(st.integers(0, 32), st.integers(0, 2**32 - 1)))
        struct.pack_into("<I", out, len(MAGIC) + 4 * field, value)
    return bytes(out)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_a_corrupted_container_loads_or_raises_value_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "corrupted.pdrs"
    save_frame(path, *make_frame(M=3, N=6, L=2, l=1, K=2, zeta=2, D=2))
    path.write_bytes(_corrupt(data, path.read_bytes()))
    try:
        load_frame(path)
    except ValueError:
        pass  # any other exception type fails the property
