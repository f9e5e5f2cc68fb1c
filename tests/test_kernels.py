import numpy as np
import pytest

from pdrslink import _kernels
from pdrslink.rng import RngStream, cgauss

SHAPES = [(1, 1), (1, 9), (9, 1), (17, 13), (64, 40)]


def _pairs():
    return [(name, np_f, nb_f) for name, (np_f, nb_f) in _kernels.implementations().items()
            if nb_f is not None]


@pytest.mark.skipif(not _kernels._HAVE_NUMBA, reason="numba unavailable")
@pytest.mark.parametrize("shape", SHAPES)
def test_numba_matches_numpy(shape):
    rng = RngStream(50, shape[0] * 100 + shape[1])
    a = cgauss(*shape, 1.0, rng)
    b = cgauss(*shape, 1.0, rng)
    for name, np_f, nb_f in _pairs():
        args = (a, b) if name == "residual_row_norms" else (a,)
        x = np.asarray(np_f(*args))
        y = np.asarray(nb_f(*args))
        assert x.shape == y.shape, name
        assert np.allclose(x, y, rtol=1e-12, atol=1e-12), name


def test_row_and_col_norms_against_loops():
    a = cgauss(11, 6, 2.0, RngStream(51, 0))
    rows = np.array([sum(abs(a[i, j]) ** 2 for j in range(6)) for i in range(11)])
    cols = np.array([sum(abs(a[i, j]) ** 2 for i in range(11)) for j in range(6)])
    assert np.allclose(_kernels.row_norms_sq(a), rows, rtol=1e-12)
    assert np.allclose(_kernels.col_norms_sq(a), cols, rtol=1e-12)
    # a transposed (non-contiguous) view, as linalg.col_norms_sq may pass on
    assert np.allclose(_kernels.col_norms_sq(a.T), rows, rtol=1e-12)


def test_residual_row_norms_against_direct():
    a = cgauss(9, 5, 1.0, RngStream(52, 0))
    b = cgauss(9, 5, 1.0, RngStream(52, 1))
    direct = np.sum(np.abs(a - b) ** 2, axis=1)
    assert np.allclose(_kernels.residual_row_norms(a, b), direct, rtol=1e-12)


def test_qpsk_decide_quadrants():
    rail = _kernels.QPSK_RAIL
    x = np.array([[0.9 + 0.8j, -0.1 + 2.0j, -3.0 - 0.2j, 0.4 - 0.4j]])
    out = _kernels.qpsk_decide(x)
    expect = np.array([[rail + rail * 1j, -rail + rail * 1j, -rail - rail * 1j, rail - rail * 1j]])
    assert np.array_equal(out, expect)


def test_qpsk_decide_zero_goes_to_positive_rail():
    rail = _kernels.QPSK_RAIL
    x = np.array([[0.0 + 0.0j, -0.0 - 0.0j, 0.0 - 1.0j, -1.0 + 0.0j]])
    out = _kernels.qpsk_decide(x)
    expect = np.array([[rail + rail * 1j, rail + rail * 1j, rail - rail * 1j, -rail + rail * 1j]])
    assert np.array_equal(out, expect)


def test_numba_request_flag(monkeypatch):
    monkeypatch.delenv("PDRS_NUMBA", raising=False)
    assert _kernels.numba_requested() is True
    for off in ("0", "false", "off", "False", "OFF"):
        monkeypatch.setenv("PDRS_NUMBA", off)
        assert _kernels.numba_requested() is False
    for on in ("1", "true", "on", ""):
        monkeypatch.setenv("PDRS_NUMBA", on)
        assert _kernels.numba_requested() is True


def test_active_backend_consistent():
    if _kernels.USE_NUMBA:
        assert _kernels._HAVE_NUMBA
        assert _kernels.row_norms_sq is not _kernels._row_norms_sq_np
    else:
        assert _kernels.row_norms_sq is _kernels._row_norms_sq_np
