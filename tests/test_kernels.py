import numpy as np

from pdrslink import _kernels
from pdrslink.scenario import RngStream, cgauss


def test_row_and_col_norms_against_loops():
    a = cgauss(11, 6, 2.0, RngStream(51, 0))
    rows = np.array([sum(abs(a[i, j]) ** 2 for j in range(6)) for i in range(11)])
    cols = np.array([sum(abs(a[i, j]) ** 2 for i in range(11)) for j in range(6)])
    assert np.allclose(_kernels.row_norms_sq(a), rows, rtol=1e-12)
    assert np.allclose(_kernels.col_norms_sq(a), cols, rtol=1e-12)
    # a transposed (non-contiguous) view, which the float64 view must copy first
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


def where_rule(z):
    """The per-rail ``np.where`` decision rule that ``qpsk_decide`` must reproduce bit for bit."""
    rail = _kernels.QPSK_RAIL
    re = np.where(z.real >= 0.0, rail, -rail)
    im = np.where(z.imag >= 0.0, rail, -rail)
    return re + 1j * im


def test_qpsk_decide_matches_the_where_rule_on_signed_zeros_infinities_and_nan():
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 2.5, -2.5])
    parts = np.stack(np.meshgrid(special, special, indexing="ij"), axis=-1)
    z = np.ascontiguousarray(parts).view(np.complex128)[..., 0]  # every (re, im) pair
    z = np.vstack([z, cgauss(3, special.size, 1.0, RngStream(53, 0))])
    got, want = _kernels.qpsk_decide(z), where_rule(z)
    assert got.dtype == np.complex128 and got.shape == z.shape
    assert got.tobytes() == want.tobytes()


def test_implementations_pair_each_kernel_with_none():
    impls = _kernels.implementations()
    names = ["row_norms_sq", "col_norms_sq", "abs2", "residual_row_norms", "qpsk_decide"]
    assert list(impls) == names
    for name, (impl, second) in impls.items():
        assert impl is getattr(_kernels, name)
        assert second is None
