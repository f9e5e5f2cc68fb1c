import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdrslink.linalg import as_cmatrix, orthonormal_step, pinv, pinv_symmetric
from pdrslink.rng import RngStream, cgauss
from pdrslink.scenario import PilotPool, SystemConfig, synth_pool


def gauss_inverse(a):
    """Inverse by Gauss-Jordan elimination with partial pivoting."""
    n = a.shape[0]
    aug = np.hstack([a.astype(np.complex128), np.eye(n, dtype=np.complex128)])
    for col in range(n):
        p = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[p, col]) == 0.0:
            raise ZeroDivisionError("singular")
        aug[[col, p]] = aug[[p, col]]
        aug[col] = aug[col] / aug[col, col]
        for r in range(n):
            if r != col:
                aug[r] = aug[r] - aug[r, col] * aug[col]
    return aug[:, n:]


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), 1e-300)


def test_pinv_square_matches_elimination_inverse():
    for i in range(20):
        rng = RngStream(100, i)
        n = int(rng.gen.integers(1, 9))
        a = cgauss(n, n, 1.0, rng)
        assert rel_err(pinv(a), gauss_inverse(a)) < 1e-10


def test_pinv_tall_matches_normal_equations():
    for i in range(20):
        rng = RngStream(101, i)
        m = int(rng.gen.integers(4, 12))
        n = int(rng.gen.integers(1, m))
        a = cgauss(m, n, 1.0, rng)
        ah = a.conj().T
        expect = gauss_inverse(ah @ a) @ ah
        assert rel_err(pinv(a), expect) < 1e-9


def test_pinv_wide_matches_normal_equations():
    for i in range(20):
        rng = RngStream(102, i)
        n = int(rng.gen.integers(4, 12))
        m = int(rng.gen.integers(1, n))
        a = cgauss(m, n, 1.0, rng)
        ah = a.conj().T
        expect = ah @ gauss_inverse(a @ ah)
        assert rel_err(pinv(a), expect) < 1e-9


def test_pinv_rank_deficient_identities():
    for i in range(20):
        rng = RngStream(103, i)
        g = rng.gen
        m, n = int(g.integers(2, 10)), int(g.integers(2, 10))
        r = int(g.integers(1, min(m, n)))
        a = cgauss(m, r, 1.0, rng) @ cgauss(r, n, 1.0, rng)
        ap = pinv(a)
        assert rel_err(a @ ap @ a, a) < 1e-10
        assert rel_err(ap @ a @ ap, ap) < 1e-10
        assert rel_err((a @ ap).conj().T, a @ ap) < 1e-10
        assert rel_err((ap @ a).conj().T, ap @ a) < 1e-10


def svd_pinv_reference(a, rel_tol=None):
    """``pinv`` as it was before its LU and QR paths: the SVD for every input."""
    m = np.asarray(a, dtype=np.complex128)
    if rel_tol is None:
        rel_tol = max(m.shape) * 1e-12
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    keep = s > rel_tol * s.max()
    if not np.any(keep):
        return np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128)
    return (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T


def kahan(n, theta):
    """The n x n Kahan matrix: its QR has no small |diag(R)|, yet it is nearly singular."""
    s, c = np.sin(theta), np.cos(theta)
    upper = np.eye(n) + np.triu(np.full((n, n), -c), 1)
    return (s ** np.arange(n))[:, None] * upper


def low_rank(m, n, r, rng):
    """An m x n complex product of rank r (a zero matrix when r is 0)."""
    if r == 0:
        return np.zeros((m, n), dtype=np.complex128)
    return cgauss(m, r, 1.0, rng) @ cgauss(r, n, 1.0, rng)


def count_calls(monkeypatch, name):
    """Wrap ``np.linalg.<name>`` so each call is counted; returns the counter list."""
    calls = []
    original = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("shape", [(128, 96), (12, 5), (96, 96), (7, 7), (1, 1), (5, 12), (96, 128)])
def test_pinv_matches_the_svd_reference_on_full_rank_inputs(shape):
    a = cgauss(*shape, 1.0, RngStream(106, shape[0] * 1000 + shape[1]))
    assert rel_err(pinv(a), svd_pinv_reference(a)) < 1e-12


def test_pinv_truncates_the_kahan_matrix_like_the_svd():
    n = 90
    a = np.vstack([kahan(n, 1.2), np.zeros((8, n))])
    r = np.abs(np.diag(np.linalg.qr(a)[1]))
    assert r.min() / r.max() > 1e3 * max(a.shape) * 1e-12  # a |diag(R)| test would pass it
    ref = svd_pinv_reference(a)
    assert np.array_equal(pinv(a), ref)
    assert np.linalg.matrix_rank(ref) == n - 1


@pytest.mark.parametrize(
    "a",
    [
        low_rank(12, 5, 3, RngStream(107, 0)),
        low_rank(128, 96, 95, RngStream(107, 1)),
        low_rank(6, 6, 5, RngStream(107, 2)),
        low_rank(96, 96, 48, RngStream(107, 3)),
        np.zeros((7, 4), dtype=np.complex128),
        np.zeros((1, 1), dtype=np.complex128),
    ],
    ids=["tall", "tall-anchor", "square", "square-anchor", "zero", "zero-1x1"],
)
def test_pinv_falls_back_to_the_svd_when_rank_is_lost(monkeypatch, a):
    calls = count_calls(monkeypatch, "svd")
    got = pinv(a)
    assert calls == ["svd"]
    assert np.array_equal(got, svd_pinv_reference(a))


@st.composite
def pinv_inputs(draw):
    m, n = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    r = draw(st.integers(0, min(m, n)))
    rng = RngStream(108, draw(st.integers(0, 2**16)))
    return cgauss(m, n, 1.0, rng) if r == min(m, n) else low_rank(m, n, r, rng)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(pinv_inputs())
def test_pinv_is_the_moore_penrose_inverse(a):
    ap = pinv(a)
    assert ap.shape == a.shape[::-1]
    ref = svd_pinv_reference(a)
    s = np.linalg.svd(a, compute_uv=False)
    kept = s[s > max(a.shape) * 1e-12 * s[0]]
    # the LU and QR paths differ from the SVD by rounding, which grows with the condition number
    tol = 1e-13 * kept[0] / kept[-1] if kept.size else 0.0
    assert rel_err(ap, ref) <= tol
    if kept.size:
        assert rel_err(a @ ap @ a, a) < 1e-10
        assert rel_err(ap @ a @ ap, ap) < 1e-10
        assert rel_err((a @ ap).conj().T, a @ ap) < 1e-10
        assert rel_err((ap @ a).conj().T, ap @ a) < 1e-10


@pytest.mark.parametrize("shape", [(128, 96), (96, 96)])
def test_pinv_of_a_full_rank_tall_or_square_input_skips_the_svd(monkeypatch, shape):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    a = cgauss(*shape, 1.0, RngStream(109, shape[0]))
    assert pinv(a).shape == shape[::-1]


def test_pinv_of_a_wide_input_goes_straight_to_the_svd(monkeypatch):
    a = low_rank(128, 192, 96, RngStream(110, 0))
    qr = count_calls(monkeypatch, "qr")
    inv = count_calls(monkeypatch, "inv")
    svd = count_calls(monkeypatch, "svd")
    got = pinv(a)
    assert (qr, inv, svd) == ([], [], ["svd"])
    assert np.linalg.matrix_rank(got) == 96


def test_pinv_zero_matrix():
    z = pinv(np.zeros((3, 5), dtype=np.complex128))
    assert z.shape == (5, 3)
    assert np.all(z == 0)


def test_pinv_truncates_tiny_singular_values():
    u = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
    a = u @ np.diag([1.0, 1e-14]) @ u
    ap = pinv(a)
    # the 1e-14 direction falls below the relative cutoff and must not blow up
    assert np.linalg.norm(ap) < 10.0


def test_pinv_explicit_rel_tol():
    a = np.diag([1.0, 1e-3]).astype(np.complex128)
    assert np.linalg.norm(pinv(a, rel_tol=1e-2) - np.diag([1.0, 0.0])) < 1e-12
    assert np.linalg.norm(pinv(a, rel_tol=1e-4) - np.diag([1.0, 1e3])) < 1e-9


def test_pinv_rejects_bad_rel_tol():
    a = np.eye(2, dtype=np.complex128)
    for bad in (-1e-3, 1.0, 2.0):
        with pytest.raises(ValueError):
            pinv(a, rel_tol=bad)


def test_as_cmatrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        as_cmatrix(np.zeros(3))
    with pytest.raises(ValueError):
        as_cmatrix(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        as_cmatrix(np.zeros((0, 4)))


def test_as_cmatrix_coerces_real():
    out = as_cmatrix([[1, 2], [3, 4]])
    assert out.dtype == np.complex128
    assert out.shape == (2, 2)


def random_psd(rng, n, rank):
    """Real symmetric PSD n x n matrix of the given rank, eigenvalues in [0.5, 2]."""
    q, _ = np.linalg.qr(rng.gen.standard_normal((n, n)))
    lam = np.zeros(n)
    lam[:rank] = rng.gen.uniform(0.5, 2.0, size=rank)
    a = (q * lam) @ q.T
    return (a + a.T) / 2


def duplicated_pool_gram():
    """|P P^H|^2 of a pool whose last four pilots repeat the first four (rank-deficient)."""
    cfg = SystemConfig(M=4, N=12, L=6, l=1, K=2, zeta=2, trials=1, seed=7)
    P = synth_pool(cfg).P
    pool = PilotPool(np.vstack([P, P[:4]]))
    return np.abs(pool.P @ pool.P.conj().T) ** 2


def symmetric_cases():
    cases = []
    for i in range(20):
        rng = RngStream(104, i)
        n = int(rng.gen.integers(1, 12))
        cases.append(random_psd(rng, n, int(rng.gen.integers(1, n + 1))))
    cases.append(duplicated_pool_gram())
    return cases


def test_pinv_symmetric_moore_penrose_identities():
    for a in symmetric_cases():
        ap = pinv_symmetric(a)
        assert ap.dtype == np.float64
        assert rel_err(a @ ap @ a, a) < 1e-10
        assert rel_err(ap @ a @ ap, ap) < 1e-10
        assert rel_err((a @ ap).T, a @ ap) < 1e-10
        assert rel_err((ap @ a).T, ap @ a) < 1e-10


def test_pinv_symmetric_duplicated_pool_gram_is_rank_deficient():
    g = duplicated_pool_gram()
    assert np.linalg.matrix_rank(g) < g.shape[0]
    assert np.linalg.matrix_rank(pinv_symmetric(g)) == np.linalg.matrix_rank(g)


def test_pinv_symmetric_matches_complex_pinv():
    for a in symmetric_cases():
        assert rel_err(pinv(a).real, pinv_symmetric(a)) <= 1e-12


def test_pinv_symmetric_zero_matrix():
    z = pinv_symmetric(np.zeros((4, 4)))
    assert z.shape == (4, 4)
    assert np.all(z == 0)


def test_pinv_symmetric_rejects_bad_inputs():
    with pytest.raises(ValueError, match="square"):
        pinv_symmetric(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="square"):
        pinv_symmetric(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="symmetric"):
        pinv_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="real"):
        pinv_symmetric(np.eye(2, dtype=np.complex128))


def test_orthonormal_step_builds_the_projector_of_pinv():
    V = cgauss(9, 6, 1.0, RngStream(80, 0))
    Q = np.empty((9, 0), dtype=np.complex128)
    for j in range(6):
        q = orthonormal_step(Q, V[:, j])
        Q = np.column_stack([Q, q])
    assert np.allclose(Q.conj().T @ Q, np.eye(6), atol=1e-13)
    assert np.allclose(Q @ Q.conj().T, V @ pinv(V), atol=1e-12)


def test_orthonormal_step_rejects_vectors_in_the_span():
    V = cgauss(7, 3, 1.0, RngStream(81, 0))
    Q = np.linalg.qr(V)[0]
    assert orthonormal_step(Q, V[:, 1]) is None
    assert orthonormal_step(Q, V @ np.array([1.0, -2.0j, 0.5])) is None
    assert orthonormal_step(Q, np.zeros(7, dtype=np.complex128)) is None
    full = np.linalg.qr(cgauss(7, 7, 1.0, RngStream(81, 1)))[0]
    assert orthonormal_step(full, V[:, 0]) is None
