from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdrslink import linalg
from pdrslink.detectors import fpr_gram_pinv
from pdrslink.linalg import BlasThreads, NORMAL_EQ_BOUND, SCHUR_BOUND, SCHUR_LEAF
from pdrslink.linalg import as_cmatrix, orthonormal_step, pinv
from pdrslink.scenario import RngStream, cgauss
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
    """``pinv`` as it was before its LU and normal-equation paths: the SVD for every input.

    A real input stays real (float64), as in ``pinv``.
    """
    a = np.asarray(a)
    m = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
    if rel_tol is None:
        rel_tol = max(m.shape) * 1e-12
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    keep = s > rel_tol * s.max()
    if not np.any(keep):
        return np.zeros((m.shape[1], m.shape[0]), dtype=m.dtype)
    return (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T


def kahan(n, theta):
    """The n x n Kahan matrix: its QR has no small |diag(R)|, yet it is nearly singular."""
    s, c = np.sin(theta), np.cos(theta)
    upper = np.eye(n) + np.triu(np.full((n, n), -c), 1)
    return (s ** np.arange(n))[:, None] * upper


def gauss(m, n, rng, real=False):
    """An m x n standard Gaussian matrix, real or circularly-symmetric complex."""
    return rng.gen.standard_normal((m, n)) if real else cgauss(m, n, 1.0, rng)


def low_rank(m, n, r, rng, real=False):
    """An m x n product of rank r (a zero matrix when r is 0), real or complex."""
    if r == 0:
        return np.zeros((m, n), dtype=np.float64 if real else np.complex128)
    return gauss(m, r, rng, real) @ gauss(r, n, rng, real)


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


def hermitian(a):
    """``(a + a^H) / 2``, which is exactly Hermitian in floating point."""
    return (a + a.conj().T) / 2


def gram_of(n, k, rng, real=False):
    """The exactly Hermitian n x n ``b b^H`` of an n x k Gaussian ``b``: rank min(n, k), zero when k is 0."""
    b = gauss(n, k, rng, real) if k else np.zeros((n, 1), dtype=np.float64 if real else np.complex128)
    return hermitian(b @ b.conj().T)


@st.composite
def pinv_inputs(draw):
    m, n = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    r = draw(st.integers(0, min(m, n)))
    rng = RngStream(108, draw(st.integers(0, 2**16)))
    real = draw(st.booleans())
    if draw(st.booleans()):
        # Hermitian positive semi-definite, of rank k < m or full.  Full rank takes k >= 2m: with k = m,
        # cond(b b^H) = cond(b)^2 reaches 1e9, where even the SVD misses the 1e-10 identities below
        k = draw(st.one_of(st.integers(0, m - 1), st.integers(2 * m, 3 * m)))
        return gram_of(m, k, rng, real)
    return gauss(m, n, rng, real) if r == min(m, n) else low_rank(m, n, r, rng, real)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(pinv_inputs())
@example(gram_of(3 * SCHUR_LEAF // 2, 3 * SCHUR_LEAF, RngStream(108, 2**17), real=False))
def test_pinv_is_the_moore_penrose_inverse(a):
    ap = pinv(a)
    assert ap.shape == a.shape[::-1]
    assert ap.dtype == a.dtype  # float64 stays real, complex128 stays complex
    ref = svd_pinv_reference(a)
    s = np.linalg.svd(a, compute_uv=False)
    kept = s[s > max(a.shape) * 1e-12 * s[0]]
    # the LU and normal-equation paths differ from the SVD by rounding, which grows with the condition number
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


def with_condition(a, cond):
    """``a`` with its singular values replaced by a geometric ladder from 1 down to 1 / cond."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return (u * np.logspace(0, -np.log10(cond), s.size)) @ vh


@pytest.mark.parametrize("cond", [1e2, 1e3, 1e4])
@pytest.mark.parametrize("shape", [(128, 96), (192, 96), (12, 5)])
def test_the_tall_rule_is_as_accurate_as_the_svd(monkeypatch, shape, cond):
    # the normal equations alone err by about cond^2 eps; one Newton-Schulz step brings it to cond eps
    a = with_condition(cgauss(*shape, 1.0, RngStream(112, int(cond))), cond)
    svd = count_calls(monkeypatch, "svd")
    got = pinv(a)
    assert svd == []
    assert rel_err(svd_pinv_reference(a), got) <= 10 * cond * np.finfo(float).eps


def test_pinv_of_an_ill_conditioned_tall_input_fails_the_contraction_certificate(monkeypatch):
    # full rank, but column scaling puts cond(A) near 1e7, where inv(A^H A) loses all accuracy
    a = cgauss(128, 96, 1.0, RngStream(111, 0)) * np.logspace(0, -7, 96)
    g = a.conj().T @ a
    contraction = np.linalg.norm(g) * np.linalg.norm(np.linalg.inv(g)) * 128 * np.finfo(float).eps
    assert contraction > NORMAL_EQ_BOUND
    svd = count_calls(monkeypatch, "svd")
    got = pinv(a)
    assert svd == ["svd"]
    ref = svd_pinv_reference(a)
    assert np.array_equal(got, ref)
    assert 1e6 < np.linalg.cond(a) < 1e8
    # the full-rank certificate alone would have kept the fast result
    assert np.linalg.norm(a) * np.linalg.norm(ref) * 128e-12 < 1.0


def call_sizes(monkeypatch, name):
    """Wrap ``np.linalg.<name>`` so each call records the row count of its input; returns the list."""
    sizes = []
    original = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return sizes


def hermitian_with_eigenvalues(lam, rng, real=False):
    """An exactly Hermitian input ``Q diag(lam) Q^H`` with a random unitary (or orthogonal) ``Q``."""
    q = with_condition(gauss(lam.size, lam.size, rng, real), 1.0)  # every singular value set to 1
    return hermitian((q * lam) @ q.conj().T)


def hermitian_pd(n, cond, rng, real=False):
    """An exactly Hermitian n x n input whose eigenvalues are a geometric ladder from 1 down to 1 / cond."""
    return hermitian_with_eigenvalues(np.logspace(0, -np.log10(cond), n), rng, real)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, SCHUR_LEAF - 1, SCHUR_LEAF, SCHUR_LEAF + 1, 200])
def test_the_hermitian_rule_is_as_accurate_as_the_svd(monkeypatch, n, real):
    cond = 1e2
    a = hermitian_pd(n, cond, RngStream(113, n), real)
    assert np.array_equal(a, a.conj().T)
    assert np.linalg.norm(a) * np.linalg.norm(np.linalg.inv(a)) <= SCHUR_BOUND
    ref = svd_pinv_reference(a)
    cholesky, inv, svd = (call_sizes(monkeypatch, name) for name in ("cholesky", "inv", "svd"))
    got = linalg._schur_pinv(a.copy())
    # every leaf is checked positive definite, the full input never reaches LU, and no SVD runs
    assert svd == []
    assert cholesky and max(cholesky) <= SCHUR_LEAF
    assert sorted(inv) == sorted(cholesky)
    assert got.dtype == a.dtype
    assert rel_err(got, ref) <= 1e-13 * np.linalg.cond(a)


def schur_inv_reference(m):
    """The Hermitian rule with each level's blocks in new arrays: ``W^H`` formed once, and each
    Hermitian update by row blocks over its lower block triangle, then mirrored."""
    n = m.shape[0]
    if n <= SCHUR_LEAF:
        np.linalg.cholesky(m)
        return np.linalg.inv(m)
    h = n // 2
    a_inv = schur_inv_reference(m[:h, :h])
    b = m[:h, h:]
    w_h = b.conj().T @ a_inv
    s_inv = schur_inv_reference(hermitian_difference_reference(m[h:, h:], w_h, b))
    x12 = -(w_h.conj().T @ s_inv)
    return np.block([[hermitian_difference_reference(a_inv, x12, w_h), x12], [x12.conj().T, s_inv]])


def hermitian_difference_reference(t, u, v):
    """``t - u @ v`` in a new array, for a Hermitian result: the row blocks up to their diagonal
    block, and the strict upper triangle the conjugate of the strict lower."""
    n, rows = t.shape[0], linalg._HERMITIAN_BLOCK_ROWS
    out = t.copy()
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        out[start:stop, :stop] = t[start:stop, :stop] - u[start:stop] @ v[:, :stop]
    upper = np.triu_indices(n, 1)
    out[upper] = out.T[upper].conj()
    return out


def shifted_hermitian(n, rng, real=False):
    """An exactly Hermitian n x n input, positive definite: a Gaussian one shifted past its spectrum."""
    return hermitian(gauss(n, n, rng, real)) + 3 * np.sqrt(n) * np.eye(n)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, SCHUR_LEAF, SCHUR_LEAF + 1, 130, 300, 1000])
def test_the_in_place_hermitian_rule_is_the_allocating_one_bit_for_bit(n, real):
    a = shifted_hermitian(n, RngStream(115, n), real)
    assert np.array_equal(a, a.conj().T)
    ref = schur_inv_reference(a)
    x = a.copy()
    linalg._schur_inv(x)
    assert x.tobytes() == ref.tobytes()
    assert linalg._schur_pinv(a.copy()).tobytes() == ref.tobytes()
    before = a.copy()
    pinv(a)
    assert a.tobytes() == before.tobytes()  # pinv leaves its input unchanged


def test_the_anchor_fpr_gram_takes_the_hermitian_rule(monkeypatch):
    pool = synth_pool(SystemConfig())  # the anchor pool: N = 1000 pilots of length L = 96
    G = linalg._squared_gram(pool.P)
    assert G.shape == (1000, 1000) and np.array_equal(G, G.T)
    cholesky, inv, svd = (call_sizes(monkeypatch, name) for name in ("cholesky", "inv", "svd"))
    gram = fpr_gram_pinv(pool)
    assert svd == []
    assert cholesky and max(inv) <= SCHUR_LEAF
    assert gram.dtype == np.float64
    monkeypatch.undo()
    product = np.linalg.norm(G) * np.linalg.norm(gram)
    assert 1e3 < product <= SCHUR_BOUND
    assert rel_err(gram, svd_pinv_reference(G)) <= 1e-13 * np.linalg.cond(G)


def test_pinv_of_a_hermitian_input_takes_lu(monkeypatch):
    # the Schur rule is the FPR Gram's alone: pinv spends no symmetry check or cholesky on it
    a = hermitian_pd(200, 1e2, RngStream(116, 0))
    assert np.array_equal(a, a.conj().T)
    cholesky, inv, svd = (call_sizes(monkeypatch, name) for name in ("cholesky", "inv", "svd"))
    got = pinv(a)
    assert (cholesky, inv, svd) == ([], [200], [])
    monkeypatch.undo()
    assert np.array_equal(got, np.linalg.inv(a))


def test_a_non_hermitian_square_input_takes_lu(monkeypatch):
    pool = synth_pool(SystemConfig())
    p_det = pool.P[np.arange(0, 960, 10)]  # a 96 x 96 pilot block, as the LS+ZF chain inverts at the anchor
    cholesky, inv, svd = (call_sizes(monkeypatch, name) for name in ("cholesky", "inv", "svd"))
    got = pinv(p_det)
    assert (cholesky, inv, svd) == ([], [96], [])
    monkeypatch.undo()
    assert np.array_equal(got, np.linalg.inv(p_det))


@pytest.mark.parametrize(
    "a, expect",
    [
        (hermitian_pd(100, 1e6, RngStream(114, 0)), "lu"),
        (hermitian_with_eigenvalues(np.logspace(0, -2, 130) * (-1.0) ** np.arange(130), RngStream(114, 1)), "lu"),
        (np.pad(hermitian_pd(80, 1e1, RngStream(114, 2), real=True), (0, 20)), "svd"),  # 20 zero rows and columns
    ],
    ids=["over-the-bound", "indefinite", "singular-psd"],
)
def test_the_hermitian_rule_hands_an_uncertified_input_on(monkeypatch, a, expect):
    assert np.array_equal(a, a.conj().T)
    assert linalg._schur_pinv(a.copy()) is None
    svd = count_calls(monkeypatch, "svd")
    got = pinv(a)
    monkeypatch.undo()
    if expect == "lu":
        assert svd == []
        assert np.array_equal(got, np.linalg.inv(a))
    else:
        assert svd == ["svd"]
        assert np.array_equal(got, svd_pinv_reference(a))


def test_pinv_of_a_wide_input_goes_straight_to_the_svd(monkeypatch):
    a = low_rank(128, 192, 96, RngStream(110, 0))
    qr = count_calls(monkeypatch, "qr")
    inv = count_calls(monkeypatch, "inv")
    svd = count_calls(monkeypatch, "svd")
    got = pinv(a)
    assert (qr, inv, svd) == ([], [], ["svd"])
    assert np.linalg.matrix_rank(got) == 96


def test_pinv_names_the_shape_of_an_svd_that_did_not_converge(monkeypatch):
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", diverge)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge for 3x5 matrix"):
        pinv(np.ones((3, 5)))


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


def test_pinv_real_moore_penrose_identities():
    for a in symmetric_cases():
        ap = pinv(a)
        assert ap.dtype == np.float64
        assert rel_err(a @ ap @ a, a) < 1e-10
        assert rel_err(ap @ a @ ap, ap) < 1e-10
        assert rel_err((a @ ap).T, a @ ap) < 1e-10
        assert rel_err((ap @ a).T, ap @ a) < 1e-10


def test_pinv_real_duplicated_pool_gram_is_rank_deficient():
    g = duplicated_pool_gram()
    assert np.linalg.matrix_rank(g) < g.shape[0]
    gp = pinv(g)
    assert gp.dtype == np.float64
    assert np.linalg.matrix_rank(gp) == np.linalg.matrix_rank(g)


def test_pinv_real_matches_complex_pinv():
    for a in symmetric_cases():
        assert rel_err(pinv(a.astype(np.complex128)).real, pinv(a)) <= 1e-12


def test_pinv_real_zero_matrix():
    z = pinv(np.zeros((4, 4)))
    assert z.dtype == np.float64
    assert z.shape == (4, 4)
    assert np.all(z == 0)


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


def _no_library(path):
    raise OSError(f"cannot load {path}")


@pytest.mark.parametrize(
    "load, env, path",
    [(_no_library, {}, "unknown: one trial worker"),
     (lambda path: SimpleNamespace(), {"OPENBLAS_NUM_THREADS": "1"}, "pinned by environment")],
    ids=["no LAPACK module", "no known symbol"],
)
def test_blas_threads_without_a_setter_falls_back_on_the_environment(monkeypatch, load, env, path):
    for var in linalg._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(linalg.ctypes, "CDLL", load)
    blas = BlasThreads.find()
    assert blas.symbol is None and blas.threads() is None
    assert blas.path == path


def test_blas_threads_names_the_first_known_setter_it_finds(monkeypatch):
    counts = [5]
    lib = SimpleNamespace(  # only the 32-bit scipy-openblas pair, the second one tried
        scipy_openblas_set_num_threads=lambda n: counts.append(n),
        scipy_openblas_get_num_threads=lambda: counts[-1],
    )
    monkeypatch.setattr(linalg.ctypes, "CDLL", lambda path: lib)
    blas = BlasThreads.find()
    assert blas.symbol == "scipy_openblas_set_num_threads"
    assert blas.path == "pinned by scipy_openblas_set_num_threads"
    with blas.pinned():
        assert blas.threads() == 1
    assert counts == [5, 1, 5]
