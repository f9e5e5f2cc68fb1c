"""Dense-matrix kernel shared by every other module, and the BLAS thread budget.

Matrices are plain 2-D ``numpy.ndarray`` (row-major) and vectors are 1-D
float/complex arrays.  The public matrix functions are pure, never mutate
their inputs, and return finite values for finite inputs.
``squared_gram_pinv`` owns the FPR Gram ``|P P^H|^2``: it forms the Gram's
lower block triangle in one N x N float64 buffer, mirrors it so the Gram is
exactly symmetric, and inverts that buffer in place by the Schur rule
(``_schur_pinv``).  That rule and its private helpers overwrite their
arguments; no public function does.  Every Hermitian result is formed and
mirrored by the same ``_HERMITIAN_BLOCK_ROWS``-row blocks (``_row_blocks``).

``pinv`` picks one of three rules (LU, certified normal equations, SVD) from
the input's shape; its docstring states them and their certificates.  No
rule calls numpy's QR, linear solve or determinant.  In numpy 2.4 QR and
determinant hold the interpreter lock (two threads ran them slower than
one), so the trial threads would queue on them.

``BlasThreads`` owns the thread count of the BLAS that numpy loaded:
``run_sweep`` pins it to one thread while its trial pool runs.
"""

import ctypes
import os
import threading
from contextlib import contextmanager
from typing import Callable

import numpy as np

__all__ = [
    "DEFAULT_PINV_RTOL_SCALE",
    "NORMAL_EQ_BOUND",
    "SCHUR_BOUND",
    "SCHUR_LEAF",
    "BlasThreads",
    "as_cmatrix",
    "pinv",
    "orthonormal_step",
    "process_blas",
    "squared_gram_pinv",
]

#: default relative singular-value cutoff is max(rows, cols) times this
DEFAULT_PINV_RTOL_SCALE = 1e-12

#: Bound on ``||G||_F ||G^-1||_F rows eps`` for the tall rule, G = A^H A.  It
#: bounds ``||I - X0 A||``, so the Newton-Schulz step contracts the error of
#: the normal equations quadratically.  Over 411 random complex tall inputs
#: that met it (1 to 40 columns, up to 3 cols + 1 rows, singular values a
#: geometric ladder from 1 down to 1/cond, cond log-uniform in 1 to 1e5,
#: ``np.random.default_rng(0)``), the corrected result ``2 X0 - (X0 A) X0``
#: was within 8.2 cond(A) eps of the SVD, and within 1.5 cond(A) eps once
#: cond(A) > 10; without the step the error grows as cond(A)^2 eps.
NORMAL_EQ_BOUND = 1e-4

#: Bound on ``||A||_F ||X||_F`` for the Schur rule's inverse X.  Above it
#: the recursion's error can grow faster than cond(A) eps.  Over 68 random exactly
#: Hermitian positive-definite inputs ``Q diag(lam) Q^H`` (Q from the QR of a
#: Gaussian, orthogonal or unitary; lam a geometric ladder from 1 down to
#: 1/cond in random order; 60 inputs at n = 65, 130, 300 and 1000 in turn, real
#: and complex in alternate fours, cond = 10^U(0, 5), then each n at cond 1e6
#: and 1e8; ``np.random.default_rng(0)``), the relative error against the SVD
#: was at most 17 cond(A) eps (LU: 17) on the 32 inputs with the product at or
#: below 1e4, at most 8.7 (LU: 0.50) on the 16 between 1e4 and 1e5, and up to
#: 1.6e6 (LU: 0.30) on the 18 above.  On the 2 complex inputs at n = 300 and
#: 1000 with cond 1e8, a leaf failed ``cholesky``.
SCHUR_BOUND = 1e4

#: Largest block the Schur rule inverts directly, by ``inv`` once
#: ``cholesky`` has found it positive definite.
SCHUR_LEAF = 64


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a non-empty 2-D complex128 array, validating shape."""
    return _as_matrix(a, np.complex128)


def _as_matrix(a, dtype) -> np.ndarray:
    """Coerce to a non-empty 2-D array of ``dtype``, validating shape."""
    m = np.asarray(a, dtype=dtype)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError(f"matrix has a zero dimension: shape={m.shape}")
    return m


def _rank_cutoff(shape: tuple[int, ...], rel_tol: float | None) -> float:
    """Validated relative cutoff: ``rel_tol``, or ``max(shape) * 1e-12`` when None."""
    if rel_tol is None:
        return max(shape) * DEFAULT_PINV_RTOL_SCALE
    if not 0.0 <= rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in [0, 1), got {rel_tol}")
    return rel_tol


def pinv(a, rel_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with a relative rank cutoff.

    Singular values at or below ``rel_tol * sigma_max`` are treated as zero.
    When ``rel_tol`` is None it defaults to ``max(rows, cols) * 1e-12``, which
    is loose enough to absorb rounding in double precision while still zeroing
    deliberately rank-deficient inputs.

    ``pinv`` tries three rules in turn:

    1. a square input is inverted by LU, ``X = inv(A)``;
    2. a tall input takes the normal equations and one Newton-Schulz step,
       ``G = A^H A``, ``X0 = inv(G) A^H``, ``X = 2 X0 - (X0 A) X0``, when the
       contraction certificate ``||G||_F ||G^-1||_F rows eps <= NORMAL_EQ_BOUND``
       holds.  The step forms the small cols x cols ``X0 A``, so its two
       products cost ``2 rows cols^2`` multiplies, not ``2 rows^2 cols``.
       ``G`` keeps LU, not the Gram's Schur rule (``_schur_pinv``): cond(G)
       is cond(A)^2, and that rule without its certificate missed the tall
       rule's 10 cond(A) eps on test inputs from cond(A) = 1e3;
    3. the SVD, which applies the cutoff: for a wide input, an input whose
       ``inv`` finds it singular, and one that fails a certificate.

    The result of rules 1-2 is returned only when
    ``||A||_F * ||X||_F * rel_tol < 1``: since ``||A||_F * ||X||_F`` is at
    least the 2-norm condition number, every singular value then lies above
    the cutoff.  The choice changes the result in its last bits only.

    A real (non-complex) input is computed and returned in float64, a complex
    one in complex128; the rules above are the same for both.

    Parameters
    ----------
    a : array_like
        Non-empty matrix.
    rel_tol : float, optional
        Relative cutoff in [0, 1).

    Returns
    -------
    np.ndarray
        The pseudo-inverse, shape (cols, rows), float64 or complex128.
    """
    a = np.asarray(a)
    m = _as_matrix(a, np.complex128 if np.iscomplexobj(a) else np.float64)
    rel_tol = _rank_cutoff(m.shape, rel_tol)
    rows, cols = m.shape
    x = None
    try:
        if rows == cols:
            x = np.linalg.inv(m)
        elif rows > cols:
            x = _normal_eq_pinv(m)
    except np.linalg.LinAlgError:
        pass  # exactly singular: the SVD decides the rank
    if x is not None and np.linalg.norm(m) * np.linalg.norm(x) * rel_tol < 1.0:
        return x
    return _svd_pinv(m, rel_tol)


def _schur_pinv(m: np.ndarray) -> np.ndarray | None:
    """The FPR Gram's rule: ``m`` inverted in place by recursive Schur complements, or None.

    ``m`` must be exactly Hermitian, positive definite at every leaf, and
    meet ``||m||_F ||X||_F <= SCHUR_BOUND``.  The Hermitian check comes
    first and writes nothing; then ``_schur_inv`` forms the inverse in ``m``
    itself, which is returned, with no block of ``m``'s size beside it.  A
    None after that leaves ``m`` overwritten in part or in full.  The
    recursion costs about ``n^3`` flops, against ``8/3 n^3`` for LU, nearly
    all in large products.  ``_squared_gram`` mirrors the Gram's lower
    triangle, so the Gram passes the Hermitian check whatever BLAS kernel
    formed it.

    ``pinv``'s default cutoff test, ``||m||_F ||X||_F n 1e-12 < 1`` for an
    n x n input, needs no check of its own: under ``SCHUR_BOUND`` its left
    side is at most ``1e4 n 1e-12 = n 1e-8``, below 1 for any n below 1e8,
    so an SVD would keep every singular value as well.
    """
    if not np.array_equal(m, m.conj().T):
        return None
    norm_m = np.linalg.norm(m)
    try:
        _schur_inv(m)
    except np.linalg.LinAlgError:
        return None  # a leaf is not positive definite
    if not norm_m * np.linalg.norm(m) <= SCHUR_BOUND:
        return None
    return m


def _schur_inv(m: np.ndarray) -> None:
    """Overwrite the Hermitian ``m`` with ``inv(m)`` by halves: ``S = D - B^H A^-1 B`` and both halves the same way.

    With ``m = [[A, B], [B^H, D]]`` and ``W = A^-1 B``, the inverse is
    ``[[A^-1 - X12 W^H, X12], [X12^H, S^-1]]`` with ``X12 = -W S^-1``.  The
    lower-left block is never read, so it holds ``W^H = B^H A^-1`` and then
    ``X12^H``, and no block is allocated beside ``m``.  In order:
    ``A <- A^-1``, ``W^H <- B^H A^-1``, ``D -= W^H B``, ``D <- S^-1``,
    ``B <- X12 = -(W^H)^H D``, ``A -= X12 W^H``, ``W^H <- X12^H``.  The two
    updates have a Hermitian result, so ``_sub_hermitian_product`` forms
    only their lower block triangle and mirrors it.  A leaf raises
    LinAlgError unless ``cholesky`` finds it positive definite, and is then
    overwritten by ``inv``.
    """
    n = m.shape[0]
    if n <= SCHUR_LEAF:
        np.linalg.cholesky(m)
        m[...] = np.linalg.inv(m)
        return
    h = n // 2
    a, b, d, w_h = m[:h, :h], m[:h, h:], m[h:, h:], m[h:, :h]
    _schur_inv(a)
    np.matmul(b.conj().T, a, out=w_h)
    _sub_hermitian_product(d, w_h, b)
    _schur_inv(d)
    x12 = np.matmul(w_h.conj().T, d, out=b)
    np.negative(x12, out=x12)
    _sub_hermitian_product(a, x12, w_h)
    w_h[...] = x12.conj().T


#: Rows of a Hermitian result formed, or mirrored, at a time.
_HERMITIAN_BLOCK_ROWS = 64


def _row_blocks(n: int):
    """``(start, stop)`` of each ``_HERMITIAN_BLOCK_ROWS``-row block of an n-row result, in order."""
    for start in range(0, n, _HERMITIAN_BLOCK_ROWS):
        yield start, min(start + _HERMITIAN_BLOCK_ROWS, n)


def squared_gram_pinv(P) -> np.ndarray:
    """Pseudo-inverse of the squared-modulus Gram ``G = |P P^H|^2`` of the rows of ``P``, float64.

    ``_squared_gram`` forms ``G`` in one N x N float64 array, and the Schur
    rule (``_schur_pinv``) inverts it in that same array, with nothing N x N
    beside it.  When that certificate fails (rows repeated, so that ``G`` has
    lost rank, or a failed bound), the partly overwritten array is dropped,
    ``G`` formed again and ``pinv(G)`` returned: LU, or the SVD when ``G``
    has lost rank.
    """
    P = as_cmatrix(P)
    x = _schur_pinv(_squared_gram(P))
    return pinv(_squared_gram(P)) if x is None else x


def _squared_gram(P: np.ndarray) -> np.ndarray:
    """``|P P^H|^2`` in float64, exactly symmetric, each symmetric pair formed once.

    Each row block is formed only up to the end of its diagonal block, as
    ``|P[start:stop].conj() @ P[:stop].T|`` (the conjugate of those entries
    of ``P P^H``, so the same moduli), and squared in place (numpy squares
    as ``x * x`` either way, so the bits are those of ``** 2``).
    ``_mirror_lower`` then makes ``G`` exactly symmetric on any BLAS kernel,
    from half the products of ``P P^H``; the largest temporary is a complex
    block x N.
    """
    N = P.shape[0]
    G = np.empty((N, N))
    for start, stop in _row_blocks(N):
        rows = G[start:stop, :stop]
        np.abs(P[start:stop].conj() @ P[:stop].T, out=rows)
        rows *= rows
    _mirror_lower(G)
    return G


def _sub_hermitian_product(t: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """``t -= u @ v`` in place, for a product known to be Hermitian, in half the products.

    Each row block is formed only up to the end of its own diagonal block,
    so the largest temporary is block x n; ``_mirror_lower`` then writes the
    strict upper triangle, so ``t``'s off-diagonal entries come out exactly
    Hermitian (a real ``t`` exactly symmetric).
    """
    for start, stop in _row_blocks(t.shape[0]):
        t[start:stop, :stop] -= u[start:stop] @ v[:, :stop]
    _mirror_lower(t)


def _mirror_lower(m: np.ndarray) -> None:
    """Overwrite the strict upper triangle of the square ``m`` with the conjugate of its strict lower.

    By row blocks: the part right of each block's diagonal block is one
    transposed copy, and inside the diagonal block the upper triangle is
    copied from the lower by index.
    """
    for start, stop in _row_blocks(m.shape[0]):
        m[start:stop, stop:] = m[stop:, start:stop].conj().T
        diag = m[start:stop, start:stop]
        upper = np.triu_indices(stop - start, 1)
        diag[upper] = diag.T[upper].conj()


def _normal_eq_pinv(m: np.ndarray) -> np.ndarray | None:
    """Tall ``pinv`` by ``inv(A^H A) A^H`` and one Newton-Schulz step; None when uncertified."""
    mh = m.conj().T
    g = mh @ m
    g_inv = np.linalg.inv(g)
    eps = np.finfo(m.dtype).eps
    if not np.linalg.norm(g) * np.linalg.norm(g_inv) * m.shape[0] * eps <= NORMAL_EQ_BOUND:
        return None
    x0 = g_inv @ mh
    return 2.0 * x0 - (x0 @ m) @ x0


def _svd_pinv(m: np.ndarray, rel_tol: float) -> np.ndarray:
    """``pinv`` by SVD: the inverse singular values above ``rel_tol * sigma_max``."""
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD did not converge for {m.shape[0]}x{m.shape[1]} matrix"
        ) from exc
    r = np.count_nonzero(s > rel_tol * s.max())  # s is sorted: the kept values are a prefix
    if r == 0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=m.dtype)
    return (vh[:r].conj().T / s[:r]) @ u[:, :r].conj().T


def orthonormal_step(basis: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """Next column of an incremental QR: ``v`` made orthonormal to ``basis``.

    Classical Gram-Schmidt with one reorthogonalisation pass removes the
    components of ``v`` along the orthonormal columns of ``basis`` (L x r,
    r may be 0).  Returns the normalised remainder, or None when its norm is
    at or below ``max(L, r + 1) * 1e-12 * ||v||`` (``pinv``'s default cutoff
    for the r+1 stacked vectors), i.e. ``v`` already lies in the span.
    """
    rel_tol = _rank_cutoff((basis.shape[0], basis.shape[1] + 1), None)
    w = v
    for _ in range(2):
        w = w - basis @ (basis.conj().T @ w)
    norm = np.linalg.norm(w)
    if norm <= rel_tol * np.linalg.norm(v):
        return None
    return w / norm


#: OpenBLAS thread-count setters in the order they are tried: numpy's bundled
#: scipy-openblas (64-bit integer interface, then 32-bit), then a system OpenBLAS.
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)

#: Variables a BLAS reads its thread count from when it loads.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BlasThreads:
    """The thread count of the BLAS numpy loaded, pinned to one while any holder runs.

    ``set_threads`` and ``get_threads`` are the BLAS's own setter and getter
    (None when no known symbol was found); ``env_pinned`` says that the
    environment held the BLAS at one thread when it loaded.  OpenBLAS keeps
    one thread count for the whole process, so while ``pinned()`` is held,
    every thread's BLAS calls run on one thread.  Nested and concurrent
    holders share the pin: the first saves the caller's count and the last to
    leave restores it.
    """

    def __init__(
        self,
        set_threads: Callable[[int], None] | None = None,
        get_threads: Callable[[], int] | None = None,
        symbol: str | None = None,
        env_pinned: bool = False,
    ):
        self._set, self._get = set_threads, get_threads
        self.symbol = symbol
        self.env_pinned = env_pinned
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = 1

    @classmethod
    def find(cls) -> "BlasThreads":
        """Look up the setter and getter in the BLAS numpy's LAPACK module links to, by ctypes."""
        env_pinned = _env_pins_blas()
        try:
            from numpy.linalg import _umath_linalg

            lib = ctypes.CDLL(_umath_linalg.__file__)
        except (ImportError, OSError):
            return cls(env_pinned=env_pinned)
        for name in _OPENBLAS_SETTERS:
            try:
                set_threads = getattr(lib, name)
                get_threads = getattr(lib, name.replace("_set_", "_get_"))
            except AttributeError:
                continue
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return cls(set_threads, get_threads, name, env_pinned)
        return cls(env_pinned=env_pinned)

    @property
    def path(self) -> str:
        """How a sweep keeps BLAS off its trial threads' cores: the setter it calls, or the fallback."""
        if self._set is not None:
            return f"pinned by {self.symbol}"
        return "pinned by environment" if self.env_pinned else "unknown: one trial worker"

    def threads(self) -> int | None:
        """The BLAS's current thread count; None without a getter."""
        return None if self._get is None else int(self._get())

    @property
    def serial_only(self) -> bool:
        """True when BLAS may run several threads and cannot be pinned: use one trial worker."""
        return self._set is None and not self.env_pinned

    @contextmanager
    def pinned(self):
        """Hold the BLAS at one thread; a no-op without a setter."""
        with self._lock:
            if self._holders == 0 and self._set is not None:
                self._saved = self._get()
                self._set(1)
            self._holders += 1
        try:
            yield
        finally:
            with self._lock:
                self._holders -= 1
                if self._holders == 0 and self._set is not None:
                    self._set(self._saved)


def _env_pins_blas() -> bool:
    """True when some BLAS thread variable is set and every one that is set reads 1."""
    values = [os.environ[v].strip() for v in _BLAS_THREAD_VARS if os.environ.get(v, "").strip()]
    return bool(values) and all(v == "1" for v in values)


_blas = BlasThreads.find()


def process_blas() -> BlasThreads:
    """The process's ``BlasThreads``, found when this module is imported."""
    return _blas
