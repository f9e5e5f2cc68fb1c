"""Dense-matrix kernel shared by every other module.

Matrices are plain 2-D ``numpy.ndarray`` (row-major) and vectors are 1-D
float/complex arrays.  All functions are pure, never mutate their inputs,
and return finite values for finite inputs.

``pinv`` keeps a real input real: a non-complex input is computed in
float64 and a complex one in complex128.  For either dtype it picks its
factorization from the input's shape: an LU inverse for a square matrix, a
reduced QR for a tall one, and the SVD for a wide one or for any input
whose fast result fails the full-rank certificate
``||A||_F * ||X||_F * rel_tol < 1``.  The certificate bounds the condition
number below ``1 / rel_tol``, so the SVD would have kept every singular value
and both give the same pseudo-inverse up to rounding.
"""

import numpy as np

__all__ = [
    "DEFAULT_PINV_RTOL_SCALE",
    "as_cmatrix",
    "pinv",
    "orthonormal_step",
]

#: default relative singular-value cutoff is max(rows, cols) times this
DEFAULT_PINV_RTOL_SCALE = 1e-12


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

    A square input is inverted by LU (``np.linalg.inv``) and a tall one by a
    reduced QR, ``X = solve(R, Q^H)``.  That ``X`` is returned only when
    ``||A||_F * ||X||_F * rel_tol < 1``: since ``||A||_F * ||X||_F`` is at
    least the 2-norm condition number, every singular value then lies above
    the cutoff.  A wide input, an input whose factorization is singular and
    one that fails the certificate take the SVD, which applies the cutoff.
    The choice changes the result in its last bits only.

    A real (non-complex) input is computed and returned in float64, a complex
    one in complex128; the rule above is the same for both.

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
    if rows >= cols:
        try:
            if rows == cols:
                x = np.linalg.inv(m)
            else:
                q, r = np.linalg.qr(m)
                x = np.linalg.solve(r, q.conj().T)
        except np.linalg.LinAlgError:
            pass  # exactly singular: the SVD decides the rank
        else:
            if np.linalg.norm(m) * np.linalg.norm(x) * rel_tol < 1.0:
                return x
    return _svd_pinv(m, rel_tol)


def _svd_pinv(m: np.ndarray, rel_tol: float) -> np.ndarray:
    """``pinv`` by SVD: the inverse singular values above ``rel_tol * sigma_max``."""
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD did not converge for {m.shape[0]}x{m.shape[1]} matrix"
        ) from exc
    keep = s > rel_tol * s.max()
    if not np.any(keep):
        return np.zeros((m.shape[1], m.shape[0]), dtype=m.dtype)
    return (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T


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
