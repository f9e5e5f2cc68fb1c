"""Receive combining and data recovery for a detected support.

Two combiner families are provided: the decorrelating weight read-out, which
derives each detected user's weight row directly from its pilot and the
pseudo-inverse of the pilot block, and the conventional two-stage chain that
first estimates the channel by least squares and then zero-forces it.  When
the detected support is longer than the pilots (zeta > L) and M >= L, the
estimate is kept as its two factors and zero-forced from them, not by an SVD
of the wide M x zeta product (``zf_weights``).
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import qpsk_decide
from .linalg import DEFAULT_PINV_RTOL_SCALE, NORMAL_EQ_BOUND, pinv
from .scenario import PilotPool, ReceivedFrame

__all__ = [
    "LsEstimate",
    "WeightMatrix",
    "dwe_weights",
    "ls_channel_estimate",
    "zf_weights",
    "demod_qpsk",
]


@dataclass
class WeightMatrix:
    """Combining weights; row i recovers the stream of ``users[i]``."""

    W: np.ndarray
    users: np.ndarray

    def __post_init__(self):
        self.users = np.asarray(self.users, dtype=np.int64)
        if self.W.shape[0] != self.users.size:
            raise ValueError("one weight row per user is required")

    def apply(self, Y_D: np.ndarray) -> np.ndarray:
        """Recovered data-symbol estimates, one row per detected user."""
        return self.W @ Y_D


def dwe_weights(
    frame: ReceivedFrame,
    pool: PilotPool,
    detected: np.ndarray,
    y_pinv: np.ndarray | None = None,
) -> WeightMatrix:
    """Decorrelating weight read-out ``w_n = p_n @ pinv(Y)``.

    Each row depends only on that user's pilot and on ``pinv(Y)``, so the
    weights for a user are identical no matter which other users were
    detected alongside it.  All rows come from one stacked product of
    1 x L pilot rows with ``pinv(Y)``: numpy runs each stacked row as its own
    vector-matrix product, so row i equals ``pool.P[n] @ y_pinv`` bit for
    bit, in one call that releases the interpreter lock.  A plain
    ``P[detected] @ y_pinv`` would block the rows and break that promise.
    ``y_pinv`` accepts the pseudo-inverse already computed during detection.
    """
    detected = np.asarray(detected, dtype=np.int64)
    if y_pinv is None:
        y_pinv = pinv(frame.Y)
    W = np.matmul(pool.P[detected][:, None, :], y_pinv)[:, 0, :]
    return WeightMatrix(W, detected)


@dataclass(frozen=True)
class LsEstimate:
    """A wide least-squares channel estimate ``Y @ p_pinv``, kept as its two factors.

    ``Y`` is the frame's received M x L pilot block, with M >= L, and ``p_pinv`` the L x zeta
    ``pinv(P[detected])``, zeta > L.  ``H`` forms the M x zeta product on
    request, each time it is read; ``shape`` and ``__array__`` let the
    estimate read as that product.  ``zf_weights`` zero-forces it from the
    factors.
    """

    Y: np.ndarray
    p_pinv: np.ndarray

    @property
    def H(self) -> np.ndarray:
        """The estimate ``Y @ p_pinv``, formed anew."""
        return self.Y @ self.p_pinv

    @property
    def shape(self) -> tuple[int, int]:
        return self.Y.shape[0], self.p_pinv.shape[1]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.H, dtype=dtype)


def ls_channel_estimate(
    frame: ReceivedFrame,
    pool: PilotPool,
    detected: np.ndarray,
    p_pinv: np.ndarray | None = None,
) -> np.ndarray | LsEstimate:
    """Least-squares channel estimate ``Y @ pinv(P_detected)`` (M x zeta).

    ``p_pinv`` accepts ``pinv(pool.P[detected])`` already computed, as
    ``dwe_weights`` accepts ``y_pinv``: the pilot block depends only on the
    pool and the support, so one trial's frames at several points can share
    it.  One of any other shape than L x zeta raises a ValueError that names
    both shapes.  When zeta > L and M >= L the estimate is returned as an
    ``LsEstimate`` that holds ``Y`` and ``p_pinv``; otherwise as the product.
    """
    detected = np.asarray(detected, dtype=np.int64)
    if p_pinv is None:
        p_pinv = pinv(pool.P[detected])
    elif p_pinv.shape != (pool.length, detected.size):
        raise ValueError(
            f"p_pinv has shape {p_pinv.shape}, but pinv(P[detected]) has shape "
            f"{(pool.length, detected.size)}"
        )
    if detected.size > pool.length and frame.Y.shape[0] >= pool.length:
        return LsEstimate(frame.Y, p_pinv)
    return frame.Y @ p_pinv


def zf_weights(h_est: np.ndarray | LsEstimate, users: np.ndarray) -> WeightMatrix:
    """Zero-forcing combiner ``pinv(h_est)`` for an estimated channel.

    An ``LsEstimate`` is zero-forced from its factors when the certificate
    of ``_factored_zf`` holds, and by ``pinv(h_est.H)`` when it does not.
    """
    if isinstance(h_est, LsEstimate):
        W = _factored_zf(h_est)
        return WeightMatrix(pinv(h_est.H) if W is None else W, users)
    return WeightMatrix(pinv(h_est), users)


def _factored_zf(est: LsEstimate) -> np.ndarray | None:
    """``pinv(Y @ p_pinv)`` from the factors, never forming the product; None when uncertified.

    With ``C = p_pinv p_pinv^H = Lc Lc^H`` (``cholesky``), ``V = Lc^-1 p_pinv``
    has orthonormal rows and ``B = Y Lc`` is M x L, so ``H = B V`` and
    ``pinv(H) = V^H pinv(B)``, where ``pinv(B)`` takes the tall rule, not an
    SVD of the wide H.  The certificate:

    - ``cholesky`` finds C positive definite, and
      ``||Lc||_F ||Lc^-1||_F L eps <= NORMAL_EQ_BOUND``, so V's rows are
      orthonormal to working precision and H's singular values are B's;
    - ``pinv(B) B`` has trace L (to the nearest whole number): that
      projector's trace is its rank, so ``pinv`` kept all L singular
      values of B;
    - ``||B||_F ||pinv(B)||_F max(M, zeta) 1e-12 < 1``, H's own rank cutoff,
      so an SVD of H would keep exactly L values as well.
    """
    Y, p_pinv = est.Y, est.p_pinv
    try:
        Lc = np.linalg.cholesky(p_pinv @ p_pinv.conj().T)
        Lc_inv = np.linalg.inv(Lc)
    except np.linalg.LinAlgError:
        return None
    L = Lc.shape[0]
    eps = np.finfo(Lc.dtype).eps
    if not np.linalg.norm(Lc) * np.linalg.norm(Lc_inv) * L * eps <= NORMAL_EQ_BOUND:
        return None
    B = Y @ Lc
    B_pinv = pinv(B)
    if not abs(np.einsum("ij,ji->", B_pinv, B) - L) < 0.5:
        return None
    rel_tol = max(est.shape) * DEFAULT_PINV_RTOL_SCALE
    if not np.linalg.norm(B) * np.linalg.norm(B_pinv) * rel_tol < 1.0:
        return None
    return (Lc_inv @ p_pinv).conj().T @ B_pinv


def demod_qpsk(x_est: np.ndarray) -> np.ndarray:
    """Minimum-distance hard decisions onto the unit-power QPSK grid.

    Decisions depend only on the signs of the real and imaginary parts; a
    zero part decides to the positive rail.
    """
    return qpsk_decide(np.ascontiguousarray(x_est, dtype=np.complex128))
