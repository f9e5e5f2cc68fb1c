"""Receive combining and data recovery for a detected support.

Two combiner families are provided: the decorrelating weight read-out, which
derives each detected user's weight row directly from its pilot and the
pseudo-inverse of the pilot block, and the conventional two-stage chain that
first estimates the channel by least squares and then zero-forces it.  The
chain's inverse of the detected pilot block is chosen here alone, by
``support_inverse``.  When the detected support is longer than the pilots
(zeta > L) and M >= L, that is the Cholesky factor of the block's Gram
(``PilotFactor``), and the estimate is kept as ``Y`` and the factor and
zero-forced from them (``zf_weights``): neither the pilot block's
pseudo-inverse nor an SVD of the wide M x zeta product is formed.
Otherwise it is ``pinv`` of the block.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import qpsk_decide
from .linalg import DEFAULT_PINV_RTOL_SCALE, NORMAL_EQ_BOUND, pinv
from .scenario import PilotPool, ReceivedFrame

__all__ = [
    "LsEstimate",
    "PilotFactor",
    "WeightMatrix",
    "dwe_weights",
    "ls_channel_estimate",
    "pilot_factor",
    "support_inverse",
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
class PilotFactor:
    """A tall pilot block and the Cholesky factor of its Gram, as zero-forcing reads them.

    ``P`` is the zeta x L block ``pool.P[detected]``, zeta > L.  With
    ``P^H P = R R^H`` (``cholesky``, R lower triangular), ``R_inv_h`` is
    ``R^-H`` and ``Q = P R^-H`` has orthonormal columns.  Both are None when
    the factor is uncertified: ``cholesky`` failed, or
    ``(||R||_F ||R^-1||_F)^2 zeta eps > NORMAL_EQ_BOUND``.  That square is
    ``tr(G) tr(G^-1)`` for ``G = P^H P``, at least ``||G||_F ||G^-1||_F``, so
    the bound is at least as strict as ``pinv``'s tall rule on P.  It must
    be squared: the Gram resolves P's singular values only down to about
    ``sqrt(eps)``, so a pilot block of rank below L (a support holding two
    users of one pilot) can pass ``cholesky`` with ``||R||_F ||R^-1||_F``
    near ``1 / sqrt(eps)``, and Q's columns lose orthonormality as
    ``cond(P)^2 eps``.  The factor depends only on the pool and the support,
    so a trial forms it once and shares it.
    """

    P: np.ndarray
    R_inv_h: np.ndarray | None
    Q: np.ndarray | None


def pilot_factor(P: np.ndarray) -> PilotFactor:
    """The ``PilotFactor`` of the zeta x L pilot block ``P``; never forms ``pinv(P)``."""
    try:
        R = np.linalg.cholesky(P.conj().T @ P)
        R_inv = np.linalg.inv(R)
    except np.linalg.LinAlgError:
        return PilotFactor(P, None, None)
    eps = np.finfo(R.dtype).eps
    if not (np.linalg.norm(R) * np.linalg.norm(R_inv)) ** 2 * P.shape[0] * eps <= NORMAL_EQ_BOUND:
        return PilotFactor(P, None, None)
    R_inv_h = R_inv.conj().T
    return PilotFactor(P, R_inv_h, P @ R_inv_h)


@dataclass(frozen=True)
class LsEstimate:
    """A wide least-squares channel estimate ``Y @ pinv(P)``, kept as ``Y`` and the pilot factor.

    ``Y`` is the frame's received M x L pilot block, with M >= L, and
    ``pilot`` the ``PilotFactor`` of the zeta x L block ``P = pool.P[detected]``,
    zeta > L.  ``H`` forms the M x zeta product on request, each time it is
    read.  ``zf_weights`` zero-forces it from ``Y`` and the factor.
    """

    Y: np.ndarray
    pilot: PilotFactor

    @property
    def H(self) -> np.ndarray:
        """The estimate ``Y @ pinv(P)``, formed anew."""
        return self.Y @ pinv(self.pilot.P)


def _is_wide_estimate(M: int, L: int, zeta: int) -> bool:
    """True when an M x zeta estimate from L pilot symbols is an ``LsEstimate``: zeta > L <= M."""
    return zeta > L and M >= L


def support_inverse(P_block: np.ndarray, M: int) -> np.ndarray | PilotFactor:
    """The inverse the least-squares estimate takes of the zeta x L pilot block, for M antennas.

    The block's ``PilotFactor`` when zeta > L <= M, and ``pinv(P_block)``
    otherwise.  It depends only on the pool, the support and M, so one
    trial's frames at several points can share it.
    """
    if _is_wide_estimate(M, P_block.shape[1], P_block.shape[0]):
        return pilot_factor(P_block)
    return pinv(P_block)


def ls_channel_estimate(
    frame: ReceivedFrame,
    pool: PilotPool,
    detected: np.ndarray,
    p_pinv: np.ndarray | PilotFactor | None = None,
) -> np.ndarray | LsEstimate:
    """Least-squares channel estimate ``Y @ pinv(P_detected)`` (M x zeta).

    When zeta > L and M >= L the estimate is returned as an ``LsEstimate``
    that holds ``Y`` and the pilot block's ``PilotFactor``, and
    ``pinv(P_detected)`` is never formed; otherwise as the product.
    ``p_pinv`` accepts ``support_inverse(pool.P[detected], M)`` already
    computed, as ``dwe_weights`` accepts ``y_pinv``; when None, it is formed
    here.  Any other kind, or a block of another shape than the support's,
    raises a ValueError that names both.
    """
    detected = np.asarray(detected, dtype=np.int64)
    M = frame.Y.shape[0]
    if p_pinv is None:
        p_pinv = support_inverse(pool.P[detected], M)
    shape = (pool.length, detected.size)
    wide = _is_wide_estimate(M, *shape)
    factor = isinstance(p_pinv, PilotFactor)
    given = p_pinv.P.shape if factor else np.shape(p_pinv)
    due = shape[::-1] if wide else shape
    if factor != wide or given != due:
        kinds = ("an array", "a PilotFactor")
        raise ValueError(
            f"p_pinv is {kinds[factor]} of shape {given}, but this estimate takes "
            f"{kinds[wide]} of shape {due}"
        )
    return LsEstimate(frame.Y, p_pinv) if wide else frame.Y @ p_pinv


def zf_weights(h_est: np.ndarray | LsEstimate, users: np.ndarray) -> WeightMatrix:
    """Zero-forcing combiner ``pinv(h_est)`` for an estimated channel.

    An ``LsEstimate`` is zero-forced from ``Y`` and its pilot factor when the
    certificate of ``_factored_zf`` holds, and by ``pinv(h_est.H)`` when it
    does not.
    """
    if isinstance(h_est, LsEstimate):
        W = _factored_zf(h_est)
        return WeightMatrix(pinv(h_est.H) if W is None else W, users)
    return WeightMatrix(pinv(h_est), users)


def _factored_zf(est: LsEstimate) -> np.ndarray | None:
    """``pinv(Y @ pinv(P))`` from ``Y`` and the pilot factor; None when uncertified.

    With ``P^H P = R R^H``, ``Q = P R^-H`` has orthonormal columns and
    ``B = Y R^-H`` is M x L.  Since ``pinv(P) = R^-H R^-1 P^H``, the estimate
    is ``H = B Q^H`` exactly, so ``pinv(H) = Q pinv(B)``, where ``pinv(B)``
    takes the tall rule: neither ``pinv(P)`` nor an SVD of the wide H is
    formed.  The certificate:

    - the ``PilotFactor`` is certified: ``cholesky`` succeeded and
      ``(||R||_F ||R^-1||_F)^2 zeta eps <= NORMAL_EQ_BOUND``, so P has full
      column rank, Q's columns are orthonormal to within that bound over
      zeta, and H's singular values are B's;
    - ``pinv(B) B`` has trace L (to the nearest whole number): that
      projector's trace is its rank, so ``pinv`` kept all L singular
      values of B;
    - ``||B||_F ||pinv(B)||_F max(M, zeta) 1e-12 < 1``, H's own rank cutoff,
      so an SVD of H would keep exactly L values as well.
    """
    pilot = est.pilot
    if pilot.Q is None:
        return None
    B = est.Y @ pilot.R_inv_h
    B_pinv = pinv(B)
    if not abs(np.einsum("ij,ji->", B_pinv, B) - B.shape[1]) < 0.5:
        return None
    rel_tol = max(est.Y.shape[0], pilot.P.shape[0]) * DEFAULT_PINV_RTOL_SCALE
    if not np.linalg.norm(B) * np.linalg.norm(B_pinv) * rel_tol < 1.0:
        return None
    return pilot.Q @ B_pinv


def demod_qpsk(x_est: np.ndarray) -> np.ndarray:
    """Minimum-distance hard decisions onto the unit-power QPSK grid.

    Decisions depend only on the signs of the real and imaginary parts; a
    zero part decides to the positive rail.
    """
    return qpsk_decide(np.ascontiguousarray(x_est, dtype=np.complex128))
