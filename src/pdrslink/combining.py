"""Receive combining and data recovery for a detected support.

Two combiner families are provided: the decorrelating weight read-out, which
derives each detected user's weight row directly from its pilot and the
pseudo-inverse of the pilot block, and the conventional two-stage chain that
first estimates the channel by least squares and then zero-forces it.  The
chain's inverse of the detected pilot block is chosen here alone, by
``support_inverse``.  When the detected support is longer than the pilots
(zeta > L) and the block's Gram has a certified Cholesky factor
(``PilotFactor``), the estimate is kept as ``Y`` and that factor and
zero-forced from them (``zf_weights``): neither the pilot block's
pseudo-inverse nor an SVD of the wide M x zeta product is formed.
Otherwise it is ``pinv`` of the block, and the estimate is the product.
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
    A pool whose pilot length is not the frame's L raises a ValueError that
    names both.
    """
    pool.check_frame(frame)
    detected = np.asarray(detected, dtype=np.int64)
    if y_pinv is None:
        y_pinv = pinv(frame.Y)
    W = np.matmul(pool.P[detected][:, None, :], y_pinv)[:, 0, :]
    return WeightMatrix(W, detected)


@dataclass(frozen=True)
class PilotFactor:
    """The certified Cholesky factor of a tall pilot block's Gram, as zero-forcing reads it.

    For the zeta x L block ``P = pool.P[detected]`` with ``P^H P = R R^H``
    (``cholesky``, R lower triangular), ``R_inv_h`` is ``R^-H`` and
    ``Q = P R^-H`` (zeta x L, so it carries the block's shape) has
    orthonormal columns, to within ``NORMAL_EQ_BOUND`` over zeta
    (``pilot_factor`` certifies it).  The block itself is not kept.  The
    factor depends only on the pool and the support, so a trial forms it
    once and shares it.
    """

    R_inv_h: np.ndarray
    Q: np.ndarray


def pilot_factor(P: np.ndarray) -> PilotFactor | None:
    """The ``PilotFactor`` of the zeta x L pilot block ``P``, or None when uncertified.

    The certificate: ``cholesky`` succeeds and
    ``(||R||_F ||R^-1||_F)^2 zeta eps <= NORMAL_EQ_BOUND``.  That square is
    ``tr(G) tr(G^-1)`` for ``G = P^H P``, at least ``||G||_F ||G^-1||_F``, so
    the bound is at least as strict as ``pinv``'s tall rule on P.  It must
    be squared: the Gram resolves P's singular values only down to about
    ``sqrt(eps)``, so a pilot block of rank below L (a support holding two
    users of one pilot) can pass ``cholesky`` with ``||R||_F ||R^-1||_F``
    near ``1 / sqrt(eps)``, and Q's columns lose orthonormality as
    ``cond(P)^2 eps``.  ``pinv(P)`` is never formed.
    """
    try:
        R = np.linalg.cholesky(P.conj().T @ P)
        R_inv = np.linalg.inv(R)
    except np.linalg.LinAlgError:
        return None
    eps = np.finfo(R.dtype).eps
    if not (np.linalg.norm(R) * np.linalg.norm(R_inv)) ** 2 * P.shape[0] * eps <= NORMAL_EQ_BOUND:
        return None
    R_inv_h = R_inv.conj().T
    return PilotFactor(R_inv_h, P @ R_inv_h)


@dataclass(frozen=True)
class LsEstimate:
    """A least-squares channel estimate ``H = Y @ pinv(P)``, kept as ``Y`` and the pilot factor.

    ``Y`` is the frame's received M x L pilot block, for any M, and ``pilot``
    the ``PilotFactor`` of the zeta x L block ``P = pool.P[detected]``.
    Since ``pinv(P) = R^-H R^-1 P^H``, ``H = B Q^H`` exactly, with the
    M x L ``B = Y R^-H``; the M x zeta H itself is never formed.
    """

    Y: np.ndarray
    pilot: PilotFactor


def support_inverse(P_block: np.ndarray) -> np.ndarray | PilotFactor:
    """The inverse the least-squares estimate takes of the zeta x L pilot block.

    The block's ``PilotFactor`` when zeta > L and the factor is certified,
    and ``pinv(P_block)`` otherwise.  It depends only on the pool and the
    support, so one trial's frames at several points can share it.
    """
    if P_block.shape[0] > P_block.shape[1]:
        factor = pilot_factor(P_block)
        if factor is not None:
            return factor
    return pinv(P_block)


def ls_channel_estimate(
    frame: ReceivedFrame,
    pool: PilotPool,
    detected: np.ndarray,
    p_pinv: np.ndarray | PilotFactor | None = None,
) -> np.ndarray | LsEstimate:
    """Least-squares channel estimate ``Y @ pinv(P_detected)`` (M x zeta).

    ``p_pinv`` accepts ``support_inverse(pool.P[detected])`` already
    computed, as ``dwe_weights`` accepts ``y_pinv``; when None, it is formed
    here.  A ``PilotFactor`` gives an ``LsEstimate`` that holds ``Y`` and the
    factor, so neither ``pinv(P_detected)`` nor the product is formed; an
    array gives the product.  A factor whose ``Q`` is not the zeta x L
    support's shape, or an array of another shape than L x zeta, raises a
    ValueError that names both shapes, and a pool whose pilot length is not
    the frame's L one that names both lengths.
    """
    pool.check_frame(frame)
    detected = np.asarray(detected, dtype=np.int64)
    if p_pinv is None:
        p_pinv = support_inverse(pool.P[detected])
    factor = isinstance(p_pinv, PilotFactor)
    given = p_pinv.Q.shape if factor else np.shape(p_pinv)
    due = (detected.size, pool.length) if factor else (pool.length, detected.size)
    if given != due:
        kind = "a PilotFactor of a block" if factor else "an array"
        raise ValueError(f"p_pinv is {kind} of shape {given}, but this estimate takes shape {due}")
    return LsEstimate(frame.Y, p_pinv) if factor else frame.Y @ p_pinv


def zf_weights(h_est: np.ndarray | LsEstimate, users: np.ndarray) -> WeightMatrix:
    """Zero-forcing combiner ``pinv(h_est)`` for an estimated channel.

    An ``LsEstimate`` ``H = B Q^H`` is zero-forced as ``Q pinv(B)``: Q has
    orthonormal columns, so that is ``pinv(H)`` for any M and any rank of B,
    and B's singular values are H's.  ``pinv(B)`` is taken at H's own cutoff,
    ``max(M, zeta) 1e-12``, with zeta the rows of Q, so its acceptance test
    keeps an LU or tall-rule inverse only when an SVD of H would keep every
    singular value, and its SVD otherwise keeps exactly what an SVD of H
    would keep.  Neither ``pinv(P)`` nor an SVD of the M x zeta H is formed.
    """
    if isinstance(h_est, LsEstimate):
        pilot = h_est.pilot
        rel_tol = max(h_est.Y.shape[0], pilot.Q.shape[0]) * DEFAULT_PINV_RTOL_SCALE
        return WeightMatrix(pilot.Q @ pinv(h_est.Y @ pilot.R_inv_h, rel_tol), users)
    return WeightMatrix(pinv(h_est), users)


def demod_qpsk(x_est: np.ndarray) -> np.ndarray:
    """Minimum-distance hard decisions onto the unit-power QPSK grid.

    Decisions depend only on the signs of the real and imaginary parts; a
    zero part decides to the positive rail.
    """
    return qpsk_decide(np.ascontiguousarray(x_est, dtype=np.complex128))
