"""Receive combining and data recovery for a detected support.

Two combiner families are provided: the decorrelating weight read-out, which
derives each detected user's weight row directly from its pilot and the
pseudo-inverse of the pilot block, and the conventional two-stage chain that
first estimates the channel by least squares and then zero-forces it.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import qpsk_decide
from .linalg import pinv
from .scenario import PilotPool, ReceivedFrame

__all__ = [
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


def ls_channel_estimate(
    frame: ReceivedFrame,
    pool: PilotPool,
    detected: np.ndarray,
    p_pinv: np.ndarray | None = None,
) -> np.ndarray:
    """Least-squares channel estimate ``Y @ pinv(P_detected)`` (M x zeta).

    ``p_pinv`` accepts ``pinv(pool.P[detected])`` already computed, as
    ``dwe_weights`` accepts ``y_pinv``: the pilot block depends only on the
    pool and the support, so one trial's frames at several points can share
    it.  One of any other shape than L x zeta raises a ValueError that names
    both shapes.
    """
    detected = np.asarray(detected, dtype=np.int64)
    if p_pinv is None:
        p_pinv = pinv(pool.P[detected])
    elif p_pinv.shape != (pool.length, detected.size):
        raise ValueError(
            f"p_pinv has shape {p_pinv.shape}, but pinv(P[detected]) has shape "
            f"{(pool.length, detected.size)}"
        )
    return frame.Y @ p_pinv


def zf_weights(h_est: np.ndarray, users: np.ndarray) -> WeightMatrix:
    """Zero-forcing combiner ``pinv(h_est)`` for an estimated channel."""
    return WeightMatrix(pinv(h_est), users)


def demod_qpsk(x_est: np.ndarray) -> np.ndarray:
    """Minimum-distance hard decisions onto the unit-power QPSK grid.

    Decisions depend only on the signs of the real and imaginary parts; a
    zero part decides to the positive rail.
    """
    return qpsk_decide(np.ascontiguousarray(x_est, dtype=np.complex128))
