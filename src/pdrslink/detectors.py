"""Activity detectors operating on one received frame.

Every detector returns a sorted detected support plus the per-user ranking
scores and the exact multiplication tally of the run.  The three that rank
users (PDRS, BOMP, FPR) detect exactly ``zeta`` users; the genie
``oracle_support`` returns the ``K`` true users whatever ``zeta`` is, at a
cost of 0.  Tie-breaking is deterministic: equal scores resolve to the
lower user index.  A non-finite score (a frame or an FPR Gram
pseudo-inverse holding nan or inf) is never ranked: the detector raises a
ValueError instead.
"""

from dataclasses import dataclass, field

import numpy as np

from ._kernels import col_norms_sq, residual_row_norms
from .linalg import orthonormal_step, pinv, squared_gram_pinv
from .metrics import matmul_mults, pinv_mults
from .scenario import PdrsCodebook, PilotPool, ReceivedFrame, SystemConfig

__all__ = [
    "DetectionResult",
    "detect_pdrs_dwe",
    "detect_bomp",
    "detect_fpr",
    "fpr_gram_pinv",
    "oracle_support",
]


@dataclass
class DetectionResult:
    """Detected support (sorted), ranking scores, and the operation tally."""

    detected: np.ndarray
    scores: np.ndarray
    mults: int
    real_mults: int = 0
    y_pinv: np.ndarray | None = field(default=None, repr=False)


def _pick(scores: np.ndarray, zeta: int, largest: bool) -> np.ndarray:
    """Sorted indices of the zeta smallest (or largest) scores, ties to the lower index."""
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-finite detection score: the frame holds nan or inf")
    order = np.argsort(-scores if largest else scores, kind="stable")
    return np.sort(order[:zeta])


#: Pilots correlated at a time by ``_correlation_powers``: a multiple of the
#: 4-pilot unroll of OpenBLAS's complex GEMM kernels, so that every block's
#: columns keep the bits of the full product's on the kernels README
#: "Determinism" names.
_CORRELATION_BLOCK = 256


def _correlation_powers(Z: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Correlation power ``sum_i |(Z P^H)[i, n]|^2`` of every pilot row ``n`` of ``P``.

    The pool is read ``_CORRELATION_BLOCK`` pilots at a time, as
    ``col_norms_sq(Z.conj() @ P[block].T)``: that product is the conjugate of
    those columns of ``Z P^H``, bit for bit, and a conjugate has the same
    squared norms, so the largest temporary is M x block, never M x N.  A
    last block of one pilot joins the one before it, since numpy would run
    it as a matrix-vector product, whose sums round differently.  With BLAS
    on one thread the powers are the full product's bit for bit under
    OpenBLAS's ``SkylakeX`` and ``Sandybridge`` kernels, and under
    ``Haswell`` when M mod 6 is 0 to 3; no split of the pool keeps them at
    other M there, since that kernel rounds the last antennas of a product's
    leading pilots otherwise than the same pilots further in.
    """
    N = P.shape[0]
    Z_conj = Z.conj()
    power = np.empty(N)
    bounds = [*range(0, max(N - 1, 1), _CORRELATION_BLOCK), N]
    for start, stop in zip(bounds, bounds[1:]):
        power[start:stop] = col_norms_sq(Z_conj @ P[start:stop].T)
    return power


def detect_pdrs_dwe(
    frame: ReceivedFrame,
    pool: PilotPool,
    codebook: PdrsCodebook,
    zeta: int,
    svd_cost: int = SystemConfig.svd_cost,
) -> DetectionResult:
    """Reference-signal reconstruction detector.

    The decorrelator seed ``T = pinv(Y) @ Y_R`` maps every candidate pilot to
    a reconstructed reference signal; active users reconstruct theirs almost
    exactly, so the zeta smallest residuals ``||p_n @ T - r_n||^2`` form the
    detected support.  The cached ``pinv(Y)`` is reusable for the weight
    read-out.  A codebook ``R`` that is not N x l, for the pool's N and
    ``Y_R``'s l, raises a ValueError that names both shapes, and a pool
    whose pilot length is not the frame's L one that names both lengths.
    """
    Y, Y_R = frame.Y, frame.Y_R
    M, L = Y.shape
    pool.check_frame(frame)
    N, ell = codebook.R.shape
    if (N, ell) != (pool.n_pilots, Y_R.shape[1]):
        raise ValueError(
            f"codebook R has shape {(N, ell)}, but the pool and Y_R take {(pool.n_pilots, Y_R.shape[1])}"
        )
    if not 1 <= zeta <= N:
        raise ValueError(f"zeta must be in [1, {N}], got {zeta}")
    if not np.all(np.isfinite(Y)):
        raise ValueError("frame block Y holds nan or inf")

    y_pinv = pinv(Y)
    mults = pinv_mults(M, L, svd_cost)
    T = y_pinv @ Y_R
    mults += matmul_mults(L, M, ell)
    recon = pool.P @ T
    mults += matmul_mults(N, L, ell)
    scores = residual_row_norms(recon, codebook.R)
    mults += N * ell

    detected = _pick(scores, zeta, largest=False)
    return DetectionResult(detected, scores, mults, y_pinv=y_pinv)


def detect_bomp(
    frame: ReceivedFrame,
    pool: PilotPool,
    zeta: int,
    svd_cost: int = SystemConfig.svd_cost,
) -> DetectionResult:
    """Block orthogonal matching pursuit over pilot blocks.

    Each pick of the pursuit correlates the running residual with every
    pilot, admits the strongest unselected user, and deflates the residual by
    the least-squares fit of the selected pilots, ``Z = Y - Y pinv(Ps) Ps``.
    That projection is kept as an incremental QR: the selected pilots'
    conjugates are orthonormalised one at a time into ``Q`` (Gram-Schmidt
    with one reorthogonalisation pass) and ``Z = Y - (Y Q) Q^H``.  A pilot
    already in the span of ``Q`` (``linalg.orthonormal_step``'s cutoff)
    leaves the residual unchanged, but costs its projection.  The pursuit
    ends after zeta picks or once the selected pilots span C^L, whichever
    comes first: the residual would then be exactly zero and every unselected
    user would score 0, so with zeta > L the remaining picks are the lowest
    unselected indices (the tie rule), scored 0 and with no correlation run.
    Every pick is one ``argmax`` over the powers with admitted users masked to
    ``-inf``; a non-finite winning power, at any pursued pick, raises ValueError.
    The powers come from ``_correlation_powers``, so no pick forms the
    M x N correlation, and a picked pilot enters ``Q`` as ``P[best].conj()``.
    A pool whose pilot length is not the frame's L raises a ValueError that
    names both.  ``svd_cost`` has no effect (BOMP computes no
    pseudo-inverse); it stays only because ``pdrsbench/tracing.py`` passes
    it by position, as ``tests/test_bench_contract.py`` checks.
    """
    Y = frame.Y
    M, L = Y.shape
    N = pool.n_pilots
    pool.check_frame(frame)
    if not 1 <= zeta <= N:
        raise ValueError(f"zeta must be in [1, {N}], got {zeta}")
    mults = 0

    Q = np.empty((L, min(zeta, L)), dtype=np.complex128)
    rank = 0
    Z = Y
    selected: list[int] = []
    scores = np.zeros(N, dtype=np.float64)
    while len(selected) < zeta and rank < L:
        power = _correlation_powers(Z, pool.P)
        mults += matmul_mults(M, L, N) + M * N
        # -inf masks admitted users; argmax returns the first nan or +inf
        power[selected] = -np.inf
        best = int(np.argmax(power))
        if not np.isfinite(power[best]):
            raise ValueError("non-finite detection score: the frame holds nan or inf")
        scores[best] = power[best]
        selected.append(best)
        q = orthonormal_step(Q[:, :rank], pool.P[best].conj())
        mults += 4 * L * rank + 2 * L
        if q is None:
            continue
        Q[:, rank] = q
        mults += L
        rank += 1
        if rank < L:
            Qr = Q[:, :rank]
            Z = Y - (Y @ Qr) @ Qr.conj().T
            mults += 2 * matmul_mults(M, L, rank)
    fill = np.setdiff1d(np.arange(N), selected, assume_unique=True)[: zeta - len(selected)]
    detected = np.sort(np.concatenate((np.asarray(selected, dtype=np.int64), fill)))
    return DetectionResult(detected, scores, mults)


def fpr_gram_pinv(pool: PilotPool) -> np.ndarray:
    """Pseudo-inverse of the pool's squared-modulus pilot Gram ``|P P^H|^2``, read-only.

    One-time precomputation per pilot pool; the per-frame ledger charges only
    its application, and every trial thread shares the result, so it cannot
    be written.  ``linalg.squared_gram_pinv`` forms and inverts the Gram, and
    states its rule and fallback.
    """
    x = squared_gram_pinv(pool.P)
    x.flags.writeable = False
    return x


def detect_fpr(
    frame: ReceivedFrame,
    pool: PilotPool,
    zeta: int,
    gram_pinv: np.ndarray,
) -> DetectionResult:
    """Matched-filter power recovery detector.

    Matched filtering gives per-user powers contaminated by pilot
    cross-correlations; multiplying by the precomputed Gram pseudo-inverse
    unmixes them, and the zeta largest recovered powers form the support.
    The matched-filter powers come from ``_correlation_powers``, so neither
    the M x N matched filter nor a conjugate of the pool is formed.  A pool
    whose pilot length is not the frame's L raises a ValueError that names
    both.  The unmixing solve is real-valued and tallied
    separately; ``gram_pinv`` is ``fpr_gram_pinv(pool)``, an N x N float64
    ndarray, and anything else (``None`` included) raises a ValueError that
    names it.
    """
    Y = frame.Y
    M, L = Y.shape
    N = pool.n_pilots
    pool.check_frame(frame)
    if not 1 <= zeta <= N:
        raise ValueError(f"zeta must be in [1, {N}], got {zeta}")
    if not isinstance(gram_pinv, np.ndarray):
        raise ValueError(f"gram_pinv must be an ndarray, got {type(gram_pinv).__name__}")
    if gram_pinv.shape != (N, N):
        raise ValueError(f"gram_pinv must be {N}x{N}, got {gram_pinv.shape}")
    if gram_pinv.dtype != np.float64:
        raise ValueError(
            f"gram_pinv must be the float64 Gram pseudo-inverse, got {gram_pinv.dtype}"
        )

    p_mf = _correlation_powers(Y, pool.P)
    with np.errstate(over="ignore"):  # an overflow is named below, not warned of by numpy
        p_rec = gram_pinv @ p_mf
    if not np.all(np.isfinite(p_rec)):
        # only a failed frame pays for scanning the inputs to name the culprit
        if not np.all(np.isfinite(Y)):
            culprit = "frame block Y holds nan or inf"
        elif not np.all(np.isfinite(gram_pinv)):
            culprit = "gram_pinv holds nan or inf"
        else:
            culprit = "the recovered powers overflow"
        raise ValueError(f"non-finite detection score: {culprit}")

    detected = _pick(p_rec, zeta, largest=True)
    return DetectionResult(detected, p_rec, matmul_mults(M, L, N) + M * N, real_mults=N * N)


def oracle_support(frame: ReceivedFrame) -> DetectionResult:
    """Genie detector: returns the true support at zero cost."""
    truth = frame.ground_truth
    return DetectionResult(truth.active.copy(), truth.flags().astype(np.float64), 0)
