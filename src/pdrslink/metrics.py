"""Detection metrics, link metrics, and the multiplication-count ledger.

Complexity conventions: one complex multiplication is the unit; a product of
an (a x b) by a (b x c) matrix costs a*b*c; a pseudo-inverse of an (a x b)
matrix with a >= b costs svd_cost*a*b**2 + b**3 (svd_cost models the
iterative part of the SVD and is configurable); a squared modulus costs one
unit.  Real-valued multiplications (the active-power recovery solve) are
tallied separately and never mixed with the complex count.
"""

from dataclasses import dataclass, field

import numpy as np

from ._kernels import abs2, row_norms_sq
from .scenario import ActivityPattern, SystemConfig

__all__ = [
    "SINR_CAP_DB",
    "matmul_mults",
    "pinv_mults",
    "ComplexityModel",
    "complexity_model",
    "TrialMetrics",
    "detection_metrics",
    "post_sinr",
    "symbol_errors",
]

#: Post-combining SINR clamp; +cap is reached only at exactly zero
#: interference-plus-noise power, -cap only at zero signal power.
SINR_CAP_DB = 300.0


def matmul_mults(a: int, b: int, c: int) -> int:
    """Cost of (a x b) @ (b x c)."""
    return a * b * c


def pinv_mults(rows: int, cols: int, svd_cost: int = 4) -> int:
    """Cost of a pseudo-inverse; orientation does not matter."""
    m, n = (rows, cols) if rows >= cols else (cols, rows)
    return svd_cost * m * n * n + n * n * n


@dataclass(frozen=True)
class ComplexityModel:
    """Closed-form per-frame multiplication budget for one detector.

    detect_mults covers activity detection; weight_mults covers the
    decorrelating weight read-out for detected users (zero for detectors that
    hand off to a separate channel-estimation stage); real_mults covers the
    real-valued power-recovery solve.  The weight read-out and the real solve
    are reported in their own columns rather than folded into detect_mults,
    keeping the detection-stage comparison uniform across detectors.
    One-time precomputations tied to the pilot pool (codebooks, the Gram
    pseudo-inverse) are amortized over frames and excluded.
    """

    detect_mults: int
    weight_mults: int = 0
    real_mults: int = 0


def complexity_model(cfg: SystemConfig, detector: str) -> ComplexityModel:
    """Modeled per-frame multiplication counts for one detector."""
    M, N, L, ell, zeta = cfg.M, cfg.N, cfg.L, cfg.l, cfg.zeta
    c = cfg.svd_cost
    if detector == "pdrs":
        # pinv(Y), T = pinv(Y) Y_R, the reconstructions P T, their residual norms
        detect = pinv_mults(M, L, c) + matmul_mults(L, M, ell) + matmul_mults(N, L, ell) + N * ell
        return ComplexityModel(detect, weight_mults=zeta * L * M)
    if detector == "bomp":
        # per pick t: correlation and powers; while the span is short of C^L,
        # Gram-Schmidt against t-1 basis vectors (two passes, the norms of
        # the pilot and of its remainder, scale),
        # then the deflation Y - (Y Q) Q^H, which is free once rank t = L
        detect = 0
        for t in range(1, zeta + 1):
            detect += matmul_mults(M, L, N) + M * N
            if t <= L:
                detect += 4 * L * (t - 1) + 3 * L
            if t < L:
                detect += 2 * t * L * M
        return ComplexityModel(detect)
    if detector == "fpr":
        detect = matmul_mults(M, L, N) + M * N
        return ComplexityModel(detect, real_mults=N * N)
    if detector == "oracle":
        return ComplexityModel(0)
    raise ValueError(f"unknown detector {detector!r}")


@dataclass
class TrialMetrics:
    """Per-trial detection and link tallies.

    Counts satisfy true_pos + miss = K and true_pos + false_pos = zeta.
    Symbol errors and post-combining SINRs cover true positives only: a
    falsely detected stream has no ground truth, and in a real system it is
    discarded by the integrity check of the upper layer.
    """

    true_pos: int
    false_pos: int
    miss: int
    K: int
    zeta: int
    sym_errors: int = 0
    sym_total: int = 0
    post_sinr_db: np.ndarray = field(default_factory=lambda: np.zeros(0))
    mult_count: int = 0
    wall_ms: float = 0.0

    def __post_init__(self):
        if self.true_pos + self.miss != self.K:
            raise ValueError("true_pos + miss must equal K")
        if self.true_pos + self.false_pos != self.zeta:
            raise ValueError("true_pos + false_pos must equal zeta")

    @property
    def per_user_miss_rate(self) -> float:
        return self.miss / self.K


def detection_metrics(result, ground_truth: ActivityPattern) -> TrialMetrics:
    """Score a ``DetectionResult``'s support against the truth (detection fields only)."""
    detected = result.detected
    hits = np.intersect1d(detected, ground_truth.active, assume_unique=True)
    true_pos = int(hits.size)
    return TrialMetrics(
        true_pos=true_pos,
        false_pos=int(detected.size - true_pos),
        miss=int(ground_truth.K - true_pos),
        K=ground_truth.K,
        zeta=int(detected.size),
    )


def post_sinr(
    W: np.ndarray,
    users: np.ndarray,
    H: np.ndarray,
    active: np.ndarray,
    sigma2: float,
) -> np.ndarray:
    """Post-combining SINR per weight row, in dB.

    ``H`` is the active users' channel, column k belonging to ``active[k]``.
    Row i recovers user ``users[i]`` (which must be active); its SINR is
    |w_i h_n|^2 over the power leaked from the other active users plus
    sigma2 * ||w_i||^2, clamped to +-SINR_CAP_DB.
    """
    users = np.asarray(users, dtype=np.int64)
    active = np.asarray(active, dtype=np.int64)
    if H.shape[1] != active.size:
        raise ValueError(f"H must have one column per active user: H {H.shape}, active {active.shape}")
    if W.shape[0] != users.size:
        raise ValueError("one weight row per user is required")
    if users.size == 0:
        return np.zeros(0, dtype=np.float64)
    pos = np.searchsorted(active, users)
    if np.any(pos >= active.size) or np.any(active[np.minimum(pos, active.size - 1)] != users):
        raise ValueError("every scored user must be active")

    G = abs2(W @ H)
    sig = G[np.arange(users.size), pos]
    interf = np.sum(G, axis=1) - sig
    denom = interf + sigma2 * row_norms_sq(W)
    lo = 10.0 ** (-SINR_CAP_DB / 10.0)
    hi = 10.0 ** (SINR_CAP_DB / 10.0)
    ratio = np.where(denom > 0, sig / np.maximum(denom, np.finfo(float).tiny), hi)
    np.clip(ratio, lo, hi, out=ratio)
    return 10.0 * np.log10(ratio)


def symbol_errors(decided: np.ndarray, sent: np.ndarray) -> int:
    """Hard-decision symbol errors; inputs must use the same constellation."""
    if decided.shape != sent.shape:
        raise ValueError(f"shape mismatch {decided.shape} vs {sent.shape}")
    return int(np.count_nonzero(decided != sent))
