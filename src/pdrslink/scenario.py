"""Synthesis of one grant-free uplink frame, and the determinism contract.

A frame consists of a short detection reference block, the non-orthogonal
pilot block, and a data segment, all passing through the same flat Rayleigh
channel: ``Y_R = H_A R_A + noise``, ``Y = H_A P_A + noise``,
``Y_D = H_A X_D + noise``.  Per-user receive power is unity (open-loop power
control is assumed perfect), so the per-antenna SNR convention is
``sigma2 = 10**(-snr_db/10)``.

Every simulated draw comes from a counter-based stream keyed by (seed,
stream): the pilot pool from ``POOL_STREAM``, the reference codebook from
``CODEBOOK_STREAM`` and trial t's frame from ``TRIAL_STREAM_BASE + t``.
Only the ``synth_*`` functions map those keys to draws, and
``assemble_frame`` fixes the draw order inside a trial stream.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels, linalg
from .rng import RngStream, cgauss

__all__ = [
    "PDRS_MODES",
    "QPSK_POINTS",
    "SystemConfig",
    "PilotPool",
    "PdrsCodebook",
    "ActivityPattern",
    "ReceivedFrame",
    "noise_power",
    "gen_pilot_pool",
    "gen_pdrs_codebook",
    "sample_activity",
    "assemble_frame",
    "POOL_STREAM",
    "CODEBOOK_STREAM",
    "TRIAL_STREAM_BASE",
    "synth_pool",
    "synth_codebook",
    "synth_frame",
]

PDRS_MODES = ("gaussian", "orthogonal-reuse")

#: Gray-mapped unit-power QPSK constellation; bit pair (b0, b1) selects
#: point ((1-2*b0) + 1j*(1-2*b1)) / sqrt(2), index = b0*2 + b1.
QPSK_POINTS = np.array(
    [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=np.complex128
) * np.sqrt(0.5)

_ROW_NORM_TOL = 1e-10

POOL_STREAM = 0
CODEBOOK_STREAM = 1
TRIAL_STREAM_BASE = 16


def noise_power(snr_db: float) -> float:
    """Noise variance for the unit receive-power convention; +inf SNR -> 0."""
    if math.isinf(snr_db) and snr_db > 0:
        return 0.0
    return 10.0 ** (-snr_db / 10.0)


@dataclass
class SystemConfig:
    """Scenario dimensions and simulation controls.

    M antennas, N pilots of length L (L < N), detection reference signals of
    length l, K active users, detected-support size zeta, D data symbols per
    frame.  ``alpha = zeta / K`` is the aggressive-detection coefficient.
    """

    M: int = 128
    N: int = 1000
    L: int = 96
    l: int = 4
    K: int = 96
    zeta: int = 96
    snr_db: float = 4.0
    D: int = 240
    pdrs_mode: str = "gaussian"
    trials: int = 2000
    seed: int = 1
    svd_cost: int = 4

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if not 1 <= self.K <= self.N:
            raise ValueError(f"K must satisfy 1 <= K <= N, got K={self.K}, N={self.N}")
        if not self.L < self.N:
            raise ValueError(f"pilot length must satisfy L < N, got L={self.L}, N={self.N}")
        if self.L < 1 or self.l < 1:
            raise ValueError(f"L and l must be >= 1, got L={self.L}, l={self.l}")
        if not 1 <= self.zeta <= self.N:
            raise ValueError(f"zeta must satisfy 1 <= zeta <= N, got {self.zeta}")
        if self.D < 0:
            raise ValueError(f"D must be >= 0, got {self.D}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.snr_db > -3000.0:  # nan too; far below this, sigma2 overflows a float
            raise ValueError(f"snr_db must be above -3000 dB or +inf, got {self.snr_db}")
        if self.pdrs_mode not in PDRS_MODES:
            raise ValueError(f"pdrs_mode must be one of {PDRS_MODES}, got {self.pdrs_mode!r}")
        if self.svd_cost < 1:
            raise ValueError(f"svd_cost must be >= 1, got {self.svd_cost}")
        if not 0 <= self.seed < 2**64:  # the seed keys a uint64 Philox stream
            raise ValueError(f"seed must satisfy 0 <= seed < 2**64, got {self.seed}")

    @property
    def alpha(self) -> float:
        return self.zeta / self.K

    @property
    def sigma2(self) -> float:
        return noise_power(self.snr_db)

    def with_zeta_from_alpha(self, alpha: float) -> "SystemConfig":
        zeta = alpha * self.K
        if not math.isfinite(zeta):  # no int to round it to
            raise ValueError(f"zeta = alpha * K must be finite, got alpha={alpha}, K={self.K}")
        return replace(self, zeta=int(round(zeta)))


def _validate_unit_rows(mat: np.ndarray, target: float, what: str) -> None:
    norms = _kernels.row_norms_sq(mat)
    worst = float(np.max(np.abs(norms - target)))
    if not worst <= _ROW_NORM_TOL:  # a nan entry fails too
        raise ValueError(f"{what} rows must have squared norm {target} (worst error {worst:.3g})")


@dataclass
class PilotPool:
    """Non-orthogonal pilot pool; row i is the length-L pilot of user i."""

    P: np.ndarray

    def __post_init__(self):
        self.P = linalg.as_cmatrix(self.P)
        _validate_unit_rows(self.P, float(self.P.shape[1]), "pilot pool")

    @property
    def n_pilots(self) -> int:
        return self.P.shape[0]

    @property
    def length(self) -> int:
        return self.P.shape[1]


@dataclass
class PdrsCodebook:
    """Detection reference-signal codebook; rows may repeat in orthogonal-reuse mode."""

    R: np.ndarray
    mode: str = "gaussian"

    def __post_init__(self):
        self.R = linalg.as_cmatrix(self.R)
        if self.mode not in PDRS_MODES:
            raise ValueError(f"mode must be one of {PDRS_MODES}, got {self.mode!r}")
        _validate_unit_rows(self.R, float(self.R.shape[1]), "codebook")

    @property
    def length(self) -> int:
        return self.R.shape[1]


@dataclass
class ActivityPattern:
    """Sorted indices of the K active users out of N."""

    active: np.ndarray
    n_pilots: int

    def __post_init__(self):
        self.active = np.asarray(self.active, dtype=np.int64)
        if self.active.ndim != 1:
            raise ValueError("active must be a 1-D index array")
        if self.active.size:
            if not np.all(np.diff(self.active) > 0):
                raise ValueError("active indices must be sorted and distinct")
            if self.active[0] < 0 or self.active[-1] >= self.n_pilots:
                raise ValueError("active indices out of range")

    @property
    def K(self) -> int:
        return self.active.size

    def flags(self) -> np.ndarray:
        a = np.zeros(self.n_pilots, dtype=np.int8)
        a[self.active] = 1
        return a


@dataclass
class ReceivedFrame:
    """One received frame plus the ground truth that produced it.

    Per-user truth covers the active users only, in ``ground_truth.active``
    order: ``H`` is M x K and ``X_D`` is K x D.  Both are None for frames
    loaded from disk (the wire format carries only what a detector needs
    plus the true support).
    """

    Y_R: np.ndarray
    Y: np.ndarray
    Y_D: np.ndarray
    ground_truth: ActivityPattern
    sigma2: float
    H: np.ndarray | None = None
    X_D: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        m = self.Y.shape[0]
        if self.Y_R.shape[0] != m or self.Y_D.shape[0] != m:
            raise ValueError("Y_R, Y, Y_D must share the antenna dimension")
        if self.H is not None and self.H.shape != (m, self.ground_truth.K):
            raise ValueError("H must be M x K when present")
        if self.X_D is not None and self.X_D.shape != (self.ground_truth.K, self.Y_D.shape[1]):
            raise ValueError("X_D must be K x D when present")
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ValueError(f"sigma2 must be finite and >= 0, got {self.sigma2}")

    @property
    def M(self) -> int:
        return self.Y.shape[0]


def gen_pilot_pool(cfg: SystemConfig, rng: RngStream) -> PilotPool:
    """Random complex-Gaussian pilot pool with every row rescaled to ||p||^2 = L."""
    P = cgauss(cfg.N, cfg.L, 1.0, rng)
    P *= (np.sqrt(cfg.L) / np.sqrt(_kernels.row_norms_sq(P)))[:, None]
    return PilotPool(P)


def gen_pdrs_codebook(cfg: SystemConfig, rng: RngStream) -> PdrsCodebook:
    """Detection reference-signal codebook.

    gaussian mode draws i.i.d. complex-Gaussian rows rescaled to ||r||^2 = l;
    orthogonal-reuse mode assigns each user one of l mutually orthogonal
    unit-modulus base codes (scaled DFT rows), repeating codes as needed.
    """
    if cfg.pdrs_mode == "gaussian":
        R = cgauss(cfg.N, cfg.l, 1.0, rng)
        R *= (np.sqrt(cfg.l) / np.sqrt(_kernels.row_norms_sq(R)))[:, None]
        return PdrsCodebook(R, mode="gaussian")
    # orthogonal-reuse: rows of the l x l DFT matrix have squared norm l and
    # are mutually orthogonal
    j, k = np.meshgrid(np.arange(cfg.l), np.arange(cfg.l), indexing="ij")
    base = np.exp(-2j * np.pi * j * k / cfg.l)
    picks = rng.gen.integers(0, cfg.l, size=cfg.N)
    return PdrsCodebook(base[picks], mode="orthogonal-reuse")


def sample_activity(cfg: SystemConfig, rng: RngStream) -> ActivityPattern:
    """Uniformly random K-subset of the N users, sorted ascending."""
    if cfg.K > cfg.N:
        raise ValueError(f"K={cfg.K} exceeds pool size N={cfg.N}")
    active = np.sort(rng.gen.choice(cfg.N, size=cfg.K, replace=False))
    return ActivityPattern(active, cfg.N)


def assemble_frame(
    cfg: SystemConfig,
    pool: PilotPool,
    codebook: PdrsCodebook,
    activity: ActivityPattern,
    rng: RngStream,
) -> ReceivedFrame:
    """Build one noisy received frame.

    Only the active users' channel is drawn: M x K, i.i.d. CN(0, 1) (flat
    Rayleigh, shared by all three segments), column k belonging to user
    ``activity.active[k]``; data symbols are uniform unit-power QPSK.  Draw
    order on the stream is fixed (channel, data symbols, then noise for the
    reference, pilot, and data blocks) and is part of the determinism contract.
    """
    sigma2 = cfg.sigma2
    act = activity.active
    H = cgauss(cfg.M, activity.K, 1.0, rng)
    X_D = QPSK_POINTS[rng.gen.integers(0, 4, size=(activity.K, cfg.D))]
    Y_R = H @ codebook.R[act]
    Y = H @ pool.P[act]
    Y_D = H @ X_D
    if sigma2 > 0.0:
        s = np.sqrt(sigma2)
        Y_R = Y_R + s * cgauss(cfg.M, cfg.l, 1.0, rng)
        Y = Y + s * cgauss(cfg.M, cfg.L, 1.0, rng)
        if cfg.D > 0:
            Y_D = Y_D + s * cgauss(cfg.M, cfg.D, 1.0, rng)
    return ReceivedFrame(Y_R=Y_R, Y=Y, Y_D=Y_D, ground_truth=activity, sigma2=sigma2, H=H, X_D=X_D)


def synth_pool(cfg: SystemConfig) -> PilotPool:
    """The pilot pool of ``cfg.seed``, drawn from stream ``POOL_STREAM``."""
    return gen_pilot_pool(cfg, RngStream(cfg.seed, POOL_STREAM))


def synth_codebook(cfg: SystemConfig) -> PdrsCodebook:
    """The reference codebook of ``cfg.seed``, drawn from stream ``CODEBOOK_STREAM``."""
    return gen_pdrs_codebook(cfg, RngStream(cfg.seed, CODEBOOK_STREAM))


def synth_frame(
    cfg: SystemConfig, pool: PilotPool, codebook: PdrsCodebook, t: int
) -> ReceivedFrame:
    """Trial ``t``'s frame: stream ``TRIAL_STREAM_BASE + t`` draws the active set, then the rest."""
    rng = RngStream(cfg.seed, TRIAL_STREAM_BASE + t)
    activity = sample_activity(cfg, rng)
    return assemble_frame(cfg, pool, codebook, activity, rng)
