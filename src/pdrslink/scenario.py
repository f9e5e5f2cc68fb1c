"""What a run is and how it draws: the config, frame synthesis and the determinism contract.

A frame consists of a short detection reference block, the non-orthogonal
pilot block, and a data segment, all passing through the same flat Rayleigh
channel: ``Y_R = H_A R_A + noise``, ``Y = H_A P_A + noise``,
``Y_D = H_A X_D + noise``.  Per-user receive power is unity (open-loop power
control is assumed perfect), so the per-antenna SNR convention is
``sigma2 = 10**(-snr_db/10)``.  A run is a ``SystemConfig``: frozen, and
checked field by field when it is built, so a whole-number field holds a
Python int and ``snr_db`` a float.

Determinism contract, version 2.  Every simulated draw comes from an
``RngStream``: a Philox4x64-10 generator keyed by the pair ``(seed, stream)``,
two whole numbers in ``[0, 2**64)``, so a pair yields the same sequence in
any thread or process.  ``cgauss`` draws a rows x cols block of standard
normals for the real parts, then one for the imaginary parts, and scales the
result by ``sqrt(0.5)`` and then by ``sqrt(variance)``.  Stream
``POOL_STREAM`` (0) draws the N x L pilot pool, stream ``CODEBOOK_STREAM``
(1) the reference codebook (N x l normals, or N base-code picks in
orthogonal-reuse mode), and stream ``TRIAL_STREAM_BASE + t`` (16 + t)
everything in trial t, in this order: the active set, the M x K channel of
the active users, the data symbols, then the unit-variance noise of the
reference, pilot and data blocks (no data noise when D = 0).  The noise is
drawn at every SNR, infinite SNR included, as the last draws of the stream;
a frame adds ``noise * sqrt(sigma2)`` only when ``sigma2 > 0``.  So the
frames of one trial at different SNRs share every draw, and a sweep draws
once per trial and ``draw_key`` and forms each point's frame in new arrays.
Only ``synth_pool``, ``synth_codebook`` and ``draw_trial`` map keys to
draws, and ``draw_frame`` fixes the order after the active set; trial t's
frame at a noise power is ``draw_trial(cfg, pool, codebook, t).frame(sigma2)``.
"""

import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import _kernels, linalg

__all__ = [
    "RngStream",
    "cgauss",
    "PDRS_MODES",
    "QPSK_POINTS",
    "SystemConfig",
    "PilotPool",
    "PdrsCodebook",
    "ActivityPattern",
    "ReceivedFrame",
    "FrameDraw",
    "noise_power",
    "gen_pilot_pool",
    "gen_pdrs_codebook",
    "sample_activity",
    "draw_frame",
    "assemble_frame",
    "POOL_STREAM",
    "CODEBOOK_STREAM",
    "TRIAL_STREAM_BASE",
    "synth_pool",
    "synth_codebook",
    "draw_key",
    "draw_trial",
]

PDRS_MODES = ("gaussian", "orthogonal-reuse")

#: Gray-mapped unit-power QPSK constellation; bit pair (b0, b1) selects
#: point ((1-2*b0) + 1j*(1-2*b1)) / sqrt(2), index = b0*2 + b1.
QPSK_POINTS = np.array(
    [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=np.complex128
) * np.sqrt(0.5)

_ROW_NORM_TOL = 1e-10

#: The most entries numpy takes in one array of 16 B entries (complex128).
_MAX_ENTRIES = int(np.iinfo(np.intp).max) // 16

#: The (rows, cols) fields of each array a draw forms from the config's sizes:
#: the frame's blocks, the channel and data, then the pool, codebook and base codes.
_DRAWN_ARRAYS = (("M", "L"), ("M", "l"), ("M", "D"), ("M", "K"), ("K", "D"),
                 ("N", "L"), ("N", "l"), ("l", "l"))

POOL_STREAM = 0
CODEBOOK_STREAM = 1
TRIAL_STREAM_BASE = 16


def _whole(name: str, value) -> int:
    """``value`` as a Python int.

    An int, a numpy integer or a float with no fraction passes; anything else
    raises a ValueError that names ``name``.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} takes whole numbers, got {value!r}")


@dataclass
class RngStream:
    """One single-owner random substream identified by (seed, stream_id).

    ``seed`` and ``stream_id`` are whole numbers in ``[0, 2**64)``, stored as
    ints.  ``gen`` is the Philox generator keyed by the pair; it is built on
    construction and cannot be passed in.  Instances must not be shared
    mid-sequence; create one per trial (or per fixed purpose such as
    pilot-pool generation) instead.
    """

    seed: int
    stream_id: int = 0
    gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            value = _whole(name, getattr(self, name))
            if not 0 <= value < 2**64:  # the pair is a uint64 Philox key
                raise ValueError(f"{name} must satisfy 0 <= {name} < 2**64, got {value}")
            setattr(self, name, value)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key))


def cgauss(rows: int, cols: int, variance: float, rng: RngStream) -> np.ndarray:
    """Sample i.i.d. circularly-symmetric complex Gaussian entries.

    Each entry has mean 0 and E|z|^2 = variance (real and imaginary parts
    each carry variance/2).  The underlying standard-normal draws do not
    depend on ``variance``, so two calls on identical streams with different
    variances differ exactly by the scale factor sqrt(v2/v1).
    """
    if rows <= 0 or cols <= 0:
        raise ValueError(f"dimensions must be positive, got {rows}x{cols}")
    if not variance > 0:
        raise ValueError(f"variance must be positive, got {variance}")
    g = rng.gen
    out = np.empty((rows, cols), dtype=np.complex128)
    out.real = g.standard_normal((rows, cols))
    out.imag = g.standard_normal((rows, cols))
    out *= np.sqrt(0.5)
    out *= np.sqrt(variance)
    return out


def noise_power(snr_db: float) -> float:
    """Noise variance for the unit receive-power convention; +inf SNR -> 0."""
    if math.isinf(snr_db) and snr_db > 0:
        return 0.0
    return 10.0 ** (-snr_db / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """Scenario dimensions and simulation controls.

    M antennas, N pilots of length L (L < N), detection reference signals of
    length l, K active users, detected-support size zeta, D data symbols per
    frame.  ``alpha = zeta / K`` is the aggressive-detection coefficient.
    Each field takes its declared type on construction: an ``int`` field
    takes a whole number (``16.0`` becomes ``16``, ``16.5`` is rejected) and
    ``snr_db`` a real number, stored as a float.  Each array a draw forms
    from these sizes (``_DRAWN_ARRAYS``) must fit numpy's largest array at
    16 B an entry; one that does not raises a ValueError naming its two fields.
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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is int:
                value = _whole(f.name, value)
            elif f.type is float:
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise ValueError(f"{f.name} takes real numbers, got {value!r}")
                value = float(value)
            object.__setattr__(self, f.name, value)
        for a, b in _DRAWN_ARRAYS:  # else the draw fails in numpy, naming no field
            rows, cols = getattr(self, a), getattr(self, b)
            if rows * cols > _MAX_ENTRIES:
                raise ValueError(f"{a} x {b} sizes a drawn array, so {a} * {b} must be <= {_MAX_ENTRIES}, "
                                 f"got {a}={rows}, {b}={cols}")
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
        whole = int(round(zeta))
        if not 1 <= whole <= self.N:  # the config's own check would name neither alpha nor K
            raise ValueError(f"zeta = round(alpha * K) = round({alpha} * {self.K}) = {whole} "
                             f"must lie in [1, N={self.N}]")
        return replace(self, zeta=whole)


def _validate_unit_rows(mat: np.ndarray, target: float, what: str) -> None:
    norms = _kernels.row_norms_sq(mat)
    worst = float(np.max(np.abs(norms - target)))
    if not worst <= _ROW_NORM_TOL * target:  # relative, as rounding grows with it; nan fails
        raise ValueError(f"{what} rows must have squared norm {target} (worst error {worst:.3g})")


def _owned_read_only(a) -> np.ndarray:
    """``a`` as a read-only complex matrix that no caller can write through.

    A read-only array that owns its data is taken as it is: its holder has
    given up writing to it, as ``_unit_rows`` does, which spares the copy:
    an anchor pool copied beside the array it was drawn into raised the peak
    RSS of a one-point run by about 1.5 MB.
    Anything else is copied, so a caller's own array stays writeable.
    """
    m = linalg.as_cmatrix(a)
    if m.flags.writeable or not m.flags.owndata:
        m = m.copy()
        m.flags.writeable = False
    return m


@dataclass(frozen=True)
class PilotPool:
    """Non-orthogonal pilot pool; row i is the length-L pilot of user i.

    Frozen, as ``SystemConfig`` is, and ``P`` is a read-only array that the
    pool owns (a copy, unless it is handed a read-only array that owns its
    data), so the caller's array stays writeable and the pool never
    changes: every trial thread shares it, and reads it as it is; no
    conjugate or transpose of it is kept.
    """

    P: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "P", _owned_read_only(self.P))
        _validate_unit_rows(self.P, float(self.P.shape[1]), "pilot pool")

    @property
    def n_pilots(self) -> int:
        return self.P.shape[0]

    @property
    def length(self) -> int:
        return self.P.shape[1]

    def check_frame(self, frame: "ReceivedFrame") -> None:
        """Raise a ValueError that names both lengths unless ``frame``'s L is ``length``."""
        L = frame.Y.shape[1]
        if L != self.length:
            raise ValueError(f"the pool's pilots have length {self.length}, but the frame's L is {L}")


@dataclass(frozen=True)
class PdrsCodebook:
    """Detection reference-signal codebook; rows may repeat in orthogonal-reuse mode.

    Frozen, and ``R`` is a read-only array that the codebook owns, as
    ``PilotPool.P`` is.
    """

    R: np.ndarray
    mode: str = "gaussian"

    def __post_init__(self):
        object.__setattr__(self, "R", _owned_read_only(self.R))
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
            raise ValueError(f"X_D must be K x D when present, got {self.X_D.shape}")
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ValueError(f"sigma2 must be finite and >= 0, got {self.sigma2}")

    @property
    def M(self) -> int:
        return self.Y.shape[0]


def _unit_rows(rows: int, cols: int, rng: RngStream) -> np.ndarray:
    """A complex-Gaussian rows x cols draw, every row rescaled to squared norm ``cols``, read-only."""
    a = cgauss(rows, cols, 1.0, rng)
    a *= (np.sqrt(cols) / np.sqrt(_kernels.row_norms_sq(a)))[:, None]
    a.flags.writeable = False
    return a


def gen_pilot_pool(cfg: SystemConfig, rng: RngStream) -> PilotPool:
    """Random complex-Gaussian pilot pool with every row rescaled to ||p||^2 = L."""
    return PilotPool(_unit_rows(cfg.N, cfg.L, rng))


def gen_pdrs_codebook(cfg: SystemConfig, rng: RngStream) -> PdrsCodebook:
    """Detection reference-signal codebook.

    gaussian mode draws i.i.d. complex-Gaussian rows rescaled to ||r||^2 = l;
    orthogonal-reuse mode assigns each user one of l mutually orthogonal
    unit-modulus base codes (scaled DFT rows), repeating codes as needed.
    """
    if cfg.pdrs_mode == "gaussian":
        return PdrsCodebook(_unit_rows(cfg.N, cfg.l, rng), mode="gaussian")
    # orthogonal-reuse: rows of the l x l DFT matrix have squared norm l and
    # are mutually orthogonal
    j, k = np.meshgrid(np.arange(cfg.l), np.arange(cfg.l), indexing="ij")
    base = np.exp(-2j * np.pi * j * k / cfg.l)
    picks = rng.gen.integers(0, cfg.l, size=cfg.N)
    return PdrsCodebook(base[picks], mode="orthogonal-reuse")


def sample_activity(cfg: SystemConfig, rng: RngStream) -> ActivityPattern:
    """Uniformly random K-subset of the N users, sorted ascending; a built config has K <= N."""
    active = np.sort(rng.gen.choice(cfg.N, size=cfg.K, replace=False))
    return ActivityPattern(active, cfg.N)


@dataclass
class FrameDraw:
    """One trial's draws: everything its frame at any noise power is formed from.

    ``Y_R``, ``Y`` and ``Y_D`` are the noiseless blocks and ``noise`` the
    unit-variance noise of each, in that order (None for the data block when
    D = 0).  ``frame(sigma2)`` forms the frame at one noise power.
    """

    Y_R: np.ndarray
    Y: np.ndarray
    Y_D: np.ndarray
    noise: tuple[np.ndarray | None, ...]
    ground_truth: ActivityPattern
    H: np.ndarray
    X_D: np.ndarray = field(repr=False)

    def frame(self, sigma2: float) -> ReceivedFrame:
        """The frame at noise power ``sigma2``: each block plus ``noise * sqrt(sigma2)``.

        No noise is added at ``sigma2 = 0``.  The blocks are new arrays, so a
        draw never changes and serves any number of frames; every frame
        shares ``H``, ``X_D`` and the truth.
        """
        scale = np.sqrt(sigma2)
        blocks = []
        for block, noise in zip((self.Y_R, self.Y, self.Y_D), self.noise):
            if sigma2 > 0.0 and noise is not None:
                formed = noise * scale  # cgauss's order: scale the noise, then add it
                formed += block
            else:
                formed = block.copy()
            blocks.append(formed)
        Y_R, Y, Y_D = blocks
        return ReceivedFrame(
            Y_R=Y_R, Y=Y, Y_D=Y_D, ground_truth=self.ground_truth, sigma2=sigma2,
            H=self.H, X_D=self.X_D,
        )


def draw_frame(
    cfg: SystemConfig,
    pool: PilotPool,
    codebook: PdrsCodebook,
    activity: ActivityPattern,
    rng: RngStream,
) -> FrameDraw:
    """Draw one frame's channel, data and noise for the active set ``activity``.

    Only the active users' channel is drawn: M x K, i.i.d. CN(0, 1) (flat
    Rayleigh, shared by all three segments), column k belonging to user
    ``activity.active[k]``; data symbols are uniform unit-power QPSK.  Draw
    order on the stream is fixed (channel, data symbols, then unit-variance
    noise for the reference, pilot, and data blocks) and is part of the
    determinism contract.
    """
    act = activity.active
    H = cgauss(cfg.M, activity.K, 1.0, rng)
    X_D = QPSK_POINTS[rng.gen.integers(0, 4, size=(activity.K, cfg.D))]
    # the products draw nothing, so they may come first: with two trial
    # threads this order page-faults far less than drawing the noise first
    Y_R, Y, Y_D = H @ codebook.R[act], H @ pool.P[act], H @ X_D
    noise = (
        cgauss(cfg.M, cfg.l, 1.0, rng),
        cgauss(cfg.M, cfg.L, 1.0, rng),
        cgauss(cfg.M, cfg.D, 1.0, rng) if cfg.D > 0 else None,
    )
    return FrameDraw(Y_R, Y, Y_D, noise, activity, H, X_D)


def assemble_frame(
    cfg: SystemConfig,
    pool: PilotPool,
    codebook: PdrsCodebook,
    activity: ActivityPattern,
    rng: RngStream,
) -> ReceivedFrame:
    """One received frame at ``cfg.sigma2``: ``draw_frame``, then its frame."""
    return draw_frame(cfg, pool, codebook, activity, rng).frame(cfg.sigma2)


def synth_pool(cfg: SystemConfig) -> PilotPool:
    """The pilot pool of ``cfg.seed``, drawn from stream ``POOL_STREAM``."""
    return gen_pilot_pool(cfg, RngStream(cfg.seed, POOL_STREAM))


def synth_codebook(cfg: SystemConfig) -> PdrsCodebook:
    """The reference codebook of ``cfg.seed``, drawn from stream ``CODEBOOK_STREAM``."""
    return gen_pdrs_codebook(cfg, RngStream(cfg.seed, CODEBOOK_STREAM))


def draw_key(cfg: SystemConfig) -> SystemConfig:
    """``cfg`` with ``snr_db`` and ``zeta`` fixed: configs with one key share every draw.

    The draws read every field but those two: ``snr_db`` only scales the
    noise, and ``zeta`` acts only after detection.
    """
    return replace(cfg, snr_db=0.0, zeta=1)


def draw_trial(cfg: SystemConfig, pool: PilotPool, codebook: PdrsCodebook, t: int) -> FrameDraw:
    """Trial ``t``'s draws: stream ``TRIAL_STREAM_BASE + t`` draws the active set, then the rest.

    One draw serves the trial at every config with the same ``draw_key``.
    """
    rng = RngStream(cfg.seed, TRIAL_STREAM_BASE + t)
    activity = sample_activity(cfg, rng)
    return draw_frame(cfg, pool, codebook, activity, rng)
