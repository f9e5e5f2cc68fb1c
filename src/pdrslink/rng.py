"""Counter-based random streams for reproducible, order-insensitive sampling.

Every stream is a Philox4x64-10 generator keyed by the pair
``(seed, stream_id)``, so a given pair always produces the same sequence no
matter which thread or process draws it, and distinct trial substreams are
statistically independent without any jump-ahead bookkeeping.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RngStream", "cgauss"]


@dataclass
class RngStream:
    """One single-owner random substream identified by (seed, stream_id).

    ``gen`` is the Philox generator keyed by the pair; it is built on
    construction and cannot be passed in.  Instances must not be shared
    mid-sequence; create one per trial (or per fixed purpose such as
    pilot-pool generation) instead.
    """

    seed: int
    stream_id: int = 0
    gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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
