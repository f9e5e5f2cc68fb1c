"""The four Monte-Carlo workloads and how each one is called.

Every workload goes through the library's public ``run_point`` /
``run_sweep`` API.  NOTES.md records why each one was chosen and which
layer metric should move which end-to-end metric on it.
"""

from dataclasses import dataclass, replace

from pdrslink import SweepSpec, SystemConfig, run_point, run_sweep

#: Shared operating point: 128 antennas, 1000 pilots of length 96, 96 active
#: users, 4 dB, 240 data symbols.
ANCHOR = SystemConfig(M=128, N=1000, L=96, l=4, K=96, zeta=96, snr_db=4.0, D=240, trials=1)

#: Inputs of timed call ``c`` use library seed ``seed * SEED_STRIDE + c``, so
#: no two calls of one run share a pilot pool or a trial stream.
SEED_STRIDE = 1 << 16
MAX_SEED = (1 << 40) - 1


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``snr_points`` empty means one ``run_point`` at the anchor SNR; otherwise
    one ``run_sweep`` over those SNRs.  ``chunk_trials`` is the trial count
    per point of one timed call and ``trace_trials`` that of the traced run.
    """

    name: str
    why: str
    l: int
    zeta: int
    detectors: tuple[str, ...]
    chunk_trials: int
    trace_trials: int
    snr_points: tuple[float, ...] = ()

    def config(self, seed: int, call: int, trials: int) -> SystemConfig:
        """Config of the first point of timed call ``call``."""
        if not 0 <= seed <= MAX_SEED:
            raise ValueError(f"seed must be in [0, {MAX_SEED}], got {seed}")
        snr = self.snr_points[0] if self.snr_points else ANCHOR.snr_db
        return replace(
            ANCHOR, l=self.l, zeta=self.zeta, snr_db=snr, trials=trials,
            seed=seed * SEED_STRIDE + call,
        )

    def points(self, seed: int, call: int, trials: int) -> list[SystemConfig]:
        """Config of every point of one call, in the order the library runs them."""
        cfg = self.config(seed, call, trials)
        return [replace(cfg, snr_db=float(v)) for v in sorted(self.snr_points)] or [cfg]

    def run(self, seed: int, call: int, trials: int):
        """One call of the public API; returns its ResultRows."""
        cfg = self.config(seed, call, trials)
        if not self.snr_points:
            return run_point(cfg, list(self.detectors))
        spec = SweepSpec(cfg, "snr_db", list(self.snr_points), list(self.detectors))
        return run_sweep(spec)

    @property
    def n_points(self) -> int:
        return max(1, len(self.snr_points))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "anchor-pdrs",
            "the paper's operating point: synthesis, one pinv(Y) and both combiners per trial",
            l=4, zeta=96, detectors=("pdrs", "pdrs-lszf"), chunk_trials=60, trace_trials=100,
        ),
        Workload(
            "overshoot-pdrs",
            "zeta=2K makes the zero-forcing input 128x192 of rank 96, the rank-deficient pinv path",
            l=1, zeta=192, detectors=("pdrs", "pdrs-lszf"), chunk_trials=60, trace_trials=100,
        ),
        Workload(
            "snr-sweep-fpr",
            "four SNR points, each paying the 1000x1000 Gram pseudo-inverse; precompute and memory bound",
            l=4, zeta=96, detectors=("fpr", "oracle"), chunk_trials=20, trace_trials=25,
            snr_points=(0.0, 2.0, 4.0, 6.0),
        ),
        Workload(
            "anchor-bomp",
            "greedy pursuit: 96 correlations and 96 small pinv calls per trial, synthesis negligible",
            l=4, zeta=96, detectors=("bomp",), chunk_trials=8, trace_trials=20,
        ),
    )
}
