"""Monte-Carlo experiment runner.

Trials are embarrassingly parallel: every trial's frame comes from
``scenario.synth_frame`` on its own counter-based stream, a thread pool maps
the trials, and reduction walks the results in trial order, so every
reported number except wall-clock time is independent of the worker count
and of scheduling.  The pilot pool (``scenario.synth_pool``) and, when a
detector needs it, its Gram pseudo-inverse are built once per sweep and
shared by every point, since no sweep variable changes the seed, N or L.
The reference-signal codebook (``scenario.synth_codebook``) follows l and is
built once per sweep point; all trials of a point share it.
``STAGE_TABLE`` says how each detection method runs, and ``DETECTOR_TABLE``
pairs one with a combiner to make each detector.
"""

import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .combining import demod_qpsk, dwe_weights, ls_channel_estimate, zf_weights
from .detectors import (
    DetectionResult,
    detect_bomp,
    detect_fpr,
    detect_pdrs_dwe,
    fpr_gram_pinv,
    oracle_support,
)
from .linalg import pinv
from .metrics import (
    TrialMetrics,
    complexity_model,
    detection_metrics,
    post_sinr,
    symbol_errors,
)
from .rng import RngStream, cgauss
from .scenario import PdrsCodebook, PilotPool, SystemConfig, synth_codebook, synth_frame, synth_pool

# The stream ids live in scenario; pdrsbench/ imports them from here, so they stay importable.
from .scenario import CODEBOOK_STREAM, POOL_STREAM, TRIAL_STREAM_BASE  # noqa: F401

__all__ = [
    "CSV_HEADER",
    "DETECTORS",
    "DETECTOR_TABLE",
    "DetectorSpec",
    "STAGE_TABLE",
    "StageSpec",
    "SweepSpec",
    "ResultRow",
    "LemmaReport",
    "worker_count",
    "parse_config",
    "run_trial",
    "run_point",
    "run_sweep",
    "emit_csv",
    "lemma_check",
]


class StageSpec(NamedTuple):
    """One detection method: its ``STAGE_TABLE`` entry, keyed by its ``complexity_model`` name.

    ``detect(frame, pool, codebook, zeta, svd_cost, gram_pinv)`` runs it;
    ``needs_gram`` asks for the pool's Gram pseudo-inverse.
    """

    detect: Callable[..., DetectionResult]
    needs_gram: bool


# Each lambda adapts one detection method to the common call and looks it up when called.
STAGE_TABLE: dict[str, StageSpec] = {
    "pdrs": StageSpec(
        lambda fr, pool, cb, zeta, svd, gram: detect_pdrs_dwe(fr, pool, cb, zeta, svd), False
    ),
    "bomp": StageSpec(lambda fr, pool, cb, zeta, svd, gram: detect_bomp(fr, pool, zeta), False),
    "fpr": StageSpec(lambda fr, pool, cb, zeta, svd, gram: detect_fpr(fr, pool, zeta, gram), True),
    "oracle": StageSpec(lambda fr, pool, cb, zeta, svd, gram: oracle_support(fr), False),
}


class DetectorSpec(NamedTuple):
    """One detector: its ``DETECTOR_TABLE`` entry.

    ``stage`` names its ``STAGE_TABLE`` entry; ``combiner`` is "dwe" (weights
    read out of the stage's ``pinv(Y)``) or "lszf" (least-squares channel
    estimate, then zero-forcing).
    """

    stage: str
    combiner: str


DETECTOR_TABLE: dict[str, DetectorSpec] = {
    "pdrs": DetectorSpec("pdrs", "dwe"),
    "pdrs-lszf": DetectorSpec("pdrs", "lszf"),
    "bomp": DetectorSpec("bomp", "lszf"),
    "fpr": DetectorSpec("fpr", "lszf"),
    "oracle": DetectorSpec("oracle", "lszf"),
    "oracle-dwe": DetectorSpec("oracle", "dwe"),
}

#: Detector names accepted by the harness, in table order.
DETECTORS = tuple(DETECTOR_TABLE)

SWEEP_VARS = ("snr_db", "K", "l", "alpha")

#: Bound on the worst relative error of the Moore-Penrose identities in ``lemma_check``.
MP_TOL = 1e-9


def worker_count() -> int:
    """Trial workers: cpu count capped by the PDRS_THREADS environment variable."""
    n = os.cpu_count() or 1
    cap = os.environ.get("PDRS_THREADS", "")
    if cap:
        try:
            limit = int(cap)
        except ValueError:
            raise ValueError(f"PDRS_THREADS must be an integer, got {cap!r}") from None
        if limit < 1:
            raise ValueError(f"PDRS_THREADS must be >= 1, got {limit}")
        n = min(n, limit)
    return n


@dataclass
class SweepSpec:
    """One experiment: a base config, a variable to sweep, and detectors; none may repeat."""

    base: SystemConfig
    variable: str
    values: list
    detectors: list[str] = field(default_factory=lambda: ["pdrs"])

    def __post_init__(self):
        if self.variable not in SWEEP_VARS:
            raise ValueError(f"sweep variable must be one of {SWEEP_VARS}, got {self.variable!r}")
        if not self.values:
            raise ValueError("sweep values must be nonempty")
        if not self.detectors:
            raise ValueError("detector list must be nonempty")
        for d in self.detectors:
            _spec(d)
        values = [float(v) for v in self.values]
        for what, items in (("value", values), ("detector", self.detectors)):
            again = [x for i, x in enumerate(items) if x in items[:i]]
            if again:
                raise ValueError(f"sweep {what} {again[0]!r} is repeated")
        for v in self.values:
            self.config_at(v)

    def config_at(self, value) -> SystemConfig:
        """The base config at ``value``: K sweeps keep alpha; K and l must be whole, alpha finite."""
        base = self.base
        if self.variable == "snr_db":
            return replace(base, snr_db=float(value))
        if self.variable == "alpha":
            if not math.isfinite(float(value)):
                raise ValueError(f"sweep variable alpha takes finite values, got {value}")
            return base.with_zeta_from_alpha(float(value))
        if not float(value).is_integer():
            raise ValueError(f"sweep variable {self.variable} takes whole numbers, got {value}")
        if self.variable == "K":
            return replace(base, K=int(value)).with_zeta_from_alpha(base.alpha)
        return replace(base, l=int(value))


@dataclass
class ResultRow:
    """One aggregated line of the sweep CSV."""

    sweep_var: str
    sweep_value: float
    snr_db: float
    K: int
    L: int
    N: int
    M: int
    l: int
    zeta: int
    detector: str
    trials: int
    miss_rate: float
    false_pos_rate: float
    ser: float
    mean_post_sinr_db: float
    modeled_mults: int
    counted_mults: int
    wall_clock_ms: float
    seed: int

    def csv_line(self) -> str:
        parts = []
        for f in fields(self):
            v = getattr(self, f.name)
            parts.append(f"{v:.6g}" if isinstance(v, float) else str(v))
        return ",".join(parts)


CSV_HEADER = ",".join(f.name for f in fields(ResultRow))


def parse_config(path: str | Path) -> SystemConfig:
    """Read key = value lines (# comments) into a SystemConfig; a key may appear once."""
    kinds = {f.name: f.type for f in fields(SystemConfig)}
    overrides: dict = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, val = (s.strip() for s in line.partition("="))
        if key not in kinds:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: {key} is set again (first on line {first_line[key]})")
        first_line[key] = lineno
        kind = kinds[key]
        try:
            overrides[key] = kind(val)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {key} = {val!r} is not a valid {kind.__name__}") from None
    return SystemConfig(**overrides)


def _spec(name: str) -> DetectorSpec:
    """The table entry of ``name``; ValueError naming it when there is none."""
    if name not in DETECTOR_TABLE:
        raise ValueError(f"unknown detector {name!r}, choose from {DETECTORS}")
    return DETECTOR_TABLE[name]


def run_trial(
    cfg: SystemConfig,
    pool: PilotPool,
    codebook: PdrsCodebook,
    gram_pinv: np.ndarray | None,
    trial_index: int,
    detectors: list[str],
) -> dict[str, TrialMetrics]:
    """Assemble one frame and score every requested detector on it.

    The frame depends only on (cfg.seed, trial_index), never on the detector
    list, so adding a detector to a sweep does not move any other detector's
    numbers.  Each distinct detection stage runs once; every detector that
    shares it is charged its full time in ``wall_ms``.  A failure raises
    RuntimeError naming the trial and the step that raised:
    ``trial <t>, synthesis: <msg>``, or ``trial <t>, detector <name>,
    <step>: <msg>`` with step detect, combine, score, demod or sinr.
    """
    specs = {name: _spec(name) for name in detectors}
    try:
        frame = synth_frame(cfg, pool, codebook, trial_index)
    except Exception as exc:
        raise RuntimeError(f"trial {trial_index}, synthesis: {exc}") from exc
    truth = frame.ground_truth
    stages: dict[str, tuple[DetectionResult, float]] = {}
    out: dict[str, TrialMetrics] = {}
    for name, spec in specs.items():
        step = "detect"
        try:
            if spec.stage not in stages:
                t0 = time.perf_counter()
                stage = STAGE_TABLE[spec.stage]
                if stage.needs_gram and gram_pinv is None:
                    raise ValueError(f"{spec.stage} requires the precomputed Gram pseudo-inverse")
                res = stage.detect(frame, pool, codebook, cfg.zeta, cfg.svd_cost, gram_pinv)
                stages[spec.stage] = res, (time.perf_counter() - t0) * 1e3
            res, stage_ms = stages[spec.stage]

            t0 = time.perf_counter()
            step = "combine"
            if spec.combiner == "dwe":
                weights = dwe_weights(frame, pool, res.detected, y_pinv=res.y_pinv)
            else:
                h_est = ls_channel_estimate(frame, pool, res.detected)
                weights = zf_weights(h_est, res.detected)
            step = "score"
            m = detection_metrics(res, truth)
            tp_mask = np.isin(res.detected, truth.active, assume_unique=True)
            tp_users = res.detected[tp_mask]
            if frame.Y_D.shape[1] and tp_users.size:
                step = "demod"
                decided = demod_qpsk(weights.apply(frame.Y_D)[tp_mask])
                sent_rows = np.searchsorted(truth.active, tp_users)
                m.sym_errors = symbol_errors(decided, frame.X_D[sent_rows])
                m.sym_total = decided.size
            if tp_users.size:
                step = "sinr"
                m.post_sinr_db = post_sinr(
                    weights.W[tp_mask], tp_users, frame.H, truth.active, frame.sigma2
                )
        except Exception as exc:
            raise RuntimeError(f"trial {trial_index}, detector {name}, {step}: {exc}") from exc
        m.mult_count = res.mults
        m.wall_ms = stage_ms + (time.perf_counter() - t0) * 1e3
        out[name] = m
    return out


def _guarded_rate(count: int, samples: int) -> float:
    """Binomial point estimate, or nan when its standard error tops 50%.

    A rate whose standard error exceeds half the estimate carries no usable
    information, so it is withheld rather than reported.
    """
    if samples <= 0:
        return 0.0
    p = count / samples
    if p > 0.0 and math.sqrt(p * (1.0 - p) / samples) > 0.5 * p:
        return math.nan
    return p


def run_point(cfg: SystemConfig, detectors: list[str]) -> list[ResultRow]:
    """Run cfg.trials Monte-Carlo trials at one point: a one-value ``snr_db`` sweep.

    Rows come in the caller's detector order.  Every trial runs.  If any
    fails, the point is abandoned: a diagnostic row with nan metrics is
    emitted per detector, and one stderr line gives the number of failed
    trials and the first error in trial order.
    """
    return _run_sweep(SweepSpec(cfg, "snr_db", [cfg.snr_db], list(detectors)))


def run_sweep(spec: SweepSpec) -> list[ResultRow]:
    """All sweep points, rows ordered by sweep value then detector name.

    Each point's rows equal those of ``run_point`` on ``spec.config_at(value)``
    with the same detectors, relabelled with the sweep variable and value.
    """
    return _run_sweep(replace(spec, detectors=sorted(spec.detectors)))


def _run_sweep(spec: SweepSpec) -> list[ResultRow]:
    """Every point of ``spec`` in value order, detectors in ``spec``'s order.

    The pilot pool and, when a stage needs it, its Gram pseudo-inverse are
    built once and shared by every point.
    """
    pool = synth_pool(spec.base)
    needs_gram = any(STAGE_TABLE[DETECTOR_TABLE[d].stage].needs_gram for d in spec.detectors)
    gram_pinv = fpr_gram_pinv(pool) if needs_gram else None
    rows: list[ResultRow] = []
    for value in sorted(spec.values):
        cfg = spec.config_at(value)
        rows.extend(_run_point(cfg, spec.detectors, spec.variable, float(value), pool, gram_pinv))
    return rows


def _run_point(
    cfg: SystemConfig,
    detectors: list[str],
    sweep_var: str,
    value: float,
    pool: PilotPool,
    gram_pinv: np.ndarray | None,
) -> list[ResultRow]:
    """One sweep point's rows, with the pool and Gram pseudo-inverse already built."""
    codebook = synth_codebook(cfg)

    def work(i: int) -> dict[str, TrialMetrics] | Exception:
        try:
            return run_trial(cfg, pool, codebook, gram_pinv, i, detectors)
        except Exception as exc:
            return exc

    # map yields in trial order; a failed trial yields its error, so all run
    with ThreadPoolExecutor(max_workers=worker_count()) as executor:
        trials = list(executor.map(work, range(cfg.trials)))
    errors = [t for t in trials if isinstance(t, Exception)]
    if errors:
        failed = f"{len(errors)} of {cfg.trials} trials failed; first: {errors[0]}"
        print(f"sweep point {sweep_var}={value}: {failed}", file=sys.stderr)

    rows = []
    for name in detectors:
        model = complexity_model(cfg, DETECTOR_TABLE[name].stage)
        if not errors:
            per = [trial[name] for trial in trials]
            miss = sum(t.miss for t in per)
            fp = sum(t.false_pos for t in per)
            err = sum(t.sym_errors for t in per)
            tot = sum(t.sym_total for t in per)
            sinr_sum = sum(float(np.sum(t.post_sinr_db)) for t in per)
            sinr_n = sum(t.post_sinr_db.size for t in per)
            miss_rate = _guarded_rate(miss, cfg.trials * cfg.K)
            fp_rate = _guarded_rate(fp, cfg.trials * (cfg.N - cfg.K))
            ser = err / tot if tot else math.nan
            sinr = sinr_sum / sinr_n if sinr_n else math.nan
            counted = per[0].mult_count
            wall = sum(t.wall_ms for t in per) / len(per)
        else:
            miss_rate = fp_rate = ser = sinr = math.nan
            counted = 0
            wall = math.nan
        rows.append(
            ResultRow(
                sweep_var=sweep_var,
                sweep_value=float(value),
                snr_db=cfg.snr_db,
                K=cfg.K,
                L=cfg.L,
                N=cfg.N,
                M=cfg.M,
                l=cfg.l,
                zeta=cfg.zeta,
                detector=name,
                trials=cfg.trials,
                miss_rate=miss_rate,
                false_pos_rate=fp_rate,
                ser=ser,
                mean_post_sinr_db=sinr,
                modeled_mults=model.detect_mults,
                counted_mults=counted,
                wall_clock_ms=wall,
                seed=cfg.seed,
            )
        )
    return rows


def emit_csv(rows: list[ResultRow], path: str | Path) -> None:
    """Write rows under the fixed header; floats carry 6 significant digits."""
    if not rows:
        raise ValueError("no rows to write")
    lines = [CSV_HEADER] + [r.csv_line() for r in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class LemmaReport:
    """Worst relative errors of the three verification suites."""

    mp_worst: float
    noisy_equiv_worst: float
    noiseless_equiv_worst: float
    mp_tol: float
    equiv_tol: float
    instances: int

    @property
    def ok(self) -> bool:
        return (
            self.mp_worst <= self.mp_tol
            and self.noisy_equiv_worst <= self.equiv_tol
            and self.noiseless_equiv_worst <= self.equiv_tol
        )

    def lines(self) -> list[str]:
        def one(label: str, count: int, err: float, tol: float) -> str:
            verdict = "pass" if err <= tol else "FAIL"
            return f"{label} ({count} instances): worst {err:.3e} tol {tol:.0e} {verdict}"

        return [
            one("moore-penrose identities", 2 * self.instances, self.mp_worst, self.mp_tol),
            one(
                "weight equivalence, noisy detected sets",
                self.instances,
                self.noisy_equiv_worst,
                self.equiv_tol,
            ),
            one(
                "weight equivalence, noiseless oracle",
                self.instances,
                self.noiseless_equiv_worst,
                self.equiv_tol,
            ),
        ]


def _rel_fro(a: np.ndarray, b: np.ndarray) -> float:
    """Relative Frobenius distance of b from a (absolute when a is zero)."""
    ref = np.linalg.norm(a)
    return float(np.linalg.norm(a - b) / (ref if ref > 0 else 1.0))


def _mp_suite(count: int, seed: int) -> float:
    """Worst relative error over the four defining pseudo-inverse identities."""
    worst = 0.0
    for i in range(count):
        rng = RngStream(seed, 1000 + i)
        g = rng.gen
        m, n = (int(g.integers(1, 17)) for _ in range(2))
        r = int(g.integers(1, min(m, n) + 1))
        a = cgauss(m, r, 1.0, rng) @ cgauss(r, n, 1.0, rng)
        ap = pinv(a)
        aap, apa = a @ ap, ap @ a
        worst = max(
            worst,
            _rel_fro(a, a @ apa),
            _rel_fro(ap, apa @ ap),
            _rel_fro(aap, aap.conj().T),
            _rel_fro(apa, apa.conj().T),
        )
    return worst


def _weight_equiv_suite(count: int, seed: int, noisy: bool) -> float:
    """Worst relative gap between direct weights and the two-stage chain.

    Noisy instances use detected sets of size xi in [L, L+4] (full pilot row
    rank holds almost surely); noiseless instances use oracle detection with
    K in [2, L-1], where the two-stage chain inverts the estimated channel
    exactly.
    """
    M, L, N = 16, 8, 24
    worst = 0.0
    for i in range(count):
        rng = RngStream(seed, 2000 + i)
        g = rng.gen
        P = cgauss(N, L, 1.0, rng)
        H = cgauss(M, N, 1.0, rng)
        if noisy:
            xi = int(g.integers(L, L + 5))
            k = int(g.integers(1, N + 1))
        else:
            xi = k = int(g.integers(2, L))
        active = np.sort(g.choice(N, size=k, replace=False))
        Y = H[:, active] @ P[active]
        if noisy:
            Y = Y + cgauss(M, L, 10.0 ** (-1.0), rng)
            det = np.sort(g.choice(N, size=xi, replace=False))
        else:
            det = active
        P_det = P[det]
        if np.linalg.matrix_rank(P_det) < min(xi, L):
            continue
        direct = P_det @ pinv(Y)
        two_stage = pinv(Y @ pinv(P_det))
        worst = max(worst, _rel_fro(direct, two_stage))
    return worst


def lemma_check(iterations: int = 100, equiv_tol: float = 1e-8, seed: int = 1) -> LemmaReport:
    """Run the pseudo-inverse and weight-equivalence suites.

    The Moore-Penrose identities are held to ``MP_TOL``; the two weight
    equivalence suites to ``equiv_tol``.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not 0 <= seed < 2**64 - 1:  # the suites key streams by seed and seed + 1
        raise ValueError(f"seed must satisfy 0 <= seed < 2**64 - 1, got {seed}")
    return LemmaReport(
        mp_worst=_mp_suite(2 * iterations, seed),
        noisy_equiv_worst=_weight_equiv_suite(iterations, seed, noisy=True),
        noiseless_equiv_worst=_weight_equiv_suite(iterations, seed + 1, noisy=False),
        mp_tol=MP_TOL,
        equiv_tol=equiv_tol,
        instances=iterations,
    )
