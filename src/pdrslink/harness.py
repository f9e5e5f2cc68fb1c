"""Monte-Carlo experiment runner.

``scenario`` decides what a run is (a frozen ``SystemConfig``, checked when
it is built) and how it draws; this module maps trials and reduces them.
Every trial's draws come from ``scenario.draw_trial`` on its own
counter-based stream, so trials are embarrassingly parallel: ``run_sweep``
maps them on one thread pool and adds up each point's results in trial
order, and every reported number except wall-clock time is independent of
the worker count and of scheduling.  A trial does each piece of work once:
it draws once per ``scenario.draw_key`` and forms each point's frame from
that draw, a detection stage runs once per frame, a (combiner, support)
pair is combined and scored once per frame, and a detected support's pilot
pseudo-inverse (for a wide estimate, its Cholesky factor) is formed once per
trial, all in ``_trial_at_points``, which ``run_sweep`` maps over the trials.
``run_sweep`` and its one-value form ``run_point`` are the only ways to run
a trial.
``STAGE_TABLE`` says how each detection method runs, and ``DETECTOR_TABLE``
pairs one with a combiner to make each detector.
"""

import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .combining import demod_qpsk, dwe_weights, ls_channel_estimate, support_inverse, zf_weights
from .detectors import (
    DetectionResult,
    detect_bomp,
    detect_fpr,
    detect_pdrs_dwe,
    fpr_gram_pinv,
    oracle_support,
)
from .linalg import pinv, process_blas
from .metrics import (
    TrialMetrics,
    complexity_model,
    detection_metrics,
    post_sinr,
    symbol_errors,
)
from .scenario import PdrsCodebook, PilotPool, ReceivedFrame, RngStream, SystemConfig, _whole
from .scenario import cgauss, draw_key, draw_trial, synth_codebook, synth_pool

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
    "run_point",
    "run_sweep",
    "emit_csv",
    "lemma_check",
]


class StageSpec(NamedTuple):
    """One detection method: its ``STAGE_TABLE`` entry, keyed by its ``complexity_model`` name.

    ``detect(frame, pool, codebook, zeta, svd_cost, gram_pinv)`` runs it, and
    ``needs_gram`` asks for the pool's Gram pseudo-inverse.
    """

    detect: Callable[..., DetectionResult]
    needs_gram: bool


# Each lambda adapts one detection method to the common call and looks it up when called.
STAGE_TABLE: dict[str, StageSpec] = {
    "pdrs": StageSpec(
        lambda fr, pool, cb, zeta, svd, gram: detect_pdrs_dwe(fr, pool, cb, zeta, svd),
        needs_gram=False,
    ),
    "bomp": StageSpec(
        lambda fr, pool, cb, zeta, svd, gram: detect_bomp(fr, pool, zeta),
        needs_gram=False,
    ),
    "fpr": StageSpec(
        lambda fr, pool, cb, zeta, svd, gram: detect_fpr(fr, pool, zeta, gram),
        needs_gram=True,
    ),
    "oracle": StageSpec(lambda fr, pool, cb, zeta, svd, gram: oracle_support(fr), needs_gram=False),
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
#: Bound on the worst relative gap of the two weight-equivalence suites in ``lemma_check``.
EQUIV_TOL = 1e-8
#: Most ``lemma_check`` iterations: the Moore-Penrose suite's ``2 * iterations``
#: streams start at 1000 and the noisy suite's at 2000, so more would share streams.
MAX_LEMMA_ITERATIONS = 500


def worker_count() -> int:
    """Trial workers: the CPUs this process may run on, capped by the PDRS_THREADS variable.

    The CPUs are those of the process's affinity mask (``os.sched_getaffinity``),
    so ``taskset`` or a cpuset limits the workers, or ``os.cpu_count()``
    where the platform has no mask.  One worker when BLAS may run several
    threads and the library cannot pin it (``BlasThreads.serial_only``),
    since the two pools would then fight over the same cores.
    """
    if hasattr(os, "sched_getaffinity"):
        n = len(os.sched_getaffinity(0))
    else:
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
    return 1 if process_blas().serial_only else n


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: a base config, a variable to sweep, and detectors; none may repeat.

    Frozen, as ``SystemConfig`` is.  ``values`` is stored as a tuple of ascending
    floats, each giving a valid ``config_at``, and ``detectors`` as a tuple.
    """

    base: SystemConfig
    variable: str
    values: tuple[float, ...]
    detectors: tuple[str, ...] = ("pdrs",)

    def __post_init__(self):
        if self.variable not in SWEEP_VARS:
            raise ValueError(f"sweep variable must be one of {SWEEP_VARS}, got {self.variable!r}")
        object.__setattr__(self, "values", tuple(sorted(float(v) for v in self.values)))
        object.__setattr__(self, "detectors", tuple(self.detectors))
        if not self.values:
            raise ValueError("sweep values must be nonempty")
        if not self.detectors:
            raise ValueError("detector list must be nonempty")
        for d in self.detectors:
            _spec(d)
        for what, items in (("value", self.values), ("detector", self.detectors)):
            again = [x for i, x in enumerate(items) if x in items[:i]]
            if again:
                raise ValueError(f"sweep {what} {again[0]!r} is repeated")
        for v in self.values:
            self.config_at(v)

    def config_at(self, value: float) -> SystemConfig:
        """The base config at ``value``: K sweeps keep alpha, alpha must be finite.

        ``SystemConfig`` checks the rest, so a fractional K or l names the field.
        """
        base = self.base
        if self.variable == "snr_db":
            return replace(base, snr_db=value)
        if self.variable == "alpha":
            if not math.isfinite(value):
                raise ValueError(f"sweep variable alpha takes finite values, got {value}")
            return base.with_zeta_from_alpha(value)
        if self.variable == "K":
            return replace(base, K=value).with_zeta_from_alpha(base.alpha)
        return replace(base, l=value)


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
            parts.append(repr(v) if isinstance(v, float) else str(v))
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
            try:
                overrides[key] = kind(val)
            except ValueError:
                if kind is not int:
                    raise
                overrides[key] = _whole(key, float(val))  # 16.0 and 1e3 pass; 16.5 names the key
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key} = {val!r}: {exc}") from None
    try:
        return SystemConfig(**overrides)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _spec(name: str) -> DetectorSpec:
    """The table entry of ``name``; ValueError naming it when there is none."""
    if name not in DETECTOR_TABLE:
        raise ValueError(f"unknown detector {name!r}, choose from {DETECTORS}")
    return DETECTOR_TABLE[name]


def _score_frame(
    cfg: SystemConfig,
    pool: PilotPool,
    codebook: PdrsCodebook,
    gram_pinv: np.ndarray | None,
    trial_index: int,
    specs: dict[str, DetectorSpec],
    frame: ReceivedFrame,
    pilot_pinvs: dict[bytes, tuple[object, float]],
    last: bool,
) -> dict[str, TrialMetrics]:
    """Every detector of ``specs`` scored on ``frame``, one point of ``_trial_at_points``.

    Everything after detection is a function of the frame, the combiner and
    the detected support, so detectors that share both share one result.
    Only the true positives are demodulated and scored, so the decorrelating
    combiner forms weight rows for those users alone; zero-forcing needs the
    whole support.  The least-squares estimate takes the support's pilot
    inverse from the trial's ``pilot_pinvs``, keyed by the support's bytes,
    forming it there on first use with the ms it took; that time is charged
    in full at every point that uses it.  The entry is
    ``combining.support_inverse(pool.P[support])``, which alone picks its
    kind, a pilot factor or ``pinv`` of the block; the harness only holds it.  At the trial's ``last`` point the entry
    leaves the memo, so an inverse the estimate does not keep is freed before
    zero-forcing runs, and one it keeps lives until the frame is scored.
    """
    truth = frame.ground_truth
    stages: dict[str, tuple[DetectionResult, float]] = {}
    combined: dict[tuple[str, bytes], tuple[TrialMetrics, float]] = {}
    out: dict[str, TrialMetrics] = {}
    for name, spec in specs.items():
        step = "detect"
        try:
            if spec.stage not in stages:
                t0 = time.perf_counter()
                stage = STAGE_TABLE[spec.stage]
                res = stage.detect(frame, pool, codebook, cfg.zeta, cfg.svd_cost, gram_pinv)
                stages[spec.stage] = res, (time.perf_counter() - t0) * 1e3
            res, stage_ms = stages[spec.stage]

            key = spec.combiner, res.detected.astype(np.int64, copy=False).tobytes()
            if key not in combined:
                step = "combine"
                pinv_ms = 0.0
                tp_mask = np.isin(res.detected, truth.active, assume_unique=True)
                tp_users = res.detected[tp_mask]
                if spec.combiner == "dwe":
                    t0 = time.perf_counter()
                    tp_W = dwe_weights(frame, pool, tp_users, y_pinv=res.y_pinv).W
                else:
                    if key[1] not in pilot_pinvs:
                        t0 = time.perf_counter()
                        p_pinv = support_inverse(pool.P[res.detected])
                        pilot_pinvs[key[1]] = p_pinv, (time.perf_counter() - t0) * 1e3
                    p_pinv, pinv_ms = pilot_pinvs.pop(key[1]) if last else pilot_pinvs[key[1]]
                    t0 = time.perf_counter()
                    h_est = ls_channel_estimate(frame, pool, res.detected, p_pinv)
                    del p_pinv  # at the trial's last point, only an h_est that keeps it holds it now
                    tp_W = zf_weights(h_est, res.detected).W[tp_mask]
                step = "score"
                m = detection_metrics(res, truth)
                if frame.Y_D.shape[1] and tp_users.size:
                    step = "demod"
                    decided = demod_qpsk(tp_W @ frame.Y_D)
                    sent_rows = np.searchsorted(truth.active, tp_users)
                    m.sym_errors = symbol_errors(decided, frame.X_D[sent_rows])
                    m.sym_total = decided.size
                if tp_users.size:
                    step = "sinr"
                    m.post_sinr_db = post_sinr(tp_W, tp_users, frame.H, truth.active, frame.sigma2)
                combined[key] = m, (time.perf_counter() - t0) * 1e3 + pinv_ms
            m, combine_ms = combined[key]
        except Exception as exc:
            raise RuntimeError(f"trial {trial_index}, detector {name}, {step}: {exc}") from exc
        out[name] = replace(m, mult_count=res.mults, wall_ms=stage_ms + combine_ms)
    return out


def _trial_at_points(
    pool: PilotPool,
    gram_pinv: np.ndarray | None,
    specs: dict[str, DetectorSpec],
    groups: list[tuple[PdrsCodebook, list[tuple[int, SystemConfig]]]],
    trial_index: int,
) -> list[dict[str, TrialMetrics] | Exception]:
    """Trial ``trial_index`` at every point: one result or error per point, in point order.

    ``groups`` holds, per ``scenario.draw_key``, its codebook and the
    (index, config) of each point that shares the key.  The trial draws once
    per group; each point's frame is formed from the draw and lives only
    while it is scored, and the draw is let go before the group's last frame
    is scored.  The trial's ``pilot_pinvs`` memo forms each detected
    support's ``support_inverse`` once, for every point and
    group; an entry used at the trial's last point leaves it there, and the
    rest is freed when the trial returns.

    The frames depend only on (seed, trial_index), never on ``specs``.  A
    point's error is a RuntimeError naming the trial and the step that
    raised: ``trial <t>, synthesis: <msg>``, or ``trial <t>, detector <name>,
    <step>: <msg>`` with step detect, combine, score, demod or sinr; a
    failed draw is the error of each of its group's points.  ``run_sweep``
    forms ``gram_pinv`` whenever a stage needs it, so only a direct call can
    hand ``fpr`` a None Gram, which fails its detect step.
    """
    out: list[dict[str, TrialMetrics] | Exception] = [None] * sum(len(ps) for _, ps in groups)
    pilot_pinvs: dict[bytes, tuple[object, float]] = {}
    last_point = groups[-1][1][-1][0]
    for codebook, points in groups:
        try:
            draw = draw_trial(points[0][1], pool, codebook, trial_index)
        except Exception as exc:
            draw = exc  # raised again as the synthesis error of each point below
        for k, (p, cfg) in enumerate(points):
            try:
                try:
                    if isinstance(draw, Exception):
                        raise draw
                    frame = draw.frame(cfg.sigma2)
                except Exception as exc:
                    raise RuntimeError(f"trial {trial_index}, synthesis: {exc}") from exc
                if k == len(points) - 1:
                    del draw  # its blocks and noise are not held while the last frame is scored
                out[p] = _score_frame(
                    cfg, pool, codebook, gram_pinv, trial_index, specs, frame, pilot_pinvs,
                    p == last_point,
                )
                del frame  # freed before the next frame is formed
            except RuntimeError as exc:
                out[p] = exc
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
    """Run cfg.trials trials at one point: a one-value ``snr_db`` sweep, by ``run_sweep``'s rules."""
    return run_sweep(SweepSpec(cfg, "snr_db", (cfg.snr_db,), detectors))


class _Tally:
    """One detector's sums over a sweep point's trials, added in trial order."""

    def __init__(self, counted: int):
        self.counted = counted  # trial 0's ledger
        self.miss = self.false_pos = self.sym_errors = self.sym_total = self.sinr_n = 0
        self.sinr_sum = self.wall_sum = 0.0

    def add(self, m: TrialMetrics) -> None:
        self.miss += m.miss
        self.false_pos += m.false_pos
        self.sym_errors += m.sym_errors
        self.sym_total += m.sym_total
        self.sinr_sum += float(np.sum(m.post_sinr_db))
        self.sinr_n += m.post_sinr_db.size
        self.wall_sum += m.wall_ms

    def columns(self, cfg: SystemConfig) -> dict:
        """The row's metric columns."""
        return {
            "miss_rate": _guarded_rate(self.miss, cfg.trials * cfg.K),
            "false_pos_rate": _guarded_rate(self.false_pos, cfg.trials * (cfg.N - cfg.K)),
            "ser": self.sym_errors / self.sym_total if self.sym_total else math.nan,
            "mean_post_sinr_db": self.sinr_sum / self.sinr_n if self.sinr_n else math.nan,
            "counted_mults": self.counted,
            "wall_clock_ms": self.wall_sum / cfg.trials,
        }


#: The metric columns of a point with a failed trial.
_FAILED_COLUMNS = {"counted_mults": 0} | dict.fromkeys(
    ("miss_rate", "false_pos_rate", "ser", "mean_post_sinr_db", "wall_clock_ms"), math.nan
)
#: The columns a row copies from its point's config.
_CONFIG_COLUMNS = ("snr_db", "K", "L", "N", "M", "l", "zeta", "trials", "seed")


def run_sweep(spec: SweepSpec) -> list[ResultRow]:
    """All sweep points, rows ordered by sweep value, then in ``spec``'s detector order.

    Each point's rows equal those of ``run_point`` on ``spec.config_at(value)``
    with the same detectors, relabelled with the sweep variable and value.
    The pilot pool, its Gram pseudo-inverse when a stage needs it, and each
    point's config and cost models are built once, on the caller's thread
    before the trial pool starts, so a stage with no cost model fails first.
    Points with one ``scenario.draw_key`` (configs that differ only in
    ``snr_db`` and ``zeta``) share one codebook, and a trial draws once for
    them all and forms each point's frame from that draw (so ``snr_db`` and
    ``alpha`` sweeps draw once per trial, ``K`` and ``l`` sweeps at every
    point).  A trial inverts each detected pilot block once, whichever
    points and draws detect it, and every point that uses the inverse is
    charged its full time.  One thread pool maps
    ``_trial_at_points`` over the trials, each task running its trial at
    every point; each point adds up the results in trial order as they
    arrive, so no row depends on the worker count.

    Every trial runs.  A point with any failed trial gets rows with nan
    metrics and ``counted_mults`` 0, and one stderr line, in value order:
    ``sweep point <var>=<value>: <k> of <n> trials failed; first: <msg>``,
    where ``<msg>`` is the point's first failure in trial order.  A failed
    draw fails its trial at every point that shares the draw.

    While it runs, the BLAS is pinned to one thread (``process_blas().pinned()``),
    so the trial pool owns the cores and no row depends on the BLAS thread
    count.  The pin is process-wide: other threads' BLAS calls run on one
    thread too until the last running sweep returns and restores the count.
    """
    detectors = list(spec.detectors)
    specs = {name: _spec(name) for name in detectors}
    trials = spec.base.trials  # no sweep variable changes it
    with process_blas().pinned():
        pool = synth_pool(spec.base)
        stages = [STAGE_TABLE[d.stage] for d in specs.values()]
        gram_pinv = fpr_gram_pinv(pool) if any(s.needs_gram for s in stages) else None
        points = [spec.config_at(v) for v in spec.values]
        modeled = [{n: complexity_model(cfg, d.stage).detect_mults for n, d in specs.items()} for cfg in points]
        by_key: dict[SystemConfig, list[tuple[int, SystemConfig]]] = {}
        for p, cfg in enumerate(points):
            by_key.setdefault(draw_key(cfg), []).append((p, cfg))
        groups = [(synth_codebook(ps[0][1]), ps) for ps in by_key.values()]
        trial = partial(_trial_at_points, pool, gram_pinv, specs, groups)

        tallies: list[dict[str, _Tally]] = [{} for _ in points]
        failed, first_error = [0] * len(points), [None] * len(points)
        # map yields in trial order; a failed trial yields its error, so all run
        with ThreadPoolExecutor(max_workers=worker_count()) as executor:
            for results in executor.map(trial, range(trials)):
                for p, result in enumerate(results):
                    if isinstance(result, Exception):
                        failed[p] += 1
                        first_error[p] = first_error[p] or result
                        continue
                    if not tallies[p]:  # the point's first result: trial 0, unless the point failed
                        tallies[p] = {name: _Tally(m.mult_count) for name, m in result.items()}
                    for name, m in result.items():
                        tallies[p][name].add(m)

    rows = []
    for value, cfg, models, point, k, error in zip(spec.values, points, modeled, tallies, failed, first_error):
        if k:
            msg = f"{k} of {trials} trials failed; first: {error}"
            print(f"sweep point {spec.variable}={value}: {msg}", file=sys.stderr)
        for name in detectors:
            rows.append(
                ResultRow(
                    sweep_var=spec.variable,
                    sweep_value=value,
                    detector=name,
                    modeled_mults=models[name],
                    **{c: getattr(cfg, c) for c in _CONFIG_COLUMNS},
                    **(_FAILED_COLUMNS if k else point[name].columns(cfg)),
                )
            )
    return rows


def emit_csv(rows: list[ResultRow], path: str | Path) -> None:
    """Write rows under the fixed header; floats as their ``repr``, so they read back exactly."""
    if not rows:
        raise ValueError("no rows to write")
    lines = [CSV_HEADER] + [r.csv_line() for r in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class LemmaReport:
    """Worst relative errors of the three verification suites, against ``MP_TOL`` and ``EQUIV_TOL``."""

    mp_worst: float
    noisy_equiv_worst: float
    noiseless_equiv_worst: float
    instances: int

    def _suites(self) -> list[tuple[str, int, float, float]]:
        """(label, instances, worst error, bound) of each suite."""
        n = self.instances
        return [
            ("moore-penrose identities", 2 * n, self.mp_worst, MP_TOL),
            ("weight equivalence, noisy detected sets", n, self.noisy_equiv_worst, EQUIV_TOL),
            ("weight equivalence, noiseless oracle", n, self.noiseless_equiv_worst, EQUIV_TOL),
        ]

    @property
    def ok(self) -> bool:
        return all(err <= tol for _, _, err, tol in self._suites())

    def lines(self) -> list[str]:
        return [
            f"{label} ({count} instances): worst {err:.3e} tol {tol:.0e} "
            + ("pass" if err <= tol else "FAIL")
            for label, count, err, tol in self._suites()
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


def lemma_check(iterations: int = 100, seed: int = 1) -> LemmaReport:
    """Run the pseudo-inverse and weight-equivalence suites.

    The bounds are fixed: the Moore-Penrose identities are held to
    ``MP_TOL`` and the two weight-equivalence suites to ``EQUIV_TOL``.
    ``iterations`` lies in [1, ``MAX_LEMMA_ITERATIONS``], so that no two
    instances share a stream.
    """
    iterations, seed = _whole("iterations", iterations), _whole("seed", seed)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if iterations > MAX_LEMMA_ITERATIONS:
        raise ValueError(
            f"iterations must be <= {MAX_LEMMA_ITERATIONS}, got {iterations}: beyond that the "
            "Moore-Penrose and noisy weight-equivalence suites draw from the same streams"
        )
    if not 0 <= seed < 2**64 - 1:  # the suites key streams by seed and seed + 1
        raise ValueError(f"seed must satisfy 0 <= seed < 2**64 - 1, got {seed}")
    return LemmaReport(
        mp_worst=_mp_suite(2 * iterations, seed),
        noisy_equiv_worst=_weight_equiv_suite(iterations, seed, noisy=True),
        noiseless_equiv_worst=_weight_equiv_suite(iterations, seed + 1, noisy=False),
        instances=iterations,
    )
