"""Outside-in layer trace: replay a workload's trials with spans around each call.

The replay calls each module's public functions in the order
``harness.run_trial`` does, from this file, so no source file carries timing
code.  ``pinv`` is traced by rebinding the name as ``detectors`` and
``combining`` imported it; each pinv span's parent is its caller's span.
Spans stay in memory (name, start, end, parent, trial) and are written out
once the replay ends.  A span's self time is its duration minus its children's.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

import pdrslink.combining
import pdrslink.detectors
from pdrslink import (
    RngStream,
    assemble_frame,
    cgauss,
    demod_qpsk,
    detect_bomp,
    detect_fpr,
    detect_pdrs_dwe,
    detection_metrics,
    dwe_weights,
    fpr_gram_pinv,
    gen_pdrs_codebook,
    gen_pilot_pool,
    ls_channel_estimate,
    oracle_support,
    post_sinr,
    sample_activity,
    zf_weights,
)
from pdrslink._kernels import implementations
from pdrslink.harness import CODEBOOK_STREAM, POOL_STREAM, TRIAL_STREAM_BASE
from pdrslink.linalg import DEFAULT_PINV_RTOL_SCALE
from pdrslink.metrics import symbol_errors

#: Percentiles tried for the tail figure; the highest one with at least ten
#: samples beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
LAYERS = ("scenario.", "detectors.", "linalg.", "combining.", "metrics.")


class Tracer:
    """In-memory span recorder for one single-threaded replay."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.trial: list[int] = []
        self.notes: list[tuple[int, str, float]] = []
        self.current_trial = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trial.append(self.current_trial)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def note(self, idx: int, key: str, value: float) -> None:
        """Attach a count to span ``idx``."""
        self.notes.append((idx, key, value))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([name, self.start[i], self.end[i], self.parent[i], self.trial[i]]))
                fh.write("\n")
            for idx, key, value in self.notes:
                fh.write(json.dumps(["note", idx, key, value]) + "\n")


@contextmanager
def traced_pinv(tr: Tracer):
    """Rebind ``pinv`` in detectors and combining to a spanned wrapper.

    Rank is counted after the pinv span closes, in a ``trace.rank`` span, so
    it never inflates the pinv figure; layer times subtract it.
    """
    original = pdrslink.detectors.pinv

    def pinv(a, rel_tol=None):
        with tr.span("linalg.pinv") as idx:
            out = original(a, rel_tol)
        if tr.current_trial >= 0:
            with tr.span("trace.rank"):
                s = np.linalg.svd(a, compute_uv=False)
                tol = max(a.shape) * DEFAULT_PINV_RTOL_SCALE if rel_tol is None else rel_tol
                rank = int(np.count_nonzero(s > tol * s[0])) if s.size and s[0] > 0 else 0
            tr.note(idx, "rank_deficient", float(rank < min(a.shape)))
        return out

    pdrslink.detectors.pinv = pinv
    pdrslink.combining.pinv = pinv
    try:
        yield
    finally:
        pdrslink.detectors.pinv = original
        pdrslink.combining.pinv = original


def _detect(name, frame, pool, codebook, cfg, gram_pinv):
    if name in ("pdrs", "pdrs-lszf"):
        return detect_pdrs_dwe(frame, pool, codebook, cfg.zeta, cfg.svd_cost)
    if name == "bomp":
        return detect_bomp(frame, pool, cfg.zeta, cfg.svd_cost)
    if name == "fpr":
        return detect_fpr(frame, pool, cfg.zeta, gram_pinv)
    return oracle_support(frame)


def _detect_span(name: str) -> str:
    family = "pdrs" if name.startswith("pdrs") else "oracle" if name.startswith("oracle") else name
    return f"detectors.{family}.detect"


def _replay_detector(tr, name, frame, pool, codebook, cfg, gram_pinv):
    """``harness._run_one_detector``, one span per layer call."""
    with tr.span(_detect_span(name)) as idx:
        res = _detect(name, frame, pool, codebook, cfg, gram_pinv)
    tr.note(idx, "mults", res.mults)
    if name in ("pdrs", "oracle-dwe"):
        with tr.span("combining.dwe"):
            weights = dwe_weights(frame, pool, res.detected, y_pinv=res.y_pinv)
    else:
        with tr.span("combining.lszf"):
            h_est = ls_channel_estimate(frame, pool, res.detected)
            weights = zf_weights(h_est, res.detected)

    truth = frame.ground_truth
    with tr.span("metrics.score"):
        m = detection_metrics(res, truth)
    tp_mask = np.isin(res.detected, truth.active, assume_unique=True)
    tp_users = res.detected[tp_mask]
    if frame.Y_D.shape[1] and tp_users.size:
        with tr.span("combining.demod"):
            decided = demod_qpsk(weights.apply(frame.Y_D)[tp_mask])
        sent_rows = np.searchsorted(truth.active, tp_users)
        if frame.X_D is not None:
            with tr.span("metrics.score"):
                m.sym_errors = symbol_errors(decided, frame.X_D[sent_rows])
            m.sym_total = decided.size
    if frame.H is not None and tp_users.size:
        with tr.span("metrics.sinr"):
            m.post_sinr_db = post_sinr(
                weights.W[tp_mask], tp_users, frame.H, truth.active, frame.sigma2
            )
    m.mult_count = res.mults
    return m


def replay_point(tr: Tracer, cfg, detectors, first_trial: int) -> dict:
    """Replay ``run_point(cfg, detectors)``; returns per-detector output tallies."""
    tr.current_trial = -1
    with tr.span("scenario.precompute"):
        pool = gen_pilot_pool(cfg, RngStream(cfg.seed, POOL_STREAM))
        codebook = gen_pdrs_codebook(cfg, RngStream(cfg.seed, CODEBOOK_STREAM))
    gram_pinv = None
    if "fpr" in detectors:
        with tr.span("detectors.gram_pinv"):
            gram_pinv = fpr_gram_pinv(pool)

    per = {name: [] for name in detectors}
    for t in range(cfg.trials):
        tr.current_trial = first_trial + t
        with tr.span("harness.trial"):
            with tr.span("scenario.synth") as idx:
                rng = RngStream(cfg.seed, TRIAL_STREAM_BASE + t)
                activity = sample_activity(cfg, rng)
                frame = assemble_frame(cfg, pool, codebook, activity, rng)
            tr.note(idx, "channel_bytes", frame.H.nbytes)
            for name in detectors:
                with tr.span("harness.detector"):
                    per[name].append(
                        _replay_detector(tr, name, frame, pool, codebook, cfg, gram_pinv)
                    )
    tr.current_trial = -1
    return {name: tally(cfg, ms) for name, ms in per.items()}


def tally(cfg, per) -> dict:
    """The outputs ``run_point`` reduces its trials to, before rate guarding."""
    err = sum(t.sym_errors for t in per)
    tot = sum(t.sym_total for t in per)
    sinr_sum = sum(float(np.sum(t.post_sinr_db)) for t in per)
    sinr_n = sum(t.post_sinr_db.size for t in per)
    return {
        "miss_rate": sum(t.miss for t in per) / (cfg.trials * cfg.K),
        "false_pos_rate": sum(t.false_pos for t in per) / (cfg.trials * (cfg.N - cfg.K)),
        "ser": err / tot if tot else math.nan,
        "mean_post_sinr_db": sinr_sum / sinr_n if sinr_n else math.nan,
        "counted_mults": per[0].mult_count,
    }


def replay_mismatches(rows, tallies) -> list[str]:
    """Fields where the replay disagrees with the library's own rows.

    ``tallies`` maps (sweep value, detector) to a ``tally``.  A rate the
    library guarded to nan is not compared.
    """
    problems = []
    for r in rows:
        mine = tallies[(r.sweep_value, r.detector)]
        for f, v in mine.items():
            theirs = getattr(r, f)
            guarded = f.endswith("_rate") or math.isnan(v)
            if isinstance(theirs, float) and math.isnan(theirs) and guarded:
                continue
            if theirs != v:
                problems.append(f"replay {r.detector} at {r.sweep_value:g}: {f} {v!r} != {theirs!r}")
    return problems


# ---------------------------------------------------------------------------
# reduction of the spans to per-layer figures
# ---------------------------------------------------------------------------

def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of ``n`` samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) >= 1000.0 - 1e-6:
            return p
    return 50.0


class SpanStats:
    """Durations, self times and layer times (trace overhead removed) per span."""

    def __init__(self, tr: Tracer):
        n = len(tr.names)
        self.tr = tr
        dur = np.asarray(tr.end) - np.asarray(tr.start)
        child = np.zeros(n)
        traced = np.zeros(n)
        for i in range(n - 1, -1, -1):
            p = tr.parent[i]
            if p >= 0:
                child[p] += dur[i]
                traced[p] += dur[i] if tr.names[i].startswith("trace.") else traced[i]
        self.dur = dur
        self.self_time = dur - child
        self.layer_time = dur - traced
        self.notes: dict[str, list[tuple[int, float]]] = {}
        for idx, key, value in tr.notes:
            self.notes.setdefault(key, []).append((idx, value))

    def samples(self, name: str, caller: str | None = None) -> np.ndarray:
        """Layer time in seconds of each call of ``name`` inside a trial.

        Same-named spans under one parent are summed into one sample, except
        ``linalg.pinv``, where each call is a sample.  ``caller`` keeps spans whose parent's
        name starts with it.
        """
        tr = self.tr
        acc: dict[int, float] = {}
        for i, nm in enumerate(tr.names):
            if nm != name or tr.trial[i] < 0:
                continue
            p = tr.parent[i]
            if caller is not None and not tr.names[p].startswith(caller):
                continue
            key = i if name == "linalg.pinv" else p
            acc[key] = acc.get(key, 0.0) + self.layer_time[i]
        return np.fromiter(acc.values(), dtype=float, count=len(acc))

    def once(self, name: str) -> np.ndarray:
        """Layer time in seconds of each precompute span ``name``."""
        return np.array([self.layer_time[i] for i, nm in enumerate(self.tr.names) if nm == name])

    def self_by_name(self) -> dict[str, float]:
        """Total self time in seconds per span name, precompute included."""
        out: dict[str, float] = {}
        for i, nm in enumerate(self.tr.names):
            out[nm] = out.get(nm, 0.0) + self.self_time[i]
        return out


def timing(x: np.ndarray) -> tuple[float, float, float, int]:
    """(p50, tail, tail percentile, samples) in ms; zeros when the layer never ran."""
    if x.size == 0:
        return 0.0, 0.0, 0.0, 0
    p = tail_percentile(x.size)
    return float(np.median(x) * 1e3), float(np.percentile(x, p) * 1e3), p, int(x.size)


# ---------------------------------------------------------------------------
# the numpy kernels at anchor shapes
# ---------------------------------------------------------------------------

#: Anchor shapes, as in ``benchmarks/bench_kernels.py``.
KERNEL_SHAPES = {
    "row_norms_sq": ((1000, 96),),
    "col_norms_sq": ((128, 1000),),
    "abs2": ((128, 1000),),
    "residual_row_norms": ((1000, 4), (1000, 4)),
    "qpsk_decide": ((96, 240),),
}


def time_kernels(seed: int, repeats: int = 200) -> dict[str, tuple[float, int]]:
    """Median µs per call and computed bytes moved (inputs read plus output written)."""
    rng = RngStream(seed, 0)
    out = {}
    for name, (np_impl, _numba_impl) in implementations().items():
        args = [cgauss(r, c, 1.0, rng) for r, c in KERNEL_SHAPES[name]]
        result = np_impl(*args)
        moved = sum(a.nbytes for a in args) + result.nbytes
        times = np.empty(repeats)
        for k in range(repeats):
            t0 = time.perf_counter()
            np_impl(*args)
            times[k] = time.perf_counter() - t0
        out[name] = (float(np.median(times) * 1e6), moved)
    return out
