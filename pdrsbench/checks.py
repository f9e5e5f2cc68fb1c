"""Output checks on the ResultRows a workload produced.

The tolerances are the acceptance suite's, unchanged: the ledger within 10%
of the model (criterion 8), the reference-residual miss rate at most 2e-2
(criterion 6), greedy pursuit above twice that bound (criterion 7), and the
two pdrs combiners agreeing (criterion 9).  A guarded-rate ``nan`` is allowed;
a diagnostic row, which marks an abandoned sweep point, is not.
"""

import math

LEDGER_TOL = 0.10
PDRS_MISS_BOUND = 2e-2
EQUAL_RTOL = 1e-6


def is_diagnostic(row) -> bool:
    """The row run_point emits for a point whose trials were abandoned."""
    return math.isnan(row.wall_clock_ms) and row.counted_mults == 0


def failed_trials(rows) -> int:
    """Trials lost to abandoned points; one diagnostic row voids its whole point."""
    points = {}
    for r in rows:
        key = (r.sweep_var, r.sweep_value, r.seed)
        points[key] = max(points.get(key, 0), r.trials if is_diagnostic(r) else 0)
    return sum(points.values())


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= EQUAL_RTOL * max(abs(a), abs(b))


def check_rows(rows, rates: bool = True) -> list[str]:
    """Every violated check, one message each; empty when all pass.

    ``rates=False`` skips the miss-rate bounds, which need more active-user
    samples than a warm-up call draws.
    """
    problems = []
    by_point: dict = {}
    for r in rows:
        where = f"{r.detector} at {r.sweep_var}={r.sweep_value:g} seed={r.seed}"
        by_point.setdefault((r.sweep_value, r.seed), {})[r.detector] = r
        if is_diagnostic(r):
            problems.append(f"{where}: diagnostic row, the point was abandoned")
            continue
        if r.modeled_mults == 0:
            ledger_ok = r.counted_mults == 0
        else:
            ledger_ok = abs(r.counted_mults - r.modeled_mults) <= LEDGER_TOL * r.modeled_mults
        if not ledger_ok:
            problems.append(
                f"{where}: counted mults {r.counted_mults} not within "
                f"{LEDGER_TOL:.0%} of modeled {r.modeled_mults}"
            )
        if r.detector == "oracle" and (r.miss_rate != 0.0 or r.false_pos_rate != 0.0):
            problems.append(f"{where}: oracle miss {r.miss_rate} / false pos {r.false_pos_rate}")
        if rates and r.detector == "pdrs" and r.miss_rate > PDRS_MISS_BOUND:
            problems.append(f"{where}: miss rate {r.miss_rate:.3g} above {PDRS_MISS_BOUND}")
        if rates and r.detector == "bomp" and r.miss_rate <= 2 * PDRS_MISS_BOUND:
            problems.append(f"{where}: miss rate {r.miss_rate:.3g} not above {2 * PDRS_MISS_BOUND}")
    for dets in by_point.values():
        a, b = dets.get("pdrs"), dets.get("pdrs-lszf")
        if a is None or b is None or is_diagnostic(a) or is_diagnostic(b):
            continue
        for f in ("miss_rate", "ser", "mean_post_sinr_db"):
            if not _close(getattr(a, f), getattr(b, f)):
                problems.append(
                    f"pdrs vs pdrs-lszf at seed={a.seed}: {f} {getattr(a, f)!r} != "
                    f"{getattr(b, f)!r} (rtol {EQUAL_RTOL})"
                )
    return problems


def same_outputs(a, b) -> bool:
    """True when two row lists carry identical simulated outputs (nan equals nan).

    Wall-clock time is the one field left out.
    """
    def key(rows):
        return [
            tuple("nan" if isinstance(v, float) and math.isnan(v) else v for v in (
                r.detector, r.sweep_value, r.seed, r.trials, r.miss_rate, r.false_pos_rate,
                r.ser, r.mean_post_sinr_db, r.counted_mults,
            ))
            for r in rows
        ]
    return key(a) == key(b)
