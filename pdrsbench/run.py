"""pdrslink benchmark: one workload, timed end to end or traced layer by layer.

    python3 pdrsbench/run.py --workload anchor-pdrs --seed 1 --seconds 20 --trace 0

``--trace 0`` times calls of the public ``run_point`` / ``run_sweep`` API for
``--seconds`` and prints the end-to-end metrics; ``--trace 1`` replays the
first call's trials with spans around each layer and prints the per-layer
metrics.  Either way the simulated outputs are checked, an environment stamp
is printed, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A failed check exits 1.

BLAS is pinned to one thread before numpy is imported, and ``PDRS_THREADS``
is cleared so the trial pool takes its default of one worker per core.
NOTES.md records why, and what each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_PROBES = 5
WARMUP_TRIALS = 4
PROBE_TIMEOUT_S = 120

#: name -> unit of the metrics printed with --trace 0.
END_TO_END = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

DETECTOR_NAMES = ("pdrs", "pdrs-lszf", "fpr", "oracle", "bomp")
KERNELS = ("row_norms_sq", "col_norms_sq", "abs2", "residual_row_norms", "qpsk_decide")
_TIMED_LAYERS = (
    "scenario.synth_ms",
    *(f"detectors.{d}.detect_ms" for d in ("pdrs", "fpr", "bomp")),
    "linalg.pinv_ms.detectors",
    "linalg.pinv_ms.combining",
    "combining.dwe_ms",
    "combining.lszf_ms",
    "combining.demod_ms",
    "metrics.sinr_ms",
    "metrics.score_ms",
)

#: name -> unit of the metrics printed with --trace 1.
PER_LAYER = {
    **{f"{t}.{q}": "ms" for t in _TIMED_LAYERS for q in ("p50", "tail")},
    "scenario.channel_bytes": "B",
    "scenario.precompute_ms": "ms",
    **{f"detectors.{d}.counted_mults": "count" for d in ("pdrs", "fpr", "bomp")},
    **{f"detectors.{d}.gmults_per_s": "Gmult/s" for d in ("pdrs", "fpr", "bomp")},
    "detectors.gram_pinv_s": "s",
    "linalg.pinv_calls": "1/trial",
    "linalg.pinv_rank_deficient_calls": "1/trial",
    **{f"harness.detector_ms.{d}": "ms" for d in DETECTOR_NAMES},
    "harness.serial_trials_per_s": "1/s",
    "harness.pool_speedup": "x",
    "harness.trace_overhead": "x",
    "harness.span_coverage": "share",
    **{f"kernels.{k}_us": "us" for k in KERNELS},
    **{f"kernels.{k}_gbps": "GB/s" for k in KERNELS},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def env_stamp(workload: str, seed: int) -> dict:
    import numpy as np
    from pdrslink.harness import worker_count

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    src = hashlib.sha256()
    for f in sorted((SRC / "pdrslink").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **{k: os.environ.get(k, "unset") for k in BLAS_PIN},
        "PDRS_THREADS": os.environ.get("PDRS_THREADS", "unset"),
        "trial_workers": worker_count(),
        "git_rev": git_rev(),
        "src_sha256": src.hexdigest()[:16],
    }


def git_rev() -> str:
    """HEAD of the repository rooted at ROOT, or "none" outside one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "none"
    if len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return "none"
    return out[1]


def setup_seconds(workload, seed: int) -> float:
    """Median set-up time over fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def warm_up(workload, seed: int):
    """A short call at the first point, so lazy set-up and thread start-up are not timed."""
    from pdrslink import run_point

    return run_point(workload.config(seed, call=0, trials=WARMUP_TRIALS), list(workload.detectors))


def timed_run(workload, seed: int, seconds: float):
    """Timed API calls until the next one would overrun ``seconds``.

    Returns (end-to-end metrics, problems, attempted trials, failed trials).
    """
    import checks

    setup = setup_seconds(workload, seed)
    warm = warm_up(workload, seed)
    problems = checks.check_rows(warm, rates=False)
    attempted, failed = WARMUP_TRIALS, checks.failed_trials(warm)

    per_call = workload.chunk_trials * workload.n_points
    rates = []
    call = 1
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = workload.run(seed, call, workload.chunk_trials)
        dt = time.perf_counter() - t0
        rates.append(per_call / dt)
        problems += checks.check_rows(out)
        attempted += per_call
        failed += checks.failed_trials(out)
        call += 1
        if time.perf_counter() - start + dt > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"timed {len(rates)} calls of {per_call} trials in {time.perf_counter() - start:.2f} s; "
          f"per-call trials/s {', '.join(f'{r:.2f}' for r in rates)}")
    metrics = {
        "trials_per_s": statistics.median(rates),
        "setup_s": setup,
        "peak_rss_mb": peak_mb,
    }
    return metrics, problems, attempted, failed


def traced_run(workload, seed: int):
    """Pooled, serial and traced runs of the first call's trials.

    Returns (per-layer metrics, problems, attempted trials, failed trials).
    """
    import numpy as np

    import checks
    import tracing

    warm = warm_up(workload, seed)
    problems = checks.check_rows(warm, rates=False)
    trials = workload.trace_trials
    per_call = trials * workload.n_points

    t0 = time.perf_counter()
    pool_rows = workload.run(seed, 1, trials)
    pool_s = time.perf_counter() - t0
    os.environ["PDRS_THREADS"] = "1"
    try:
        t0 = time.perf_counter()
        serial_rows = workload.run(seed, 1, trials)
        serial_s = time.perf_counter() - t0
    finally:
        del os.environ["PDRS_THREADS"]
    problems += checks.check_rows(pool_rows) + checks.check_rows(serial_rows)
    if not checks.same_outputs(pool_rows, serial_rows):
        problems.append("pooled and serial runs of the same trials differ")

    tr = tracing.Tracer()
    tallies = {}
    t0 = time.perf_counter()
    with tracing.traced_pinv(tr):
        for k, cfg in enumerate(workload.points(seed, 1, trials)):
            for name, tally in tracing.replay_point(tr, cfg, workload.detectors, k * trials).items():
                tallies[(cfg.snr_db, name)] = tally
    replay_s = time.perf_counter() - t0
    problems += tracing.replay_mismatches(serial_rows, tallies)
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"spans-{workload.name}-{seed}.jsonl")

    stats = tracing.SpanStats(tr)
    m = {}
    print(f"{'layer timing':<36}{'p50 ms':>10}{'tail ms':>10}{'pct':>6}{'n':>7}")

    def put_timing(name, samples):
        p50, tail, pct, n = tracing.timing(samples)
        m[f"{name}.p50"], m[f"{name}.tail"] = p50, tail
        print(f"{name:<36}{p50:>10.4f}{tail:>10.4f}{pct:>6g}{n:>7}")

    def notes(key, span=None):
        return [v for i, v in stats.notes.get(key, []) if span is None or tr.names[i] == span]

    put_timing("scenario.synth_ms", stats.samples("scenario.synth"))
    m["scenario.channel_bytes"] = float(np.median(notes("channel_bytes")))
    m["scenario.precompute_ms"] = float(np.median(stats.once("scenario.precompute")) * 1e3)
    for det in ("pdrs", "fpr", "bomp"):
        span = f"detectors.{det}.detect"
        x = stats.samples(span)
        put_timing(f"{span}_ms", x)
        mults = notes("mults", span)
        m[f"detectors.{det}.counted_mults"] = float(np.median(mults)) if mults else 0.0
        m[f"detectors.{det}.gmults_per_s"] = sum(mults) / x.sum() / 1e9 if x.size else 0.0
    gram = stats.once("detectors.gram_pinv")
    m["detectors.gram_pinv_s"] = float(np.median(gram)) if gram.size else 0.0
    put_timing("linalg.pinv_ms.detectors", stats.samples("linalg.pinv", caller="detectors."))
    put_timing("linalg.pinv_ms.combining", stats.samples("linalg.pinv", caller="combining."))
    m["linalg.pinv_calls"] = stats.samples("linalg.pinv").size / per_call
    m["linalg.pinv_rank_deficient_calls"] = sum(notes("rank_deficient")) / per_call
    for layer in ("combining.dwe", "combining.lszf", "combining.demod", "metrics.sinr", "metrics.score"):
        put_timing(f"{layer}_ms", stats.samples(layer))

    for d in DETECTOR_NAMES:
        walls = [r.wall_clock_ms for r in serial_rows if r.detector == d]
        m[f"harness.detector_ms.{d}"] = statistics.fmean(walls) if walls else 0.0
    m["harness.serial_trials_per_s"] = per_call / serial_s
    m["harness.pool_speedup"] = serial_s / pool_s
    m["harness.trace_overhead"] = replay_s / serial_s
    own = stats.self_by_name()
    layer_self = sum(v for k, v in own.items() if k.startswith(tracing.LAYERS))
    m["harness.span_coverage"] = layer_self / replay_s
    print(f"traced replay {replay_s:.3f} s, serial {serial_s:.3f} s, pooled {pool_s:.3f} s")
    print("self time per trial, ms: " + ", ".join(
        f"{k} {v / per_call * 1e3:.3f}" for k, v in sorted(own.items(), key=lambda kv: -kv[1])))

    for k, (us, moved) in tracing.time_kernels(seed).items():
        m[f"kernels.{k}_us"] = us
        m[f"kernels.{k}_gbps"] = moved / (us * 1e-6) / 1e9
        print(f"kernel {k}: {us:.2f} us, {moved} B computed, {moved / us / 1e3:.2f} GB/s")

    attempted = WARMUP_TRIALS + 3 * per_call
    failed = sum(checks.failed_trials(r) for r in (warm, pool_rows, serial_rows))
    return m, problems, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pdrslink" / "__init__.py").is_file():
        print(f"error: no pdrslink sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)
    os.environ.pop("PDRS_THREADS", None)
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}, choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        workload.config(args.seed, call=0, trials=1)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env_stamp(workload.name, args.seed)))

    if args.trace:
        values, problems, attempted, failed = traced_run(workload, args.seed)
        units = PER_LAYER
    else:
        values, problems, attempted, failed = timed_run(workload, args.seed, args.seconds)
        units = END_TO_END
    for p in problems:
        print(f"check failed: {p}")
    print(f"failed_share {failed / attempted!r} share ({failed} of {attempted} trials)")
    values = {name: float(v) for name, v in values.items()}
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
