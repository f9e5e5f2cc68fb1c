"""Command-line front end.

Verbs: ``sweep`` runs a Monte-Carlo sweep and emits CSV, ``detect`` scores
one detector on a stored frame, ``complexity`` prints the modeled/counted
multiplication ledger, ``lemma-check`` runs the numerical verification
suites, and ``gen-frame`` writes a frame container to disk.
"""

import argparse
import sys
from dataclasses import replace

from . import frameio, harness
from .detectors import fpr_gram_pinv
from .metrics import complexity_model, detection_metrics
from .scenario import SystemConfig, synth_codebook, synth_frame, synth_pool

__all__ = ["main"]


def _load_config(args) -> SystemConfig:
    cfg = harness.parse_config(args.config) if args.config else SystemConfig()
    overrides = {}
    if getattr(args, "trials", None) is not None:
        overrides["trials"] = args.trials
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return replace(cfg, **overrides) if overrides else cfg


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    detectors = [d.strip() for d in args.detectors.split(",") if d.strip()]
    spec = harness.SweepSpec(base=cfg, variable=args.var, values=values, detectors=detectors)
    rows = harness.run_sweep(spec)
    if args.out:
        harness.emit_csv(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(harness.CSV_HEADER)
        for row in rows:
            print(row.csv_line())
    return 0


def _cmd_detect(args) -> int:
    frame, pool, codebook = frameio.load_frame(args.frame)
    truth = frame.ground_truth
    zeta = args.zeta if args.zeta is not None else truth.K
    if not 1 <= zeta <= truth.n_pilots:
        raise ValueError(f"zeta must satisfy 1 <= zeta <= N = {truth.n_pilots}, got {zeta}")
    spec = harness.STAGE_TABLE[harness.DETECTOR_TABLE[args.detector].stage]
    gram_pinv = fpr_gram_pinv(pool) if spec.needs_gram else None
    # a stored frame carries no config, so svd_cost keeps its default
    res = spec.detect(frame, pool, codebook, zeta, SystemConfig.svd_cost, gram_pinv)
    m = detection_metrics(res, truth)
    print(
        f"frame: M={frame.M} N={truth.n_pilots} L={pool.length} "
        f"l={codebook.length} D={frame.Y_D.shape[1]} K={truth.K} sigma2={frame.sigma2:.6g}"
    )
    print(f"detector: {args.detector}, zeta={zeta}")
    print(
        f"true_pos={m.true_pos} false_pos={m.false_pos} miss={m.miss} "
        f"miss_rate={m.per_user_miss_rate:.6g}"
    )
    print(f"counted complex mults: {res.mults}")
    if res.real_mults:
        print(f"counted real mults: {res.real_mults}")
    return 0


def _cmd_complexity(args) -> int:
    cfg = _load_config(args)
    norm = cfg.K**3

    pool, codebook = synth_pool(cfg), synth_codebook(cfg)
    frame = synth_frame(cfg, pool, codebook, 0)

    # one row per detection stage; its name keys its complexity model
    counted: dict[str, int] = {}
    for name, spec in harness.STAGE_TABLE.items():
        gram_pinv = fpr_gram_pinv(pool) if spec.needs_gram else None
        counted[name] = spec.detect(frame, pool, codebook, cfg.zeta, cfg.svd_cost, gram_pinv).mults
    models = {name: complexity_model(cfg, name) for name in counted}

    print(
        f"config: M={cfg.M} N={cfg.N} L={cfg.L} l={cfg.l} K={cfg.K} "
        f"zeta={cfg.zeta} svd_cost={cfg.svd_cost}"
    )
    print(f"normalizer: K^3 = {norm}")
    header = (
        f"{'detector':<8} {'modeled':>14} {'counted':>14} {'agree%':>7} "
        f"{'weights':>12} {'real':>10} {'modeled/K^3':>12} {'counted/K^3':>12}"
    )
    print(header)
    lines = ["detector,modeled_mults,counted_mults,weight_mults,real_mults,"
             "normalizer,modeled_over_normalizer,counted_over_normalizer"]
    for name, model in models.items():
        got = counted[name]
        agree = 100.0 * (got - model.detect_mults) / model.detect_mults if model.detect_mults else 0.0
        print(
            f"{name:<8} {model.detect_mults:>14} {got:>14} {agree:>6.2f}% "
            f"{model.weight_mults:>12} {model.real_mults:>10} "
            f"{model.detect_mults / norm:>12.4g} {got / norm:>12.4g}"
        )
        lines.append(
            f"{name},{model.detect_mults},{got},{model.weight_mults},"
            f"{model.real_mults},{norm},{model.detect_mults / norm:.6g},{got / norm:.6g}"
        )
    bm, fm, pm = (models[n].detect_mults for n in ("bomp", "fpr", "pdrs"))
    print(f"modeled ratios: bomp/fpr = {bm / fm:.4g}, fpr/pdrs = {fm / pm:.4g}")
    bc, fc, pc = (counted[n] for n in ("bomp", "fpr", "pdrs"))
    print(f"counted ratios: bomp/fpr = {bc / fc:.4g}, fpr/pdrs = {fc / pc:.4g}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_lemma_check(args) -> int:
    report = harness.lemma_check(
        iterations=args.iterations, equiv_tol=args.tol, seed=args.seed
    )
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_gen_frame(args) -> int:
    cfg = _load_config(args)
    pool, codebook = synth_pool(cfg), synth_codebook(cfg)
    frame = synth_frame(cfg, pool, codebook, 0)
    frameio.save_frame(args.out, frame, pool, codebook)
    print(
        f"wrote {args.out}: M={cfg.M} N={cfg.N} L={cfg.L} l={cfg.l} "
        f"D={cfg.D} K={cfg.K} sigma2={cfg.sigma2:.6g}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdrslink",
        description="Link-level simulator for grant-free pilot activity detection.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("sweep", help="run a Monte-Carlo sweep and emit CSV")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--var", default="snr_db", choices=harness.SWEEP_VARS)
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.add_argument("--detectors", default="pdrs,bomp,fpr,oracle")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("detect", help="run one detector on a stored frame")
    p.add_argument("--frame", required=True, help="frame container path")
    p.add_argument("--detector", default="pdrs", choices=harness.DETECTORS)
    p.add_argument("--zeta", type=int, help="support size (default: true K)")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("complexity", help="print the multiplication ledger")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="also write the ledger as CSV")
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("lemma-check", help="run the numerical verification suites")
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-8, help="weight-equivalence tolerance")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_lemma_check)

    p = sub.add_parser("gen-frame", help="write a frame container to disk")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output frame path")
    p.set_defaults(func=_cmd_gen_frame)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
