"""Time one set-up of a workload in a fresh process and print it in seconds.

Set-up is importing pdrslink and building the first point's pilot pool,
codebook and, for workloads that run ``fpr``, the Gram pseudo-inverse.  A
fresh process is used so that no cache warmed by the timed calls can hide
work from set-up.  Usage: ``python3 setup_probe.py <workload> <seed>``.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pdrslink import RngStream, fpr_gram_pinv, gen_pdrs_codebook, gen_pilot_pool  # noqa: E402
from pdrslink.harness import CODEBOOK_STREAM, POOL_STREAM  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    workload = WORKLOADS[sys.argv[1]]
    cfg = workload.config(int(sys.argv[2]), call=1, trials=1)
    pool = gen_pilot_pool(cfg, RngStream(cfg.seed, POOL_STREAM))
    gen_pdrs_codebook(cfg, RngStream(cfg.seed, CODEBOOK_STREAM))
    if "fpr" in workload.detectors:
        fpr_gram_pinv(pool)
    print(f"{time.perf_counter() - t0!r}")
