"""Link-level simulator and detector library for grant-free pilot activity detection."""

from .combining import WeightMatrix, demod_qpsk, dwe_weights, ls_channel_estimate, zf_weights
from .detectors import (
    DetectionResult,
    detect_bomp,
    detect_fpr,
    detect_pdrs_dwe,
    fpr_gram_pinv,
    oracle_support,
)
from .frameio import load_frame, save_frame
from .harness import (
    CSV_HEADER,
    DETECTORS,
    LemmaReport,
    ResultRow,
    SweepSpec,
    emit_csv,
    lemma_check,
    parse_config,
    run_point,
    run_sweep,
)
from .linalg import pinv
from .metrics import (
    ComplexityModel,
    TrialMetrics,
    complexity_model,
    detection_metrics,
    post_sinr,
)
from .scenario import (
    ActivityPattern,
    PdrsCodebook,
    PilotPool,
    ReceivedFrame,
    RngStream,
    SystemConfig,
    assemble_frame,
    cgauss,
    gen_pdrs_codebook,
    gen_pilot_pool,
    sample_activity,
)

__version__ = "0.1.0"

__all__ = [
    "WeightMatrix",
    "demod_qpsk",
    "dwe_weights",
    "ls_channel_estimate",
    "zf_weights",
    "DetectionResult",
    "detect_bomp",
    "detect_fpr",
    "detect_pdrs_dwe",
    "fpr_gram_pinv",
    "oracle_support",
    "load_frame",
    "save_frame",
    "CSV_HEADER",
    "DETECTORS",
    "LemmaReport",
    "ResultRow",
    "SweepSpec",
    "emit_csv",
    "lemma_check",
    "parse_config",
    "run_point",
    "run_sweep",
    "pinv",
    "ComplexityModel",
    "TrialMetrics",
    "complexity_model",
    "detection_metrics",
    "post_sinr",
    "ActivityPattern",
    "PdrsCodebook",
    "PilotPool",
    "ReceivedFrame",
    "SystemConfig",
    "assemble_frame",
    "gen_pdrs_codebook",
    "gen_pilot_pool",
    "sample_activity",
    "__version__",
]
