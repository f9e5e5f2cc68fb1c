"""Binary frame container.

Layout of version 2 (little-endian): the 8-byte magic ``PDRSFRM2``; six
u32 fields M, N, L, l, D, K; one f64 noise variance; one u8 codebook mode,
the index of the mode in ``scenario.PDRS_MODES`` (0 gaussian, 1
orthogonal-reuse); then the matrices Y_R (M x l), Y (M x L), Y_D (M x D),
P (N x L), R (N x l), each stored row-major as (real, imag) f64 pairs;
finally the K sorted active user indices as u32.  Version 1 (magic
``PDRSFRM1``) is the same without the mode byte; it is still read, and its
codebook is labelled gaussian.  The container carries everything a detector
needs plus the true support, but not the channel or transmitted data symbols.
"""

import struct
from pathlib import Path

import numpy as np

from .scenario import PDRS_MODES, ActivityPattern, PdrsCodebook, PilotPool, ReceivedFrame

__all__ = ["MAGIC", "MAGIC_V1", "save_frame", "load_frame"]

#: magic of the version written; MAGIC_V1 marks the older, mode-less layout
MAGIC = b"PDRSFRM2"
MAGIC_V1 = b"PDRSFRM1"

_HEADER = struct.Struct("<6Id")
_MODE = struct.Struct("<B")


def _write_cmatrix(out: list[bytes], a: np.ndarray) -> None:
    out.append(np.ascontiguousarray(a, dtype=np.complex128).view(np.float64).tobytes())


def _read_cmatrix(buf: memoryview, offset: int, rows: int, cols: int) -> tuple[np.ndarray, int]:
    count = 2 * rows * cols
    end = offset + 8 * count
    if end > len(buf):
        raise ValueError("frame file truncated inside a matrix block")
    flat = np.frombuffer(buf[offset:end], dtype=np.float64)
    return flat.view(np.complex128).reshape(rows, cols).copy(), end


def save_frame(
    path: str | Path,
    frame: ReceivedFrame,
    pool: PilotPool,
    codebook: PdrsCodebook,
) -> None:
    """Serialize one frame plus the pool and codebook that produced it."""
    M = frame.M
    N = pool.n_pilots
    L = pool.length
    ell = codebook.length
    D = frame.Y_D.shape[1]
    K = frame.ground_truth.K
    if frame.Y.shape != (M, L) or frame.Y_R.shape != (M, ell):
        raise ValueError("frame blocks are inconsistent with the pool/codebook dimensions")
    if frame.ground_truth.n_pilots != N:
        raise ValueError(f"ground truth counts {frame.ground_truth.n_pilots} pilots, the pool has {N}")
    if codebook.R.shape[0] != N:
        raise ValueError(f"codebook has {codebook.R.shape[0]} reference rows, the pool has {N} pilots")

    out: list[bytes] = [
        MAGIC,
        _HEADER.pack(M, N, L, ell, D, K, frame.sigma2),
        _MODE.pack(PDRS_MODES.index(codebook.mode)),
    ]
    _write_cmatrix(out, frame.Y_R)
    _write_cmatrix(out, frame.Y)
    _write_cmatrix(out, frame.Y_D)
    _write_cmatrix(out, pool.P)
    _write_cmatrix(out, codebook.R)
    out.append(frame.ground_truth.active.astype(np.uint32).tobytes())
    Path(path).write_bytes(b"".join(out))


def load_frame(path: str | Path) -> tuple[ReceivedFrame, PilotPool, PdrsCodebook]:
    """Read a version 1 or 2 frame container; ValueError on a bad magic, mode, size or nan/inf."""
    raw = Path(path).read_bytes()
    magic = raw[: len(MAGIC)]
    off = len(MAGIC) + _HEADER.size + (_MODE.size if magic == MAGIC else 0)
    if len(raw) < off:
        raise ValueError(f"{path}: too short to be a frame container")
    if magic not in (MAGIC, MAGIC_V1):
        raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r} or {MAGIC_V1!r}")
    M, N, L, ell, D, K, sigma2 = _HEADER.unpack_from(raw, len(MAGIC))
    mode = "gaussian"
    if magic == MAGIC:
        (code,) = _MODE.unpack_from(raw, off - _MODE.size)
        if code >= len(PDRS_MODES):
            raise ValueError(f"{path}: unknown codebook mode byte {code}")
        mode = PDRS_MODES[code]

    buf = memoryview(raw)
    Y_R, off = _read_cmatrix(buf, off, M, ell)
    Y, off = _read_cmatrix(buf, off, M, L)
    Y_D, off = _read_cmatrix(buf, off, M, D)
    P, off = _read_cmatrix(buf, off, N, L)
    R, off = _read_cmatrix(buf, off, N, ell)
    end = off + 4 * K
    if end != len(raw):
        raise ValueError(f"{path}: size mismatch, expected {end} bytes, file has {len(raw)}")
    active = np.frombuffer(buf[off:end], dtype=np.uint32).astype(np.int64)
    for name, block in (("Y_R", Y_R), ("Y", Y), ("Y_D", Y_D)):
        if not np.isfinite(block).all():
            raise ValueError(f"{path}: {name} holds a non-finite entry")

    pattern = ActivityPattern(active, N)
    frame = ReceivedFrame(Y_R=Y_R, Y=Y, Y_D=Y_D, ground_truth=pattern, sigma2=sigma2)
    return frame, PilotPool(P), PdrsCodebook(R, mode=mode)
