"""Fused element-wise/reduction kernels with numba and pure-numpy twins.

The matrix products and SVDs that dominate the detectors run on BLAS/LAPACK
through numpy and are not touched here; the kernels below are the squared-
magnitude reductions and symbol decisions where loop fusion avoids large
temporaries.  Set ``PDRS_NUMBA=0`` in the environment to force the numpy
path (the default uses numba whenever it imports).
"""

import os

import numpy as np

try:
    import numba

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is an optional extra
    numba = None
    _HAVE_NUMBA = False

#: amplitude of each quadrature rail of a unit-power QPSK point
QPSK_RAIL = np.sqrt(0.5)


def numba_requested() -> bool:
    """True unless PDRS_NUMBA is set to 0/false/off."""
    return os.environ.get("PDRS_NUMBA", "1").strip().lower() not in ("0", "false", "off")


USE_NUMBA = _HAVE_NUMBA and numba_requested()


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------

def _row_norms_sq_np(a):
    return np.einsum("ij,ij->i", a, a.conj()).real


def _col_norms_sq_np(a):
    # squares of the interleaved (re, im) float64 view avoid a conj temporary
    f = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    s = np.einsum("ij,ij->j", f, f)
    return s[0::2] + s[1::2]


def _abs2_np(a):
    return (a * a.conj()).real


def _residual_row_norms_np(e, r):
    d = e - r
    return np.einsum("ij,ij->i", d, d.conj()).real


def _qpsk_decide_np(z):
    re = np.where(z.real >= 0.0, QPSK_RAIL, -QPSK_RAIL)
    im = np.where(z.imag >= 0.0, QPSK_RAIL, -QPSK_RAIL)
    return re + 1j * im


# ---------------------------------------------------------------------------
# numba implementations (complex128 2-D inputs)
# ---------------------------------------------------------------------------

if _HAVE_NUMBA:

    @numba.njit(cache=True)
    def _row_norms_sq_nb(a):
        n, m = a.shape
        out = np.empty(n)
        for i in range(n):
            acc = 0.0
            for j in range(m):
                v = a[i, j]
                acc += v.real * v.real + v.imag * v.imag
            out[i] = acc
        return out

    @numba.njit(cache=True)
    def _col_norms_sq_nb(a):
        n, m = a.shape
        out = np.zeros(m)
        for i in range(n):
            for j in range(m):
                v = a[i, j]
                out[j] += v.real * v.real + v.imag * v.imag
        return out

    @numba.njit(cache=True)
    def _abs2_nb(a):
        n, m = a.shape
        out = np.empty((n, m))
        for i in range(n):
            for j in range(m):
                v = a[i, j]
                out[i, j] = v.real * v.real + v.imag * v.imag
        return out

    @numba.njit(cache=True)
    def _residual_row_norms_nb(e, r):
        n, m = e.shape
        out = np.empty(n)
        for i in range(n):
            acc = 0.0
            for j in range(m):
                d = e[i, j] - r[i, j]
                acc += d.real * d.real + d.imag * d.imag
            out[i] = acc
        return out

    @numba.njit(cache=True)
    def _qpsk_decide_nb(z):
        n, m = z.shape
        rail = QPSK_RAIL
        out = np.empty((n, m), dtype=np.complex128)
        for i in range(n):
            for j in range(m):
                re = rail if z[i, j].real >= 0.0 else -rail
                im = rail if z[i, j].imag >= 0.0 else -rail
                out[i, j] = complex(re, im)
        return out

else:  # pragma: no cover - exercised only without numba installed
    _row_norms_sq_nb = None
    _col_norms_sq_nb = None
    _abs2_nb = None
    _residual_row_norms_nb = None
    _qpsk_decide_nb = None


def implementations():
    """Map kernel name -> (numpy_impl, numba_impl or None); used by tests/benchmarks."""
    return {
        "row_norms_sq": (_row_norms_sq_np, _row_norms_sq_nb),
        "col_norms_sq": (_col_norms_sq_np, _col_norms_sq_nb),
        "abs2": (_abs2_np, _abs2_nb),
        "residual_row_norms": (_residual_row_norms_np, _residual_row_norms_nb),
        "qpsk_decide": (_qpsk_decide_np, _qpsk_decide_nb),
    }


if USE_NUMBA:
    row_norms_sq = _row_norms_sq_nb
    col_norms_sq = _col_norms_sq_nb
    abs2 = _abs2_nb
    residual_row_norms = _residual_row_norms_nb
    qpsk_decide = _qpsk_decide_nb
else:
    row_norms_sq = _row_norms_sq_np
    col_norms_sq = _col_norms_sq_np
    abs2 = _abs2_np
    residual_row_norms = _residual_row_norms_np
    qpsk_decide = _qpsk_decide_np
