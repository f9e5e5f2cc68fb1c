"""Fused element-wise/reduction kernels in numpy.

The matrix products and inverses of the detectors and combiners run on
BLAS/LAPACK through numpy and are not touched here; the kernels below are
the squared-magnitude reductions and symbol decisions where one fused
expression avoids large temporaries.
"""

import numpy as np

#: amplitude of each quadrature rail of a unit-power QPSK point
QPSK_RAIL = np.sqrt(0.5)


def row_norms_sq(a):
    """Per-row squared l2 norms: out[k] = sum_j |a[k, j]|^2."""
    return np.einsum("ij,ij->i", a, a.conj()).real


def col_norms_sq(a):
    """Per-column squared l2 norms: out[k] = sum_i |a[i, k]|^2."""
    # squares of the interleaved (re, im) float64 view avoid a conj temporary
    f = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    s = np.einsum("ij,ij->j", f, f)
    return s[0::2] + s[1::2]


def abs2(a):
    """Element-wise squared magnitude |a[i, j]|^2 as a real matrix."""
    return (a * a.conj()).real


def residual_row_norms(e, r):
    """Per-row squared l2 norms of ``e - r``."""
    return row_norms_sq(e - r)


def qpsk_decide(z, out=None):
    """Nearest unit-power QPSK point by the signs of each part.

    A part that is >= 0.0 (-0.0 and +inf included) decides to the positive
    rail, any other (nan included) to the negative one.  Both rails come from
    one mask over the interleaved (re, im) float64 view: ``mask * 2R - R``
    is exactly +R or -R.  The decisions go to ``out``, a C-contiguous
    complex128 array of ``z``'s shape, when given; it may be ``z`` itself,
    since the mask is formed before any rail is written.
    """
    f = np.ascontiguousarray(z, dtype=np.complex128).view(np.float64)
    if out is None:
        out = np.empty(f.shape[:-1] + (f.shape[-1] // 2,), dtype=np.complex128)
    elif out.shape != np.shape(z) or out.dtype != np.complex128 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous complex128 array of shape {np.shape(z)}")
    rails = out.view(np.float64)
    np.multiply(f >= 0.0, 2.0 * QPSK_RAIL, out=rails)
    rails -= QPSK_RAIL
    return out


def implementations():
    """Map kernel name -> (impl, None); the second slot is kept for callers that unpack pairs."""
    kernels = (row_norms_sq, col_norms_sq, abs2, residual_row_norms, qpsk_decide)
    return {f.__name__: (f, None) for f in kernels}
