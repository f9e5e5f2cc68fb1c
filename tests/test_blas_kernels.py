"""The bit-level checks again under the other OpenBLAS kernel sets numpy's wheel can load.

numpy's bundled OpenBLAS is a ``DYNAMIC_ARCH`` build: it picks its kernels by
CPU, and ``OPENBLAS_CORETYPE`` makes it load another set, in that process
alone.  An AVX2 machine without AVX-512 loads ``Haswell``, an AVX one
``Sandybridge``.  For each of those sets, a test below runs ``KERNEL_CHECKS``
in a child process, after the child confirms that it loaded the set it asked
for; a BLAS that ignores the variable skips the test and names the set it
loaded.  Another test checks that every id there names a test of its file,
since a child that skips would not notice a stale one.
"""

import ast
import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent

#: Kernel sets on which the anchor Gram that ``linalg._squared_gram`` builds keeps the bits
#: of the full product ``|P P^H|^2``, and the blocked correlation those of
#: ``Z P^H`` for every frame height M (see ``correlation_keeps_full_bits``).
FULL_PRODUCT_BIT_KERNELS = ("SkylakeX", "Sandybridge")

#: The checks a kernel set may break: the Gram's exact symmetry and its Schur
#: rule, the blocked correlation's bits, and a test premise that rests on rounding.
KERNEL_CHECKS = (
    "test_detectors.py::test_the_anchor_squared_gram_is_the_conjugate_product_bit_for_bit_and_symmetric",
    "test_detectors.py::test_correlation_powers_equal_those_of_the_full_product_bit_for_bit",
    "test_linalg.py::test_the_anchor_fpr_gram_takes_the_hermitian_rule",
    "test_detectors.py::test_fpr_gram_pinv_stays_off_the_eigh_and_svd_paths",
    "test_combining.py::test_zf_falls_back_when_repeated_pilots_leave_the_pilot_block_short_of_rank",
)

#: The child: exit 3, naming the set it loaded, unless that is the set asked for.
CHILD = """
import sys
import pytest
from test_blas_kernels import loaded_kernel

kernel = loaded_kernel()
if kernel != sys.argv[1]:
    print(kernel)
    sys.exit(3)
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


def loaded_kernel() -> str | None:
    """Name of the kernel set numpy's OpenBLAS loaded, or None when its BLAS does not say."""
    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
        corename = getattr(lib, name, None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def correlation_keeps_full_bits(M: int) -> bool:
    """Whether the blocked correlation of an M-row frame keeps the full product's bits here.

    Measured with BLAS on one thread: on ``FULL_PRODUCT_BIT_KERNELS`` at every
    shape tried, and on ``Haswell`` when M mod 6 is 0 to 3 (the anchor's M = 128
    is).  At other M, ``Haswell`` rounds the last antennas of a pilot block's
    leading pilots otherwise than the same pilots inside a wider product.
    """
    kernel = loaded_kernel()
    return kernel in FULL_PRODUCT_BIT_KERNELS or (kernel == "Haswell" and M % 6 < 4)


@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge"])
def test_the_bit_level_checks_hold_under_another_kernel_set(kernel):
    src = str(TESTS.parent / "src")
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": kernel,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, str(TESTS), os.environ.get("PYTHONPATH")])),
    }
    run = subprocess.run(
        [sys.executable, "-c", CHILD, kernel, *KERNEL_CHECKS],
        cwd=TESTS, env=env, capture_output=True, text=True, timeout=300,
    )
    if run.returncode == 3:
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} loaded {run.stdout.strip()}")
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]


def test_every_kernel_check_names_a_test_in_its_file():
    missing = []
    for check in KERNEL_CHECKS:
        path, name = check.split("::")
        tree = ast.parse((TESTS / path).read_text())
        if name not in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}:
            missing.append(check)
    assert missing == []
