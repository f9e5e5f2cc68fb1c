import re

import numpy as np
import pytest

from pdrslink.scenario import RngStream, cgauss


def test_same_key_reproduces_bitwise():
    a = cgauss(5, 7, 1.0, RngStream(42, 3))
    b = cgauss(5, 7, 1.0, RngStream(42, 3))
    assert np.array_equal(a, b)


def test_streams_are_distinct():
    a = cgauss(5, 7, 1.0, RngStream(42, 0))
    b = cgauss(5, 7, 1.0, RngStream(42, 1))
    c = cgauss(5, 7, 1.0, RngStream(43, 0))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_advances_between_draws():
    rng = RngStream(7, 0)
    a = cgauss(3, 3, 1.0, rng)
    b = cgauss(3, 3, 1.0, rng)
    assert not np.array_equal(a, b)


def test_variance_scaling_is_exact():
    # doubling the variance scales the identical base draws by exactly sqrt(2)
    a = cgauss(6, 4, 1.0, RngStream(9, 5))
    b = cgauss(6, 4, 2.0, RngStream(9, 5))
    assert np.array_equal(b, a * np.sqrt(2.0))


@pytest.mark.parametrize("variance", [1.0, 10 ** -0.4])
def test_cgauss_is_the_scaled_pair_of_normal_draws_bit_for_bit(variance):
    # real parts first, then imaginary parts, scaled by sqrt(0.5) and then by sqrt(variance)
    twin = RngStream(21, 4).gen
    re = twin.standard_normal((7, 9))
    im = twin.standard_normal((7, 9))
    expect = (re + 1j * im) * np.sqrt(0.5) * np.sqrt(variance)
    got = cgauss(7, 9, variance, RngStream(21, 4))
    assert got.dtype == np.complex128
    assert np.array_equal(got.view(np.float64), expect.view(np.float64))


def test_moments():
    x = cgauss(400, 400, 3.0, RngStream(11, 0))
    assert abs(np.mean(x.real)) < 0.02
    assert abs(np.mean(x.imag)) < 0.02
    assert abs(np.mean(np.abs(x) ** 2) - 3.0) < 0.05
    # circular symmetry: real and imaginary parts carry half the power each
    assert abs(np.var(x.real) - 1.5) < 0.05


def test_the_generator_is_keyed_not_passed_in():
    with pytest.raises(TypeError):
        RngStream(7, 0, np.random.default_rng(7))
    assert list(RngStream(7, 3).gen.bit_generator.state["state"]["key"]) == [7, 3]
    whole = RngStream(7.0, np.uint64(3))
    assert (whole.seed, whole.stream_id) == (7, 3)
    assert type(whole.seed) is type(whole.stream_id) is int


def test_rejects_bad_arguments():
    rng = RngStream(1, 0)
    with pytest.raises(ValueError):
        cgauss(0, 3, 1.0, rng)
    with pytest.raises(ValueError):
        cgauss(3, 0, 1.0, rng)
    with pytest.raises(ValueError):
        cgauss(3, 3, 0.0, rng)
    with pytest.raises(ValueError):
        cgauss(3, 3, -1.0, rng)


@pytest.mark.parametrize(
    "key, message",
    [
        ((1.5, 0), "seed takes whole numbers, got 1.5"),
        ((1, 0.5), "stream_id takes whole numbers, got 0.5"),
        ((-1, 0), "seed must satisfy 0 <= seed < 2**64, got -1"),
        ((0, 2**64), f"stream_id must satisfy 0 <= stream_id < 2**64, got {2**64}"),
    ],
)
def test_a_stream_key_is_two_whole_numbers_below_2_64(key, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RngStream(*key)
