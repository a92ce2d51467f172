"""Activation derivatives, taken at the output: ``df(f(z))`` against the
derivative of z."""

import numpy as np
import pytest

from prune_relief import get_activation

DTYPES = (np.float32, np.float64)


def special_inputs(dtype, rng):
    """Signed zeros, infinities, NaN, subnormals, the largest finite values
    and ones that saturate tanh and sigmoid, with standard normals and
    values spread over the float range."""
    info = np.finfo(dtype)
    tiny = info.smallest_subnormal
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 3 * tiny,
               -3 * tiny, info.tiny, -info.tiny, info.max, -info.max,
               1e30, -1e30, 20.0, -20.0, 100.0, -100.0, 1e-3, -1e-3]
    spread = rng.standard_normal(200) * 10.0 ** rng.integers(-40, 30, 200)
    return np.concatenate([np.array(special), rng.standard_normal(500),
                           spread]).astype(dtype)


def sigmoid_derivative(z):
    s = get_activation("sigmoid").f(z)
    return s * (1 - s)


# the derivative of each activation as a function of z
TEXTBOOK = {
    "relu": lambda z: (z > 0).astype(z.dtype),
    "identity": np.ones_like,
    "tanh": lambda z: 1 - np.tanh(z) ** 2,
    "sigmoid": sigmoid_derivative,
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", list(TEXTBOOK))
def test_derivative_at_output_has_the_bytes_of_the_derivative_at_z(
        rng, name, dtype):
    act = get_activation(name)
    z = special_inputs(dtype, rng)
    got = act.df(act.f(z))
    want = TEXTBOOK[name](z)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_elu_derivative_at_output(rng, dtype):
    act = get_activation("elu")
    z = special_inputs(dtype, rng)
    with np.errstate(over="ignore"):
        exp = np.exp(z)
    got = act.df(act.f(z))
    assert got.dtype == dtype
    assert np.all(got[z >= 0] == 1)
    assert np.all(got[z == -np.inf] == 0)
    assert np.all(np.isnan(got[np.isnan(z)]))
    rest = z < 0
    if dtype == np.float32:
        assert np.max(np.abs(got[rest] - exp[rest])) <= 2.5e-7
