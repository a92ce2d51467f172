"""Pointwise activation functions with derivatives and Lipschitz constants.

Each activation is a frozen record so layers can be serialized by name.
``f(z, out=None)`` is act(z), written into ``out`` when given, which may be
``z`` itself. ``df`` is the derivative with respect to the pre-activation
input; the ReLU derivative at exactly zero uses the conventional subgradient
0. ``dfy``, where an activation has one, is the same derivative as a
function of the output y = act(z): ReLU ``y > 0``, identity 1, tanh
``1 - y*y``, sigmoid ``y*(1 - y)``, each the bytes of ``df(z)`` for every z
that is not NaN. ELU has none: ``expm1(z) + 1`` is not ``exp(z)`` bit for
bit. A conv that trains with the max pool after it takes its derivative at
the pooled output with ``dfy`` (``training.forward_backward``).

``pools_first`` marks the activations that are exactly monotone in floating
point, ReLU (which maps both zeros to +0.0) and the identity: max pooling
their output picks the value that pooling their input and applying them
after gives, bit for bit, also after adding a bias, so a conv's inference
forward pools first and adds its bias and applies them on the pooled maps
(``ConvLayer.forward``).
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Activation:
    name: str
    f: Callable[..., np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    dfy: Callable[[np.ndarray], np.ndarray] | None = None
    pools_first: bool = False


def _into(out, y):
    """``y``, written into ``out`` when one is given."""
    if out is None:
        return y
    out[...] = y
    return out


def _relu(z, out=None):
    return np.maximum(z, 0, out=out)


def _relu_df(z):
    return (z > 0).astype(z.dtype)


def _elu(z, out=None):
    # alpha = 1; computed on the clipped negative part so exp never overflows
    y = np.where(z > 0, z, np.expm1(np.minimum(z, 0)))
    return _into(out, y.astype(z.dtype, copy=False))


def _elu_df(z):
    out = np.where(z > 0, 1.0, np.exp(np.minimum(z, 0)))
    return out.astype(z.dtype, copy=False)


def _sigmoid(z, out=None):
    # split by sign for numerical stability at large |z|; pos is taken and
    # z[~pos] read before any entry of z is written, so out may be z
    out = np.empty_like(z) if out is None else out
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sigmoid_df(z):
    return _sigmoid_dfy(_sigmoid(z))


def _sigmoid_dfy(s):
    return s * (1 - s)


def _tanh_df(z):
    return _tanh_dfy(np.tanh(z))


def _tanh_dfy(t):
    return 1 - t * t


def _identity(z, out=None):
    return z if out is z else _into(out, z)


def _identity_df(z):
    return np.ones_like(z)


ACTIVATIONS = {
    "relu": Activation("relu", _relu, _relu_df, 1.0, _relu_df, True),
    "elu": Activation("elu", _elu, _elu_df, 1.0),
    "sigmoid": Activation("sigmoid", _sigmoid, _sigmoid_df, 0.25,
                          _sigmoid_dfy),
    "tanh": Activation("tanh", np.tanh, _tanh_df, 1.0, _tanh_dfy),
    "identity": Activation("identity", _identity, _identity_df, 1.0,
                           _identity_df, True),
}


def get_activation(name: str) -> Activation:
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; expected one of {sorted(ACTIVATIONS)}"
        ) from None
