"""Pointwise activation functions with derivatives and Lipschitz constants.

Each activation is a frozen record so layers can be serialized by name.
``f(z, out=None)`` is act(z), written into ``out`` when given, which may be
``z`` itself. ``df(y)`` is the derivative with respect to the
pre-activation, as a function of the output y = act(z): ReLU ``y > 0``
(the conventional subgradient 0 at z = 0), ELU 1 where ``y > 0`` and
``y + 1`` elsewhere, identity 1, tanh ``1 - y*y``, sigmoid ``y*(1 - y)``.
So a layer keeps only its output for the backward pass, and a conv that
trains with the max pool after it takes the derivative at the pooled
output (``training.forward_backward``). For every activation but ELU,
``df(f(z))`` has the bytes of the textbook derivative of z wherever z is
not NaN; ELU's ``y + 1`` is ``exp(z)`` to within 2.5e-7 in float32.

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
    pools_first: bool = False


def _into(out, y):
    """``y``, written into ``out`` when one is given."""
    if out is None:
        return y
    out[...] = y
    return out


def _relu(z, out=None):
    return np.maximum(z, 0, out=out)


def _relu_df(y):
    return (y > 0).astype(y.dtype)


def _elu(z, out=None):
    # alpha = 1; computed on the clipped negative part so exp never overflows
    y = np.where(z > 0, z, np.expm1(np.minimum(z, 0)))
    return _into(out, y.astype(z.dtype, copy=False))


def _elu_df(y):
    # y + 1 is exp(z) where z <= 0, up to expm1's rounding
    return np.where(y > 0, 1, y + 1)


def _sigmoid(z, out=None):
    # split by sign for numerical stability at large |z|; pos is taken and
    # z[~pos] read before any entry of z is written, so out may be z
    out = np.empty_like(z) if out is None else out
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sigmoid_df(s):
    return s * (1 - s)


def _tanh_df(t):
    return 1 - t * t


def _identity(z, out=None):
    return z if out is z else _into(out, z)


def _identity_df(y):
    return np.ones_like(y)


ACTIVATIONS = {
    "relu": Activation("relu", _relu, _relu_df, 1.0, True),
    "elu": Activation("elu", _elu, _elu_df, 1.0),
    "sigmoid": Activation("sigmoid", _sigmoid, _sigmoid_df, 0.25),
    "tanh": Activation("tanh", np.tanh, _tanh_df, 1.0),
    "identity": Activation("identity", _identity, _identity_df, 1.0, True),
}


def get_activation(name: str) -> Activation:
    try:
        return ACTIVATIONS[name]
    except (KeyError, TypeError):  # TypeError: a list or dict, unhashable
        raise ValueError(
            f"unknown activation {name!r}; expected one of {sorted(ACTIVATIONS)}"
        ) from None
