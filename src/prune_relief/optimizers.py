"""SGD with momentum and Adam over a flat list of tensors, in place.

Weight decay is classic L2 added to the gradient before any moment update
(not decoupled). The optimizer knows nothing of pruning: a layer's
``backward`` is the one place that zeroes the gradient of a pruned entry,
so the optimizer sees exactly 0 (or -0.0) there. A pruned parameter is
exactly 0 as well (layers enforce it) and an ``Optimizer``'s moments start
at 0, so the entry's effective gradient and update are ±0, and the
parameter and its moments stay ±0 no matter how many steps run. This needs
the pruning fixed for the optimizer's life: the pipeline prunes between
``train`` calls, and each builds a new one, so every retrain starts from
zero moments (Adam) or zero velocity (SGD).

Adam runs in the "efficient version" of Kingma & Ba, "Adam: A Method for
Stochastic Optimization" (2015), end of Section 2: both bias corrections
are folded into one step size and one epsilon per step, computed as Python
floats, and the moments are kept scaled so that their updates need no
``1 - beta`` factor (``adam_step`` gives the expressions). In real
arithmetic this is the textbook update; in float32 it rounds differently,
so its bytes differ from the textbook form's on purpose, and the run
fingerprints in ``tests/test_fingerprint.py`` are this form's.

Each step is fused: it runs in place on the parameter and its state, and
performs the same float operations in the same order as the whole-tensor
expressions in the step docstrings, so it gives the same bytes. It walks
each tensor in blocks of ``BLOCK`` entries and runs every pass of a block
before it moves on, so the block's slices of the parameter, its state and
the gradient stay in cache across the passes (Adam makes 12 with one
divide and one square root, SGD 6); each operation is elementwise, so the
blocks give the bytes of one whole-tensor pass. The temporaries go into a
scratch pair of ``min(BLOCK, largest tensor)`` entries that every tensor of
an ``Optimizer`` shares.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class LrSpan:
    """Learning rate over an inclusive 1-based epoch range."""

    first_epoch: int
    last_epoch: int
    lr: float


@dataclass
class OptimizerConfig:
    kind: str = "adam"
    epochs: int = 1
    batch_size: int = 128
    lr_schedule: list = field(default_factory=lambda: [LrSpan(1, 1, 1e-3)])
    weight_decay: float = 0.0
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def validate(self) -> "OptimizerConfig":
        if self.kind not in ("sgd", "adam"):
            raise ConfigError(f"optimizer kind must be 'sgd' or 'adam', got "
                              f"{self.kind!r}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay must be finite and >= 0, got "
                              f"{self.weight_decay}")
        # beta1 or beta2 of 1 makes Adam's bias corrections divide by 0,
        # and an eps of 0 makes the update 0/0 on every entry whose
        # gradient is 0
        for name in ("momentum", "beta1", "beta2"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {value}")
        if not self.eps > 0:
            raise ConfigError(f"eps must be > 0, got {self.eps}")
        if not self.lr_schedule:
            raise ConfigError("lr_schedule must not be empty")
        expect = 1
        for span in self.lr_schedule:
            if span.first_epoch != expect:
                raise ConfigError(
                    f"lr_schedule spans must be contiguous from epoch 1: span "
                    f"starting at {span.first_epoch} should start at {expect}")
            if span.last_epoch < span.first_epoch:
                raise ConfigError(f"lr_schedule span [{span.first_epoch}, "
                                  f"{span.last_epoch}] is empty")
            if not (math.isfinite(span.lr) and span.lr > 0):
                raise ConfigError(f"learning rate (lr) must be finite and "
                                  f"> 0, got {span.lr}")
            expect = span.last_epoch + 1
        if expect != self.epochs + 1:
            raise ConfigError(f"lr_schedule covers epochs 1..{expect - 1} but "
                              f"the run has {self.epochs} epochs")
        return self

    def lr_at(self, epoch: int) -> float:
        for span in self.lr_schedule:
            if span.first_epoch <= epoch <= span.last_epoch:
                return span.lr
        raise ConfigError(f"epoch {epoch} outside the lr schedule")


# Entries per block of a step. An Adam block touches six float32 slices of
# 128 KiB (parameter, gradient, two moments, scratch pair): 768 KiB, inside
# a 1 MiB L2 cache. On a 2-vCPU Xeon with 2 MiB of L2 per core, an Adam
# step over LeNet-300-100's tensors took 0.94 ms at 32K entries, 0.90 at
# 64K, 1.46 at 8K (per-call overhead) and 1.07 unblocked; LeNet-5's 1.5,
# 1.5, 2.0 and 2.0 ms. 32K keeps the gain where L2 is 1 MiB.
BLOCK = 32768


def _flat(a):
    """A 1-D view of the C-contiguous array ``a``; the step writes through
    it."""
    if not a.flags.c_contiguous:
        raise ValueError("optimizer tensors must be C-contiguous")
    return a.reshape(-1)


def _blocks(grad, *tensors, scratch):
    """Yield, block by block, the slice of ``grad`` (or the scalar ``grad``
    itself), of each of ``tensors`` and of each scratch buffer."""
    flat = [_flat(a) for a in tensors]
    dense = np.ndim(grad) > 0
    if dense:
        grad = np.ravel(grad)
    n = flat[0].size
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        yield (grad[start:stop] if dense else grad,
               *(a[start:stop] for a in flat),
               *(s[:stop - start] for s in scratch))


def sgd_step(param, grad, velocity, lr, weight_decay=0.0, momentum=0.0, *,
             scratch):
    """One SGD/momentum update, in place on ``param`` and ``velocity``.

    g = grad + weight_decay * param;
    velocity = momentum * velocity + g; param -= lr * velocity.
    ``scratch`` is a one-buffer sequence of at least
    ``min(BLOCK, param.size)`` entries of ``param``'s dtype.
    """
    for grad_b, p, vel, g in _blocks(grad, param, velocity, scratch=scratch):
        np.multiply(p, weight_decay, out=g)
        np.add(grad_b, g, out=g)
        vel *= momentum
        vel += g
        np.multiply(vel, lr, out=g)
        p -= g
    return param, velocity


def adam_step(param, grad, m, v, step, lr, weight_decay=0.0,
              beta1=0.9, beta2=0.999, eps=1e-8, *, scratch):
    """One Adam update (bias-corrected), in place on ``param``, ``m``, ``v``.

    ``m`` and ``v`` hold the textbook moments scaled by ``1 / (1 - beta1)``
    and ``1 / (1 - beta2)``. With r = sqrt((1 - beta2**step) / (1 - beta2)),
    step_size = lr * (1 - beta1) / (1 - beta1**step) * r and eps_t = eps * r:

    g = grad + weight_decay * param;
    m = beta1 * m + g; v = beta2 * v + g * g;
    param -= step_size * m / (sqrt(v) + eps_t).

    This is Kingma & Ba's efficient form of the textbook step
    ``param -= lr * m_hat / (sqrt(v_hat) + eps)``: 12 passes with one
    divide and one square root instead of 16 with three divides.
    ``scratch`` is a two-buffer sequence of at least
    ``min(BLOCK, param.size)`` entries each, of ``param``'s dtype.
    """
    # Python floats (``** 0.5``, not np.sqrt): a NumPy float64 scalar would
    # make every float32 pass below compute in float64
    r = ((1 - beta2 ** step) / (1 - beta2)) ** 0.5
    step_size = lr * (1 - beta1) / (1 - beta1 ** step) * r
    eps_t = eps * r
    for grad_b, p, m_b, v_b, g, tmp in _blocks(grad, param, m, v,
                                               scratch=scratch):
        np.multiply(p, weight_decay, out=g)
        np.add(grad_b, g, out=g)
        m_b *= beta1
        m_b += g
        v_b *= beta2
        np.multiply(g, g, out=tmp)
        v_b += tmp
        update = g  # g is spent; its buffer takes the update
        np.multiply(m_b, step_size, out=update)
        np.sqrt(v_b, out=tmp)
        tmp += eps_t
        update /= tmp
        p -= update
    return param, m, v


class Optimizer:
    """Steps a flat list of C-contiguous tensors of one dtype, each with its
    own moments.

    ``apply`` takes one gradient per tensor, in the same order: an array
    shaped like the tensor, or a scalar such as 0.0 for entries that see no
    data and take weight decay alone. Every tensor's step writes its
    temporaries into the one shared ``scratch`` list.
    """

    def __init__(self, params, cfg: OptimizerConfig):
        cfg.validate()
        self.cfg = cfg
        self.step_count = 0
        self.params = list(params)
        dtypes = {p.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ValueError(f"optimizer tensors must share one dtype, got "
                             f"{sorted(map(str, dtypes))}")
        size = min(BLOCK, max((p.size for p in self.params), default=0))
        dtype = dtypes.pop() if dtypes else np.float32
        if cfg.kind == "sgd":
            self.states = [{"velocity": np.zeros_like(p)} for p in self.params]
            self.scratch = [np.empty(size, dtype)]
        else:
            self.states = [{"m": np.zeros_like(p), "v": np.zeros_like(p)}
                           for p in self.params]
            self.scratch = [np.empty(size, dtype), np.empty(size, dtype)]

    def apply(self, grads, lr: float) -> None:
        self.step_count += 1
        cfg = self.cfg
        for p, grad, state in zip(self.params, grads, self.states,
                                  strict=True):
            if cfg.kind == "sgd":
                sgd_step(p, grad, state["velocity"], lr,
                         weight_decay=cfg.weight_decay, momentum=cfg.momentum,
                         scratch=self.scratch)
            else:
                adam_step(p, grad, state["m"], state["v"], self.step_count,
                          lr, weight_decay=cfg.weight_decay, beta1=cfg.beta1,
                          beta2=cfg.beta2, eps=cfg.eps, scratch=self.scratch)


def summarize(cfg: OptimizerConfig, step_count: int) -> dict:
    """JSON-ready record of the optimizer setup and how many steps it took."""
    summary = {"kind": cfg.kind, "step_count": step_count,
               "weight_decay": cfg.weight_decay,
               "batch_size": cfg.batch_size, "epochs": cfg.epochs,
               "lr_schedule": [[s.first_epoch, s.last_epoch, s.lr]
                               for s in cfg.lr_schedule]}
    if cfg.kind == "sgd":
        summary["momentum"] = cfg.momentum
    else:
        summary.update(beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    return summary
