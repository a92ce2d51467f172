"""SGD with momentum and Adam over a flat list of tensors, in place.

Weight decay is classic L2 added to the gradient before any moment update
(not decoupled). The optimizer knows nothing of pruning: a layer's
``backward`` is the one place that zeroes the gradient of a pruned entry,
so the optimizer sees exactly 0 (or -0.0) there. A pruned parameter is
exactly 0 as well (layers enforce it) and an ``Optimizer``'s moments start
at 0, so the entry's effective gradient and update are ±0, and the
parameter and its moments stay ±0 no matter how many steps run. This needs
the pruning fixed for the optimizer's life: the pipeline prunes between
``train`` calls, and each builds a new one.

Each step is fused: it runs in place on the parameter and its state,
writing its temporaries into two scratch buffers shaped like the parameter,
and performs the same float operations in the same order as the textbook
expressions in the step docstrings, so it gives the same bytes.
"""

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
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
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
            if span.lr <= 0:
                raise ConfigError(f"learning rate must be > 0, got {span.lr}")
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


def _scratch(param, scratch, count):
    if scratch is None:
        return [np.empty_like(param) for _ in range(count)]
    return scratch


def sgd_step(param, grad, velocity, lr, weight_decay=0.0, momentum=0.0,
             scratch=None):
    """One SGD/momentum update, in place on ``param`` and ``velocity``.

    g = grad + weight_decay * param;
    velocity = momentum * velocity + g; param -= lr * velocity.
    ``scratch`` is a one-buffer sequence shaped like ``param``; without it
    the step allocates its own.
    """
    (g,) = _scratch(param, scratch, 1)
    np.multiply(param, weight_decay, out=g)
    np.add(grad, g, out=g)
    velocity *= momentum
    velocity += g
    np.multiply(velocity, lr, out=g)
    param -= g
    return param, velocity


def adam_step(param, grad, m, v, step, lr, weight_decay=0.0,
              beta1=0.9, beta2=0.999, eps=1e-8, scratch=None):
    """One Adam update (bias-corrected), in place on ``param``, ``m``, ``v``.

    g = grad + weight_decay * param;
    m = beta1 * m + (1 - beta1) * g; v = beta2 * v + (1 - beta2) * g * g;
    param -= lr * (m / (1 - beta1**step)) / (sqrt(v / (1 - beta2**step)) + eps).
    ``scratch`` is a two-buffer sequence shaped like ``param``; without it
    the step allocates its own.
    """
    g, tmp = _scratch(param, scratch, 2)
    np.multiply(param, weight_decay, out=g)
    np.add(grad, g, out=g)
    m *= beta1
    np.multiply(g, 1 - beta1, out=tmp)
    m += tmp
    v *= beta2
    np.multiply(g, g, out=tmp)
    tmp *= 1 - beta2
    v += tmp
    update = g  # g is spent; its buffer takes the update
    np.divide(m, 1 - beta1 ** step, out=update)
    update *= lr
    np.divide(v, 1 - beta2 ** step, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    update /= tmp
    param -= update
    return param, m, v


class Optimizer:
    """Steps a flat list of tensors, each with its own moments.

    ``apply`` takes one gradient per tensor, in the same order: an array
    shaped like the tensor, or a scalar such as 0.0 for entries that see no
    data and take weight decay alone.
    """

    def __init__(self, params, cfg: OptimizerConfig):
        cfg.validate()
        self.cfg = cfg
        self.step_count = 0
        self.params = list(params)
        if cfg.kind == "sgd":
            self.states = [{"velocity": np.zeros_like(p),
                            "scratch": [np.empty_like(p)]}
                           for p in self.params]
        else:
            self.states = [{"m": np.zeros_like(p), "v": np.zeros_like(p),
                            "scratch": [np.empty_like(p), np.empty_like(p)]}
                           for p in self.params]

    def apply(self, grads, lr: float) -> None:
        self.step_count += 1
        cfg = self.cfg
        for p, grad, state in zip(self.params, grads, self.states,
                                  strict=True):
            if cfg.kind == "sgd":
                sgd_step(p, grad, state["velocity"], lr,
                         weight_decay=cfg.weight_decay, momentum=cfg.momentum,
                         scratch=state["scratch"])
            else:
                adam_step(p, grad, state["m"], state["v"], self.step_count,
                          lr, weight_decay=cfg.weight_decay, beta1=cfg.beta1,
                          beta2=cfg.beta2, eps=cfg.eps,
                          scratch=state["scratch"])


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
