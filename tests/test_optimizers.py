"""Optimizer step math and schedule validation."""

import numpy as np
import pytest

from prune_relief import (ConfigError, LrSpan, Optimizer, OptimizerConfig,
                          adam_step, sgd_step)
from prune_relief.optimizers import summarize
from tests.conftest import small_cnn, small_mlp, tensors


def arr(*vals):
    return np.array(vals, dtype=np.float32)


class TestSgdStep:
    def test_plain_step(self):
        w, v = arr(1.0), arr(0.0)
        sgd_step(w, arr(0.5), v, lr=0.1)
        assert w[0] == pytest.approx(0.95, rel=1e-6)

    def test_weight_decay(self):
        # effective gradient 0.5 + 5e-4 * 1 = 0.5005
        w, v = arr(1.0), arr(0.0)
        sgd_step(w, arr(0.5), v, lr=0.1, weight_decay=5e-4)
        assert w[0] == pytest.approx(0.94995, rel=1e-6)

    def test_momentum_accumulates(self):
        w, v = arr(0.0), arr(0.0)
        sgd_step(w, arr(1.0), v, lr=1.0, momentum=0.9)
        assert w[0] == pytest.approx(-1.0, rel=1e-6)
        sgd_step(w, arr(1.0), v, lr=1.0, momentum=0.9)
        # second velocity: 0.9 * 1 + 1 = 1.9
        assert w[0] == pytest.approx(-2.9, rel=1e-6)

    def test_zero_gradient_zero_decay_is_noop(self):
        w, v = arr(3.0), arr(0.0)
        sgd_step(w, arr(0.0), v, lr=0.5)
        assert w[0] == 3.0

    def test_masked_gradient_freezes_entry(self):
        # a masked entry: value 0 and the ±0 gradient backward gives it
        w = arr(0.0, 2.0)
        v = arr(0.0, 0.0)
        for _ in range(10):
            sgd_step(w, arr(-0.0, 1.0), v, lr=0.1, momentum=0.9,
                     weight_decay=1e-3)
        assert w[0] == 0.0
        assert v[0] == 0.0
        assert w[1] != 2.0

    def test_float32_preserved(self):
        w, v = arr(1.0), arr(0.0)
        sgd_step(w, arr(0.5), v, lr=0.1)
        assert w.dtype == np.float32 and v.dtype == np.float32


class TestAdamStep:
    def test_first_step_moves_by_lr(self):
        # bias correction makes the first update lr * g / (|g| + eps)
        w = arr(1.0)
        m, v = arr(0.0), arr(0.0)
        adam_step(w, arr(0.5), m, v, step=1, lr=1e-3)
        assert w[0] == pytest.approx(0.999, rel=1e-5)

    def test_direction_follows_sign(self):
        w = arr(0.0)
        m, v = arr(0.0), arr(0.0)
        adam_step(w, arr(-2.0), m, v, step=1, lr=1e-2)
        assert w[0] > 0

    def test_weight_decay_enters_gradient(self):
        # with zero gradient, decay alone drives the step
        w = arr(1.0)
        m, v = arr(0.0), arr(0.0)
        adam_step(w, arr(0.0), m, v, step=1, lr=1e-3, weight_decay=0.1)
        assert w[0] == pytest.approx(0.999, rel=1e-5)

    def test_masked_gradient_freezes_entry_and_moments(self):
        w = arr(0.0, 1.0)
        m, v = arr(0.0, 0.0), arr(0.0, 0.0)
        for step in range(1, 50):
            adam_step(w, arr(-0.0, 1.0), m, v, step=step, lr=1e-2,
                      weight_decay=1e-3)
        assert w[0] == 0.0 and m[0] == 0.0 and v[0] == 0.0
        assert w[1] != 1.0

    def test_moments_update(self):
        w = arr(1.0)
        m, v = arr(0.0), arr(0.0)
        adam_step(w, arr(2.0), m, v, step=1, lr=1e-3)
        assert m[0] == pytest.approx(0.2, rel=1e-5)
        assert v[0] == pytest.approx(0.004, rel=1e-4)


class TestSchedule:
    def test_lr_at_spans(self):
        cfg = OptimizerConfig(kind="adam", epochs=60, lr_schedule=[
            LrSpan(1, 30, 1e-3), LrSpan(31, 60, 1e-4)]).validate()
        assert cfg.lr_at(1) == 1e-3
        assert cfg.lr_at(30) == 1e-3
        assert cfg.lr_at(31) == 1e-4
        assert cfg.lr_at(60) == 1e-4

    def test_gap_rejected(self):
        cfg = OptimizerConfig(epochs=10, lr_schedule=[
            LrSpan(1, 4, 1e-3), LrSpan(6, 10, 1e-4)])
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_short_coverage_rejected(self):
        cfg = OptimizerConfig(epochs=10, lr_schedule=[LrSpan(1, 9, 1e-3)])
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_nonpositive_lr_rejected(self):
        cfg = OptimizerConfig(epochs=2, lr_schedule=[LrSpan(1, 2, 0.0)])
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_unknown_kind_rejected(self):
        cfg = OptimizerConfig(kind="rmsprop", epochs=1,
                              lr_schedule=[LrSpan(1, 1, 1e-3)])
        with pytest.raises(ConfigError):
            cfg.validate()


def backward_like_grads(rng, net, signed_zeros=False):
    """Random gradients for every tensor of ``net``, masked as a layer's
    ``backward`` masks them, so each masked entry gets ±0."""
    out = []
    for layer in net.layers:
        for p, mask in zip(layer.params().values(),
                           layer.param_masks().values()):
            g = rng.standard_normal(p.shape)
            if signed_zeros:
                g[rng.random(p.shape) < 0.1] = -0.0
            out.append(g.astype(np.float32) * mask)
    return out


class TestOptimizerOverNetwork:
    def test_masked_params_stay_zero_for_both_kinds(self, rng):
        for kind in ("sgd", "adam"):
            net = small_mlp(rng, (8, 6, 4))
            for li in net.prunable_indices():
                layer = net.layers[li]
                for j in range(layer.fan_out):
                    drop = rng.choice(layer.fan_in + 1,
                                      size=(layer.fan_in + 1) // 2,
                                      replace=False)
                    layer.apply_mask(j, drop)
            cfg = OptimizerConfig(kind=kind, epochs=1, weight_decay=1e-4,
                                  lr_schedule=[LrSpan(1, 1, 1e-2)])
            opt = Optimizer(tensors(net), cfg)
            for _ in range(200):
                opt.apply(backward_like_grads(rng, net), lr=1e-2)
            for li in net.prunable_indices():
                layer = net.layers[li]
                assert np.all(layer.weights[layer.weight_mask == 0] == 0.0)
                assert np.all(layer.bias[layer.bias_mask == 0] == 0.0)

    def test_step_count_advances(self, rng):
        net = small_mlp(rng, (4, 3))
        cfg = OptimizerConfig(kind="sgd", epochs=1,
                              lr_schedule=[LrSpan(1, 1, 1e-2)])
        opt = Optimizer(tensors(net), cfg)
        grads = [np.zeros_like(p) for p in tensors(net)]
        opt.apply(grads, 1e-2)
        opt.apply(grads, 1e-2)
        assert opt.step_count == 2
        assert summarize(opt.cfg, opt.step_count)["step_count"] == 2


# The textbook steps, one NumPy expression per line, masking the gradient,
# the update and the parameter; the fused in-place steps must give the same
# bytes, signed zeros included.
def ref_sgd_step(param, grad, velocity, lr, weight_decay=0.0, momentum=0.0,
                 mask=None):
    g = grad + weight_decay * param
    if mask is not None:
        g = g * mask
    velocity *= momentum
    velocity += g
    param -= lr * velocity
    if mask is not None:
        param *= mask
        velocity *= mask


def ref_adam_step(param, grad, m, v, step, lr, weight_decay=0.0,
                  beta1=0.9, beta2=0.999, eps=1e-8, mask=None):
    g = grad + weight_decay * param
    if mask is not None:
        g = g * mask
    m *= beta1
    m += (1 - beta1) * g
    v *= beta2
    v += (1 - beta2) * (g * g)
    m_hat = m / (1 - beta1 ** step)
    v_hat = v / (1 - beta2 ** step)
    update = lr * m_hat / (np.sqrt(v_hat) + eps)
    if mask is not None:
        update *= mask
    param -= update
    if mask is not None:
        param *= mask


def pruned_net(rng, build):
    net = build(rng)
    for li in net.prunable_indices():
        layer = net.layers[li]
        for j in range(layer.fan_out):
            drop = rng.choice(layer.fan_in + 1, size=(layer.fan_in + 1) // 2,
                              replace=False)
            layer.apply_mask(j, drop)
        # masked entries hold zeros of either sign
        for p, mask in zip(layer.params().values(), layer.param_masks().values()):
            full = np.broadcast_to(mask, p.shape) == 0
            p[full & (rng.random(p.shape) < 0.5)] = -0.0
    return net


def param_bytes(net):
    return [p.tobytes() for p in tensors(net)]


class TestFusedStepsMatchReference:
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("build", [lambda r: small_mlp(r, (8, 6, 4)),
                                       lambda r: small_cnn(r)],
                             ids=["mlp", "cnn"])
    def test_thirty_steps_bytes(self, kind, build):
        rng = np.random.default_rng(7)
        net = pruned_net(rng, build)
        ref = net.clone()
        cfg = OptimizerConfig(kind=kind, epochs=1, weight_decay=5e-4,
                              lr_schedule=[LrSpan(1, 1, 1e-2)])
        opt = Optimizer(tensors(net), cfg)
        masks = [m for layer in ref.layers for m in layer.param_masks().values()]
        state = [[np.zeros_like(p), np.zeros_like(p)] for p in tensors(ref)]
        for step in range(1, 31):
            # masked as backward masks them, signed zeros included: the
            # unmasking optimizer must give the masking reference's bytes
            grads = backward_like_grads(rng, net, signed_zeros=True)
            opt.apply(grads, lr=1e-2)
            for p, g, mask, (a, b) in zip(tensors(ref), grads, masks, state):
                if kind == "sgd":
                    ref_sgd_step(p, g, a, 1e-2, 5e-4, cfg.momentum, mask=mask)
                else:
                    ref_adam_step(p, g, a, b, step, 1e-2, 5e-4, cfg.beta1,
                                  cfg.beta2, cfg.eps, mask=mask)
            assert param_bytes(net) == param_bytes(ref), step
        for got, (a, b) in zip(opt.states, state, strict=True):
            if kind == "sgd":
                assert got["velocity"].tobytes() == a.tobytes()
            else:
                assert got["m"].tobytes() == a.tobytes()
                assert got["v"].tobytes() == b.tobytes()

    def test_steps_without_scratch_match_with_scratch(self, rng):
        p1 = rng.standard_normal(20).astype(np.float32)
        p2 = p1.copy()
        g = rng.standard_normal(20).astype(np.float32)
        m1, v1, m2, v2 = (np.zeros(20, np.float32) for _ in range(4))
        adam_step(p1, g, m1, v1, 1, 1e-3, weight_decay=1e-4)
        adam_step(p2, g, m2, v2, 1, 1e-3, weight_decay=1e-4,
                  scratch=[np.empty_like(p2), np.empty_like(p2)])
        assert p1.tobytes() == p2.tobytes() and m1.tobytes() == m2.tobytes()
