"""Optimizer step math and schedule validation."""

import tracemalloc

import numpy as np
import pytest

from prune_relief import (ConfigError, LrSpan, Optimizer, OptimizerConfig,
                          adam_step, sgd_step)
from prune_relief.optimizers import BLOCK, summarize
from tests.conftest import mask_pairs, small_cnn, small_mlp, tensors


def arr(*vals):
    return np.array(vals, dtype=np.float32)


def buffers(p, count):
    """``count`` scratch buffers of one block of ``p``: one for an SGD step,
    two for an Adam step."""
    return [np.empty(min(BLOCK, p.size), p.dtype) for _ in range(count)]


class TestSgdStep:
    def test_plain_step(self):
        w, v = arr(1.0), arr(0.0)
        sgd_step(w, arr(0.5), v, lr=0.1, scratch=buffers(w, 1))
        assert w[0] == pytest.approx(0.95, rel=1e-6)

    def test_weight_decay(self):
        # effective gradient 0.5 + 5e-4 * 1 = 0.5005
        w, v = arr(1.0), arr(0.0)
        sgd_step(w, arr(0.5), v, lr=0.1, weight_decay=5e-4,
                 scratch=buffers(w, 1))
        assert w[0] == pytest.approx(0.94995, rel=1e-6)

    def test_momentum_accumulates(self):
        w, v = arr(0.0), arr(0.0)
        sgd_step(w, arr(1.0), v, lr=1.0, momentum=0.9, scratch=buffers(w, 1))
        assert w[0] == pytest.approx(-1.0, rel=1e-6)
        sgd_step(w, arr(1.0), v, lr=1.0, momentum=0.9, scratch=buffers(w, 1))
        # second velocity: 0.9 * 1 + 1 = 1.9
        assert w[0] == pytest.approx(-2.9, rel=1e-6)

    def test_zero_gradient_zero_decay_is_noop(self):
        w, v = arr(3.0), arr(0.0)
        sgd_step(w, arr(0.0), v, lr=0.5, scratch=buffers(w, 1))
        assert w[0] == 3.0

    def test_masked_gradient_freezes_entry(self):
        # a masked entry: value 0 and the ±0 gradient backward gives it
        w = arr(0.0, 2.0)
        v = arr(0.0, 0.0)
        for _ in range(10):
            sgd_step(w, arr(-0.0, 1.0), v, lr=0.1, momentum=0.9,
                     weight_decay=1e-3, scratch=buffers(w, 1))
        assert w[0] == 0.0
        assert v[0] == 0.0
        assert w[1] != 2.0

    def test_float32_preserved(self):
        w, v = arr(1.0), arr(0.0)
        sgd_step(w, arr(0.5), v, lr=0.1, scratch=buffers(w, 1))
        assert w.dtype == np.float32 and v.dtype == np.float32


class TestAdamStep:
    def test_first_step_moves_by_lr(self):
        # bias correction makes the first update lr * g / (|g| + eps)
        w = arr(1.0)
        m, v = arr(0.0), arr(0.0)
        adam_step(w, arr(0.5), m, v, step=1, lr=1e-3, scratch=buffers(w, 2))
        assert w[0] == pytest.approx(0.999, rel=1e-5)

    def test_direction_follows_sign(self):
        w = arr(0.0)
        m, v = arr(0.0), arr(0.0)
        adam_step(w, arr(-2.0), m, v, step=1, lr=1e-2, scratch=buffers(w, 2))
        assert w[0] > 0

    def test_weight_decay_enters_gradient(self):
        # with zero gradient, decay alone drives the step
        w = arr(1.0)
        m, v = arr(0.0), arr(0.0)
        adam_step(w, arr(0.0), m, v, step=1, lr=1e-3, weight_decay=0.1,
                  scratch=buffers(w, 2))
        assert w[0] == pytest.approx(0.999, rel=1e-5)

    def test_masked_gradient_freezes_entry_and_moments(self):
        w = arr(0.0, 1.0)
        m, v = arr(0.0, 0.0), arr(0.0, 0.0)
        for step in range(1, 50):
            adam_step(w, arr(-0.0, 1.0), m, v, step=step, lr=1e-2,
                      weight_decay=1e-3, scratch=buffers(w, 2))
        assert w[0] == 0.0 and m[0] == 0.0 and v[0] == 0.0
        assert w[1] != 1.0

    def test_moments_update(self):
        # the stored moments are m / (1 - beta1) and v / (1 - beta2): the
        # textbook 0.2 and 0.004 of a first gradient of 2
        w = arr(1.0)
        m, v = arr(0.0), arr(0.0)
        adam_step(w, arr(2.0), m, v, step=1, lr=1e-3, scratch=buffers(w, 2))
        assert m[0] == 2.0
        assert v[0] == 4.0

    def test_matches_textbook_expressions_in_float64(self):
        """Kingma & Ba's efficient form is the textbook update in real
        arithmetic, so in float64 the two stay within rounding of each
        other over a run with weight decay, an lr change and a tensor
        stepped with the scalar gradient 0.0."""
        rng = np.random.default_rng(11)
        params = [rng.standard_normal((13, 7)), rng.standard_normal(29)]
        ref = [p.copy() for p in params]
        cfg = OptimizerConfig(kind="adam", epochs=2, weight_decay=5e-4,
                              lr_schedule=[LrSpan(1, 1, 1e-2),
                                           LrSpan(2, 2, 1e-3)])
        opt = Optimizer(params, cfg)
        state = [[np.zeros_like(p), np.zeros_like(p)] for p in ref]
        for step in range(1, 301):
            lr = cfg.lr_at(1 if step <= 150 else 2)
            grads = [rng.standard_normal(params[0].shape), 0.0]
            opt.apply(grads, lr)
            for p, g, (m, v) in zip(ref, grads, state):
                textbook_adam_step(p, g, m, v, step, lr, cfg.weight_decay,
                                   cfg.beta1, cfg.beta2, cfg.eps)
        for got, want in zip(params, ref):
            assert got.dtype == np.float64
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for got, (m, v) in zip(opt.states, state):
            np.testing.assert_allclose(got["m"] * (1 - cfg.beta1), m,
                                       rtol=1e-12, atol=0)
            np.testing.assert_allclose(got["v"] * (1 - cfg.beta2), v,
                                       rtol=1e-12, atol=0)


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_nonfinite_lr_rejected(self, bad):
        cfg = OptimizerConfig(epochs=2, lr_schedule=[LrSpan(1, 1, 1e-3),
                                                     LrSpan(2, 2, bad)])
        with pytest.raises(ConfigError, match=r"^learning rate \(lr\) must "
                                              r"be finite and > 0, got "):
            cfg.validate()

    def test_unknown_kind_rejected(self):
        cfg = OptimizerConfig(kind="rmsprop", epochs=1,
                              lr_schedule=[LrSpan(1, 1, 1e-3)])
        with pytest.raises(ConfigError):
            cfg.validate()


class TestSettingRanges:
    """beta1, beta2 and momentum in [0, 1); eps > 0. Both kinds check all
    four, whichever the step reads."""

    @pytest.mark.parametrize("field", ["beta1", "beta2", "momentum"])
    def test_unit_interval_fields(self, field):
        for ok in (0.0, 0.5, 0.999999):
            OptimizerConfig(**{field: ok}).validate()
        for bad in (1.0, 1.5, -1e-9, -5.0):
            with pytest.raises(ConfigError,
                               match=rf"^{field} must be in \[0, 1\), got "):
                OptimizerConfig(**{field: bad}).validate()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), -1e-4])
    def test_weight_decay(self, bad):
        OptimizerConfig(weight_decay=0.0).validate()
        with pytest.raises(ConfigError, match=r"^weight_decay must be finite "
                                              r"and >= 0, got "):
            OptimizerConfig(weight_decay=bad).validate()

    def test_eps(self):
        OptimizerConfig(eps=1e-30).validate()
        for bad in (0.0, -0.0, -1e-8):
            with pytest.raises(ConfigError, match=r"^eps must be > 0, got "):
                OptimizerConfig(eps=bad).validate()


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
                    mask_pairs(layer, j, drop)
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


# The whole-tensor steps, one NumPy expression per line, masking the
# gradient, the update and the parameter; the fused in-place steps must give
# the same bytes, signed zeros included. Adam's is Kingma & Ba's efficient
# form, with m and v scaled by 1 / (1 - beta1) and 1 / (1 - beta2).
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
    m += g
    v *= beta2
    v += g * g
    r = ((1 - beta2 ** step) / (1 - beta2)) ** 0.5
    update = lr * (1 - beta1) / (1 - beta1 ** step) * r * m / (
        np.sqrt(v) + eps * r)
    if mask is not None:
        update *= mask
    param -= update
    if mask is not None:
        param *= mask


def textbook_adam_step(param, grad, m, v, step, lr, weight_decay=0.0,
                       beta1=0.9, beta2=0.999, eps=1e-8):
    """The bias-corrected Adam update as Kingma & Ba's Algorithm 1 writes
    it, with the textbook moments."""
    g = grad + weight_decay * param
    m *= beta1
    m += (1 - beta1) * g
    v *= beta2
    v += (1 - beta2) * (g * g)
    m_hat = m / (1 - beta1 ** step)
    v_hat = v / (1 - beta2 ** step)
    param -= lr * m_hat / (np.sqrt(v_hat) + eps)


def pruned_net(rng, build):
    net = build(rng)
    for li in net.prunable_indices():
        layer = net.layers[li]
        for j in range(layer.fan_out):
            drop = rng.choice(layer.fan_in + 1, size=(layer.fan_in + 1) // 2,
                              replace=False)
            mask_pairs(layer, j, drop)
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


class TestBlockedSteps:
    """Steps that walk a tensor in blocks of ``BLOCK`` entries give the
    bytes of the whole-tensor step."""

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_thirty_steps_over_blocks_bytes(self, kind):
        rng = np.random.default_rng(3)
        # more than two blocks, the last one partial
        big = rng.standard_normal((2 * BLOCK // 96 + 5, 96)).astype(np.float32)
        assert big.size > 2 * BLOCK and big.size % BLOCK
        # masked entries hold zeros of either sign, as backward leaves them
        mask = rng.random(big.shape) < 0.7
        big[~mask] = np.where(rng.random(big.shape) < 0.5, 0.0, -0.0)[~mask]
        # the packed entries a live subnetwork leaves out: stepped with the
        # scalar gradient 0.0, so they take weight decay alone
        outside = rng.standard_normal(BLOCK + 17).astype(np.float32)
        bias = rng.standard_normal(7).astype(np.float32)
        params = [big, outside, bias]
        ref = [p.copy() for p in params]
        cfg = OptimizerConfig(kind=kind, epochs=1, weight_decay=5e-4,
                              lr_schedule=[LrSpan(1, 1, 1e-2)])
        opt = Optimizer(params, cfg)
        state = [[np.zeros_like(p), np.zeros_like(p)] for p in ref]
        masks = [mask, None, None]
        for step in range(1, 31):
            g_big = rng.standard_normal(big.shape).astype(np.float32)
            g_big[rng.random(big.shape) < 0.05] = -0.0
            grads = [g_big * mask, 0.0,
                     rng.standard_normal(bias.shape).astype(np.float32)]
            opt.apply(grads, lr=1e-2)
            for p, g, m, (a, b) in zip(ref, grads, masks, state):
                if kind == "sgd":
                    ref_sgd_step(p, g, a, 1e-2, 5e-4, cfg.momentum, mask=m)
                else:
                    ref_adam_step(p, g, a, b, step, 1e-2, 5e-4, cfg.beta1,
                                  cfg.beta2, cfg.eps, mask=m)
            assert [p.tobytes() for p in params] == \
                [p.tobytes() for p in ref], step
        assert np.signbit(big[~mask]).any()
        for got, (a, b) in zip(opt.states, state, strict=True):
            if kind == "sgd":
                assert got["velocity"].tobytes() == a.tobytes()
            else:
                assert got["m"].tobytes() == a.tobytes()
                assert got["v"].tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_no_scratch_the_size_of_a_parameter(self, kind):
        big = np.ones(4 * BLOCK + 1, np.float32)
        small = np.ones(10, np.float32)
        cfg = OptimizerConfig(kind=kind, weight_decay=1e-4)
        opt = Optimizer([big, small], cfg)
        # one shared pair (one buffer for SGD) of one block, and per tensor
        # only its moments
        assert [s.size for s in opt.scratch] == [BLOCK] * (1 if kind == "sgd"
                                                           else 2)
        names = {"velocity"} if kind == "sgd" else {"m", "v"}
        assert all(set(st) == names for st in opt.states)
        assert Optimizer([small], cfg).scratch[0].size == 10
        grads = [np.full_like(big, 0.5), np.full_like(small, 0.5)]
        tracemalloc.start()
        try:
            opt.apply(grads, lr=1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < big.nbytes // 4

    def test_tensors_it_cannot_step_in_place_rejected(self):
        cfg = OptimizerConfig()
        with pytest.raises(ValueError, match="one dtype"):
            Optimizer([np.zeros(3, np.float32), np.zeros(3)], cfg)
        w = np.zeros((4, 4), np.float32)
        with pytest.raises(ValueError, match="C-contiguous"):
            Optimizer([w.T], cfg).apply([np.ones((4, 4), np.float32)], 1e-3)
