"""Conv and dense work in bounded memory, and the bytes it gives.

Every conv forward lowers one band of output rows at a time, and conv
scoring and conv deviation measurement one chunk of samples at a time, so
their column memory stays within ``tensor_ops.COLUMN_BUDGET`` whatever the
batch or pruning-set size; a training step's backward lowers one layer's
whole batch at a time. A forward without a cache pools each band of a
conv that a max pool follows as soon as the band is made. Dense deviation
measurement runs one chunk of samples at a time within
``tensor_ops.ROW_BUDGET``. Results are compared with ``.tobytes()``. The forward with a cache and the one without share one
band plan, so they run the same products and ``TestSameBytes`` holds for
them on every BLAS kernel. The references for scoring and deviation
measurement are copies of the whole-set computations: their equality rests
on BLAS giving each output column (each output row, for a dense product)
the same bits in a narrower product, which OpenBLAS's SkylakeX, Haswell and
Sandybridge kernels do in float64 for parts that span whole tiles (16
columns, 24 dense rows) and are not small. Under the shipped budget the
forward bands from N = 193 up on LeNet-5's layers and at N = 1000 on the
strided one; a 256 KiB budget makes each layer band or chunk at more of the
sizes, and a budget of one byte bands every forward as finely as whole
column tiles allow, one row at a time wherever that is one tile.
"""

import os
import tracemalloc

import numpy as np
import pytest

from prune_relief import (ConvLayer, DenseLayer, Flatten, ImportanceScores,
                          MaxPool2D, Network, build_network,
                          export_importance_csv, init_params)
from prune_relief import tensor_ops
from prune_relief.bounds import bound_report, measure_deviation
from prune_relief.importance import (_normalize, conv_importance,
                                     prune_pass, score_network)
from prune_relief.cli import main
from prune_relief.model_io import save_model
from prune_relief.tensor_ops import conv_output_hw, equal_parts, im2col
from prune_relief.training import forward_backward
from tests.conftest import mask_pairs, random_dense
from tests.test_cli import write_config
from tests.test_datasets import idx_images_bytes, idx_labels_bytes

SIZES = [1, 7, 193, 200, 257, 1000]

# (in_channels, out_channels, kernel, stride, padding, map side): LeNet-5's
# two conv layers and a strided, padded conv
CONVS = {
    "lenet5_conv1": (1, 20, 5, 1, 0, 28),
    "lenet5_conv2": (20, 50, 5, 1, 0, 12),
    "stride2_pad1": (6, 16, 3, 2, 1, 14),
}


def make_conv(name, seed=0):
    ci, co, r, stride, padding, _ = CONVS[name]
    rng = np.random.default_rng(seed)
    kernels = rng.standard_normal((co, ci, r, r)).astype(np.float32)
    kernels *= np.float32(np.sqrt(2.0 / (ci * r * r)))
    bias = (0.1 * rng.standard_normal(co)).astype(np.float32)
    return ConvLayer(kernels, bias, "relu", stride, padding)


def make_maps(name, n, seed=1):
    ci, side = CONVS[name][0], CONVS[name][5]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((ci, side, side, n), dtype=np.float32)
    return np.maximum(x, 0, out=x)  # post-ReLU, with exact zeros


# (fan_in, targets, activation): LeNet-300-100's three dense layers and
# LeNet-5's two fc layers
DENSES = {
    "lenet300100_fc1": (784, 300, "relu"),
    "lenet300100_fc2": (300, 100, "relu"),
    "lenet300100_fc3": (100, 10, "identity"),
    "lenet5_fc1": (800, 500, "relu"),
    "lenet5_fc2": (500, 10, "identity"),
}


def make_dense(name, seed=0):
    n_in, n_out, activation = DENSES[name]
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n_out, n_in)) * np.sqrt(2.0 / n_in)
    b = 0.1 * rng.standard_normal(n_out)
    return DenseLayer(w.astype(np.float32), b.astype(np.float32), activation)


def make_rows(name, n, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, DENSES[name][0]), dtype=np.float32)
    return np.maximum(x, 0, out=x)  # post-ReLU, with exact zeros


def masked_copy(layer):
    """The layer with every third weight or kernel and every fourth bias
    masked."""
    after = layer.clone()
    co, ci = next(iter(after.stored_masks().values())).shape
    t, c = np.nonzero(np.arange(co * ci).reshape(co, ci) % 3 == 0)
    mask_pairs(after, t, c)
    mask_pairs(after, np.arange(0, co, 4), ci)
    return after


def whole_set_conv_importance(layer, x):
    """Conv scoring over the whole set at once, one product per channel."""
    n = x.shape[3]
    r = layer.kernel_size
    co, ci = layer.out_channels, layer.in_channels
    ho, wo = conv_output_hw(x.shape[1], x.shape[2], r, layer.stride,
                            layer.padding)
    khat = np.abs(layer.kernels).astype(np.float64)
    numer = np.empty((co, ci), dtype=np.float64)
    for i in range(ci):
        xi = np.abs(x[i : i + 1]).astype(np.float64)
        cols = im2col(xi, r, layer.stride, layer.padding)
        maps = np.matmul(khat[:, i].reshape(co, -1), cols)
        np.square(maps, out=maps)
        norms = np.sqrt(maps.reshape(co, ho * wo, n).sum(axis=1))
        numer[:, i] = norms.mean(axis=1)
    bias_numer = np.abs(layer.bias).astype(np.float64) * np.sqrt(float(ho * wo))
    return _normalize(np.column_stack([numer, bias_numer]))


def whole_set_conv_deviation(before, after, x):
    """Conv deviation measurement over the whole set at once, each layer's
    z from one product over every sample's columns."""
    x = np.asarray(x, dtype=np.float64)
    ho, wo = conv_output_hw(x.shape[1], x.shape[2], before.kernel_size,
                            before.stride, before.padding)

    def pre_and_post(layer):
        layer = layer.astype(np.float64)
        cols = im2col(x, layer.kernel_size, layer.stride, layer.padding)
        z = np.matmul(layer.kernels.reshape(layer.out_channels, -1), cols)
        z += layer.bias[:, None]
        z = z.reshape(layer.out_channels, ho, wo, x.shape[3])
        return z, layer.act.f(z)

    def mean_norm(a, b):
        d = a - b
        d *= d
        return np.sqrt(d.sum(axis=(1, 2))).mean(axis=1)

    zb, yb = pre_and_post(before)
    za, ya = pre_and_post(after)
    return mean_norm(zb, za), mean_norm(yb, ya)


def whole_set_dense_deviation(before, after, x):
    """Dense deviation measurement over the whole set in one product."""
    x = np.asarray(x, dtype=np.float64)

    def pre_and_post(layer):
        layer = layer.astype(np.float64)
        z = x @ layer.weights.T + layer.bias
        return z, layer.act.f(z)

    def mean_abs(a, b):
        return np.abs(a - b).mean(axis=0)

    zb, yb = pre_and_post(before)
    za, ya = pre_and_post(after)
    return mean_abs(zb, za), mean_abs(yb, ya)


@pytest.fixture(params=["shipped", "256KiB"])
def budget(request, monkeypatch):
    """The shipped column budget, and a smaller one under which every layer
    bands or chunks at more of the sizes."""
    if request.param == "256KiB":
        monkeypatch.setattr(tensor_ops, "COLUMN_BUDGET", 1 << 18)


# (window, stride) of a max pool after the conv: adjacent, overlapping,
# gapped and one-element windows; with the convs' 24-, 8- and 7-row outputs
# some leave their last rows unread
POOLS = {"no_pool": None, "pool2s2": (2, 2), "pool3s2": (3, 2),
         "pool2s3": (2, 3), "pool1s1": (1, 1)}


@pytest.fixture(params=["shipped", "256KiB"])
def row_budget(request, monkeypatch):
    """The shipped dense row budget, and a smaller one under which every
    layer but the 10-target ones chunks at more of the sizes."""
    if request.param == "256KiB":
        monkeypatch.setattr(tensor_ops, "ROW_BUDGET", 1 << 18)


class TestEqualParts:
    @pytest.mark.parametrize("total,most,unit", [
        (24, 5, 1), (10, 3, 1), (7, 7, 1), (8, 1, 1), (193, 36, 1),
        (1000, 4, 1), (24, 9, 2), (193, 36, 16), (17, 4, 16), (200, 12, 16),
        (3, 1, 8)])
    def test_cover_in_order_on_unit_boundaries(self, total, most, unit):
        parts = equal_parts(total, most, unit)
        assert parts[0][0] == 0 and parts[-1][1] == total
        assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))
        assert all(a % unit == 0 for a, _ in parts)
        units = [(b - a) // unit for a, b in parts]  # the remainder aside
        assert min(units) >= (1 if total >= unit else 0)
        assert max(units) - min(units) <= 1
        if unit == 1:
            assert len(parts) == -(-total // most)

    @pytest.mark.parametrize("positions", [1, 49, 64])
    def test_sample_chunks_hold_two_or_more(self, positions, monkeypatch):
        # a budget of one sample's columns still gives two-sample chunks
        monkeypatch.setattr(tensor_ops, "COLUMN_BUDGET", positions * 8)
        for n in range(2, 60):
            chunks = tensor_ops.sample_chunks(n, positions, 8)
            assert min(b - a for a, b in chunks) >= 2, n


class TestSameBytes:
    @pytest.mark.parametrize("pool", list(POOLS))
    @pytest.mark.parametrize("name", list(CONVS))
    @pytest.mark.parametrize("n", SIZES)
    def test_inference_forward_matches_cached_forward(self, band_budget, name,
                                                      n, pool):
        """The forward without a cache, alone or pooling each band as it is
        made, gives the bytes of the cached forward and, after it, the
        pool's own forward over the whole maps."""
        layer = make_conv(name)
        x = make_maps(name, n)
        cached, _ = layer.forward(x, with_cache=True)
        if POOLS[pool] is None:
            blocked = layer.forward(x)
        else:
            window, stride = POOLS[pool]
            pool_layer = MaxPool2D((window, window), (stride, stride))
            cached = pool_layer.forward(cached)
            blocked = layer.forward(x, pool=pool_layer)
        assert blocked.shape == cached.shape and blocked.dtype == cached.dtype
        assert blocked.tobytes() == cached.tobytes()

    @pytest.mark.parametrize("name", list(CONVS))
    @pytest.mark.parametrize("n", SIZES)
    def test_streamed_conv_importance(self, budget, name, n):
        layer = make_conv(name)
        x = make_maps(name, n)
        got = conv_importance(layer, x)
        want = whole_set_conv_importance(layer, x)
        assert got.scores.tobytes() == want.scores.tobytes()
        assert got.totals.tobytes() == want.totals.tobytes()

    @pytest.mark.parametrize("name", list(CONVS))
    @pytest.mark.parametrize("n", SIZES)
    def test_streamed_conv_deviation(self, budget, name, n):
        before = make_conv(name)
        after = masked_copy(before)
        x = make_maps(name, n)
        got = measure_deviation(before, after, x)
        want = whole_set_conv_deviation(before, after, x)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("name", list(DENSES))
    @pytest.mark.parametrize("n", SIZES)
    def test_chunked_dense_deviation(self, row_budget, name, n):
        before = make_dense(name)
        after = masked_copy(before)
        x = make_rows(name, n)
        got = measure_deviation(before, after, x)
        want = whole_set_dense_deviation(before, after, x)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("n", [7, 200])
    def test_lenet5_logits_match_cached_forwards(self, budget, n):
        net = init_params(build_network("lenet5", (1, 28, 28), 10), 3)
        batch = np.random.default_rng(4).random((n, 1, 28, 28),
                                                dtype=np.float32)
        # each conv and its pool run as one step, unless the pool's input
        # is kept: then the conv's whole output is held and returned
        a = net.first_layer_input(batch)
        cached = []
        for i, layer in enumerate(net.layers):
            cached.append(a)
            assert net.layer_input(batch, i).tobytes() == a.tobytes(), i
            a, _ = layer.forward(a, with_cache=True)
        assert net.forward(batch).tobytes() == a.tobytes()
        logits, kept = net.forward(batch, keep=[1, 2])
        assert logits.tobytes() == a.tobytes()
        for i in (1, 2):
            assert kept[i].tobytes() == cached[i].tobytes(), i


def traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestMemoryBounds:
    """LeNet-5 at the paper's 1000 pruning samples. Lowering whole batches
    took ~500 MB for the report and ~210 MB for the forward; keeping every
    layer's input for scoring, ~107 MB for the report and for scoring. What
    scoring keeps now, the inputs of layers 0, 2, 5 and 6, is ~20 MB.
    Holding the first conv's whole 46 MB output while its pool ran, the
    forward peaked at 72 MB and scoring and a conv-0 report at 75 MB.
    Pooling each band as it is made, the forward peaks at ~36 MB, at the
    second conv's one-row band of columns (16 MB) beside its 11.5 MB
    input, and scoring at ~39 MB. A conv layer's report runs only the
    layers before it and chunks its deviations by all they hold: ~12 MB at
    conv 0, ~25 MB at conv 2."""

    @pytest.fixture(scope="class")
    def lenet5(self):
        net = init_params(build_network("lenet5", (1, 28, 28), 10), 5)
        batch = np.random.default_rng(6).random((1000, 1, 28, 28),
                                                dtype=np.float32)
        return net, batch

    def test_conv0_bound_report(self, lenet5):
        net, batch = lenet5
        assert traced_peak_mb(lambda: bound_report(net, 0, 0.9, batch)) < 16

    def test_conv2_bound_report(self, lenet5):
        net, batch = lenet5
        assert traced_peak_mb(lambda: bound_report(net, 2, 0.9, batch)) < 30

    def test_score_network(self, lenet5):
        net, batch = lenet5
        assert traced_peak_mb(lambda: score_network(net, batch)) < 48

    def test_network_forward(self, lenet5):
        net, batch = lenet5
        assert traced_peak_mb(lambda: net.forward(batch)) < 45

    def test_training_step(self, lenet5):
        """A batch-128 step caches each conv layer's input and z, and its
        backward lowers one layer's columns at a time: ~34 MB. Caching
        every conv layer's whole-batch columns until backward took 55.6 MB."""
        net, batch = lenet5
        labels = np.random.default_rng(7).integers(0, 10, 128)
        assert traced_peak_mb(
            lambda: forward_backward(net, batch[:128], labels)) < 42


def test_dense_bound_report():
    """LeNet-300-100's first dense layer at 1000 samples. Running the pair
    over the whole set held its float64 input (6.3 MB), z and act(z) of
    both layers (2.4 MB each) and a float64 copy of each layer's masks:
    a 23.1 MB peak. In chunks, what grows with the set is the two
    per-sample deviation arrays (2.4 MB each); the peak is ~14.6 MB."""
    net = init_params(build_network("lenet300100", (1, 28, 28), 10), 5)
    batch = np.random.default_rng(6).random((1000, 1, 28, 28),
                                            dtype=np.float32)
    assert traced_peak_mb(lambda: bound_report(net, 1, 0.95, batch)) < 17


def test_dense_prune_pass():
    """LeNet-300-100 at 1000 samples: scores written into one float64 grid
    per layer, selection in row blocks and masking by clearing bits from
    the keep grid peak at ~4.9 MB, on the dense network and eight passes
    in. Masking through per-entry index arrays with a copy of each score
    grid peaks at 8.0 MB."""
    net = init_params(build_network("lenet300100", (1, 28, 28), 10), 5)
    batch = np.random.default_rng(6).random((1000, 1, 28, 28),
                                            dtype=np.float32)
    for passes in range(8):
        peak = traced_peak_mb(lambda: prune_pass(net, batch, 0.9, 0.95))
        if passes in (0, 7):
            assert peak < 6.5, passes


@pytest.mark.parametrize("build", [lambda: make_dense("lenet300100_fc2"),
                                   lambda: make_conv("lenet5_conv2")],
                         ids=["dense", "conv"])
def test_float64_copies_share_the_masks(build):
    """Deviation measurement runs float64 copies of both layers; they read
    the layers' masks and hold none of their own. A clone still copies the
    masks, so masking the clone leaves the original's alone."""
    layer = build()
    wide = layer.astype(np.float64)
    for m, n in zip(wide.stored_masks().values(),
                    layer.stored_masks().values()):
        assert np.shares_memory(m, n) and not m.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        mask_pairs(wide, 0, 0)
    assert all(m.all() for m in layer.stored_masks().values())

    before = [m.copy() for m in layer.stored_masks().values()]
    after = masked_copy(layer)
    for m, n, b in zip(after.stored_masks().values(),
                       layer.stored_masks().values(), before):
        assert not np.shares_memory(m, n) and m.flags.writeable
        assert n.tobytes() == b.tobytes() and not (m == n).all()


def idx_run(tmp_path, **dataset):
    """A config over 4x4 IDX splits and a random mlp:16-8-3 checkpoint."""
    rng = np.random.default_rng(9)
    paths = {}
    for split, n in (("train", 80), ("test", 20)):
        for kind, data in (("images", idx_images_bytes(
                rng.integers(0, 256, size=(n, 4, 4)))),
                           ("labels", idx_labels_bytes(np.arange(n) % 3))):
            path = tmp_path / f"{split}-{kind}"
            path.write_bytes(data)
            paths[f"{split}_{kind}"] = str(path)
    cfg = write_config(tmp_path / "c.json", out=tmp_path / "run",
                       dataset={"kind": "idx", **paths, **dataset})
    ckpt = tmp_path / "ckpt"
    save_model(Network([Flatten(), random_dense(rng, 16, 8),
                        random_dense(rng, 8, 3, "identity")], (1, 4, 4), 3),
               ckpt)
    return cfg, ckpt, paths


@pytest.mark.parametrize("command,missing", [
    ("eval", "train"), ("scores", "test"), ("bounds", "test")])
def test_commands_read_only_their_split(tmp_path, capsys, command, missing):
    """eval reads the test split alone; scores and bounds draw their
    pruning set from the training split alone."""
    cfg, ckpt, paths = idx_run(tmp_path)
    for kind in ("images", "labels"):
        os.remove(paths[f"{missing}_{kind}"])
    argv = [command, "--config", str(cfg), "--checkpoint", str(ckpt)]
    if command == "bounds":
        argv += ["--layer", "1"]
    assert main(argv) == 0, capsys.readouterr().err


def test_normalized_eval_reads_the_train_split(tmp_path, capsys):
    """The test split is standardized with the training split's statistics,
    so with normalize set eval reads the training split too."""
    cfg, ckpt, paths = idx_run(tmp_path, normalize=True)
    argv = ["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]
    assert main(argv) == 0
    os.remove(paths["train_images"])
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"cannot read {paths['train_images']}" in err


def test_max_pool_inference_keeps_no_argmax():
    """Without a cache the pool builds only its output, one mask of hits
    and one bit buffer: 2.25 outputs. Recording the argmax and allocating
    each tap's temporaries took 3.5."""
    x = np.maximum(np.random.default_rng(7).standard_normal(
        (20, 24, 24, 200), dtype=np.float32), 0)
    pool = MaxPool2D((2, 2))
    out_mb = x.nbytes / 4 / 1e6
    assert traced_peak_mb(lambda: pool.forward(x)) < 2.5 * out_mb


def test_csv_export_holds_one_block(tmp_path):
    """The score CSVs are encoded a block of whole rows at a time, about
    ``grid_csv.BLOCK`` values, so writing LeNet-5 fc-1's 801-column grid
    peaks near 1.1 MB at 500 rows and at 2000 rows alike. Encoding a whole
    grid at once would hold its 32-byte slots alone, 51 MB at 2000 rows;
    the slack covers Python's own small objects."""
    rng = np.random.default_rng(8)
    path = tmp_path / "scores.csv"

    def scores(rows):
        grid = rng.random((rows, 801))
        grid[:, rng.random(801) < 0.14] = 0  # always-dead inputs
        return ImportanceScores(scores=grid, totals=np.ones(rows))

    export_importance_csv(scores(1), path)  # imports the encoder
    small, big = scores(500), scores(2000)
    peak_small = traced_peak_mb(lambda: export_importance_csv(small, path))
    peak_big = traced_peak_mb(lambda: export_importance_csv(big, path))
    assert peak_big <= peak_small + 0.064
    assert peak_big < 2.0
