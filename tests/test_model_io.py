"""Checkpoint format: bit-exact round trips and rejection of bad bytes."""

import hashlib
import json
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prune_relief import (ConvLayer, DenseLayer, FormatError, Network,
                          build_network, init_params, load_model, save_model)
from tests.conftest import mask_pairs, small_cnn, small_mlp


def assert_nets_equal(a, b):
    assert len(a.layers) == len(b.layers)
    assert a.input_shape == b.input_shape
    assert a.classes == b.classes
    for la, lb in zip(a.layers, b.layers):
        assert la.kind == lb.kind
        for name, p in la.params().items():
            np.testing.assert_array_equal(p, lb.params()[name])
        for name, m in la.stored_masks().items():
            np.testing.assert_array_equal(m, lb.stored_masks()[name])


class TestRoundTrip:
    def test_mlp_bit_exact(self, rng, tmp_path):
        net = small_mlp(rng, (784, 300, 100, 10))
        mask_pairs(net.layers[0], 5, rng.choice(785, 300, replace=False))
        save_model(net, tmp_path / "ckpt")
        assert_nets_equal(net, load_model(tmp_path / "ckpt"))

    def test_cnn_bit_exact(self, rng, tmp_path):
        net = small_cnn(rng)
        mask_pairs(net.layers[0], 1, [0, 2])
        save_model(net, tmp_path / "ckpt")
        loaded = load_model(tmp_path / "ckpt")
        assert_nets_equal(net, loaded)
        assert loaded.layers[0].stride == net.layers[0].stride
        assert loaded.layers[0].padding == net.layers[0].padding

    def test_save_is_deterministic(self, rng, tmp_path):
        net = small_mlp(rng, (6, 5, 3))
        save_model(net, tmp_path / "a")
        save_model(net, tmp_path / "b")
        assert (tmp_path / "a" / "model.json").read_bytes() == \
            (tmp_path / "b" / "model.json").read_bytes()
        assert (tmp_path / "a" / "weights.bin").read_bytes() == \
            (tmp_path / "b" / "weights.bin").read_bytes()

    def test_loaded_net_forwards_identically(self, rng, tmp_path):
        net = small_cnn(rng)
        save_model(net, tmp_path / "ckpt")
        loaded = load_model(tmp_path / "ckpt")
        x = rng.standard_normal((3, 2, 6, 6)).astype(np.float32)
        np.testing.assert_array_equal(net.forward(x), loaded.forward(x))

    def test_lenet5_logits_match_batch_first_reference(self, rng, tmp_path):
        # Flatten must hand the fc layers (c, h, w)-ordered features
        # whatever layout the conv stack carries, or a checkpoint's fc
        # weights would read the wrong inputs
        net = build_network("lenet5", (1, 28, 28), 10)
        init_params(net, 5)
        mask_pairs(net.layers[0], 3, [0])
        mask_pairs(net.layers[2], np.arange(10)[:, None], [1, 4, 7])
        mask_pairs(net.layers[5], 7, rng.choice(801, 300, replace=False))
        save_model(net, tmp_path / "ckpt")
        loaded = load_model(tmp_path / "ckpt")
        x = rng.random((6, 1, 28, 28)).astype(np.float32)
        logits = loaded.forward(x)
        want = reference_logits(net, x)
        np.testing.assert_allclose(logits, want, rtol=0,
                                   atol=1e-5 * np.abs(want).max())
        np.testing.assert_array_equal(logits.argmax(axis=1), want.argmax(axis=1))


def reference_logits(net, x):
    """A batch-first float64 forward of a stride-1, unpadded conv net with
    2 x 2 pools, written without the package's layers."""
    a = x.astype(np.float64)
    for layer in net.layers:
        if layer.kind == "conv":
            r = layer.kernel_size
            win = np.lib.stride_tricks.sliding_window_view(a, (r, r), axis=(2, 3))
            a = np.einsum("nchwqt,fcqt->nfhw", win, layer.kernels.astype(np.float64))
            a = layer.act.f(a + layer.bias[:, None, None])
        elif layer.kind == "maxpool":
            n, c, h, w = a.shape
            a = a.reshape(n, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))
        elif layer.kind == "flatten":
            a = a.reshape(a.shape[0], -1)
        else:
            a = layer.act.f(a @ layer.weights.T.astype(np.float64) + layer.bias)
    return a


def _corrupt(path, mutate):
    """Apply ``mutate(manifest, blob) -> (manifest, blob)`` and rewrite."""
    manifest = json.loads((path / "model.json").read_text())
    blob = bytearray((path / "weights.bin").read_bytes())
    manifest, blob = mutate(manifest, blob)
    (path / "model.json").write_text(json.dumps(manifest))
    (path / "weights.bin").write_bytes(bytes(blob))


def set_f32(path, tensor, flat_index, value):
    """Overwrite one float32 of ``tensor`` in the checkpoint at ``path`` and
    fix up the tensor's CRC32, so only a check of the values can catch it."""
    def mutate(m, b):
        rec = next(t for t in m["tensors"] if t["name"] == tensor)
        pos = rec["offset"] + 4 * flat_index
        b[pos:pos + 4] = np.float32(value).tobytes()
        rec["crc32"] = zlib.crc32(
            bytes(b[rec["offset"]:rec["offset"] + rec["nbytes"]]))
        return m, b
    _corrupt(path, mutate)


def set_u8(path, tensor, flat_index, value):
    """Overwrite one byte of the uint8 ``tensor`` in the checkpoint at
    ``path`` and fix up the tensor's CRC32."""
    def mutate(m, b):
        rec = next(t for t in m["tensors"] if t["name"] == tensor)
        b[rec["offset"] + flat_index] = value
        rec["crc32"] = zlib.crc32(
            bytes(b[rec["offset"]:rec["offset"] + rec["nbytes"]]))
        return m, b
    _corrupt(path, mutate)


# sha256 of the model.json and weights.bin that save_model writes for the
# seeded nets of test_checkpoint_bytes_are_pinned
PINNED_CHECKPOINTS = {
    "mlp": ("f42388aed6b35536f2eeaec858bb99251b27b448306242c878a5ca1c8a061b15",
            "2df56f13d9411520a8093fe99ed48385131c75c7621cc7073709c8ac184e0070"),
    "cnn": ("60ac30fd8e8b03e98cd3869e14465bb660a55ad2ef4f0a0b1c2a4603bddbee87",
            "15879008ce36b4cf57db274e6953283a1f72ca82487e341703888ae4e15942fc"),
}


@pytest.mark.parametrize("kind", ["mlp", "cnn"])
def test_checkpoint_bytes_are_pinned(tmp_path, kind):
    # no matrix product runs, so the bytes do not depend on the BLAS kernel
    rng = np.random.default_rng(19)
    net = small_mlp(rng, (6, 5, 3)) if kind == "mlp" else small_cnn(rng)
    for li in net.prunable_indices():
        layer = net.layers[li]
        layer.apply_mask(rng.random((layer.fan_out, layer.fan_in + 1)) < 0.7)
    save_model(net, tmp_path)
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("model.json", "weights.bin"))
    assert got == PINNED_CHECKPOINTS[kind]


class TestRejection:
    @pytest.fixture
    def ckpt(self, rng, tmp_path):
        net = small_mlp(rng, (5, 4, 3))
        mask_pairs(net.layers[0], 0, [1, 3])
        save_model(net, tmp_path / "ckpt")
        return tmp_path / "ckpt"

    def test_missing_dir(self, tmp_path):
        with pytest.raises(FormatError):
            load_model(tmp_path / "nope")

    def test_flipped_byte_fails_crc(self, ckpt):
        def mutate(m, b):
            b[3] ^= 0xFF
            return m, b
        _corrupt(ckpt, mutate)
        with pytest.raises(FormatError, match="CRC32"):
            load_model(ckpt)

    def test_truncated_blob(self, ckpt):
        def mutate(m, b):
            return m, b[:-4]
        _corrupt(ckpt, mutate)
        with pytest.raises(FormatError, match="declares"):
            load_model(ckpt)

    def test_layer_tensor_count_mismatch(self, ckpt):
        def mutate(m, b):
            m["layers"] = m["layers"][:-1]
            return m, b
        _corrupt(ckpt, mutate)
        with pytest.raises(FormatError, match="not owned"):
            load_model(ckpt)

    def test_masked_nonzero_weight_rejected(self, ckpt):
        # a nonzero f32 in a masked slot under a valid CRC: only the value
        # invariant can catch it
        set_f32(ckpt, "layers.0.weights", 1, 7.5)  # weights[0, 1] is masked
        with pytest.raises(FormatError, match="masked weights"):
            load_model(ckpt)

    @pytest.mark.parametrize("tensor", ["layers.0.weight_mask",
                                        "layers.1.bias_mask"])
    @pytest.mark.parametrize("value", [2, 255])
    def test_mask_byte_beyond_one_rejected(self, ckpt, tensor, value):
        # a valid CRC over a mask entry that is neither 0 nor 1: casting it
        # to bool would read it as kept
        set_u8(ckpt, tensor, 0, value)
        name = tensor.split(".")[-1]
        with pytest.raises(FormatError,
                           match=f"{name} must contain only 0/1 entries"):
            load_model(ckpt)

    @pytest.mark.parametrize("tensor,value", [
        ("layers.0.weights", np.nan), ("layers.0.bias", np.inf),
        ("layers.1.weights", -np.inf)])
    def test_non_finite_value_rejected(self, ckpt, tensor, value):
        set_f32(ckpt, tensor, 0, value)
        with pytest.raises(FormatError,
                           match=f"tensor {tensor}: holds non-finite values"):
            load_model(ckpt)

    @pytest.mark.parametrize("field,value", [
        ("nbytes", "x"), ("name", ["a"]), ("offset", float("inf"))])
    def test_wrong_json_type_in_tensor_record(self, ckpt, field, value):
        def mutate(m, b):
            m["tensors"][0][field] = value
            return m, b
        _corrupt(ckpt, mutate)
        with pytest.raises(FormatError):
            load_model(ckpt)

    def test_wrong_format_name(self, ckpt):
        def mutate(m, b):
            m["format"] = "something-else"
            return m, b
        _corrupt(ckpt, mutate)
        with pytest.raises(FormatError, match="format"):
            load_model(ckpt)

    def test_bad_json(self, ckpt):
        (ckpt / "model.json").write_text("{not json")
        with pytest.raises(FormatError):
            load_model(ckpt)

    @pytest.mark.parametrize("classes", [2, 4])
    def test_classes_unlike_the_last_layer(self, ckpt, classes):
        # the manifest's class count must be the logits the net emits
        def mutate(m, b):
            m["classes"] = classes
            return m, b
        _corrupt(ckpt, mutate)
        with pytest.raises(FormatError, match=f"declares {classes} classes"):
            load_model(ckpt)

    def test_shape_contradiction(self, ckpt):
        def mutate(m, b):
            m["layers"][0]["out"] = 9
            return m, b
        _corrupt(ckpt, mutate)
        with pytest.raises(FormatError):
            load_model(ckpt)

    @pytest.mark.parametrize("kind,field", [
        ("dense", "out"), ("dense", "in"),
        ("conv", "out"), ("conv", "in"), ("conv", "kernel")])
    @pytest.mark.parametrize("size", [0, -1])
    def test_size_below_one_rejected(self, tmp_path, kind, field, size):
        # a layer of size 0 saves, and its tensors agree with its record,
        # so only the size check catches it; a -1 is written over the 0
        dims = {"out": 2, "in": 3, "kernel": 2, field: 0}
        o, n, r = dims["out"], dims["in"], dims["kernel"]
        layer = DenseLayer(np.zeros((o, n)), np.zeros(o)) if kind == "dense" \
            else ConvLayer(np.zeros((o, n, r, r)), np.zeros(o))
        save_model(Network([layer], (n,), 2), tmp_path)

        def mutate(m, b):
            m["layers"][0][field] = size
            return m, b
        _corrupt(tmp_path, mutate)
        with pytest.raises(FormatError,
                           match=f"layer 0: '{field}' is {size}; sizes must "
                                 f"be >= 1"):
            load_model(tmp_path)


# anything JSON can hold in a layer record's field
JSON_VALUES = st.one_of(
    st.integers(-2, 3), st.none(), st.booleans(), st.floats(),
    st.text(max_size=3), st.lists(st.integers(-2, 3), max_size=3),
    st.lists(st.text(max_size=1), max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(-2, 3), max_size=1),
    st.sampled_from(["dense", "conv", "maxpool", "flatten", "relu",
                     "identity"]))
RECORD_KEYS = ["kind", "activation", "out", "in", "kernel", "stride",
               "padding", "window"]


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(layer=st.integers(0, 3),
       edits=st.dictionaries(st.sampled_from(RECORD_KEYS), JSON_VALUES,
                             min_size=1, max_size=3))
def test_edited_layer_record_loads_or_raises_format_error(tmp_path, layer,
                                                          edits):
    # the layers of small_cnn: conv (3 filters of 2 x 3 x 3, sizes that
    # lie in [-2, 3] too), 2 x 2 pool, flatten, dense (3 x 12)
    path = tmp_path / "ckpt"
    save_model(small_cnn(np.random.default_rng(0)), path)

    def mutate(m, b):
        m["layers"][layer].update(edits)
        return m, b
    _corrupt(path, mutate)
    try:
        net = load_model(path)
    except FormatError:
        return
    # what loads is a net that runs
    assert net.forward(np.zeros((2, *net.input_shape))).shape == (2, 3)
