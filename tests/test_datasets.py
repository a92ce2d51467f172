"""Synthetic blobs, IDX parsing with crafted fixtures, and normalization."""

import gzip
import struct

import numpy as np
import pytest

from prune_relief import (ConfigError, Dataset, FormatError, load_idx,
                          load_idx_images, load_idx_labels, normalize_pair,
                          synth_dataset)


def idx_images_bytes(pixels: np.ndarray) -> bytes:
    n, rows, cols = pixels.shape
    return struct.pack(">4l", 2051, n, rows, cols) + pixels.astype(
        np.uint8).tobytes()


def idx_labels_bytes(labels) -> bytes:
    arr = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">2l", 2049, arr.size) + arr.tobytes()


class TestSynth:
    def test_deterministic(self):
        a = synth_dataset(5, 60, 3)
        b = synth_dataset(5, 60, 3)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_shapes_and_dtypes(self):
        ds = synth_dataset(1, 50, 4, dim=9)
        assert ds.images.shape == (50, 1, 1, 9)
        assert ds.images.dtype == np.float32
        assert ds.labels.dtype == np.int64
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_balanced_labels(self):
        ds = synth_dataset(2, 100, 3)
        counts = np.bincount(ds.labels, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_separable_by_class_means(self):
        # nearest-class-mean on a held-out split should be near perfect
        train = synth_dataset(3, 300, 4, dim=10)
        test = synth_dataset(3, 200, 4, dim=10, split=1)
        flat = train.images.reshape(300, 10)
        means = np.stack([flat[train.labels == c].mean(0) for c in range(4)])
        tflat = test.images.reshape(200, 10)
        d = ((tflat[:, None, :] - means[None]) ** 2).sum(-1)
        pred = d.argmin(1)
        assert (pred == test.labels).mean() >= 0.99

    def test_splits_share_geometry_but_differ(self):
        a = synth_dataset(4, 80, 2, dim=5)
        b = synth_dataset(4, 80, 2, dim=5, split=1)
        assert not np.array_equal(a.images, b.images)
        fa = a.images.reshape(80, 5)
        fb = b.images.reshape(80, 5)
        for c in range(2):
            ma = fa[a.labels == c].mean(0)
            mb = fb[b.labels == c].mean(0)
            assert np.linalg.norm(ma - mb) < 0.05

    def test_validation(self):
        with pytest.raises(ConfigError):
            synth_dataset(0, 10, 1)
        with pytest.raises(ConfigError):
            synth_dataset(0, 2, 3)
        with pytest.raises(ConfigError):
            synth_dataset(0, 10, 2, dim=0)
        with pytest.raises(ConfigError):
            synth_dataset(0, 10, 2, spread=0.0)


class TestDatasetContainer:
    def test_count_mismatch(self):
        with pytest.raises(FormatError):
            Dataset(np.zeros((3, 1, 2, 2), np.float32), np.zeros(4, np.int64))

    def test_head(self):
        ds = synth_dataset(1, 20, 2)
        head = ds.head(4)
        assert head.n == 4
        np.testing.assert_array_equal(head.images, ds.images[:4])
        assert ds.sample_shape == (1, 1, 16)


class TestIdxImages:
    def test_round_trip(self, rng, tmp_path):
        pixels = rng.integers(0, 256, size=(5, 4, 3)).astype(np.uint8)
        path = tmp_path / "imgs"
        path.write_bytes(idx_images_bytes(pixels))
        out = load_idx_images(path)
        assert out.shape == (5, 1, 4, 3)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out,
                                      pixels[:, None].astype(np.float32) / 255)

    def test_gzip_round_trip(self, rng, tmp_path):
        pixels = rng.integers(0, 256, size=(3, 2, 2)).astype(np.uint8)
        plain = idx_images_bytes(pixels)
        path = tmp_path / "imgs.gz"
        path.write_bytes(gzip.compress(plain))
        np.testing.assert_array_equal(load_idx_images(path),
                                      pixels[:, None].astype(np.float32) / 255)

    def test_gzip_sniffed_not_by_name(self, rng, tmp_path):
        pixels = rng.integers(0, 256, size=(2, 2, 2)).astype(np.uint8)
        path = tmp_path / "no_gz_suffix"
        path.write_bytes(gzip.compress(idx_images_bytes(pixels)))
        assert load_idx_images(path).shape == (2, 1, 2, 2)

    def test_wrong_magic(self, tmp_path):
        body = struct.pack(">4l", 2050, 1, 2, 2) + bytes(4)
        path = tmp_path / "bad"
        path.write_bytes(body)
        with pytest.raises(FormatError, match="magic"):
            load_idx_images(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(b"\x00\x00\x08\x03\x00")
        with pytest.raises(FormatError, match="truncated"):
            load_idx_images(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(struct.pack(">4l", 2051, 2, 2, 2) + bytes(7))
        with pytest.raises(FormatError, match="truncated"):
            load_idx_images(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long"
        path.write_bytes(struct.pack(">4l", 2051, 1, 2, 2) + bytes(5))
        with pytest.raises(FormatError, match="trailing"):
            load_idx_images(path)

    def test_negative_dims(self, tmp_path):
        path = tmp_path / "neg"
        path.write_bytes(struct.pack(">4l", 2051, -1, 2, 2))
        with pytest.raises(FormatError, match="negative"):
            load_idx_images(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            load_idx_images(tmp_path / "absent")

    def test_corrupt_gzip(self, tmp_path):
        path = tmp_path / "broken.gz"
        path.write_bytes(b"\x1f\x8b" + bytes(10))
        with pytest.raises(FormatError, match="inflate"):
            load_idx_images(path)


class TestIdxLabels:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels"
        path.write_bytes(idx_labels_bytes([0, 9, 4]))
        out = load_idx_labels(path)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [0, 9, 4])

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">2l", 2051, 1) + bytes(1))
        with pytest.raises(FormatError, match="magic"):
            load_idx_labels(path)

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">2l", 2049, 5) + bytes(3))
        with pytest.raises(FormatError):
            load_idx_labels(path)

    def test_pair_count_mismatch(self, rng, tmp_path):
        pixels = rng.integers(0, 256, size=(3, 2, 2)).astype(np.uint8)
        ip = tmp_path / "imgs"
        lp = tmp_path / "labels"
        ip.write_bytes(idx_images_bytes(pixels))
        lp.write_bytes(idx_labels_bytes([1, 2]))
        with pytest.raises(FormatError, match="images but"):
            load_idx(ip, lp)


class TestNormalizePair:
    def test_train_stats_applied_to_both(self):
        train = synth_dataset(9, 200, 2)
        test = synth_dataset(9, 100, 2, split=1)
        ntrain, ntest = normalize_pair(train, test)
        assert abs(float(ntrain.images.mean())) < 1e-3
        assert abs(float(ntrain.images.std()) - 1.0) < 1e-3
        mean = np.float32(train.images.mean(dtype=np.float64))
        std = np.float32(train.images.std(dtype=np.float64))
        np.testing.assert_allclose(ntest.images,
                                   (test.images - mean) / std, rtol=1e-6)

    def test_constant_images_do_not_divide_by_zero(self):
        imgs = np.full((4, 1, 2, 2), 0.5, np.float32)
        ds = Dataset(imgs, np.zeros(4, np.int64))
        out, _ = normalize_pair(ds, ds)
        assert np.all(np.isfinite(out.images))
        np.testing.assert_array_equal(out.images, np.zeros_like(imgs))

    def test_labels_untouched(self):
        train = synth_dataset(11, 50, 2)
        test = synth_dataset(11, 30, 2, split=1)
        ntrain, ntest = normalize_pair(train, test)
        np.testing.assert_array_equal(ntrain.labels, train.labels)
        np.testing.assert_array_equal(ntest.labels, test.labels)
