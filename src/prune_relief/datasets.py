"""Dataset loading: IDX image/label files and a synthetic blob generator.

IDX parsing follows the canonical byte layout: a big-endian uint32 magic
(2051 for images, 2049 for labels), big-endian uint32 dimensions, then raw
unsigned bytes. Files may be gzip-compressed; compression is sniffed from the
leading two bytes, never from the filename. Pixels are scaled to [0, 1]
float32 and image batches are shaped (N, 1, rows, cols).
"""

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError

IMAGES_MAGIC = 2051
LABELS_MAGIC = 2049


@dataclass
class Dataset:
    images: np.ndarray  # (N, C, H, W) float32
    labels: np.ndarray  # (N,) int64

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise FormatError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels")

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def sample_shape(self) -> tuple:
        return self.images.shape[1:]

    def head(self, n: int) -> "Dataset":
        return Dataset(self.images[:n], self.labels[:n])


def _read_file(path) -> bytes:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError) as e:
            raise FormatError(f"{path} looks gzipped but does not inflate: {e}") from e
    return raw


def _read_header(raw: bytes, n_dims: int, path) -> tuple:
    need = 4 * (1 + n_dims)
    if len(raw) < need:
        raise FormatError(f"{path} is truncated: {len(raw)} bytes, header "
                          f"needs {need}")
    return struct.unpack(f">{1 + n_dims}l", raw[:need]), raw[need:]


def load_idx_images(path) -> np.ndarray:
    raw = _read_file(path)
    (magic, n, rows, cols), body = _read_header(raw, 3, path)
    if magic != IMAGES_MAGIC:
        raise FormatError(f"{path} has magic 0x{magic & 0xffffffff:08x}, "
                          f"expected {IMAGES_MAGIC} for images")
    if min(n, rows, cols) < 0:
        raise FormatError(f"{path} declares negative dimensions")
    need = n * rows * cols
    if len(body) < need:
        raise FormatError(f"{path} is truncated: {len(body)} pixel bytes for "
                          f"{n} x {rows} x {cols}")
    if len(body) > need:
        raise FormatError(f"{path} has {len(body) - need} trailing bytes")
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(n, 1, rows, cols)
    # one float32 copy of the split, scaled in place
    images = pixels.astype(np.float32)
    images /= np.float32(255.0)
    return images


def load_idx_labels(path) -> np.ndarray:
    raw = _read_file(path)
    (magic, n), body = _read_header(raw, 1, path)
    if magic != LABELS_MAGIC:
        raise FormatError(f"{path} has magic 0x{magic & 0xffffffff:08x}, "
                          f"expected {LABELS_MAGIC} for labels")
    if n < 0:
        raise FormatError(f"{path} declares a negative count")
    if len(body) != n:
        raise FormatError(f"{path} holds {len(body)} label bytes, header "
                          f"declares {n}")
    return np.frombuffer(body, dtype=np.uint8).astype(np.int64)


def load_idx(images_path, labels_path) -> Dataset:
    """Load an image/label IDX pair; counts must agree."""
    return Dataset(load_idx_images(images_path), load_idx_labels(labels_path))


def synth_dataset(seed, n: int, classes: int, dim: int = 16,
                  spread: float = 6.0, split: int = 0) -> Dataset:
    """Separable Gaussian blobs as (N, 1, 1, dim) images in [0, 1].

    Class means are drawn uniformly in [0.25, 0.75]^dim and the per-class
    standard deviation is the minimum pairwise mean distance divided by
    2 * ``spread``, so larger spreads give easier problems. Class labels are
    balanced to within one sample.

    The means depend only on ``seed``; ``split`` re-seeds just the sample
    draws, so train (split 0) and test (split 1) share class geometry while
    staying statistically independent. The same arguments always produce the
    same bytes.
    """
    if classes < 2:
        raise ConfigError(f"synthetic data needs >= 2 classes, got {classes}")
    if n < classes:
        raise ConfigError(f"synthetic data needs n >= classes, got n={n}")
    if dim < 1:
        raise ConfigError(f"synthetic data needs dim >= 1, got {dim}")
    if spread <= 0:
        raise ConfigError(f"spread must be > 0, got {spread}")
    mean_rng = np.random.default_rng([seed, 0])
    means = mean_rng.uniform(0.25, 0.75, size=(classes, dim))
    dists = np.sqrt(((means[:, None, :] - means[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(dists, np.inf)
    sigma = dists.min() / (2.0 * spread)
    rng = np.random.default_rng([seed, 1 + split])
    labels = rng.permutation(np.arange(n) % classes).astype(np.int64)
    noise = rng.normal(0.0, sigma, size=(n, dim))
    images = np.clip(means[labels] + noise, 0.0, 1.0).astype(np.float32)
    return Dataset(images.reshape(n, 1, 1, dim), labels)


def normalize_pair(train: Dataset, test: Dataset | None
                   ) -> tuple[Dataset, Dataset | None]:
    """Standardize both splits with the training split's mean and std; a
    test split of None stays None."""
    mean = train.images.mean(dtype=np.float64)
    std = train.images.std(dtype=np.float64)
    if std == 0:
        std = 1.0
    mean32, std32 = np.float32(mean), np.float32(std)
    return (Dataset((train.images - mean32) / std32, train.labels),
            None if test is None
            else Dataset((test.images - mean32) / std32, test.labels))
