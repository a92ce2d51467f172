"""Seeded, MNIST-shaped IDX files for the benchmark workloads.

Each split is a pair of gzipped IDX files (images: magic 2051, N x 28 x 28
uint8; labels: magic 2049, N uint8 in 0..9), written with a zero gzip mtime
so the same seed always gives the same bytes.

Every class has a smooth random prototype. A sample of class y blends its
prototype with the prototype of a random other class o,
``(1 - lam) * P[y] + lam * P[o]`` with ``lam ~ U(0, 0.6)``, is shifted by up
to two pixels and gets pixel noise. Once ``lam`` passes 0.5 a sample looks
more like o than y, so roughly one sample in six is ambiguous and test
accuracy stays well below 100% however long a model trains.
"""

import gzip
import struct
from pathlib import Path

import numpy as np

ROWS = COLS = 28
CLASSES = 10
MAX_BLEND = 0.6
MAX_SHIFT = 2
NOISE_STD = 0.15
INK = 0.3

FILE_NAMES = {
    "train": ("train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz"),
    "test": ("t10k-images-idx3-ubyte.gz", "t10k-labels-idx1-ubyte.gz"),
}


def prototypes(seed: int) -> np.ndarray:
    """(CLASSES, 28, 28) float64 class templates in [0, 1], sparse like digits.

    Every template inks the same share of pixels (INK), so seeds change the
    shapes but not how much of the input is live, which sets how much
    pruning finds to remove.
    """
    rng = np.random.default_rng([seed, 0])
    coarse = rng.random((CLASSES, 7, 7))
    field = np.kron(coarse, np.ones((4, 4)))
    # a 3x3 box blur smooths the 4x4 blocks into strokes
    padded = np.pad(field, ((0, 0), (1, 1), (1, 1)), mode="edge")
    blurred = sum(padded[:, i:i + ROWS, j:j + COLS]
                  for i in range(3) for j in range(3)) / 9.0
    flat = blurred.reshape(CLASSES, -1)
    lo = np.quantile(flat, 1.0 - INK, axis=1)[:, None, None]
    hi = np.quantile(flat, 1.0 - INK / 10, axis=1)[:, None, None]
    return np.clip((blurred - lo) / (hi - lo), 0.0, 1.0)


def make_split(seed: int, n: int, split: int) -> tuple[np.ndarray, np.ndarray]:
    """Images (n, 28, 28) uint8 and labels (n,) uint8 for one split."""
    protos = prototypes(seed)
    rng = np.random.default_rng([seed, 1 + split])
    labels = rng.integers(0, CLASSES, size=n)
    others = (labels + rng.integers(1, CLASSES, size=n)) % CLASSES
    lam = rng.uniform(0.0, MAX_BLEND, size=n)[:, None, None]
    imgs = (1.0 - lam) * protos[labels] + lam * protos[others]
    shifts = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=(n, 2))
    for dy in range(-MAX_SHIFT, MAX_SHIFT + 1):
        for dx in range(-MAX_SHIFT, MAX_SHIFT + 1):
            sel = (shifts[:, 0] == dy) & (shifts[:, 1] == dx)
            imgs[sel] = np.roll(imgs[sel], (dy, dx), axis=(1, 2))
    imgs += rng.normal(0.0, NOISE_STD, size=imgs.shape)
    pixels = np.rint(np.clip(imgs, 0.0, 1.0) * 255.0).astype(np.uint8)
    return pixels, labels.astype(np.uint8)


def idx_images(pixels: np.ndarray) -> bytes:
    n, rows, cols = pixels.shape
    return struct.pack(">4l", 2051, n, rows, cols) + pixels.tobytes()


def idx_labels(labels: np.ndarray) -> bytes:
    return struct.pack(">2l", 2049, labels.shape[0]) + labels.tobytes()


def write_dataset(out_dir, seed: int, n_train: int, n_test: int) -> dict:
    """Write both splits into ``out_dir``; returns the four file paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for split, (name, n) in enumerate((("train", n_train), ("test", n_test))):
        pixels, labels = make_split(seed, n, split)
        img_name, lbl_name = FILE_NAMES[name]
        for key, fname, raw in ((f"{name}_images", img_name, idx_images(pixels)),
                                (f"{name}_labels", lbl_name, idx_labels(labels))):
            path = out_dir / fname
            path.write_bytes(gzip.compress(raw, compresslevel=6, mtime=0))
            paths[key] = path
    return paths
