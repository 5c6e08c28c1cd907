"""Dataset ingestion, deterministic splitting, and batching.

Loaders cover the two classic binary image-classification formats (IDX and
CIFAR-10 batches) plus a synthetic Gaussian-blob generator used as the fast
oracle task. All shuffling flows through :class:`RngStream`; nothing in this
module touches ambient entropy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError
from .numerics import RngStream, Tensor

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 32*32*3 pixels


@dataclass
class Dataset:
    """Inputs, integer labels and the class count for one data split.

    Inputs stay as given: uint8 pixels from an image file, float64 for blobs.
    ``take`` is the one way to read them, as float64 rows; it divides uint8
    pixels by 255.0 one batch at a time, so a large file is never held as
    floats.
    """

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if np.asarray(self.inputs).dtype != np.uint8:
            self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.labels) < 1:
            raise ValueError("dataset must contain at least one example")
        if self.inputs.shape[0] != len(self.labels):
            raise ValueError(
                f"{self.inputs.shape[0]} inputs vs {len(self.labels)} labels")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError(f"labels must lie in [0, {self.num_classes})")
        if self.inputs.dtype != np.uint8 and not np.isfinite(self.inputs).all():
            raise ValueError("dataset inputs contain non-finite values")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def input_shape(self) -> tuple[int, ...]:
        return tuple(self.inputs.shape[1:])

    def take(self, idx) -> tuple[Tensor, np.ndarray]:
        """Rows ``idx`` (indices or a slice) as float64 inputs, and their labels."""
        x = self.inputs[idx]
        return (x / 255.0 if x.dtype == np.uint8 else x), self.labels[idx]


# ---------------------------------------------------------------------------
# IDX (MNIST-style) format
# ---------------------------------------------------------------------------

def load_idx(images_path, labels_path, num_classes: int | None = None) -> Dataset:
    """Read big-endian IDX image/label files; pixels stay uint8."""
    images_path, labels_path = Path(images_path), Path(labels_path)
    raw = images_path.read_bytes()
    if len(raw) < 16:
        raise FormatError(f"{images_path}: truncated header (need 16 bytes, have {len(raw)})")
    magic, n, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise FormatError(
            f"{images_path}: bad magic 0x{magic:08x} at offset 0, expected 0x{IDX_IMAGES_MAGIC:08x}")
    expected = 16 + n * rows * cols
    if len(raw) != expected:
        raise FormatError(
            f"{images_path}: expected {expected} bytes, found {len(raw)} (mismatch at offset {min(len(raw), expected)})")
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(n, rows, cols, 1)

    raw_l = labels_path.read_bytes()
    if len(raw_l) < 8:
        raise FormatError(f"{labels_path}: truncated header (need 8 bytes, have {len(raw_l)})")
    magic_l, n_l = struct.unpack(">II", raw_l[:8])
    if magic_l != IDX_LABELS_MAGIC:
        raise FormatError(
            f"{labels_path}: bad magic 0x{magic_l:08x} at offset 0, expected 0x{IDX_LABELS_MAGIC:08x}")
    if len(raw_l) != 8 + n_l:
        raise FormatError(
            f"{labels_path}: expected {8 + n_l} bytes, found {len(raw_l)} (mismatch at offset {min(len(raw_l), 8 + n_l)})")
    if n_l != n:
        raise FormatError(f"{labels_path}: {n_l} labels for {n} images")
    labels = np.frombuffer(raw_l, dtype=np.uint8, offset=8).astype(np.int64)
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if n else 0
    return Dataset(pixels, labels, num_classes)


# ---------------------------------------------------------------------------
# CIFAR-10 binary batches
# ---------------------------------------------------------------------------

def load_cifar10_binary(batch_paths) -> Dataset:
    """Read CIFAR-10 binary batch files (3073-byte records) into HWC layout;
    pixels stay uint8."""
    if isinstance(batch_paths, (str, Path)):
        batch_paths = [batch_paths]
    if not batch_paths:
        raise ValueError("no CIFAR-10 batch files given")
    chunks = []
    for p in batch_paths:
        p = Path(p)
        raw = p.read_bytes()
        if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
            raise FormatError(
                f"{p}: size {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES} "
                f"(stray bytes from offset {len(raw) - len(raw) % CIFAR_RECORD_BYTES})")
        chunks.append(np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES))
    records = np.concatenate(chunks, axis=0)
    labels = records[:, 0].astype(np.int64)
    if labels.max() > 9:
        raise FormatError(f"label byte {labels.max()} out of range for CIFAR-10")
    # channel-major planes (R, G, B) -> HWC
    pixels = records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
    return Dataset(pixels, labels, 10)


# ---------------------------------------------------------------------------
# Synthetic blobs
# ---------------------------------------------------------------------------

def synthetic_blobs(num_classes: int, per_class: int, dim: int, spread: float,
                    seed: int) -> Dataset:
    """Gaussian blobs with unit-simplex class centers; balanced and seeded.

    Class ``c`` is drawn Normal(e_c, spread^2 I) where ``e_c`` is the c-th
    standard basis vector, so ``dim >= num_classes`` is required.
    """
    if num_classes < 1 or per_class < 1 or dim < 1:
        raise ValueError("num_classes, per_class, and dim must be positive")
    if not spread > 0:
        raise ValueError("spread must be positive")
    if dim < num_classes:
        raise ValueError(f"dim ({dim}) must be >= num_classes ({num_classes})")
    rng = RngStream(seed).split("blobs")
    n = num_classes * per_class
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    means = np.zeros((num_classes, dim))
    means[np.arange(num_classes), np.arange(num_classes)] = 1.0
    inputs = means[labels] + spread * rng.normal((n, dim))
    perm = rng.permutation(n)
    return Dataset(inputs[perm], labels[perm], num_classes)


# ---------------------------------------------------------------------------
# Splitting and batching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test partition sizes plus the shuffle seed.

    All three sizes must be counts (ints) or all fractions (floats).
    Fractions must sum to 1 and partition the source exhaustively; counts may
    cover a subset, in which case the remainder is discarded.
    """

    train: int | float
    validation: int | float
    test: int | float
    seed: int = 0


@dataclass(frozen=True)
class Splits:
    """The three partitions; ``split`` gives None for a zero-count part."""

    train: Dataset
    validation: Dataset
    test: Dataset


def split(ds: Dataset, spec: SplitSpec) -> Splits:
    """Deterministic disjoint partition of ``ds`` per ``spec``; the parts
    keep the inputs' dtype."""
    n = len(ds)
    parts = (spec.train, spec.validation, spec.test)
    if all(isinstance(p, float) for p in parts):
        if any(p < 0 for p in parts) or abs(sum(parts) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must be >= 0 and sum to 1, got {parts}")
        n_train = int(round(spec.train * n))
        n_val = int(round(spec.validation * n))
        n_test = n - n_train - n_val
    elif all(isinstance(p, int) for p in parts):
        if any(p < 0 for p in parts):
            raise ValueError(f"split counts must be >= 0, got {parts}")
        n_train, n_val, n_test = parts
        if n_train + n_val + n_test > n:
            raise ValueError(f"split counts {parts} exceed dataset size {n}")
    else:
        raise ValueError("split sizes must be all counts or all fractions")
    if n_test < 0:
        raise ValueError(f"infeasible split {parts} for dataset of size {n}")
    perm = RngStream(spec.seed).split("split").permutation(n)
    a, b, c = n_train, n_train + n_val, n_train + n_val + n_test

    def part(idx):
        return Dataset(ds.inputs[idx], ds.labels[idx], ds.num_classes) if len(idx) else None

    return Splits(part(perm[:a]), part(perm[a:b]), part(perm[b:c]))


def batches(ds: Dataset, batch_size: int, rng: RngStream):
    """One shuffled pass over the dataset, yielding (inputs, labels) pairs."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = len(ds)
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield ds.take(perm[start:start + batch_size])


def sample_batch(ds: Dataset, batch_size: int, rng: RngStream):
    """Uniform sample of ``batch_size`` distinct examples (validation-batch mode)."""
    n = len(ds)
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size > n:
        raise ValueError(f"cannot sample {batch_size} of {n} examples without replacement")
    return ds.take(rng.choice_without_replacement(n, batch_size))

