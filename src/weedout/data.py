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
DATASET_MAGIC = b"WDST"
DATASET_VERSION = 1


@dataclass
class Dataset:
    """Inputs, integer labels, and provenance for one data split."""

    inputs: Tensor
    labels: np.ndarray
    num_classes: int
    provenance: str = ""

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.labels) < 1:
            raise ValueError("dataset must contain at least one example")
        if self.inputs.shape[0] != len(self.labels):
            raise ValueError(
                f"{self.inputs.shape[0]} inputs vs {len(self.labels)} labels")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError(f"labels must lie in [0, {self.num_classes})")
        if not np.isfinite(self.inputs).all():
            raise ValueError("dataset inputs contain non-finite values")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def input_shape(self) -> tuple[int, ...]:
        return tuple(self.inputs.shape[1:])

    def subset(self, indices, provenance: str | None = None) -> "Dataset":
        return Dataset(self.inputs[indices], self.labels[indices], self.num_classes,
                       provenance if provenance is not None else self.provenance)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)


@dataclass(frozen=True)
class Pixels:
    """uint8 images and integer labels as read from an image file.

    The model reads pixels as ``pixels / 255.0`` in float64, eight times the
    bytes. ``subset`` converts only the examples it takes, so splitting a
    large file never holds the whole of it as floats.
    """

    pixels: np.ndarray
    labels: np.ndarray
    num_classes: int
    provenance: str = ""

    def __post_init__(self):
        if len(self.labels) and (self.labels.min() < 0
                                 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices, provenance: str | None = None) -> Dataset:
        return Dataset(self.pixels[indices] / 255.0, self.labels[indices],
                       self.num_classes,
                       provenance if provenance is not None else self.provenance)

    def dataset(self) -> Dataset:
        """Every example, scaled."""
        return self.subset(slice(None))


# ---------------------------------------------------------------------------
# IDX (MNIST-style) format
# ---------------------------------------------------------------------------

def load_idx(images_path, labels_path, num_classes: int | None = None) -> Dataset:
    """Read big-endian IDX image/label files; pixels scaled to [0, 1]."""
    return read_idx(images_path, labels_path, num_classes).dataset()


def read_idx(images_path, labels_path, num_classes: int | None = None) -> Pixels:
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
    return Pixels(pixels, labels, num_classes, provenance=f"idx:{images_path.name}")


def write_idx_images(path, images: np.ndarray) -> None:
    """Write uint8 images [n, rows, cols] as an IDX file (fixture/export helper)."""
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
        f.write(labels.tobytes())


# ---------------------------------------------------------------------------
# CIFAR-10 binary batches
# ---------------------------------------------------------------------------

def load_cifar10_binary(batch_paths) -> Dataset:
    """Read CIFAR-10 binary batch files (3073-byte records) into HWC layout."""
    return read_cifar10_binary(batch_paths).dataset()


def read_cifar10_binary(batch_paths) -> Pixels:
    """Read CIFAR-10 binary batch files into HWC layout; pixels stay uint8."""
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
    return Pixels(pixels, labels, 10, provenance=f"cifar10:{len(batch_paths)} file(s)")


def encode_cifar10_records(inputs: Tensor, labels: np.ndarray) -> bytes:
    """Inverse of the CIFAR-10 decoder; lossless for loader-produced data."""
    pixels = np.rint(np.asarray(inputs) * 255.0).astype(np.uint8)
    planes = pixels.transpose(0, 3, 1, 2).reshape(len(labels), -1)
    records = np.concatenate(
        [np.asarray(labels, dtype=np.uint8)[:, None], planes], axis=1)
    return records.tobytes()


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
    return Dataset(inputs[perm], labels[perm], num_classes,
                   provenance=f"blobs(k={num_classes},per_class={per_class},"
                              f"dim={dim},spread={spread},seed={seed})")


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


@dataclass
class SplitResult:
    """The three partitions; a zero-count part is None."""

    train: Dataset | None
    validation: Dataset | None
    test: Dataset | None
    discarded: int

    def class_counts(self) -> dict[str, list[int]]:
        return {name: getattr(self, name).class_counts().tolist()
                for name in ("train", "validation", "test")
                if getattr(self, name) is not None}


def split(ds: Dataset | Pixels, spec: SplitSpec) -> SplitResult:
    """Deterministic disjoint partition of ``ds`` per ``spec``.

    The parts are Datasets either way; from ``Pixels`` only the examples a
    part keeps are converted to floats.
    """
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

    def part(idx, name):
        return ds.subset(idx, f"{ds.provenance}/{name}") if len(idx) else None

    return SplitResult(
        train=part(perm[:a], "train"),
        validation=part(perm[a:b], "validation"),
        test=part(perm[b:c], "test"),
        discarded=n - c,
    )


def batches(ds: Dataset, batch_size: int, rng: RngStream, drop_last: bool = False):
    """One shuffled pass over the dataset, yielding (inputs, labels) pairs."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = len(ds)
    if drop_last and batch_size > n:
        raise ValueError(f"batch_size {batch_size} > dataset size {n} with drop_last "
                         "yields an empty epoch")
    perm = rng.permutation(n)
    end = n - (n % batch_size) if drop_last else n
    for start in range(0, end, batch_size):
        idx = perm[start:start + batch_size]
        yield ds.inputs[idx], ds.labels[idx]


def sample_batch(ds: Dataset, batch_size: int, rng: RngStream):
    """Uniform sample of ``batch_size`` distinct examples (validation-batch mode)."""
    n = len(ds)
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size > n:
        raise ValueError(f"cannot sample {batch_size} of {n} examples without replacement")
    idx = rng.choice_without_replacement(n, batch_size)
    return ds.inputs[idx], ds.labels[idx]


# ---------------------------------------------------------------------------
# Versioned binary container for synthetic/exported datasets
# ---------------------------------------------------------------------------

def save_dataset(path, ds: Dataset) -> None:
    """Write a dataset to the versioned binary container."""
    prov = ds.provenance.encode("utf-8")
    with open(path, "wb") as f:
        f.write(DATASET_MAGIC)
        f.write(struct.pack("<III", DATASET_VERSION, ds.num_classes, ds.inputs.ndim))
        f.write(struct.pack(f"<{ds.inputs.ndim}Q", *ds.inputs.shape))
        f.write(struct.pack("<I", len(prov)))
        f.write(prov)
        f.write(np.ascontiguousarray(ds.inputs, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(ds.labels, dtype="<i8").tobytes())


def load_dataset(path) -> Dataset:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 16 or raw[:4] != DATASET_MAGIC:
        raise FormatError(f"{path}: bad magic at offset 0")
    version, num_classes, ndim = struct.unpack("<III", raw[4:16])
    if version != DATASET_VERSION:
        raise FormatError(f"{path}: unsupported container version {version}")
    off = 16
    shape = struct.unpack(f"<{ndim}Q", raw[off:off + 8 * ndim])
    off += 8 * ndim
    (prov_len,) = struct.unpack("<I", raw[off:off + 4])
    off += 4
    prov = raw[off:off + prov_len].decode("utf-8")
    off += prov_len
    n_inputs = int(np.prod(shape))
    expected = off + 8 * n_inputs + 8 * shape[0]
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(raw)} "
                          f"(mismatch at offset {min(len(raw), expected)})")
    inputs = np.frombuffer(raw, dtype="<f8", count=n_inputs, offset=off).reshape(shape)
    labels = np.frombuffer(raw, dtype="<i8", count=shape[0], offset=off + 8 * n_inputs)
    return Dataset(inputs.copy(), labels.copy(), num_classes, prov)
