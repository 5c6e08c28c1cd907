"""The benchmark's workloads: seeded synthetic inputs and one sweep config each.

Every input is generated here from the workload seed, with this file's own
IDX and CIFAR-10 writers, so the program under test only ever sees files and
a config, exactly as a user would hand them to ``weedout run``.

Why these three (see README.md for the metric mapping):

* ``desk_sweep`` -- the paper's desk-scale sweep on dense blobs, one seed:
  its eta grid for both arms, 10 cells.
  Python overhead dominates (mask sampling, RNG stream construction, pool
  threads waiting on the GIL, per-cell persistence); conv kernels do no
  work. It also exercises the resume/report read path over many cells.
* ``conv_search_mnist`` -- one weedout cell on 28x28x1 images at eta 0.6
  structured. Fitness evaluation on the conv forward kernel dominates, and
  most of its multiply-adds touch deactivated channels.
* ``conv_train_cifar`` -- one random_baseline cell on 32x32x3 images with
  unstructured masks. Training dominates and search does nothing;
  unstructured masks bypass any structured-mask reduction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
NUM_CLASSES = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    input_shape: tuple[int, ...]
    # the config minus "dataset" and "splits", which depend on the inputs
    config: dict
    # examples per training epoch of one cell
    train_size: int
    # examples written to disk for image workloads: (train file, test file)
    files: tuple[int, int] = (0, 0)
    splits: dict = field(default_factory=dict)

    @property
    def architecture(self) -> str:
        return self.config["architecture"]

    @property
    def cells(self) -> int:
        return (len(self.config["search"]["etas"]) * len(self.config["arms"])
                * len(self.config["seeds"]))

    @property
    def train_examples(self) -> int:
        """Training examples one sweep processes, summed over its cells."""
        return self.cells * self.config["train"]["epochs"] * self.train_size


WORKLOADS = {
    "desk_sweep": Workload(
        name="desk_sweep",
        why="10 tiny dense cells: Python overhead, GIL waiting and the resume/report path",
        input_shape=(16,),
        config={
            "architecture": "dense_default",
            "search": {"population_size": 100, "generations": 5,
                       "validation_batch_size": 256,
                       "etas": [0.0, 0.2, 0.4, 0.6, 0.8]},
            "train": {"epochs": 20, "batch_size": 128, "lr": 0.05, "momentum": 0.9},
            "arms": ["weedout", "random_baseline"],
            "seeds": [0],
        },
        train_size=1400,  # 0.7 of 10 classes x 200
    ),
    "conv_search_mnist": Workload(
        name="conv_search_mnist",
        why="one structured weedout cell on 28x28x1: fitness on the conv forward kernel",
        input_shape=(28, 28, 1),
        config={
            "architecture": "conv_default",
            "search": {"population_size": 12, "generations": 3,
                       "validation_batch_size": 128, "mask_mode": "structured",
                       "etas": [0.6]},
            "train": {"epochs": 1, "batch_size": 32, "lr": 0.05, "momentum": 0.9},
            "arms": ["weedout"],
            "seeds": [0],
        },
        train_size=512,
        files=(1024, 256),
        splits={"train": 512, "validation": 512},
    ),
    "conv_train_cifar": Workload(
        name="conv_train_cifar",
        why="one unstructured random-mask cell on 32x32x3: conv backward, SGD and batching",
        input_shape=(32, 32, 3),
        config={
            "architecture": "conv_default",
            "search": {"validation_batch_size": 256, "mask_mode": "unstructured",
                       "etas": [0.6]},
            "train": {"epochs": 2, "batch_size": 128, "lr": 0.05, "momentum": 0.9,
                      "eval_every": 2},
            "arms": ["random_baseline"],
            "seeds": [0],
        },
        train_size=512,
        files=(10000, 500),
        splits={"train": 512, "validation": 256},
    ),
}


# ---------------------------------------------------------------------------
# Synthetic images with a learnable class signal
# ---------------------------------------------------------------------------

def class_templates(rng: np.random.Generator, shape) -> np.ndarray:
    """One template per class in [0, 1]: a coloured spot in a cell of its own.

    The image is cut into a 4x4 grid and each class gets a different cell,
    so no two classes overlap. Random spots may coincide, and uniform random
    templates carry too little signal for a short training run to beat
    chance reliably.
    """
    h, w, c = shape
    yy, xx = np.mgrid[0:h, 0:w]
    ch, cw = h / 4, w / 4
    out = np.zeros((NUM_CLASSES, h, w, c))
    for k, cell in enumerate(rng.choice(16, size=NUM_CLASSES, replace=False)):
        cy, cx = (cell // 4 + 0.5) * ch, (cell % 4 + 0.5) * cw
        spot = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * (ch / 3) ** 2))
        out[k] = spot[:, :, None] * rng.uniform(0.5, 1.0, size=c)
    return out


def balanced_labels(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.permutation(np.arange(n) % NUM_CLASSES).astype(np.uint8)


def images(rng: np.random.Generator, templates: np.ndarray,
           labels: np.ndarray, chunk: int = 1000) -> np.ndarray:
    """uint8 images: scaled class template plus pixel noise, made in chunks."""
    out = np.empty((len(labels),) + templates.shape[1:], dtype=np.uint8)
    for start in range(0, len(labels), chunk):
        lab = labels[start:start + chunk]
        gain = rng.uniform(0.6, 1.0, size=(len(lab), 1, 1, 1))
        noise = rng.normal(0.0, 0.2, size=(len(lab),) + templates.shape[1:])
        x = templates[lab] * gain + noise
        out[start:start + chunk] = np.rint(np.clip(x, 0.0, 1.0) * 255.0)
    return out


def write_idx(prefix: Path, pixels: np.ndarray, labels: np.ndarray) -> tuple[str, str]:
    """IDX image and label files (big-endian headers, uint8 payload)."""
    n, rows, cols, _ = pixels.shape
    img, lab = Path(f"{prefix}-images.idx"), Path(f"{prefix}-labels.idx")
    img.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols)
                    + pixels.tobytes())
    lab.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, n) + labels.tobytes())
    return str(img), str(lab)


def write_cifar(path: Path, pixels: np.ndarray, labels: np.ndarray) -> str:
    """CIFAR-10 binary records: one label byte, then R, G and B planes."""
    planes = pixels.transpose(0, 3, 1, 2).reshape(len(labels), -1)
    path.write_bytes(np.concatenate([labels[:, None], planes], axis=1).tobytes())
    return str(path)


def make_inputs(wl: Workload, seed: int, work_dir: Path) -> tuple[dict, dict]:
    """Write the workload's inputs for ``seed``; returns (dataset, splits) config."""
    if wl.architecture == "dense_default":
        return ({"kind": "blobs", "num_classes": NUM_CLASSES, "per_class": 200,
                 "dim": 16, "spread": 0.35, "seed": seed},
                {"train": 0.7, "validation": 0.15, "test": 0.15, "seed": seed})
    rng = np.random.default_rng(seed)
    templates = class_templates(rng, wl.input_shape)
    sets = []
    for n in wl.files:
        labels = balanced_labels(rng, n)
        sets.append((images(rng, templates, labels), labels))
    (train_x, train_y), (test_x, test_y) = sets
    splits = dict(wl.splits, seed=seed)
    if wl.input_shape[-1] == 1:
        tr_img, tr_lab = write_idx(work_dir / "train", train_x, train_y)
        te_img, te_lab = write_idx(work_dir / "test", test_x, test_y)
        return ({"kind": "mnist", "train_images": tr_img, "train_labels": tr_lab,
                 "test_images": te_img, "test_labels": te_lab}, splits)
    return ({"kind": "cifar10",
             "train_files": [write_cifar(work_dir / "data_batch.bin", train_x, train_y)],
             "test_file": write_cifar(work_dir / "test_batch.bin", test_x, test_y)},
            splits)


def sweep_config(wl: Workload, seed: int, work_dir: Path) -> dict:
    """The full JSON config ``weedout run`` receives for this workload."""
    dataset, splits = make_inputs(wl, seed, work_dir)
    return {"schema_version": 1, "dataset": dataset, "splits": splits, **wl.config}
