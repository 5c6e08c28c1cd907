"""Correctness checks on a finished sweep, read from its cell files.

Every check raises ``CheckFailed``; the benchmark then exits non-zero and
reports no numbers. Only ``check_masks`` imports the package, to rebuild
each cell's parent and mask and compare two independent forward paths.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

MANIFEST = "manifest.json"
OUTPUT_FILES = ("metrics.csv", "search.csv")
EQUIVALENCE_TOL = 1e-9
HELD_BATCH = 64


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Cell:
    name: str
    path: Path
    manifest: dict
    rows: list[dict]

    @property
    def final_test_acc(self) -> float:
        return float(self.rows[-1]["test_accuracy"])


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_cells(out_dir: Path, expected: int) -> list[Cell]:
    """Every cell completed, its checksums verify and its zero counts are exact."""
    cells = []
    for path in sorted(p.parent for p in out_dir.glob(f"*/{MANIFEST}")):
        manifest = json.loads((path / MANIFEST).read_text())
        if manifest.get("status") != "completed":
            raise CheckFailed(f"{path.name}: status {manifest.get('status')!r}: "
                              f"{manifest.get('error')}")
        for name, digest in manifest["files"].items():
            if _sha256((path / name).read_bytes()) != digest:
                raise CheckFailed(f"{path.name}/{name}: checksum does not match manifest")
        eta = manifest["eta"]
        for layer, entry in manifest["mask"]["per_layer"].items():
            want = round_half_up(eta * entry["size"])
            if entry["zeros"] != want:
                raise CheckFailed(f"{path.name} layer {layer}: {entry['zeros']} zeros, "
                                  f"expected round_half_up({eta} * {entry['size']}) = {want}")
        with open(path / "metrics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        if not rows or not rows[-1]["test_accuracy"]:
            raise CheckFailed(f"{path.name}: no final test accuracy")
        cells.append(Cell(path.name, path, manifest, rows))
    if len(cells) != expected:
        raise CheckFailed(f"{out_dir}: {len(cells)} completed cells, expected {expected}")
    return cells


def digest(cells: list[Cell]) -> str:
    """SHA-256 over every cell's metrics.csv and search.csv, in cell order."""
    h = hashlib.sha256()
    for cell in cells:
        for name in OUTPUT_FILES:
            path = cell.path / name
            if path.exists():
                h.update(f"{cell.name}/{name}\0".encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def manifests_bytes(out_dir: Path) -> dict[str, bytes]:
    return {p.parent.name: p.read_bytes() for p in sorted(out_dir.glob(f"*/{MANIFEST}"))}


def check_masks(cells: list[Cell], architecture: str, input_shape, seed: int) -> int:
    """Rebuild each cell's parent and mask; compare two forward paths.

    The parent must hash to the manifest's checksum and the rebuilt mask must
    have the manifest's zero counts. A structured mask's logits must match
    the physically reduced network's, and an unstructured mask's must match
    the network with its weights pruned, within ``EQUIVALENCE_TOL`` on a
    held batch. Returns the number of cells checked.
    """
    import numpy as np
    from weedout.network import (default_conv_spec, default_dense_spec, forward,
                                 init_network, parent_checksum)
    from weedout.sparsity import reduce_network, resample_mask

    spec = (default_dense_spec(10) if architecture == "dense_default"
            else default_conv_spec(10))
    x = np.random.default_rng(seed).uniform(0.0, 1.0, size=(HELD_BATCH,) + tuple(input_shape))
    for cell in cells:
        m = cell.manifest
        net = init_network(spec, input_shape, m["seed"])
        if parent_checksum(net) != m["parent_checksum"]:
            raise CheckFailed(f"{cell.name}: rebuilt parent does not match its checksum")
        mask = resample_mask(spec, input_shape, m["mask"]["mode"], m["eta"],
                             m["mask"]["sample_seed"])
        zeros = {str(i): int((v == 0.0).sum()) for i, v in mask.masks.items()}
        if zeros != {i: e["zeros"] for i, e in m["mask"]["per_layer"].items()}:
            raise CheckFailed(f"{cell.name}: rebuilt mask has zero counts {zeros}")
        if mask.mode == "structured":
            other = forward(reduce_network(net, mask), None, x)
        else:
            pruned = net.copy()
            for i, layer_mask in mask.masks.items():
                pruned.params[i].weight *= layer_mask
            other = forward(pruned, None, x)
        gap = float(np.abs(forward(net, mask, x) - other).max())
        if not gap <= EQUIVALENCE_TOL:
            raise CheckFailed(f"{cell.name}: masked and {mask.mode} reference logits "
                              f"differ by {gap:.3g}")
    return len(cells)
