"""Experiment configs: the strict JSON schema and the experiment it describes.

A config is one JSON object. Unknown keys are errors, and every problem in
it is reported at once, as a ``ConfigError``, before any compute. The keys
of ``search`` and ``train`` are the fields of ``SearchConfig`` and
``TrainConfig`` (plus ``search.etas``): those dataclasses own the defaults
and the range checks. ``parse_config`` returns the effective config, the
same layout with every default filled in, which ``config.json`` and every
cell's manifest record. The env var ``WEEDOUT_RUNS_DIR`` re-roots relative
output directories.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields, replace
from pathlib import Path

from . import data as data_mod
from . import network as net_mod
from .errors import ConfigError, WeedoutError, check_number
from .network import LayerSpec
from .numerics import MAX_SEED
from .pipeline import ARMS, TrainConfig, run_label
from .search import SearchConfig

SCHEMA_VERSION = 1
DEFAULT_ETAS = (0.0, 0.2, 0.4, 0.6, 0.8)
DEFAULT_SEEDS = (0, 1, 2, 3, 4)
ENV_RUNS_DIR = "WEEDOUT_RUNS_DIR"

_TOP_KEYS = ("schema_version", "dataset", "splits", "architecture", "search",
             "train", "arms", "seeds", "out_dir")

_DATASET_DEFAULTS = {
    "blobs": {"kind": "blobs", "num_classes": 10, "per_class": 200, "dim": 16,
              "spread": 0.35, "seed": 0},
    "mnist": {"kind": "mnist", "train_images": None, "train_labels": None,
              "test_images": None, "test_labels": None},
    "cifar10": {"kind": "cifar10", "train_files": None, "test_file": None},
}

_LAYER_KEYS = {"kind": None, "width": None, "kernel_size": None, "stride": 1}

_SEARCH_DEFAULTS = dict({f.name: f.default for f in fields(SearchConfig)},
                        etas=list(DEFAULT_ETAS))
_TRAIN_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)}


def canonical_json(config: dict) -> str:
    return json.dumps(config, indent=2, sort_keys=True) + "\n"


def _expect_keys(section: str, obj: dict, allowed: dict, problems: list[str]) -> dict:
    """Apply defaults and reject unknown keys; returns the merged dict."""
    if not isinstance(obj, dict):
        problems.append(f"{section}: expected an object, got {type(obj).__name__}")
        return dict(allowed)
    problems += [f"{section}.{key}: unknown key" for key in obj if key not in allowed]
    merged = dict(allowed)
    merged.update({k: v for k, v in obj.items() if k in allowed})
    return merged


def _search_config(search: dict) -> SearchConfig:
    return SearchConfig(**{k: v for k, v in search.items() if k != "etas"})


def parse_config(raw: dict) -> dict:
    """Validate a raw config dict and return the effective config.

    Raises ConfigError listing every problem.
    """
    if not isinstance(raw, dict):
        raise ConfigError(["config: top level must be a JSON object"])
    problems = [f"{key}: unknown key" for key in raw if key not in _TOP_KEYS]
    if raw.get("schema_version") != SCHEMA_VERSION:
        problems.append(f"schema_version: must be {SCHEMA_VERSION}, "
                        f"got {raw.get('schema_version')!r}")

    ds_raw = raw.get("dataset")
    kind = ds_raw.get("kind") if isinstance(ds_raw, dict) else None
    if kind not in _DATASET_DEFAULTS:
        problems.append(f"dataset.kind: must be one of {sorted(_DATASET_DEFAULTS)}, "
                        f"got {kind!r}")
        dataset = dict(_DATASET_DEFAULTS["blobs"])
        kind = "blobs"
    else:
        dataset = _expect_keys("dataset", ds_raw, _DATASET_DEFAULTS[kind], problems)
    if kind == "blobs":
        problems += (check_number("dataset.num_classes", dataset["num_classes"], int, 2)
                     + check_number("dataset.per_class", dataset["per_class"], int, 1)
                     + check_number("dataset.dim", dataset["dim"], int, 1)
                     + check_number("dataset.spread", dataset["spread"], float, 0,
                                    lo_open=True)
                     + check_number("dataset.seed", dataset["seed"], int, 0))
        split_defaults = {"train": 0.7, "validation": 0.15, "test": 0.15, "seed": 0}
    else:
        problems += [f"dataset.{key}: required for kind {kind!r}"
                     for key, value in dataset.items() if not value]
        split_defaults = {"train": 5000, "validation": 1000, "seed": 0}
    splits = _expect_keys("splits", raw.get("splits", {}), split_defaults, problems)
    problems += check_number("splits.seed", splits["seed"], int, 0)

    arch = raw.get("architecture", "dense_default" if kind == "blobs" else "conv_default")
    if isinstance(arch, str):
        if arch not in ("dense_default", "conv_default"):
            problems.append(f"architecture: unknown preset {arch!r}")
    elif isinstance(arch, list) and arch:
        for j, layer in enumerate(arch):
            merged = _expect_keys(f"architecture[{j}]", layer, _LAYER_KEYS, problems)
            if merged["kind"] not in net_mod.LAYER_KINDS:
                problems.append(f"architecture[{j}].kind: must be one of "
                                f"{net_mod.LAYER_KINDS}, got {merged['kind']!r}")
            sizes = (("width", "kernel_size", "stride") if merged["kind"] == "conv2d"
                     else ("width",) if merged["kind"] == "dense" else ())
            for key in sizes:
                problems += check_number(f"architecture[{j}].{key}", merged[key], int, 1)
    else:
        problems.append("architecture: expected preset name or non-empty list of layers")

    search = _expect_keys("search", raw.get("search", {}), _SEARCH_DEFAULTS, problems)
    etas = search["etas"]
    if not isinstance(etas, list) or not etas:
        problems.append("search.etas: expected a non-empty list")
        etas = []
    labels: dict[str, float] = {}  # etas that format alike would share their cells
    for j, eta in enumerate(etas):
        if bad := check_number(f"search.etas[{j}]", eta, float, 0, 1, hi_open=True):
            problems += bad
        elif (first := labels.setdefault(run_label(ARMS[0], eta, 0), eta)) != eta:
            problems.append(f"search.etas: {first!r} and {eta!r} would share one cell "
                            "directory per arm and seed")
    problems += [f"search.{p}" for p in _search_config(search).problems()]
    train = _expect_keys("train", raw.get("train", {}), _TRAIN_DEFAULTS, problems)
    problems += [f"train.{p}" for p in TrainConfig(**train).problems()]

    arms = raw.get("arms", list(ARMS))
    if not isinstance(arms, list) or not arms:
        problems.append("arms: expected a non-empty list")
    else:
        problems += [f"arms: unknown arm {arm!r}; available {ARMS}"
                     for arm in arms if arm not in ARMS]

    seeds = raw.get("seeds", list(DEFAULT_SEEDS))
    if not isinstance(seeds, list) or not seeds or \
            any(not isinstance(s, int) or isinstance(s, bool) for s in seeds):
        problems.append("seeds: expected a non-empty list of integers")
    elif bad := [s for s in seeds if not 0 <= s < MAX_SEED]:
        problems.append(f"seeds: {bad} out of [0, 2**64)")
    # a repeated value would run its cells more than once; 0 and 0.0 are one eta
    for name, values in (("search.etas", etas), ("arms", arms), ("seeds", seeds)):
        if isinstance(values, list):
            problems += [f"{name}: {v!r} appears more than once"
                         for i, v in enumerate(values) if values[:i].count(v) == 1]

    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        problems.append("out_dir: expected a string path")

    if problems:
        raise ConfigError(problems)
    return {"schema_version": SCHEMA_VERSION, "dataset": dataset, "splits": splits,
            "architecture": arch, "search": dict(search, etas=[float(e) for e in etas]),
            "train": train, "arms": list(arms), "seeds": list(seeds),
            "out_dir": out_dir or ""}


def check_same_sweep(cfg: dict, out_dir: Path) -> None:
    """Raise ``ConfigError``, a line per key, where ``cfg`` and the config.json of
    a sweep in ``out_dir`` differ; arms, seeds, search.etas and out_dir may."""
    try:
        old = json.loads((out_dir / "config.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):  # no sweep there, or a torn write: replaced
        return
    old, new = ({f"{k}.{sub}" if isinstance(v, dict) else k: x for k, v in c.items()
                 for sub, x in (v.items() if isinstance(v, dict) else [(k, v)])}
                for c in (old if isinstance(old, dict) else {}, cfg))
    if changed := [f"{key}: {value!r} here, {old.get(key, '(absent)')!r} in {out_dir}"
                   for key, value in new.items()
                   if key not in ("arms", "seeds", "search.etas", "out_dir")
                   and (key not in old or old[key] != value)]:
        raise ConfigError(changed)


def load_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError([f"config: cannot read {path}: {exc}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: invalid JSON: {exc}"])
    return parse_config(raw)


def _build_layers(arch, num_classes: int) -> list[LayerSpec]:
    if arch == "conv_default":
        return net_mod.default_conv_spec(num_classes)
    if arch == "dense_default":
        return net_mod.default_dense_spec(num_classes)
    layers = []
    for d in arch:
        kind = d["kind"]
        if kind in net_mod.PARAM_KINDS:
            conv = kind == "conv2d"
            layers.append(LayerSpec(kind, d["width"], d["kernel_size"] if conv else None,
                                    d.get("stride", 1) if conv else 1))
        else:
            layers.append(LayerSpec(kind))
    return layers


def build_experiment(cfg: dict):
    """Materialize an effective config: the layer stack, input shape, dataset
    splits and run configs. Data that cannot be loaded or split, and
    cross-field constraints that need the data (sizes, class counts), raise
    ``ConfigError``."""
    ds, sp = cfg["dataset"], cfg["splits"]
    try:
        test = None
        if ds["kind"] == "blobs":
            source = data_mod.synthetic_blobs(ds["num_classes"], ds["per_class"],
                                              ds["dim"], ds["spread"], ds["seed"])
        elif ds["kind"] == "mnist":
            source = data_mod.load_idx(ds["train_images"], ds["train_labels"],
                                       num_classes=10)
            test = data_mod.load_idx(ds["test_images"], ds["test_labels"],
                                     num_classes=10)
        else:
            source = data_mod.load_cifar10_binary(ds["train_files"])
            test = data_mod.load_cifar10_binary(ds["test_file"])
    except (OSError, ValueError) as exc:
        raise ConfigError([f"dataset: {exc}"]) from exc
    try:
        splits = data_mod.split(source, data_mod.SplitSpec(
            sp["train"], sp["validation"], sp.get("test", 0), sp["seed"]))
    except ValueError as exc:
        raise ConfigError([f"splits: {exc}"]) from exc
    splits = replace(splits, test=splits.test if test is None else test)
    if any(part is None for part in (splits.train, splits.validation, splits.test)):
        raise ConfigError(["splits: train, validation and test must each be positive"])

    problems: list[str] = []
    num_classes = splits.train.num_classes
    layers = _build_layers(cfg["architecture"], num_classes)
    if layers[-1].width != num_classes:
        problems.append(f"architecture: logits width {layers[-1].width} != "
                        f"dataset classes {num_classes}")
    input_shape = splits.train.input_shape
    try:
        net_mod.layer_output_shapes(layers, input_shape)
    except WeedoutError as exc:
        problems.append(f"architecture: {exc}")

    search_cfg = _search_config(cfg["search"])
    train_cfg = TrainConfig(**cfg["train"])
    if search_cfg.validation_batch_size > len(splits.validation):
        problems.append(
            f"search.validation_batch_size: {search_cfg.validation_batch_size} exceeds "
            f"validation split size {len(splits.validation)}")
    if train_cfg.batch_size > len(splits.train):
        problems.append(f"train.batch_size: {train_cfg.batch_size} exceeds "
                        f"train split size {len(splits.train)}")
    if problems:
        raise ConfigError(problems)
    return layers, input_shape, splits, search_cfg, train_cfg


def resolve_out_dir(cfg_out: str, flag_out: str | None) -> Path:
    if flag_out:
        return Path(flag_out)
    if not cfg_out:
        raise ConfigError(["out_dir: required (or pass --out)"])
    root = os.environ.get(ENV_RUNS_DIR)
    return Path(root) / cfg_out if root else Path(cfg_out)
