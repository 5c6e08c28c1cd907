"""Operator surface: configure, launch, resume, and report sweeps.

Subcommands::

    weedout run     --config cfg.json [--out DIR] [--parallel N]
                    [--resume/--no-resume] [--seed-offset K]
    weedout report  SWEEP_DIR [--out DIR]
    weedout inspect RUN_DIR

Configs are strict JSON: one schema version, unknown keys rejected, and the
whole file validates before any compute. The env var ``WEEDOUT_RUNS_DIR``
re-roots relative output directories.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import network as net_mod
from . import pipeline
from .errors import ChecksumError, ConfigError, WeedoutError
from .network import LayerSpec
from .pipeline import Splits, TrainConfig
from .search import STRATEGIES, WINNER_SCOPES, SearchConfig
from .sparsity import MASK_MODES

SCHEMA_VERSION = 1
DEFAULT_ETAS = (0.0, 0.2, 0.4, 0.6, 0.8)
DEFAULT_SEEDS = (0, 1, 2, 3, 4)
DEFAULT_ARMS = ("weedout", "random_baseline")
ENV_RUNS_DIR = "WEEDOUT_RUNS_DIR"

AGGREGATE_COLUMNS = ("arm", "eta", "epoch", "mean_train_accuracy",
                     "ci95_train_accuracy", "mean_test_accuracy",
                     "ci95_test_accuracy", "n_runs")
DIFF_COLUMNS = ("eta", "epoch", "mean_weedout", "mean_baseline", "difference",
                "pooled_ci95", "n_weedout", "n_baseline", "significant", "verdict")
PLOT_COLUMNS = ("arm", "eta", "epoch", "metric", "mean", "ci95", "n_runs")
SPREAD_COLUMNS = ("arm", "eta", "generation", "best", "median", "std", "n")
EPOCH_METRICS = pipeline.METRICS_COLUMNS[1:]


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Fully resolved experiment description (defaults applied, validated)."""

    dataset: dict
    splits: dict
    architecture: list[dict] | str
    search: dict
    train: dict
    arms: list[str]
    seeds: list[int]
    etas: list[float]
    independent_parents: bool
    out_dir: str

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "dataset": self.dataset,
            "splits": self.splits,
            "architecture": self.architecture,
            "search": dict(self.search, etas=self.etas),
            "train": self.train,
            "arms": self.arms,
            "seeds": self.seeds,
            "independent_parents": self.independent_parents,
            "out_dir": self.out_dir,
        }


def canonical_json(config: dict) -> str:
    return json.dumps(config, indent=2, sort_keys=True) + "\n"


def _expect_keys(section: str, obj: dict, allowed: dict, problems: list[str]) -> dict:
    """Apply defaults and reject unknown keys; returns the merged dict."""
    if not isinstance(obj, dict):
        problems.append(f"{section}: expected an object, got {type(obj).__name__}")
        return dict(allowed)
    for key in obj:
        if key not in allowed:
            problems.append(f"{section}.{key}: unknown key")
    merged = dict(allowed)
    merged.update({k: v for k, v in obj.items() if k in allowed})
    return merged


def _check_num(section: str, obj: dict, key: str, kind, lo, hi, problems,
               lo_open: bool = False, hi_open: bool = False) -> None:
    v = obj.get(key)
    if kind is int and isinstance(v, bool):
        problems.append(f"{section}.{key}: expected {kind.__name__}, got bool")
        return
    if not isinstance(v, (int, float)) or (kind is int and not isinstance(v, int)):
        problems.append(f"{section}.{key}: expected {kind.__name__}, got {v!r}")
        return
    if lo is not None and (v <= lo if lo_open else v < lo):
        problems.append(f"{section}.{key}: must be {'>' if lo_open else '>='} {lo}, got {v}")
    if hi is not None and (v >= hi if hi_open else v > hi):
        problems.append(f"{section}.{key}: must be {'<' if hi_open else '<='} {hi}, got {v}")


_DATASET_DEFAULTS = {
    "blobs": {"kind": "blobs", "num_classes": 10, "per_class": 200, "dim": 16,
              "spread": 0.35, "seed": 0},
    "mnist": {"kind": "mnist", "train_images": None, "train_labels": None,
              "test_images": None, "test_labels": None},
    "cifar10": {"kind": "cifar10", "train_files": None, "test_file": None},
}

_SEARCH_DEFAULTS = {
    "population_size": 100, "generations": 5, "validation_batch_size": 256,
    "strategy": "random_search", "winner_scope": "final_generation",
    "mask_mode": "structured", "etas": list(DEFAULT_ETAS),
    "early_stop_tol": None, "early_stop_patience": 2,
}

_TRAIN_DEFAULTS = {"epochs": 20, "batch_size": 128, "lr": 0.05,
                   "momentum": 0.9, "eval_every": 1}

_LAYER_KEYS = {"kind": None, "width": None, "kernel_size": None,
               "stride": 1, "maskable": None}


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict; raises ConfigError listing every problem."""
    problems: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["config: top level must be a JSON object"])
    top_allowed = {"schema_version", "dataset", "splits", "architecture",
                   "search", "train", "arms", "seeds", "independent_parents",
                   "out_dir"}
    for key in raw:
        if key not in top_allowed:
            problems.append(f"{key}: unknown key")
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
        _check_num("dataset", dataset, "num_classes", int, 2, None, problems)
        _check_num("dataset", dataset, "per_class", int, 1, None, problems)
        _check_num("dataset", dataset, "dim", int, 1, None, problems)
        _check_num("dataset", dataset, "spread", float, 0, None, problems, lo_open=True)
        _check_num("dataset", dataset, "seed", int, 0, None, problems)
        split_defaults = {"train": 0.7, "validation": 0.15, "test": 0.15, "seed": 0}
    else:
        path_keys = (["train_images", "train_labels", "test_images", "test_labels"]
                     if kind == "mnist" else ["train_files", "test_file"])
        for key in path_keys:
            if not dataset.get(key):
                problems.append(f"dataset.{key}: required for kind {kind!r}")
        split_defaults = {"train": 5000, "validation": 1000, "seed": 0}
    splits_cfg = _expect_keys("splits", raw.get("splits", {}), split_defaults, problems)

    arch = raw.get("architecture", "dense_default" if kind == "blobs" else "conv_default")
    if isinstance(arch, str):
        if arch not in ("dense_default", "conv_default"):
            problems.append(f"architecture: unknown preset {arch!r}")
    elif isinstance(arch, list):
        for j, layer in enumerate(arch):
            merged = _expect_keys(f"architecture[{j}]", layer, _LAYER_KEYS, problems)
            if merged.get("kind") not in net_mod.LAYER_KINDS:
                problems.append(f"architecture[{j}].kind: must be one of "
                                f"{net_mod.LAYER_KINDS}, got {merged.get('kind')!r}")
    else:
        problems.append("architecture: expected preset name or list of layers")

    search = _expect_keys("search", raw.get("search", {}), _SEARCH_DEFAULTS, problems)
    _check_num("search", search, "population_size", int, 2, None, problems)
    _check_num("search", search, "generations", int, 1, None, problems)
    _check_num("search", search, "validation_batch_size", int, 1, None, problems)
    if search.get("strategy") not in STRATEGIES:
        problems.append(f"search.strategy: must be one of {STRATEGIES}, "
                        f"got {search.get('strategy')!r}")
    if search.get("winner_scope") not in WINNER_SCOPES:
        problems.append(f"search.winner_scope: must be one of {WINNER_SCOPES}, "
                        f"got {search.get('winner_scope')!r}")
    if search.get("mask_mode") not in MASK_MODES:
        problems.append(f"search.mask_mode: must be one of {MASK_MODES}, "
                        f"got {search.get('mask_mode')!r}")
    etas = search.pop("etas")
    if not isinstance(etas, list) or not etas:
        problems.append("search.etas: expected a non-empty list")
        etas = list(DEFAULT_ETAS)
    else:
        for j, eta in enumerate(etas):
            if not isinstance(eta, (int, float)) or isinstance(eta, bool) \
                    or not 0.0 <= float(eta) < 1.0:
                problems.append(f"search.etas[{j}]: must lie in [0, 1), got {eta!r}")
        etas = [float(e) for e in etas if isinstance(e, (int, float))
                and not isinstance(e, bool)]

    train = _expect_keys("train", raw.get("train", {}), _TRAIN_DEFAULTS, problems)
    _check_num("train", train, "epochs", int, 1, None, problems)
    _check_num("train", train, "batch_size", int, 1, None, problems)
    _check_num("train", train, "lr", float, 0, None, problems, lo_open=True)
    _check_num("train", train, "momentum", float, 0, 1, problems, hi_open=True)
    _check_num("train", train, "eval_every", int, 1, None, problems)

    arms = raw.get("arms", list(DEFAULT_ARMS))
    if not isinstance(arms, list) or not arms:
        problems.append("arms: expected a non-empty list")
        arms = list(DEFAULT_ARMS)
    else:
        for arm in arms:
            if arm not in pipeline.ARMS:
                problems.append(f"arms: unknown arm {arm!r}; available {pipeline.ARMS}")

    seeds = raw.get("seeds", list(DEFAULT_SEEDS))
    if not isinstance(seeds, list) or not seeds or \
            any(not isinstance(s, int) or isinstance(s, bool) or s < 0 for s in seeds):
        problems.append("seeds: expected a non-empty list of non-negative integers")
        seeds = list(DEFAULT_SEEDS)

    independent_parents = raw.get("independent_parents", False)
    if not isinstance(independent_parents, bool):
        problems.append("independent_parents: expected true/false")
        independent_parents = False

    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        problems.append("out_dir: expected a string path")
        out_dir = None

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(dataset=dataset, splits=splits_cfg, architecture=arch,
                            search=search, train=train, arms=list(arms),
                            seeds=list(seeds), etas=etas,
                            independent_parents=independent_parents,
                            out_dir=out_dir or "")


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError([f"config: cannot read {path}: {exc}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: invalid JSON: {exc}"])
    return parse_config(raw)


# ---------------------------------------------------------------------------
# Building the experiment from a config
# ---------------------------------------------------------------------------

def _build_layers(arch, num_classes: int) -> list[LayerSpec]:
    if arch == "conv_default":
        return net_mod.default_conv_spec(num_classes)
    if arch == "dense_default":
        return net_mod.default_dense_spec(num_classes)
    layers = []
    for d in arch:
        kind = d["kind"]
        maskable = d.get("maskable")
        if kind == "dense":
            layers.append(net_mod.dense(d["width"],
                                        True if maskable is None else maskable))
        elif kind == "conv2d":
            layers.append(net_mod.conv2d(d["width"], d["kernel_size"],
                                         d.get("stride") or 1,
                                         True if maskable is None else maskable))
        elif kind == "relu":
            layers.append(net_mod.relu_layer())
        elif kind == "flatten":
            layers.append(net_mod.flatten_layer())
    return layers


def build_experiment(cfg: ExperimentConfig):
    """Materialize dataset splits, layer stack, and run configs. Validates
    cross-field constraints that need the data (sizes, class counts)."""
    problems: list[str] = []
    ds_cfg = cfg.dataset
    if ds_cfg["kind"] == "blobs":
        source = data_mod.synthetic_blobs(
            ds_cfg["num_classes"], ds_cfg["per_class"], ds_cfg["dim"],
            ds_cfg["spread"], ds_cfg["seed"])
        sp = cfg.splits
        result = data_mod.split(source, data_mod.SplitSpec(
            sp["train"], sp["validation"], sp["test"], sp["seed"]))
        if result.test is None:
            raise ConfigError(["splits.test: must be positive for blobs"])
        splits = Splits(result.train, result.validation, result.test)
    elif ds_cfg["kind"] == "mnist":
        source = data_mod.read_idx(ds_cfg["train_images"], ds_cfg["train_labels"],
                                   num_classes=10)
        test = data_mod.load_idx(ds_cfg["test_images"], ds_cfg["test_labels"],
                                 num_classes=10)
        sp = cfg.splits
        result = data_mod.split(source, data_mod.SplitSpec(
            int(sp["train"]), int(sp["validation"]), 0, sp["seed"]))
        splits = Splits(result.train, result.validation, test)
    else:
        source = data_mod.read_cifar10_binary(ds_cfg["train_files"])
        test = data_mod.load_cifar10_binary(ds_cfg["test_file"])
        sp = cfg.splits
        result = data_mod.split(source, data_mod.SplitSpec(
            int(sp["train"]), int(sp["validation"]), 0, sp["seed"]))
        splits = Splits(result.train, result.validation, test)

    if splits.train is None or splits.validation is None:
        raise ConfigError(["splits: train and validation must be positive"])
    num_classes = splits.train.num_classes
    layers = _build_layers(cfg.architecture, num_classes)
    if layers[-1].width != num_classes:
        problems.append(f"architecture: logits width {layers[-1].width} != "
                        f"dataset classes {num_classes}")
    input_shape = splits.train.input_shape
    try:
        net_mod.layer_output_shapes(layers, input_shape)
    except WeedoutError as exc:
        problems.append(f"architecture: {exc}")

    if cfg.search["validation_batch_size"] > len(splits.validation):
        problems.append(
            f"search.validation_batch_size: {cfg.search['validation_batch_size']} exceeds "
            f"validation split size {len(splits.validation)}")
    if cfg.train["batch_size"] > len(splits.train):
        problems.append(f"train.batch_size: {cfg.train['batch_size']} exceeds "
                        f"train split size {len(splits.train)}")
    if problems:
        raise ConfigError(problems)

    search_cfg = SearchConfig(
        eta=cfg.etas[0],
        population_size=cfg.search["population_size"],
        generations=cfg.search["generations"],
        validation_batch_size=cfg.search["validation_batch_size"],
        strategy=cfg.search["strategy"],
        mask_mode=cfg.search["mask_mode"],
        winner_scope=cfg.search["winner_scope"],
        early_stop_tol=cfg.search["early_stop_tol"],
        early_stop_patience=cfg.search["early_stop_patience"])
    train_cfg = TrainConfig(
        epochs=cfg.train["epochs"], batch_size=cfg.train["batch_size"],
        lr=cfg.train["lr"], momentum=cfg.train["momentum"],
        eval_every=cfg.train["eval_every"])
    return layers, input_shape, splits, search_cfg, train_cfg


def resolve_out_dir(cfg_out: str, flag_out: str | None) -> Path:
    if flag_out:
        return Path(flag_out)
    if not cfg_out:
        raise ConfigError(["out_dir: required (or pass --out)"])
    root = os.environ.get(ENV_RUNS_DIR)
    return Path(root) / cfg_out if root else Path(cfg_out)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AggregateRow:
    arm: str
    eta: float
    epoch: int
    mean_train_accuracy: float
    ci95_train_accuracy: float | None
    mean_test_accuracy: float | None
    ci95_test_accuracy: float | None
    n_runs: int


def _t975(df: int) -> float:
    """Student-t 97.5% quantile, the two-sided 95% CI multiplier.

    ``scipy.special`` is imported here, so ``weedout run`` never loads scipy.
    """
    from scipy.special import stdtrit

    return float(stdtrit(df, 0.975))


def _mean_ci(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, None
    half = float(_t975(len(values) - 1)
                 * np.std(values, ddof=1) / math.sqrt(len(values)))
    return mean, half


def _metric_groups(records) -> dict[tuple[str, float, int], dict[str, list[float]]]:
    """Each epoch metric's values per (arm, eta, epoch), in key order.

    Test metrics hold only the runs that evaluated that epoch.
    """
    groups: dict[tuple[str, float, int], dict[str, list[float]]] = {}
    for rec in records:
        for row in rec.epoch_rows:
            metrics = groups.setdefault((rec.arm, rec.eta, row.epoch),
                                        {m: [] for m in EPOCH_METRICS})
            for name, values in metrics.items():
                value = getattr(row, name)
                if value is not None:
                    values.append(value)
    return dict(sorted(groups.items()))


def aggregate_records(records) -> list[AggregateRow]:
    """Per-(arm, eta, epoch) means with Student-t 95% half-widths."""
    return [AggregateRow(arm, eta, epoch, *_mean_ci(m["train_accuracy"]),
                         *_mean_ci(m["test_accuracy"]), len(m["train_accuracy"]))
            for (arm, eta, epoch), m in _metric_groups(records).items()]


@dataclass(frozen=True)
class ArmDifference:
    eta: float
    epoch: int
    mean_weedout: float
    mean_baseline: float
    difference: float
    pooled_ci95: float
    n_weedout: int
    n_baseline: int
    significant: bool
    verdict: str


def pooled_ci_half_width(a: list[float], b: list[float]) -> float:
    """95% half-width for a difference of means under a pooled two-sample t."""
    n1, n2 = len(a), len(b)
    if n1 < 2 or n2 < 2:
        return float("inf")
    s1 = np.var(a, ddof=1)
    s2 = np.var(b, ddof=1)
    sp2 = ((n1 - 1) * s1 + (n2 - 1) * s2) / (n1 + n2 - 2)
    return float(_t975(n1 + n2 - 2)
                 * math.sqrt(sp2) * math.sqrt(1 / n1 + 1 / n2))


def arm_differences(records) -> list[ArmDifference]:
    """Final-epoch weedout vs baseline comparison per eta."""
    final: dict[tuple[str, float], list[float]] = {}
    epochs: dict[tuple[str, float], int] = {}
    for rec in records:
        if rec.arm not in ("weedout", "random_baseline"):
            continue
        row = rec.final_row()
        if row.test_accuracy is None:
            continue
        final.setdefault((rec.arm, rec.eta), []).append(row.test_accuracy)
        epochs[(rec.arm, rec.eta)] = row.epoch
    out = []
    etas = sorted({eta for (arm, eta) in final if arm == "weedout"}
                  & {eta for (arm, eta) in final if arm == "random_baseline"})
    for eta in etas:
        w = final[("weedout", eta)]
        b = final[("random_baseline", eta)]
        diff = float(np.mean(w) - np.mean(b))
        half = pooled_ci_half_width(w, b)
        significant = abs(diff) > half
        if not significant:
            verdict = "consistent: no detectable search advantage"
        elif diff > 0:
            verdict = ("FLAG: statistically significant weedout advantage; "
                       "contradicts the expected null result, investigate")
        else:
            verdict = ("FLAG: statistically significant baseline advantage; "
                       "contradicts the expected null result, investigate")
        out.append(ArmDifference(eta, epochs[("weedout", eta)], float(np.mean(w)),
                                 float(np.mean(b)), diff, half, len(w), len(b),
                                 significant, verdict))
    return out


def search_spread(records) -> list[tuple]:
    """Fitness spread per (arm, eta, generation), over every seed's candidates.

    ``best`` and ``median`` are taken over the candidates of all seeds. ``std``
    is the spread within a population, pooled over seeds: the root mean
    square of each candidate's distance from its own population's mean. The
    mean is taken after subtracting the population's first value, so a
    population of equal values (eta 0) has a ``std`` of exactly 0.
    """
    groups: dict[tuple[str, float, int], list[list[float]]] = {}
    for rec in records:
        populations: dict[int, list[float]] = {}
        for h in rec.search_history or ():
            populations.setdefault(h.generation, []).append(h.fitness)
        for gen, values in populations.items():
            groups.setdefault((rec.arm, rec.eta, gen), []).append(values)
    rows = []
    for (arm, eta, gen), populations in sorted(groups.items()):
        pooled = np.concatenate(populations)
        squares = 0.0
        for values in populations:
            shifted = np.asarray(values) - values[0]
            squares += float(((shifted - shifted.mean()) ** 2).sum())
        rows.append((arm, eta, gen, float(pooled.max()), float(np.median(pooled)),
                     math.sqrt(squares / len(pooled)), len(pooled)))
    return rows


def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([pipeline._fmt(v) for v in row])


def write_report(records, report_dir) -> dict[str, Path]:
    """Emit aggregate.csv, arm_difference.csv, the long-format plot CSV and
    search_spread.csv."""
    report_dir = Path(report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    agg = aggregate_records(records)
    paths = {}
    paths["aggregate"] = report_dir / "aggregate.csv"
    _write_csv(paths["aggregate"], AGGREGATE_COLUMNS,
               [(r.arm, r.eta, r.epoch, r.mean_train_accuracy, r.ci95_train_accuracy,
                 r.mean_test_accuracy, r.ci95_test_accuracy, r.n_runs) for r in agg])
    diffs = arm_differences(records)
    paths["arm_difference"] = report_dir / "arm_difference.csv"
    _write_csv(paths["arm_difference"], DIFF_COLUMNS,
               [(d.eta, d.epoch, d.mean_weedout, d.mean_baseline, d.difference,
                 d.pooled_ci95, d.n_weedout, d.n_baseline, d.significant, d.verdict)
                for d in diffs])
    plot_rows = [(arm, eta, epoch, metric, *_mean_ci(values), len(values))
                 for (arm, eta, epoch), metrics in _metric_groups(records).items()
                 for metric, values in metrics.items() if values]
    paths["plot"] = report_dir / "plot_long.csv"
    _write_csv(paths["plot"], PLOT_COLUMNS, plot_rows)
    paths["search_spread"] = report_dir / "search_spread.csv"
    _write_csv(paths["search_spread"], SPREAD_COLUMNS, search_spread(records))
    return paths


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    try:
        if args.parallel < 1:
            raise ConfigError([f"--parallel: must be >= 1, got {args.parallel}"])
        cfg = load_config(args.config)
        if args.seed_offset:
            cfg.seeds = [s + args.seed_offset for s in cfg.seeds]
        out_dir = resolve_out_dir(cfg.out_dir, args.out)
        cfg.out_dir = str(out_dir)
        layers, input_shape, splits, search_cfg, train_cfg = build_experiment(cfg)
    except ConfigError as exc:
        print("invalid config:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2
    effective = cfg.to_dict()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(canonical_json(effective), encoding="utf-8")

    def progress(cell):
        label = pipeline.run_label(cell.arm, cell.eta, cell.seed)
        if cell.status == "failed":
            print(f"[FAIL] {label}: {cell.error}")
        else:
            row = cell.record.final_row()
            acc = "" if row.test_accuracy is None else f" test_acc={row.test_accuracy:.4f}"
            print(f"[{cell.status:>9}] {label}{acc}")

    try:
        results = pipeline.sweep(layers, input_shape, cfg.etas, cfg.arms, cfg.seeds,
                                 search_cfg, train_cfg, splits, out_dir,
                                 parallel=args.parallel, resume=args.resume,
                                 independent_parents=cfg.independent_parents,
                                 effective_config=effective, progress=progress)
    except BrokenProcessPool as exc:
        print(f"sweep aborted, a worker process died: {exc} "
              "Cells not yet written are recomputed on resume.", file=sys.stderr)
        return 1
    failed = [r for r in results if r.status == "failed"]
    done = sum(1 for r in results if r.status == "completed")
    cached = sum(1 for r in results if r.status == "cached")
    print(f"sweep finished: {done} computed, {cached} cached, {len(failed)} failed "
          f"-> {out_dir}")
    return 1 if failed else 0


def _load_sweep_records(sweep_dir: Path):
    records = []
    for manifest_path in sorted(sweep_dir.glob(f"*/{pipeline.MANIFEST_NAME}")):
        cell_dir = manifest_path.parent
        if pipeline.is_completed(cell_dir):
            records.append(pipeline.read_run_record(cell_dir))
    return records


def cmd_report(args) -> int:
    sweep_dir = Path(args.sweep_dir)
    if not sweep_dir.is_dir():
        print(f"not a sweep directory: {sweep_dir}", file=sys.stderr)
        return 2
    records = _load_sweep_records(sweep_dir)
    if not records:
        print(f"no completed runs under {sweep_dir}", file=sys.stderr)
        return 2
    report_dir = Path(args.out) if args.out else sweep_dir / "report"
    paths = write_report(records, report_dir)
    agg = aggregate_records(records)
    final_epoch = max(r.epoch for r in agg)
    print(f"aggregated {len(records)} runs; final epoch {final_epoch}")
    print(f"{'arm':<16} {'eta':>5} {'test_acc':>9} {'ci95':>8} {'n':>3}")
    for row in agg:
        if row.epoch != final_epoch or row.mean_test_accuracy is None:
            continue
        ci = f"{row.ci95_test_accuracy:.4f}" if row.ci95_test_accuracy is not None else "-"
        print(f"{row.arm:<16} {row.eta:>5g} {row.mean_test_accuracy:>9.4f} "
              f"{ci:>8} {row.n_runs:>3}")
    diffs = arm_differences(records)
    if diffs:
        print("\nweedout - baseline, final-epoch test accuracy:")
        for d in diffs:
            print(f"  eta={d.eta:g}: diff={d.difference:+.4f} "
                  f"(pooled 95% CI half-width {d.pooled_ci95:.4f}, "
                  f"n={d.n_weedout}/{d.n_baseline}) -> {d.verdict}")
    for name, path in paths.items():
        print(f"wrote {name}: {path}")
    return 0


def cmd_inspect(args) -> int:
    run_dir = Path(args.run_dir)
    if not (run_dir / pipeline.MANIFEST_NAME).exists():
        print(f"not a run directory (no {pipeline.MANIFEST_NAME}): {run_dir}",
              file=sys.stderr)
        return 2
    try:
        manifest = pipeline.verify_cell(run_dir)
    except ChecksumError as exc:
        print(f"checksum error: {exc}", file=sys.stderr)
        return 1
    print(f"run      : {manifest['run_id']}")
    print(f"arm      : {manifest['arm']}   eta={manifest['eta']:g}   "
          f"seed={manifest['seed']}")
    print(f"status   : {manifest['status']}")
    effective = manifest.get("effective_config")
    if effective is not None:
        import hashlib
        digest = hashlib.sha256(canonical_json(effective).encode()).hexdigest()
        print(f"config   : sha256:{digest[:16]}")
    if manifest["status"] != "completed":
        print(f"error    : {manifest.get('error')}")
        return 0
    record = pipeline.read_run_record(run_dir)
    if record.search_history:
        per_gen: dict[int, float] = {}
        for h in record.search_history:
            if h.generation not in per_gen or h.fitness > per_gen[h.generation]:
                per_gen[h.generation] = h.fitness
        print(f"search   : {len(per_gen)} generations, "
              f"{record.fitness_evaluations} fitness evaluations")
        for gen, best in sorted(per_gen.items()):
            print(f"  generation {gen}: best fitness {best:.6f}")
    else:
        print("search   : none")
    print(f"mask     : mode={record.mask_mode} sample_seed={record.mask_sample_seed} "
          f"realized sparsity {record.realized_sparsity:.4f}")
    for i, (zeros, size) in sorted(record.mask_layer_zeros.items()):
        print(f"  layer {i}: {zeros}/{size} off ({zeros / size:.4f})")
    row = record.final_row()
    test = "" if row.test_accuracy is None else \
        f"  test_acc={row.test_accuracy:.4f} test_loss={row.test_loss:.4f}"
    print(f"final    : epoch {row.epoch}  train_acc={row.train_accuracy:.4f} "
          f"train_loss={row.train_loss:.4f}{test}")
    wall = record.wall_clock
    if wall:
        total = sum(wall.values())
        parts = " ".join(f"{k}={v:.2f}s" for k, v in wall.items())
        print(f"wall     : {parts} (total {total:.2f}s)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="weedout",
        description="Sparse sub-network selection by random search, with "
                    "random-mask control arms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute or resume a sweep from a config file")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--out", help="override the output directory")
    p_run.add_argument("--parallel", type=int, default=1,
                       help="workers (default 1): one process per pending cell "
                            "up to N, the rest as threads within each cell, "
                            "which score search candidates and then run the "
                            "training and evaluation kernels")
    p_run.add_argument("--resume", action=argparse.BooleanOptionalAction, default=True,
                       help="skip completed cells (default on)")
    p_run.add_argument("--seed-offset", type=int, default=0,
                       help="shift every configured seed by this amount")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="aggregate a sweep into CSV tables")
    p_rep.add_argument("sweep_dir")
    p_rep.add_argument("--out", help="report output directory (default <sweep>/report)")
    p_rep.set_defaults(func=cmd_report)

    p_ins = sub.add_parser("inspect", help="summarize one run directory")
    p_ins.add_argument("run_dir")
    p_ins.set_defaults(func=cmd_inspect)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
