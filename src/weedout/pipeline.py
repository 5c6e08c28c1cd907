"""End-to-end runs: parent init, mask selection, SGD training, evaluation.

Three arms share one code path and differ only in where the mask comes from:

* ``weedout``          -- mask chosen by the population search phase,
* ``random_baseline``  -- one random mask at the same sparsity, no search,
* ``dense``            -- the all-active mask (reported under eta = 0).

By default both sparse arms share the parent initialization for a given seed,
so the mask is the only difference between them. Every run is a pure function
of (spec, configs, seed), so a sweep may compute cells in worker processes
and still write them in a fixed order; per-cell results are persisted
incrementally so a killed sweep resumes without recomputing finished cells.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from multiprocessing import get_context
from pathlib import Path

from .data import Dataset, batches
from .errors import ChecksumError, DivergenceError
from .network import (Network, SgdState, _forward_backward, evaluate,
                      init_network, parent_checksum, sgd_step)
from .numerics import RngStream
from .search import HistoryRow, SearchConfig, run_search
from .sparsity import (MaskSet, active_parameter_count, realized_sparsity,
                       sample_mask, sub_network)

ARMS = ("weedout", "random_baseline", "dense")

METRICS_COLUMNS = ("epoch", "train_accuracy", "train_loss",
                   "test_accuracy", "test_loss")
SEARCH_COLUMNS = ("generation", "candidate_id", "birth_generation",
                  "fitness", "is_elite")

MANIFEST_NAME = "manifest.json"
METRICS_NAME = "metrics.csv"
SEARCH_NAME = "search.csv"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    lr: float
    momentum: float = 0.9
    eval_every: int = 1

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 1 or self.eval_every < 1:
            raise ValueError("epochs, batch_size, and eval_every must be >= 1")
        if not self.lr > 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")


@dataclass(frozen=True)
class Splits:
    train: Dataset
    validation: Dataset
    test: Dataset


@dataclass
class EpochRow:
    epoch: int
    train_accuracy: float
    train_loss: float
    test_accuracy: float | None
    test_loss: float | None


@dataclass
class RunRecord:
    """Everything one run produced, as persisted to its cell directory."""

    run_id: str
    arm: str
    eta: float
    seed: int
    epoch_rows: list[EpochRow] = field(default_factory=list)
    search_history: list[HistoryRow] | None = None
    mask_mode: str = "structured"
    mask_sample_seed: int = 0
    mask_layer_zeros: dict[int, tuple[int, int]] = field(default_factory=dict)
    realized_sparsity: float = 0.0
    active_parameters: int = 0
    parent_checksum: str = ""
    fitness_evaluations: int = 0
    wall_clock: dict[str, float] = field(default_factory=dict)

    def final_row(self) -> EpochRow:
        return self.epoch_rows[-1]


def run_label(arm: str, eta: float, seed: int) -> str:
    return f"{arm}_{eta:g}_{seed}"


def _parent_for(spec, input_shape, seed: int, arm: str,
                independent_parents: bool) -> Network:
    if independent_parents:
        parent_seed = RngStream(seed).split(f"parent/{arm}").spawn_seed()
    else:
        parent_seed = seed
    return init_network(spec, input_shape, parent_seed)


def _train(net: Network, mask: MaskSet, train_cfg: TrainConfig, splits: Splits,
           rng_train: RngStream, run_id: str) -> tuple[list[EpochRow], float, int]:
    """Train the sub-network ``mask`` selects from ``net``.

    A structured mask trains its reduced network and leaves ``net``
    untouched; an unstructured mask trains ``net`` in place. Returns epoch
    rows, seconds spent in evaluation and the active parameter count.
    """
    net, mask = sub_network(net, mask)
    state = SgdState.zeros(net)
    rows: list[EpochRow] = []
    eval_seconds = 0.0
    for epoch in range(1, train_cfg.epochs + 1):
        seen = 0
        correct = 0
        loss_sum = 0.0
        for batch_no, (x, y) in enumerate(
                batches(splits.train, train_cfg.batch_size, rng_train.split(f"epoch{epoch}"))):
            try:
                loss, grads, logits = _forward_backward(net, mask, x, y)
            except ValueError as exc:
                # forward/loss refuse non-finite values once weights blow up
                raise DivergenceError(
                    f"{run_id}: loss diverged at epoch {epoch}, batch {batch_no}: {exc}"
                ) from exc
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"{run_id}: non-finite loss at epoch {epoch}, batch {batch_no}")
            sgd_step(net, grads, train_cfg.lr, train_cfg.momentum, state)
            n = len(y)
            seen += n
            loss_sum += loss * n
            correct += int((logits.argmax(axis=1) == y).sum())
        test_acc = test_loss = None
        if epoch % train_cfg.eval_every == 0 or epoch == train_cfg.epochs:
            t_eval = time.perf_counter()
            res = evaluate(net, mask, splits.test)
            eval_seconds += time.perf_counter() - t_eval
            test_acc, test_loss = res.accuracy, res.mean_loss
        rows.append(EpochRow(epoch=epoch, train_accuracy=correct / seen,
                             train_loss=loss_sum / seen,
                             test_accuracy=test_acc, test_loss=test_loss))
    return rows, eval_seconds, active_parameter_count(net, mask)


def _finish_record(record: RunRecord, mask: MaskSet, active_parameters: int) -> RunRecord:
    record.mask_mode = mask.mode
    record.mask_sample_seed = mask.sample_seed
    record.mask_layer_zeros = {
        i: (int((m == 0.0).sum()), int(m.size)) for i, m in mask.masks.items()}
    record.realized_sparsity = realized_sparsity(mask)
    record.active_parameters = active_parameters
    return record


def weedout_run(spec, input_shape, search_cfg: SearchConfig,
                train_cfg: TrainConfig, splits: Splits, seed: int, *,
                arm: str = "weedout", parallel: int = 1,
                independent_parents: bool = False) -> RunRecord:
    """Full selected-mask run: init parent, search, train winner, evaluate."""
    search_cfg.validate()
    train_cfg.validate()
    record = RunRecord(run_id=run_label(arm, search_cfg.eta, seed), arm=arm,
                       eta=search_cfg.eta, seed=seed)
    t0 = time.perf_counter()
    net = _parent_for(spec, input_shape, seed, arm, independent_parents)
    record.parent_checksum = parent_checksum(net)
    t1 = time.perf_counter()
    result = run_search(net, search_cfg, splits.validation,
                        RngStream(seed).split("search"), parallel)
    record.search_history = result.history
    record.fitness_evaluations = result.evaluations
    mask = result.best.mask
    t2 = time.perf_counter()
    record.epoch_rows, eval_s, active = _train(net, mask, train_cfg, splits,
                                               RngStream(seed).split("train"),
                                               record.run_id)
    t3 = time.perf_counter()
    record.wall_clock = {"init": t1 - t0, "weedout_phase": t2 - t1,
                         "training_phase": t3 - t2 - eval_s, "evaluation": eval_s}
    return _finish_record(record, mask, active)


def baseline_run(spec, input_shape, eta: float, train_cfg: TrainConfig,
                 splits: Splits, seed: int, *, arm: str = "random_baseline",
                 mask_mode: str = "structured",
                 independent_parents: bool = False) -> RunRecord:
    """Control arm: one randomly drawn mask at the same eta, trained identically."""
    train_cfg.validate()
    record = RunRecord(run_id=run_label(arm, eta, seed), arm=arm, eta=eta, seed=seed)
    t0 = time.perf_counter()
    net = _parent_for(spec, input_shape, seed, arm, independent_parents)
    record.parent_checksum = parent_checksum(net)
    mask = sample_mask(spec, input_shape, eta, mask_mode,
                       RngStream(seed).split("baseline-mask"))
    t1 = time.perf_counter()
    record.epoch_rows, eval_s, active = _train(net, mask, train_cfg, splits,
                                               RngStream(seed).split("train"),
                                               record.run_id)
    t2 = time.perf_counter()
    record.wall_clock = {"init": t1 - t0, "weedout_phase": 0.0,
                         "training_phase": t2 - t1 - eval_s, "evaluation": eval_s}
    return _finish_record(record, mask, active)


def dense_run(spec, input_shape, train_cfg: TrainConfig, splits: Splits,
              seed: int, *, independent_parents: bool = False) -> RunRecord:
    """Dense arm: the eta = 0 control, reported under eta = 0."""
    return baseline_run(spec, input_shape, 0.0, train_cfg, splits, seed,
                        arm="dense", independent_parents=independent_parents)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_bytes(columns, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue().encode("utf-8")


def metrics_csv_bytes(record: RunRecord) -> bytes:
    rows = [(r.epoch, r.train_accuracy, r.train_loss, r.test_accuracy, r.test_loss)
            for r in record.epoch_rows]
    return _csv_bytes(METRICS_COLUMNS, rows)


def search_csv_bytes(history: list[HistoryRow]) -> bytes:
    rows = [(h.generation, h.candidate_id, h.birth_generation, h.fitness, h.is_elite)
            for h in history]
    return _csv_bytes(SEARCH_COLUMNS, rows)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_run_record(record: RunRecord, cell_dir, effective_config: dict | None = None,
                     status: str = "completed", error: str | None = None) -> Path:
    """Persist one cell: metrics.csv, search.csv (if any), manifest.json."""
    cell_dir = Path(cell_dir)
    cell_dir.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    metrics = metrics_csv_bytes(record)
    (cell_dir / METRICS_NAME).write_bytes(metrics)
    files[METRICS_NAME] = _sha256(metrics)
    if record.search_history is not None:
        search = search_csv_bytes(record.search_history)
        (cell_dir / SEARCH_NAME).write_bytes(search)
        files[SEARCH_NAME] = _sha256(search)
    manifest = {
        "schema_version": 1,
        "run_id": record.run_id,
        "arm": record.arm,
        "eta": record.eta,
        "seed": record.seed,
        "status": status,
        "error": error,
        "parent_checksum": record.parent_checksum,
        "mask": {
            "mode": record.mask_mode,
            "eta": record.eta,
            "sample_seed": record.mask_sample_seed,
            "per_layer": {str(i): {"zeros": z, "size": s}
                          for i, (z, s) in sorted(record.mask_layer_zeros.items())},
            "realized_sparsity": record.realized_sparsity,
        },
        "active_parameters": record.active_parameters,
        "fitness_evaluations": record.fitness_evaluations,
        "wall_clock": record.wall_clock,
        "files": files,
        "effective_config": effective_config,
    }
    (cell_dir / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return cell_dir


def write_failure(cell_dir, arm: str, eta: float, seed: int, error: str,
                  effective_config: dict | None = None) -> None:
    cell_dir = Path(cell_dir)
    cell_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema_version": 1,
        "run_id": run_label(arm, eta, seed),
        "arm": arm, "eta": eta, "seed": seed,
        "status": "failed", "error": error,
        "files": {},
        "effective_config": effective_config,
    }
    (cell_dir / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_manifest(cell_dir) -> dict:
    path = Path(cell_dir) / MANIFEST_NAME
    return json.loads(path.read_text(encoding="utf-8"))


def verify_cell(cell_dir) -> dict:
    """Load and checksum-verify a cell's manifest; returns the manifest."""
    cell_dir = Path(cell_dir)
    manifest = read_manifest(cell_dir)
    for name, digest in manifest.get("files", {}).items():
        blob = (cell_dir / name).read_bytes()
        if _sha256(blob) != digest:
            raise ChecksumError(f"{cell_dir / name}: contents do not match manifest checksum")
    return manifest


def is_completed(cell_dir) -> bool:
    cell_dir = Path(cell_dir)
    if not (cell_dir / MANIFEST_NAME).exists():
        return False
    try:
        manifest = verify_cell(cell_dir)
    except (OSError, ValueError, ChecksumError):
        return False
    return manifest.get("status") == "completed"


def read_run_record(cell_dir) -> RunRecord:
    """Rehydrate a RunRecord from a completed cell directory."""
    cell_dir = Path(cell_dir)
    manifest = verify_cell(cell_dir)
    record = RunRecord(run_id=manifest["run_id"], arm=manifest["arm"],
                       eta=manifest["eta"], seed=manifest["seed"])
    record.parent_checksum = manifest.get("parent_checksum", "")
    record.fitness_evaluations = manifest.get("fitness_evaluations", 0)
    record.wall_clock = manifest.get("wall_clock", {})
    record.realized_sparsity = manifest.get("mask", {}).get("realized_sparsity", 0.0)
    record.mask_mode = manifest.get("mask", {}).get("mode", "structured")
    record.mask_sample_seed = manifest.get("mask", {}).get("sample_seed", 0)
    record.mask_layer_zeros = {
        int(i): (entry["zeros"], entry["size"])
        for i, entry in manifest.get("mask", {}).get("per_layer", {}).items()}
    record.active_parameters = manifest.get("active_parameters", 0)
    with open(cell_dir / METRICS_NAME, newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            record.epoch_rows.append(EpochRow(
                epoch=int(row["epoch"]),
                train_accuracy=float(row["train_accuracy"]),
                train_loss=float(row["train_loss"]),
                test_accuracy=float(row["test_accuracy"]) if row["test_accuracy"] else None,
                test_loss=float(row["test_loss"]) if row["test_loss"] else None))
    search_path = cell_dir / SEARCH_NAME
    if search_path.exists():
        record.search_history = []
        with open(search_path, newline="", encoding="utf-8") as f:
            for row in csv.DictReader(f):
                record.search_history.append(HistoryRow(
                    generation=int(row["generation"]),
                    candidate_id=int(row["candidate_id"]),
                    birth_generation=int(row["birth_generation"]),
                    fitness=float(row["fitness"]),
                    is_elite=row["is_elite"] == "1"))
    return record


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass
class CellResult:
    arm: str
    eta: float
    seed: int
    status: str  # completed | cached | failed
    cell_dir: Path
    record: RunRecord | None = None
    error: str | None = None


def sweep_cells(etas, arms, seeds) -> list[tuple[str, float, int]]:
    """Factorial cell list; the dense arm appears once per seed, at eta 0."""
    cells: list[tuple[str, float, int]] = []
    for eta in etas:
        for arm in arms:
            if arm == "dense":
                continue
            for seed in seeds:
                cells.append((arm, float(eta), int(seed)))
    if "dense" in arms:
        for seed in seeds:
            cells.append(("dense", 0.0, int(seed)))
    return cells


def run_cell(spec, input_shape, arm: str, eta: float, seed: int,
             search_cfg: SearchConfig, train_cfg: TrainConfig, splits: Splits, *,
             parallel: int = 1, independent_parents: bool = False) -> RunRecord:
    if arm == "weedout":
        return weedout_run(spec, input_shape, replace(search_cfg, eta=eta),
                           train_cfg, splits, seed, parallel=parallel,
                           independent_parents=independent_parents)
    if arm == "random_baseline":
        return baseline_run(spec, input_shape, eta, train_cfg, splits, seed,
                            mask_mode=search_cfg.mask_mode,
                            independent_parents=independent_parents)
    if arm == "dense":
        return dense_run(spec, input_shape, train_cfg, splits, seed,
                         independent_parents=independent_parents)
    raise ValueError(f"unknown arm {arm!r}; available: {ARMS}")


@dataclass(frozen=True)
class _SweepInputs:
    """What every cell of a sweep shares; forked workers inherit it unpickled."""

    spec: list
    input_shape: tuple
    search_cfg: SearchConfig
    train_cfg: TrainConfig
    splits: Splits
    independent_parents: bool

    def attempt(self, arm: str, eta: float, seed: int,
                threads: int) -> tuple[RunRecord | None, str | None]:
        """Run one cell; any exception becomes its error text, for the manifest."""
        try:
            return run_cell(self.spec, self.input_shape, arm, eta, seed,
                            self.search_cfg, self.train_cfg, self.splits,
                            parallel=threads,
                            independent_parents=self.independent_parents), None
        except Exception as exc:  # a failing cell must not end the sweep
            return None, f"{type(exc).__name__}: {exc}"


# set once per pool worker by _init_worker, before it takes any cell
_worker_inputs: _SweepInputs | None = None


def _init_worker(inputs: _SweepInputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _attempt_in_worker(arm: str, eta: float, seed: int, threads: int):
    return _worker_inputs.attempt(arm, eta, seed, threads)


def sweep(spec, input_shape, etas, arms, seeds, search_cfg: SearchConfig,
          train_cfg: TrainConfig, splits: Splits, out_dir, *,
          parallel: int = 1, resume: bool = True,
          independent_parents: bool = False,
          effective_config: dict | None = None,
          progress=None) -> list[CellResult]:
    """Full factorial (eta x arm x seed) execution with per-cell persistence.

    Completed cells are skipped on resume; a cell that raises is recorded
    with its error in a failure manifest and the sweep continues.

    ``parallel`` workers go to cells first. When ``min(parallel, pending)``
    is two or more, that many forked worker processes compute the pending
    cells, each scoring search candidates on ``parallel // workers``
    threads; otherwise (``parallel`` 1, or a lone pending cell) cells run in
    this process on ``parallel`` threads. Fork hands the splits to the
    workers without pickling them; it assumes the calling process runs no
    other thread then, as the CLI does. This process writes every cell and
    calls ``progress`` in ``sweep_cells`` order, so outputs are identical
    for every ``parallel``. A worker that dies raises ``BrokenProcessPool``;
    cells not written by then have no manifest and resume recomputes them.
    """
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = [(arm, eta, seed, out_dir / run_label(arm, eta, seed))
             for arm, eta, seed in sweep_cells(etas, arms, seeds)]
    cached = [resume and is_completed(cell_dir) for *_, cell_dir in cells]
    pending = [cell[:3] for cell, done in zip(cells, cached) if not done]
    workers = min(parallel, len(pending))
    threads = parallel // max(workers, 1)
    inputs = _SweepInputs(spec, input_shape, search_cfg, train_cfg, splits,
                          independent_parents)
    pool = None
    if workers >= 2:
        pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"),
                                   initializer=_init_worker, initargs=(inputs,))
        futures = {cell: pool.submit(_attempt_in_worker, *cell, threads)
                   for cell in pending}
    results: list[CellResult] = []
    try:
        for (arm, eta, seed, cell_dir), done in zip(cells, cached):
            if done:
                result = CellResult(arm, eta, seed, "cached", cell_dir,
                                    record=read_run_record(cell_dir))
            else:
                cell = (arm, eta, seed)
                record, error = (futures[cell].result() if pool is not None
                                 else inputs.attempt(*cell, threads))
                if error is None:
                    write_run_record(record, cell_dir, effective_config)
                    result = CellResult(arm, eta, seed, "completed", cell_dir,
                                        record=record)
                else:
                    write_failure(cell_dir, arm, eta, seed, error, effective_config)
                    result = CellResult(arm, eta, seed, "failed", cell_dir,
                                        error=error)
            results.append(result)
            if progress:
                progress(result)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return results
