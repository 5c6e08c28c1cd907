"""End-to-end runs: parent init, mask selection, SGD training, evaluation.

``run_cell`` runs every cell the same way: init the seed's parent, take the
arm's mask, train it and evaluate it. The two arms differ only in where the
mask comes from:

* ``weedout``          -- the winner of the population search at eta,
* ``random_baseline``  -- one random mask at the same eta, no search.

Both arms share the parent initialization for a given seed, so the mask is
the only difference between them; at eta 0 both train the fully connected
parent, to the same bytes. Every run is a pure function of (spec, configs,
seed), so a sweep may compute cells in worker processes and still write
them in a fixed order; per-cell results are persisted incrementally so a
killed sweep resumes without recomputing finished cells.

A cell gets the threads of ``--parallel`` that the sweep's worker processes
leave over. Its threads score search candidates, then run the kernel pieces
of training and evaluation; results are the same for any thread count.

Each cell file is written under a temporary name and renamed into place,
the manifest last and only after any old one is removed, so a cell killed
mid-write has no manifest and resume recomputes it, saying why.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from multiprocessing import get_context
from operator import attrgetter
from pathlib import Path

from .data import Splits, batches
from .errors import ChecksumError, DivergenceError, check_number
from .network import (KernelPool, Network, SgdState, _forward_backward, evaluate,
                      init_network, kernel_pool, parent_checksum, sgd_step)
from .numerics import RngStream
from .search import HistoryRow, SearchConfig, run_search
from .sparsity import (MaskSet, active_parameter_count, realized_sparsity,
                       reduce_network, sample_mask)

ARMS = ("weedout", "random_baseline")

MANIFEST_NAME = "manifest.json"
METRICS_NAME = "metrics.csv"
SEARCH_NAME = "search.csv"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 128
    lr: float = 0.05
    momentum: float = 0.9
    eval_every: int = 1

    def problems(self) -> list[str]:
        """One ``"field: reason"`` line per invalid field; empty if valid."""
        return (check_number("epochs", self.epochs, int, 1)
                + check_number("batch_size", self.batch_size, int, 1)
                + check_number("lr", self.lr, float, 0, lo_open=True)
                + check_number("momentum", self.momentum, float, 0, 1, hi_open=True)
                + check_number("eval_every", self.eval_every, int, 1))


@dataclass
class EpochRow:
    epoch: int
    train_accuracy: float
    train_loss: float
    test_accuracy: float | None
    test_loss: float | None


@dataclass
class RunRecord:
    """Everything one run produced, as persisted to its cell directory: the
    rows of metrics.csv and search.csv, then the manifest's fields under the
    manifest's names. ``mask`` holds ``mode``, ``eta``, ``sample_seed``,
    ``per_layer`` (``{"zeros", "size"}`` per layer index, as a string) and
    ``realized_sparsity``."""

    run_id: str
    arm: str
    eta: float
    seed: int
    epoch_rows: list[EpochRow] = field(default_factory=list)
    search_history: list[HistoryRow] | None = None
    mask: dict = field(default_factory=lambda: {
        "mode": "structured", "sample_seed": 0, "per_layer": {}, "realized_sparsity": 0.0})
    active_parameters: int = 0
    parent_checksum: str = ""
    fitness_evaluations: int = 0
    wall_clock: dict[str, float] = field(default_factory=dict)

    def final_row(self) -> EpochRow:
        return self.epoch_rows[-1]


def run_label(arm: str, eta: float, seed: int) -> str:
    return f"{arm}_{eta:g}_{seed}"


def _parent_for(spec, input_shape, seed: int) -> Network:
    return init_network(spec, input_shape, seed)


def _train(net: Network, mask: MaskSet, train_cfg: TrainConfig, splits: Splits,
           rng_train: RngStream, run_id: str,
           pool: KernelPool | None = None) -> tuple[list[EpochRow], float, int]:
    """Train the sub-network ``mask`` selects from ``net``.

    A structured mask trains its reduced network and leaves ``net``
    untouched; an unstructured mask is multiplied into ``net``'s weights once,
    in place, and the update masks each gradient, so a masked weight stays the
    same signed zero. The cell's ``pool``, if any, runs the kernels, with the
    same results as one thread. Returns epoch rows, seconds spent in
    evaluation and the active parameter count.
    """
    if mask.mode == "structured":
        net, mask = reduce_network(net, mask), None
    weight_masks = {} if mask is None else mask.masks
    for i, m in weight_masks.items():
        net.params[i].weight *= m
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
                loss, grads, logits = _forward_backward(net, x, y, pool)
            except ValueError as exc:
                # forward/loss refuse non-finite values once weights blow up
                raise DivergenceError(
                    f"{run_id}: loss diverged at epoch {epoch}, batch {batch_no}: {exc}"
                ) from exc
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"{run_id}: non-finite loss at epoch {epoch}, batch {batch_no}")
            sgd_step(net, grads, train_cfg.lr, train_cfg.momentum, state, pool, weight_masks)
            n = len(y)
            seen += n
            loss_sum += loss * n
            correct += int((logits.argmax(axis=1) == y).sum())
            # Names keep arrays alive until rebound: without this the weight-sized
            # gradients of one step would stay through the next step's
            # activation peak, and the last step's through the evaluation.
            del x, y, grads, logits
        test_acc = test_loss = None
        if epoch % train_cfg.eval_every == 0 or epoch == train_cfg.epochs:
            t_eval = time.perf_counter()
            res = evaluate(net, splits.test, pool=pool,
                           block_rows=train_cfg.batch_size)
            eval_seconds += time.perf_counter() - t_eval
            test_acc, test_loss = res.accuracy, res.mean_loss
        rows.append(EpochRow(epoch=epoch, train_accuracy=correct / seen,
                             train_loss=loss_sum / seen,
                             test_accuracy=test_acc, test_loss=test_loss))
    return rows, eval_seconds, active_parameter_count(net, mask)


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


def _rows_csv(row_type, rows) -> bytes:
    """``rows`` of the dataclass ``row_type`` as CSV, a column per field."""
    names = [f.name for f in fields(row_type)]
    return _csv_bytes(names, map(attrgetter(*names), rows))


# how a CSV cell reads back, per row field type; _fmt writes them
_PARSERS = {"int": int, "float": float, "bool": lambda text: text == "1",
            "float | None": lambda text: float(text) if text else None}


def _read_rows(path: Path, row_type) -> list:
    """The rows :func:`_rows_csv` wrote to ``path``."""
    parsers = [(f.name, _PARSERS[f.type]) for f in fields(row_type)]
    with open(path, newline="", encoding="utf-8") as f:
        return [row_type(**{name: parse(row[name]) for name, parse in parsers})
                for row in csv.DictReader(f)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` under a temporary name beside ``path``, then rename it."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# RunRecord's manifest fields, the run's identity (run_id, arm, eta, seed) first
_MANIFEST_FIELDS = tuple(f.name for f in fields(RunRecord)
                         if f.name not in ("epoch_rows", "search_history"))


def _write_manifest(cell_dir: Path, record: RunRecord, names, status: str,
                    error: str | None, files: dict, effective_config) -> None:
    manifest = {"schema_version": 1, **{n: getattr(record, n) for n in names},
                "status": status, "error": error, "files": files,
                "effective_config": effective_config}
    _write_atomic(cell_dir / MANIFEST_NAME,
                  (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def write_run_record(record: RunRecord, cell_dir,
                     effective_config: dict | None = None) -> None:
    """Persist one cell: metrics.csv, search.csv (if any), manifest.json.

    Each file appears whole or not at all. Any old manifest is removed
    first and the new one appears last, so until the cell is whole it has
    no manifest.
    """
    cell_dir = Path(cell_dir)
    cell_dir.mkdir(parents=True, exist_ok=True)
    (cell_dir / MANIFEST_NAME).unlink(missing_ok=True)
    files: dict[str, str] = {}
    for name, row_type, rows in ((METRICS_NAME, EpochRow, record.epoch_rows),
                                 (SEARCH_NAME, HistoryRow, record.search_history)):
        if rows is not None:
            data = _rows_csv(row_type, rows)
            _write_atomic(cell_dir / name, data)
            files[name] = _sha256(data)
    _write_manifest(cell_dir, record, _MANIFEST_FIELDS, "completed", None, files,
                    effective_config)


def write_failure(cell_dir, arm: str, eta: float, seed: int, error: str,
                  effective_config: dict | None = None) -> None:
    cell_dir = Path(cell_dir)
    cell_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(cell_dir, RunRecord(run_label(arm, eta, seed), arm, eta, seed),
                    _MANIFEST_FIELDS[:4], "failed", error, {}, effective_config)


@dataclass(frozen=True)
class CellState:
    """A cell directory's status (completed, failed, absent or corrupt), its
    verified manifest and record if it has them, and why it is not reused if not."""

    status: str
    manifest: dict | None = None
    reason: str | None = None
    record: RunRecord | None = None


def cell_state(cell_dir) -> CellState:
    """Read and verify a cell once, hashing each file its manifest lists once.

    A cell is corrupt when its manifest is unreadable, names no known status,
    lacks a field every manifest has, or lists a file that is missing or fails
    its checksum; when it is completed but lists no metrics file, lacks a field
    every completed manifest has, or its record cannot be parsed; and when it
    holds files but no manifest (an interrupted write).
    """
    cell_dir = Path(cell_dir)
    if not (cell_dir / MANIFEST_NAME).exists():
        if cell_dir.is_dir() and (names := sorted(p.name for p in cell_dir.iterdir())):
            return CellState("corrupt", reason=f"interrupted write: {', '.join(names)} "
                                               "but no manifest")
        return CellState("absent", reason="no files")
    try:
        manifest = json.loads((cell_dir / MANIFEST_NAME).read_text(encoding="utf-8"))
        if not isinstance(manifest, dict) or \
                manifest.get("status") not in ("completed", "failed"):
            raise ValueError(f"{MANIFEST_NAME} names no known status")
        kinds = {"run_id": str, "arm": str, "eta": (int, float), "seed": int, "files": dict}
        if bad := [k for k, t in kinds.items() if not isinstance(manifest.get(k), t)]:
            raise ValueError(f"{MANIFEST_NAME}: {', '.join(bad)} missing or malformed")
        if (completed := manifest["status"] == "completed") and \
                METRICS_NAME not in manifest["files"]:
            raise ValueError(f"{MANIFEST_NAME} lists no {METRICS_NAME}")
        for name, digest in manifest["files"].items():
            if _sha256((cell_dir / name).read_bytes()) != digest:
                raise ChecksumError(f"{cell_dir / name}: contents do not match "
                                    "manifest checksum")
        record = read_run_record(cell_dir, manifest) if completed else None
    except (OSError, ValueError, KeyError, TypeError, AttributeError, csv.Error,
            ChecksumError) as exc:
        return CellState("corrupt", reason=f"{type(exc).__name__}: {exc}")
    return CellState(manifest["status"], manifest, manifest.get("error"), record)


def read_run_record(cell_dir, manifest: dict) -> RunRecord:
    """Rehydrate a RunRecord from a completed cell directory and its manifest,
    once :func:`cell_state` has verified them. A field that every completed
    manifest has and this one lacks raises ``KeyError``, and so does a mask
    key (all but ``eta``) or a per-layer count; a ``metrics.csv`` without
    rows raises ``ValueError``."""
    cell_dir = Path(cell_dir)
    record = RunRecord(**{name: manifest[name] for name in _MANIFEST_FIELDS})
    mask = record.mask
    mask["mode"], mask["sample_seed"]
    for i, entry in mask["per_layer"].items():
        int(i), entry["zeros"], entry["size"]
    mask["realized_sparsity"]
    record.epoch_rows = _read_rows(cell_dir / METRICS_NAME, EpochRow)
    if not record.epoch_rows:
        raise ValueError(f"{METRICS_NAME} has no rows")
    if SEARCH_NAME in manifest["files"]:
        record.search_history = _read_rows(cell_dir / SEARCH_NAME, HistoryRow)
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
    recomputed: str | None = None  # why a cell's files on disk were not reused


def sweep_cells(etas, arms, seeds) -> list[tuple[str, float, int]]:
    """The factorial cell list, eta-major, then arm, then seed."""
    return [(arm, float(eta), int(seed)) for eta in etas for arm in arms for seed in seeds]


def run_cell(spec, input_shape, arm: str, eta: float, seed: int,
             search_cfg: SearchConfig, train_cfg: TrainConfig, splits: Splits, *,
             parallel: int = 1) -> RunRecord:
    """Run one cell: init the seed's parent, take the arm's mask, train it.

    ``weedout`` takes the winner of a search at ``eta``; ``random_baseline``
    draws one mask at ``eta`` in the search's mask mode. At eta 0 both take
    the all-ones mask and train the fully connected parent. A cell's
    ``parallel`` threads score the search's candidates, then run the
    training and evaluation kernels.
    """
    if arm not in ARMS:
        raise ValueError(f"unknown arm {arm!r}; available: {ARMS}")
    if problems := train_cfg.problems():
        raise ValueError("; ".join(problems))
    run_id = run_label(arm, eta, seed)
    t0 = time.perf_counter()
    net = _parent_for(spec, input_shape, seed)
    checksum = parent_checksum(net)
    history = None
    with kernel_pool(parallel) as pool:
        t1 = time.perf_counter()
        if arm == "weedout":
            result = run_search(net, search_cfg, eta, splits.validation,
                                RngStream(seed).split("search"), pool)
            history = result.history
            mask = result.best.mask
        else:
            mask = sample_mask(spec, input_shape, eta, search_cfg.mask_mode,
                               RngStream(seed).split("baseline-mask"))
        t2 = time.perf_counter()
        rows, eval_s, active = _train(net, mask, train_cfg, splits,
                                      RngStream(seed).split("train"), run_id, pool)
    t3 = time.perf_counter()
    if history is None:
        t1 = t2  # a control's mask draw counts as init
    return RunRecord(
        run_id=run_id, arm=arm, eta=eta, seed=seed, epoch_rows=rows,
        search_history=history,
        mask={"mode": mask.mode, "eta": eta, "sample_seed": mask.sample_seed,
              "per_layer": {str(i): {"zeros": m.size - int(m.sum()), "size": m.size}
                            for i, m in mask.masks.items()},
              "realized_sparsity": realized_sparsity(mask)},
        active_parameters=active,
        parent_checksum=checksum, fitness_evaluations=len(history or ()),
        wall_clock={"init": t1 - t0, "weedout_phase": t2 - t1,
                    "training_phase": t3 - t2 - eval_s, "evaluation": eval_s})


@dataclass(frozen=True)
class _SweepInputs:
    """What every cell of a sweep shares; forked workers inherit it unpickled."""

    spec: list
    input_shape: tuple
    search_cfg: SearchConfig
    train_cfg: TrainConfig
    splits: Splits

    def attempt(self, arm: str, eta: float, seed: int,
                threads: int) -> tuple[RunRecord | None, str | None]:
        """Run one cell; any exception becomes its error text, for the manifest."""
        try:
            return run_cell(self.spec, self.input_shape, arm, eta, seed,
                            self.search_cfg, self.train_cfg, self.splits,
                            parallel=threads), None
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
          parallel: int = 1, effective_config: dict | None = None,
          progress=None) -> list[CellResult]:
    """Full factorial (eta x arm x seed) execution with per-cell persistence.

    Every cell's state is read first and a completed cell is reused, so a
    sweep always resumes; a cell that raises is recorded with its error in a
    failure manifest and the sweep continues; a corrupt or interrupted cell
    is recomputed, and its result's ``recomputed`` says why.

    ``parallel`` workers go to cells first. When ``min(parallel, pending)``
    is two or more, that many forked worker processes compute the pending
    cells, each on ``parallel // workers`` threads; otherwise (``parallel``
    1, or a lone pending cell) cells run in this process on ``parallel``
    threads. A cell's threads score search candidates, then run its
    training and evaluation kernels. Fork hands the splits to the
    workers without pickling them; it assumes the calling process runs no
    other thread then, as the CLI does. This process writes every cell and
    calls ``progress`` in ``sweep_cells`` order, so outputs are identical
    for every ``parallel``. A worker that dies raises ``BrokenProcessPool``;
    cells not written by then have no manifest and resume recomputes them.
    """
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    out_dir = Path(out_dir)
    cells = [(arm, eta, seed, out_dir / run_label(arm, eta, seed))
             for arm, eta, seed in sweep_cells(etas, arms, seeds)]
    states = [cell_state(cell_dir) for *_, cell_dir in cells]
    pending = [cell[:3] for cell, state in zip(cells, states)
               if state.status != "completed"]
    workers = min(parallel, len(pending))
    threads = parallel // max(workers, 1)
    inputs = _SweepInputs(spec, input_shape, search_cfg, train_cfg, splits)
    pool = None
    if workers >= 2:
        pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"),
                                   initializer=_init_worker, initargs=(inputs,))
        futures = {cell: pool.submit(_attempt_in_worker, *cell, threads)
                   for cell in pending}
    results: list[CellResult] = []
    try:
        for (arm, eta, seed, cell_dir), state in zip(cells, states):
            if state.status == "completed":
                result = CellResult(arm, eta, seed, "cached", cell_dir,
                                    record=state.record)
            else:
                cell = (arm, eta, seed)
                corrupt = state.reason if state.status == "corrupt" else None
                record, error = (futures[cell].result() if pool is not None
                                 else inputs.attempt(*cell, threads))
                if error is None:
                    write_run_record(record, cell_dir, effective_config)
                    result = CellResult(arm, eta, seed, "completed", cell_dir,
                                        record=record, recomputed=corrupt)
                else:
                    write_failure(cell_dir, arm, eta, seed, error, effective_config)
                    result = CellResult(arm, eta, seed, "failed", cell_dir,
                                        error=error, recomputed=corrupt)
            results.append(result)
            if progress:
                progress(result)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return results
