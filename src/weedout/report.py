"""Aggregate a sweep's completed cells into the report tables.

``write_report`` groups the records once and writes ``aggregate.csv``
(means and Student-t 95% half-widths per arm, eta and epoch),
``arm_difference.csv`` (final-epoch weedout minus baseline per eta, with a
pooled two-sample CI), the long-format ``plot_long.csv`` and
``search_spread.csv`` (what the search saw). scipy is imported only when a
CI is computed, so ``weedout run`` never loads it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import pipeline

EPOCH_METRICS = pipeline.METRICS_COLUMNS[1:]
PLOT_COLUMNS = ("arm", "eta", "epoch", "metric", "mean", "ci95", "n_runs")
SPREAD_COLUMNS = ("arm", "eta", "generation", "best", "median", "std", "n")


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


def _expected_labels(sweep_dir: Path) -> set[str]:
    """Labels of the known arms' cells in the sweep's ``config.json``; none without one."""
    try:
        cfg = json.loads((sweep_dir / "config.json").read_text(encoding="utf-8"))
        arms = [arm for arm in cfg["arms"] if arm in pipeline.ARMS]
        cells = pipeline.sweep_cells(cfg["search"]["etas"], arms, cfg["seeds"])
    except (OSError, ValueError, KeyError, TypeError):
        return set()
    return {pipeline.run_label(*cell) for cell in cells}


def load_records(sweep_dir: Path) -> tuple[list[pipeline.RunRecord],
                                            list[tuple[str, pipeline.CellState]]]:
    """The record of every completed cell under ``sweep_dir``, and the label
    and state of every other cell, both in name order. The cells are every
    directory named like a cell and every cell the sweep's config lists, so
    a cell whose directory is missing is excluded as absent."""
    sweep_dir = Path(sweep_dir)
    prefixes = tuple(f"{arm}_" for arm in pipeline.ARMS)
    labels = _expected_labels(sweep_dir) | {
        p.name for p in sweep_dir.iterdir() if p.is_dir() and p.name.startswith(prefixes)}
    records, excluded = [], []
    for label in sorted(labels):
        state = pipeline.cell_state(sweep_dir / label)
        if state.status == "completed":
            records.append(state.record)
        else:
            excluded.append((label, state))
    return records, excluded


def _t975(df: int) -> float:
    """Student-t 97.5% quantile, the two-sided 95% CI multiplier."""
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


def _aggregate(groups) -> list[AggregateRow]:
    return [AggregateRow(arm, eta, epoch, *_mean_ci(m["train_accuracy"]),
                         *_mean_ci(m["test_accuracy"]), len(m["train_accuracy"]))
            for (arm, eta, epoch), m in groups.items()]


def aggregate_records(records) -> list[AggregateRow]:
    """Per-(arm, eta, epoch) means with Student-t 95% half-widths."""
    return _aggregate(_metric_groups(records))


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
        significant = half > 0.0 and abs(diff) > half
        if half == 0.0:
            verdict = "no test possible: both arms have zero variance"
        elif not significant:
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


def write_report(records, report_dir) -> tuple[list[AggregateRow], list[ArmDifference],
                                                dict[str, Path]]:
    """Write the four report tables under ``report_dir``.

    Returns ``(aggregate rows, arm differences, {table name: path})``.
    """
    report_dir = Path(report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    groups = _metric_groups(records)
    agg = _aggregate(groups)
    diffs = arm_differences(records)
    plot = [(arm, eta, epoch, metric, *_mean_ci(values), len(values))
            for (arm, eta, epoch), metrics in groups.items()
            for metric, values in metrics.items() if values]
    tables = {
        "aggregate": ("aggregate.csv", [f.name for f in fields(AggregateRow)],
                      map(astuple, agg)),
        "arm_difference": ("arm_difference.csv", [f.name for f in fields(ArmDifference)],
                           map(astuple, diffs)),
        "plot": ("plot_long.csv", PLOT_COLUMNS, plot),
        "search_spread": ("search_spread.csv", SPREAD_COLUMNS, search_spread(records)),
    }
    paths = {}
    for name, (file_name, columns, rows) in tables.items():
        paths[name] = report_dir / file_name
        _write_csv(paths[name], columns, rows)
    return agg, diffs, paths
