"""Operator surface: parse arguments and dispatch the three subcommands.

Subcommands::

    weedout run     --config cfg.json [--out DIR] [--parallel N]
    weedout report  SWEEP_DIR [--out DIR]
    weedout inspect RUN_DIR

The config schema lives in ``config.py`` and the report tables in
``report.py``; each ``cmd_*`` here prints and returns the exit code: 2 for
bad input, 1 for failed cells or corrupt files, 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from . import pipeline
# parse_config is unused here but stays importable as weedout.cli.parse_config
from .config import (build_experiment, canonical_json, check_same_sweep, load_config,
                     parse_config, resolve_out_dir)
from .errors import ConfigError
from .report import load_records, search_spread, write_report


def cmd_run(args) -> int:
    try:
        if args.parallel < 1:
            raise ConfigError([f"--parallel: must be >= 1, got {args.parallel}"])
        cfg = load_config(args.config)
        out_dir = resolve_out_dir(cfg["out_dir"], args.out)
        cfg["out_dir"] = str(out_dir)
        layers, input_shape, splits, search_cfg, train_cfg = build_experiment(cfg)
        check_same_sweep(cfg, out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "config.json").write_text(canonical_json(cfg), encoding="utf-8")
    except ConfigError as exc:
        print("invalid config:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2

    def progress(cell):
        label = pipeline.run_label(cell.arm, cell.eta, cell.seed)
        if cell.recomputed:
            print(f"[recompute] {label}: {cell.recomputed}", file=sys.stderr)
        if cell.status == "failed":
            print(f"[FAIL] {label}: {cell.error}")
        else:
            row = cell.record.final_row()
            acc = "" if row.test_accuracy is None else f" test_acc={row.test_accuracy:.4f}"
            print(f"[{cell.status:>9}] {label}{acc}")

    try:
        results = pipeline.sweep(layers, input_shape, cfg["search"]["etas"], cfg["arms"],
                                 cfg["seeds"], search_cfg, train_cfg, splits, out_dir,
                                 parallel=args.parallel, effective_config=cfg,
                                 progress=progress)
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


def cmd_report(args) -> int:
    sweep_dir = Path(args.sweep_dir)
    if not sweep_dir.is_dir():
        print(f"not a sweep directory: {sweep_dir}", file=sys.stderr)
        return 2
    records, excluded = load_records(sweep_dir)
    for label, state in excluded:
        print(f"[excluded] {label}: {state.status}: {state.reason}", file=sys.stderr)
    if not records:
        print(f"no completed runs under {sweep_dir}", file=sys.stderr)
        return 2
    report_dir = Path(args.out) if args.out else sweep_dir / "report"
    try:
        agg, diffs, paths = write_report(records, report_dir)
    except OSError as exc:
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    final_epoch = max(r.epoch for r in agg)
    print(f"aggregated {len(records)} runs; final epoch {final_epoch}")
    print(f"{'arm':<16} {'eta':>5} {'test_acc':>9} {'ci95':>8} {'n':>3}")
    for row in agg:
        if row.epoch != final_epoch or row.mean_test_accuracy is None:
            continue
        ci = f"{row.ci95_test_accuracy:.4f}" if row.ci95_test_accuracy is not None else "-"
        print(f"{row.arm:<16} {row.eta:>5g} {row.mean_test_accuracy:>9.4f} "
              f"{ci:>8} {row.n_runs:>3}")
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
    state = pipeline.cell_state(run_dir)
    if state.status == "absent":
        print(f"not a run directory (no {pipeline.MANIFEST_NAME}): {run_dir}",
              file=sys.stderr)
        return 2
    if state.status == "corrupt":
        print(f"corrupt: {state.reason}", file=sys.stderr)
        return 1
    manifest = state.manifest
    print(f"run      : {manifest['run_id']}")
    print(f"arm      : {manifest['arm']}   eta={manifest['eta']:g}   "
          f"seed={manifest['seed']}")
    print(f"status   : {manifest['status']}")
    effective = manifest.get("effective_config")
    if effective is not None:
        digest = hashlib.sha256(canonical_json(effective).encode()).hexdigest()
        print(f"config   : sha256:{digest[:16]}")
    if manifest["status"] != "completed":
        print(f"error    : {manifest.get('error')}")
        return 0
    record = state.record
    if record.search_history:
        spread = search_spread([record])
        print(f"search   : {len(spread)} generations, "
              f"{record.fitness_evaluations} fitness evaluations")
        for _, _, gen, best, *_ in spread:
            print(f"  generation {gen}: best fitness {best:.6f}")
    else:
        print("search   : none")
    mask = record.mask
    print(f"mask     : mode={mask['mode']} sample_seed={mask['sample_seed']} "
          f"realized sparsity {mask['realized_sparsity']:.4f}")
    for i, layer in sorted(mask["per_layer"].items(), key=lambda item: int(item[0])):
        zeros, size = layer["zeros"], layer["size"]
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
