"""weedout benchmark: run one workload through the CLI and report its metrics.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each iteration runs ``weedout run`` into an
empty directory (the sweep) in a fresh process. The first also runs it again
over the finished directory (every cell cached), then ``weedout report``.
Iterations repeat for about ``--seconds``; every metric is the median over
iterations. Wall times are taken less the hypervisor's steal (see ``held``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced iteration and prints the per-layer metrics, including
the tracing overhead. A workload's last stdout line is one JSON object; a
failed correctness check exits 1 without it, and a missing source tree exits
2. ``--workload all`` measures every workload in turn, one block each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from checks import (CheckFailed, check_masks, digest, manifests_bytes,
                    read_cells)
from child import steal_s
from trace_layers import merge, ratio, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_run"

# BLAS runs one thread; --parallel 2 candidate threads make the 2 compute
# threads the benchmark allows one process.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PARALLEL = "2"
# a run must exit within 180 s; stop any command still running at this point
RUN_DEADLINE_S = 170

# name -> (unit, better); the order in which they are printed
END_TO_END = {
    "sweep_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "train_examples_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_peak_rss_mb": ("MB", "lower"),
    "final_test_acc": ("fraction", "higher"),
}

PER_LAYER = {
    "reread_s": ("s", "lower"),
    "sweep.wall_s": ("s", "lower"),
    "host.steal_share": ("ratio", "lower"),
    "data.load.s": ("s", "lower"),
    "data.resident_mb": ("MB", "lower"),
    "data.batches.s": ("s", "lower"),
    "data.sample_batch.s": ("s", "lower"),
    "numerics.rng_streams": ("count", "lower"),
    "numerics.rng_streams.s": ("s", "lower"),
    "numerics.softmax_xent.s": ("s", "lower"),
    "numerics.softmax_xent.calls": ("count", "lower"),
    "network.forward.gmac": ("GMAC", "lower"),
    "network.useful_mac_ratio": ("ratio", "higher"),
    "network.conv_forward.s": ("s", "lower"),
    "network.conv_forward.calls": ("count", "lower"),
    "network.conv_forward.gflop": ("GFLOP", "lower"),
    "network.conv_forward.gflop_per_s": ("GFLOP/s", "higher"),
    "network.conv_backward.s": ("s", "lower"),
    "network.conv_backward.calls": ("count", "lower"),
    "network.conv_backward.gflop": ("GFLOP", "lower"),
    "network.conv_backward.gflop_per_s": ("GFLOP/s", "higher"),
    "network.fwd_bwd.s": ("s", "lower"),
    "network.sgd_step.s": ("s", "lower"),
    "network.evaluate.s": ("s", "lower"),
    "network.check_mask.s": ("s", "lower"),
    "network.check_mask.calls": ("count", "lower"),
    "sparsity.sample_mask.s": ("s", "lower"),
    "sparsity.sample_mask.calls": ("count", "lower"),
    "sparsity.masks_per_s": ("1/s", "higher"),
    "sparsity.reduce_network.s": ("s", "lower"),
    "sparsity.reduce_network.calls": ("count", "lower"),
    "search.run.s": ("s", "lower"),
    "search.self_s": ("s", "lower"),
    "search.fitness.calls": ("count", "lower"),
    "search.fitness.s": ("s", "lower"),
    "search.fitness.busy_s": ("s", "lower"),
    "search.fitness.wait_s": ("s", "lower"),
    "search.fitness_evals_per_s": ("1/s", "higher"),
    "pipeline.cell.p50_s": ("s", "lower"),
    "pipeline.cell.max_s": ("s", "lower"),
    "pipeline.cell.n": ("count", "higher"),
    "pipeline.init.s": ("s", "lower"),
    "pipeline.train.self_s": ("s", "lower"),
    "pipeline.persist.s": ("s", "lower"),
    "pipeline.resume_check.s": ("s", "lower"),
    "pipeline.load_record.s": ("s", "lower"),
    "pipeline.cells.computed": ("count", "higher"),
    "pipeline.cells.cached": ("count", "higher"),
    "pipeline.cells.failed": ("count", "lower"),
    "phase.init_s": ("s", "lower"),
    "phase.search_s": ("s", "lower"),
    "phase.train_s": ("s", "lower"),
    "phase.eval_s": ("s", "lower"),
    "cli.startup_s": ("s", "lower"),
    "cli.load_config.s": ("s", "lower"),
    "cli.build_experiment.s": ("s", "lower"),
    "cli.report.s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.absent_targets": ("count", "lower"),
}


def held(cpu_s: float, steal_s: float) -> float:
    """Share of an interval's wall time the program would have taken unstolen.

    Steal is CPU time the hypervisor gave to other guests while this
    machine's CPUs had work; the guest charges it to no process, so CPU time
    excludes it. Spread over the ``cpu_s + steal_s`` CPU time the program
    asked for, it delayed the program by ``wall * steal_s / (cpu_s +
    steal_s)``: the whole steal for one busy thread, half of it for two.
    With no steal the share is exactly 1.
    """
    steal_s = max(steal_s, 0.0)
    return cpu_s / (cpu_s + steal_s) if cpu_s > 0 else 1.0


@dataclass
class Invocation:
    """One ``weedout`` command: wall time from spawn to exit, plus its report."""

    wall_s: float
    # spawn to: the entry point imported, the set-up mark (less its share of
    # steal, see ``held``), the command returned
    startup_s: float
    setup_s: float | None
    done_s: float
    cpu_s: float
    # the machine's steal time from spawn to exit
    steal_s: float
    peak_rss_mb: float
    setup_rss_mb: float | None
    info: dict

    @property
    def run_s(self) -> float:
        """Wall time less the share of it the hypervisor held the CPUs away."""
        return self.wall_s * held(self.cpu_s, self.steal_s)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    return env


def invoke(cli_args: list[str], out_dir: Path, work: Path, deadline: float,
           spans: Path | None = None) -> Invocation:
    """Run ``weedout ARGS`` in a fresh process through ``child.py``.

    The process is killed if it is still running at ``deadline`` (monotonic).
    """
    report_path = work / "child-report.json"
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(report_path), str(out_dir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--", *cli_args]
    steal0 = steal_s()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=work, capture_output=True,
                              text=True, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"weedout {cli_args[0]} still running at the run deadline")
    wall = time.monotonic() - t0
    steal = steal_s() - steal0
    if proc.returncode != 0 or not report_path.exists():
        raise CheckFailed(f"weedout {cli_args[0]} exited {proc.returncode}:\n"
                          f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    info = json.loads(report_path.read_text())
    setup_t = info["setup_t"]
    setup_s = None
    if setup_t is not None:
        setup_s = (setup_t - t0) * held(info["setup_cpu_s"],
                                        info["setup_steal_s"] - steal0)
    return Invocation(wall_s=wall, startup_s=info["entry_t"] - t0,
                      setup_s=setup_s, done_s=info["done_t"] - t0,
                      cpu_s=info["cpu_s"], steal_s=steal,
                      peak_rss_mb=info["peak_rss_mb"],
                      setup_rss_mb=info["setup_rss_mb"], info=info)


@dataclass
class Iteration:
    sweep: Invocation
    # the cached re-run and the report; None on iterations that skip them
    rerun: Invocation | None
    report: Invocation | None
    cells: list
    digest: str
    # cells whose manifest the cached re-run left byte-identical
    cached: int = 0


def iterate(wl, config_path: Path, out_dir: Path, work: Path, traced: bool,
            reread: bool, deadline: float) -> Iteration:
    """Sweep, then (if ``reread``) cached re-run and report; check what they wrote.

    The checks are untimed.
    """
    run_args = ["run", "--config", str(config_path), "--out", str(out_dir),
                "--parallel", PARALLEL]

    def spans(name):
        return work / f"spans-{name}.json" if traced else None

    sweep = invoke(run_args, out_dir, work, deadline, spans("sweep"))
    if sweep.setup_s is None:
        raise CheckFailed(f"weedout run wrote nothing under {out_dir}")
    rerun = report = None
    cached = 0
    if reread:
        written = manifests_bytes(out_dir)
        rerun = invoke(run_args, out_dir, work, deadline, spans("rerun"))
        report = invoke(["report", str(out_dir)], out_dir / "report", work, deadline,
                        spans("report"))
        if rerun.setup_s is None:
            raise CheckFailed(f"cached weedout run wrote nothing under {out_dir}")
        after = manifests_bytes(out_dir)
        cached = sum(1 for name, blob in written.items() if after.get(name) == blob)
        if cached != wl.cells:
            raise CheckFailed(f"cached re-run rewrote {wl.cells - cached} finished cells")
        if not (out_dir / "report" / "aggregate.csv").is_file():
            raise CheckFailed("weedout report wrote no report/aggregate.csv")
    cells = read_cells(out_dir, wl.cells)
    chance = 1.0 / 10
    acc = mean_final_acc(cells)
    if not acc > 2 * chance:
        raise CheckFailed(f"final test accuracy {acc:.4f} is not clearly above "
                          f"chance {chance}")
    return Iteration(sweep, rerun, report, cells, digest(cells), cached)


def mean_final_acc(cells) -> float:
    return statistics.fmean(c.final_test_acc for c in cells)


def phase_sums(cells) -> dict[str, float]:
    sums = {"init": 0.0, "weedout_phase": 0.0, "training_phase": 0.0, "evaluation": 0.0}
    for cell in cells:
        for key, value in cell.manifest["wall_clock"].items():
            sums[key] = sums.get(key, 0.0) + value
    return sums


def end_to_end(wl, it: Iteration) -> dict[str, list[float]]:
    """One iteration's samples of every end-to-end metric (and of reread_s)."""
    phases = phase_sums(it.cells)
    # the manifests' phase times are wall times inside the sweep; take off
    # the sweep's share of steal, as for the sweep itself
    train_s = phases["training_phase"] * held(it.sweep.cpu_s, it.sweep.steal_s)
    samples = {
        "sweep_s": [it.sweep.run_s],
        "setup_s": [it.sweep.setup_s] + ([it.rerun.setup_s] if it.rerun else []),
        "train_examples_per_s": [wl.train_examples / train_s],
        "cpu_s": [it.sweep.cpu_s],
        "peak_rss_mb": [it.sweep.peak_rss_mb],
        "setup_peak_rss_mb": [it.sweep.setup_rss_mb],
        "final_test_acc": [mean_final_acc(it.cells)],
    }
    if it.rerun is not None:
        samples["reread_s"] = [it.rerun.run_s + it.report.run_s]
    return samples


def per_layer(untraced: Iteration, traced: Iteration, work: Path) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, against its untraced twin."""
    loaded = {name: json.loads((work / f"spans-{name}.json").read_text())
              for name in ("sweep", "rerun", "report")}
    sweep = summarize(loaded["sweep"])
    reread = merge([summarize(loaded["rerun"]), summarize(loaded["report"])])

    def get(summary, name, key="wall_s"):
        return summary.get(name, {}).get(key) or 0

    def work_of(name):
        return get(sweep, name, "work") or 0

    macs = get(sweep, "network.forward_pass", "work") or [0, 0]
    fwd_gflop = work_of("network.conv_forward") / 1e9
    bwd_gflop = work_of("network.conv_backward") / 1e9
    setups = get(sweep, "cli.build_experiment", "calls")
    cell_s = sorted(get(sweep, "pipeline.cell", "durations") or [0.0])
    fitness_wall = get(sweep, "search.fitness")
    fitness_busy = get(sweep, "search.fitness", "cpu_s")
    phases = phase_sums(untraced.cells)
    evaluations = sum(c.manifest["fitness_evaluations"] for c in untraced.cells)
    # spans are written after the command returns; that write is not overhead
    def done_s(inv):
        return inv.done_s * held(inv.cpu_s, inv.steal_s)

    overhead = done_s(traced.sweep) - done_s(untraced.sweep)
    absent = set()
    for inv in (traced.sweep, traced.rerun, traced.report):
        absent.update(inv.info.get("absent", []))
    return {
        "reread_s": untraced.rerun.run_s + untraced.report.run_s,
        "sweep.wall_s": untraced.sweep.wall_s,
        "host.steal_share": 1 - held(untraced.sweep.cpu_s, untraced.sweep.steal_s),
        "data.load.s": get(sweep, "data.load"),
        "data.resident_mb": ratio(work_of("cli.build_experiment"), setups) / 1e6,
        "data.batches.s": get(sweep, "data.batches"),
        "data.sample_batch.s": get(sweep, "data.sample_batch"),
        "numerics.rng_streams": get(sweep, "numerics.rng_streams", "calls"),
        "numerics.rng_streams.s": get(sweep, "numerics.rng_streams"),
        "numerics.softmax_xent.s": get(sweep, "numerics.softmax_xent"),
        "numerics.softmax_xent.calls": get(sweep, "numerics.softmax_xent", "calls"),
        "network.forward.gmac": macs[1] / 1e9,
        "network.useful_mac_ratio": ratio(macs[0], macs[1]),
        "network.conv_forward.s": get(sweep, "network.conv_forward"),
        "network.conv_forward.calls": get(sweep, "network.conv_forward", "calls"),
        "network.conv_forward.gflop": fwd_gflop,
        "network.conv_forward.gflop_per_s":
            ratio(fwd_gflop, get(sweep, "network.conv_forward", "cpu_s")),
        "network.conv_backward.s": get(sweep, "network.conv_backward"),
        "network.conv_backward.calls": get(sweep, "network.conv_backward", "calls"),
        "network.conv_backward.gflop": bwd_gflop,
        "network.conv_backward.gflop_per_s":
            ratio(bwd_gflop, get(sweep, "network.conv_backward", "cpu_s")),
        "network.fwd_bwd.s": get(sweep, "network.fwd_bwd"),
        "network.sgd_step.s": get(sweep, "network.sgd_step"),
        "network.evaluate.s": get(sweep, "network.evaluate"),
        "network.check_mask.s": get(sweep, "network.check_mask"),
        "network.check_mask.calls": get(sweep, "network.check_mask", "calls"),
        "sparsity.sample_mask.s": get(sweep, "sparsity.sample_mask"),
        "sparsity.sample_mask.calls": get(sweep, "sparsity.sample_mask", "calls"),
        "sparsity.masks_per_s": ratio(get(sweep, "sparsity.sample_mask", "calls"),
                                      get(sweep, "sparsity.sample_mask")),
        "sparsity.reduce_network.s": get(sweep, "sparsity.reduce_network"),
        "sparsity.reduce_network.calls": get(sweep, "sparsity.reduce_network", "calls"),
        "search.run.s": get(sweep, "search.run"),
        "search.self_s": get(sweep, "search.run", "self_s"),
        "search.fitness.calls": get(sweep, "search.fitness", "calls"),
        "search.fitness.s": fitness_wall,
        "search.fitness.busy_s": fitness_busy,
        "search.fitness.wait_s": fitness_wall - fitness_busy,
        "search.fitness_evals_per_s": ratio(evaluations, phases["weedout_phase"]),
        "pipeline.cell.p50_s": statistics.median(cell_s),
        "pipeline.cell.max_s": cell_s[-1],
        "pipeline.cell.n": get(sweep, "pipeline.cell", "calls"),
        "pipeline.init.s": get(sweep, "pipeline.init"),
        "pipeline.train.self_s": get(sweep, "pipeline.train", "self_s"),
        "pipeline.persist.s": get(sweep, "pipeline.persist"),
        "pipeline.resume_check.s": get(reread, "pipeline.resume_check"),
        "pipeline.load_record.s": get(reread, "pipeline.load_record"),
        "pipeline.cells.computed": len(traced.cells),
        "pipeline.cells.cached": traced.cached,
        "pipeline.cells.failed": 0,
        "phase.init_s": phases["init"],
        "phase.search_s": phases["weedout_phase"],
        "phase.train_s": phases["training_phase"],
        "phase.eval_s": phases["evaluation"],
        "cli.startup_s": untraced.sweep.startup_s,
        "cli.load_config.s": get(sweep, "cli.load_config"),
        "cli.build_experiment.s": get(sweep, "cli.build_experiment"),
        "cli.report.s": get(reread, "cli.report"),
        "trace.spans": sum(len(s) for s in loaded.values()),
        "trace.overhead_s": overhead,
        "trace.overhead_ratio": overhead / done_s(untraced.sweep),
        "trace.absent_targets": len(absent),
    }


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"blas_threads": int(BLAS_THREADS), "parallel": int(PARALLEL),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas}


def measure(wl, seed: int, seconds: float, trace: bool, work: Path,
            deadline: float) -> tuple[dict, int]:
    """Iterate for about ``seconds``; the medians over rounds (peak RSS: max).

    Only the first round (and every traced round with its untraced twin)
    makes the cached re-run and the report; later untraced rounds are sweeps.
    """
    from workloads import sweep_config

    config_path = work / "config.json"
    config_path.write_text(json.dumps(sweep_config(wl, seed, work), indent=2))
    samples: dict[str, list[float]] = {}
    notes: set[str] = set()
    first_digest = None
    attempted = 0
    rounds = 0
    # untraced sweeps' (wall time, steal), printed for reference
    raw: list[tuple[float, float]] = []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        plan = [False, True] if trace else [False]
        done = []
        for traced in plan:
            out_dir = work / f"out{rounds}{'t' if traced else ''}"
            it = iterate(wl, config_path, out_dir, work, traced,
                         reread=trace or rounds == 0, deadline=deadline)
            attempted += wl.cells
            if first_digest is None:
                first_digest = it.digest
                checked = check_masks(it.cells, wl.architecture, wl.input_shape, seed)
                print(f"mask equivalence: {checked} cells within 1e-9")
            elif it.digest != first_digest:
                raise CheckFailed(f"sweep outputs differ between repeats: "
                                  f"{it.digest} != {first_digest}")
            shutil.rmtree(out_dir)
            done.append(it)
        values = per_layer(done[0], done[1], work) if trace else end_to_end(wl, done[0])
        for inv in (done[-1].sweep, done[-1].rerun, done[-1].report) if trace else ():
            notes.update(f"trace target absent: {t}" for t in inv.info["absent"])
            notes.update(f"trace work count failed {n} times: {name}"
                         for name, n in inv.info["work_errors"].items())
        for name, value in values.items():
            samples.setdefault(name, []).extend(value if isinstance(value, list) else [value])
        raw.append((done[0].sweep.wall_s, done[0].sweep.steal_s))
        rounds += 1
        now = time.monotonic()
        # the first round carries the re-read and the mask check; a later
        # round costs about what the last one did. Start another while at
        # least half of one fits, so a run ends within half a round of
        # ``seconds`` and measures ``seconds`` on average.
        if now - start + (now - round_start) / 2 > seconds:
            break
    for note in sorted(notes):
        print(note)
    print(f"digest: sha256:{first_digest}")
    print(f"rounds: {rounds}  wall: {time.monotonic() - start:.1f} s  "
          f"cells per sweep: {wl.cells}")
    for name in ("sweep_s", "setup_s", "train_examples_per_s", "reread_s",
                 "trace.overhead_s"):
        if name in samples:
            print(f"{name} samples: {' '.join(f'{v:.4g}' for v in samples[name])}")
    print(f"sweep wall/steal samples: {' '.join(f'{w:.3f}/{s:.2f}' for w, s in raw)}")
    # peak RSS is the peak over the run; the fitness threads' buffers overlap
    # in some sweeps and not in others, so a median would flip between them
    return {name: max(v) if name == "peak_rss_mb" else statistics.median(v)
            for name, v in samples.items()}, attempted


def run_workload(wl, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload and print its metrics; the JSON line comes last."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    print(f"workload: {wl.name} -- {wl.why}")
    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-{seed}-", dir=WORK_ROOT))
    try:
        metrics, attempted = measure(wl, seed, seconds, trace, work, deadline)
    except CheckFailed as exc:
        print(f"bench: {wl.name}: correctness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    table = PER_LAYER if trace else END_TO_END
    for name, (unit, _better) in table.items():
        print(f"{name:<36} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": 0,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _better) in table.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "weedout" / "__init__.py").is_file() or \
            not (ROOT / "pyproject.toml").is_file():
        print(f"bench: no weedout source tree under {ROOT}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS  # before numpy loads in this process
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports numpy

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("bench: --seed must be non-negative", file=sys.stderr)
        return 2
    codes = [run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
             for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
