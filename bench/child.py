"""Run the ``weedout`` console entry point in this process and report its cost.

Usage::

    python3 bench/child.py REPORT_JSON OUT_DIR [--spans SPANS_JSON] -- ARG...

``ARG...`` is the argument list a user would type after ``weedout``. The entry
point is read from ``[project.scripts]`` in the checkout's ``pyproject.toml``,
so this runs exactly what the installed ``weedout`` command would run.

The set-up mark is taken from outside the program: an audit hook notes the
first write the CLI makes under ``OUT_DIR``. The CLI writes nothing there
until its config is validated and its dataset is loaded and split, so the
mark separates set-up from the first cell without naming any function.

With ``--spans`` the layer boundaries listed in ``trace_layers.py`` are
wrapped and every recorded span is written to ``SPANS_JSON`` when the command
returns. Without it nothing is wrapped.

The report holds the exit code; the monotonic times at which the entry point
was imported, of the set-up mark, and at which the command returned (before
any spans are written); peak RSS at the mark and at exit; user+sys CPU of
this process and any children it waited for, at the mark and at exit; and
the machine's steal time at the mark.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def steal_s() -> float:
    """CPU time the hypervisor has held back from this machine's CPUs, in s.

    The ``steal`` column of the ``cpu`` line of ``/proc/stat``; 0 where the
    file or the column is missing, so that nothing is corrected there.
    """
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _writes(event: str, args) -> bool:
    if event == "os.mkdir":
        return True
    mode, flags = args[1], args[2]
    if isinstance(mode, str):
        return any(ch in mode for ch in "wax+")
    return bool(flags & (os.O_WRONLY | os.O_RDWR))


def mark_setup_end(out_dir: str) -> dict:
    """Install an audit hook that stamps the first write under ``out_dir``."""
    root = os.path.abspath(out_dir)
    mark: dict = {}

    def hook(event, args):
        if mark or event not in ("open", "os.mkdir"):
            return
        path = args[0]
        if not isinstance(path, (str, bytes, os.PathLike)) or not _writes(event, args):
            return
        path = os.path.abspath(os.fsdecode(path))
        if path == root or path.startswith(root + os.sep):
            mark["t"] = time.monotonic()
            mark["rss_mb"] = _rss_mb()
            mark["cpu_s"] = _cpu_s()
            mark["steal_s"] = steal_s()

    sys.addaudithook(hook)
    return mark


def entry_point():
    """The callable behind the ``weedout`` console script."""
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, attr = scripts["weedout"].partition(":")
    return getattr(importlib.import_module(module), attr)


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    report_path, out_dir = opts[0], opts[1]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    mark = mark_setup_end(out_dir)
    tracer = None
    if spans_path:
        from trace_layers import Tracer

        tracer = Tracer()
        tracer.install()
    cli_main = entry_point()
    entry_t = time.monotonic()
    sys.argv = ["weedout", *cli_args]
    try:
        code = cli_main()
    except SystemExit as exc:
        code = exc.code
    done_t = time.monotonic()
    code = 0 if code is None else code if isinstance(code, int) else 1
    sys.stdout.flush()
    report = {"exit": code, "entry_t": entry_t, "setup_t": mark.get("t"), "done_t": done_t,
              "setup_rss_mb": mark.get("rss_mb"), "peak_rss_mb": _rss_mb(),
              "setup_cpu_s": mark.get("cpu_s"), "setup_steal_s": mark.get("steal_s"),
              "cpu_s": _cpu_s()}
    if tracer is not None:
        report["absent"] = tracer.absent
        report["work_errors"] = tracer.work_errors
        Path(spans_path).write_text(json.dumps(tracer.spans))
    Path(report_path).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
