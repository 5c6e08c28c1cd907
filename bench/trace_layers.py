"""Spans at the package's layer boundaries, recorded from outside the package.

``Tracer.install`` looks up each target in ``TARGETS`` by module and name,
and rebinds every reference to it inside the loaded ``weedout`` modules to a
wrapper that records one span per call. Nothing under ``src/`` changes. A
target that no longer exists is reported in ``Tracer.absent`` and skipped.

A span is ``[id, parent, name, start, end, thread, thread_cpu_s, work]``.
``parent`` is the innermost open span on the same thread; a span opened on a
pool thread with nothing open is parented to the innermost open span of the
installing thread, which is blocked waiting for the pool. ``work`` is an
exact count computed from argument shapes (flops, multiply-adds, bytes).

``summarize`` turns spans into per-layer sums: calls, wall time, thread CPU
time, self time (wall time minus the part covered by child spans) and work.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import pkgutil
import threading
import time

PACKAGE = "weedout"

# layer metric -> wrapped callables, as "module:qualified.name"
TARGETS = {
    "data.load": ("data:load_idx", "data:load_cifar10_binary", "data:synthetic_blobs"),
    "data.batches": ("data:batches",),
    "data.sample_batch": ("data:sample_batch",),
    "numerics.rng_streams": ("numerics:RngStream.__init__",),
    "numerics.softmax_xent": ("numerics:softmax_cross_entropy",),
    "network.forward_pass": ("network:_forward_pass",),
    "network.conv_forward": ("network:_conv_forward",),
    "network.conv_backward": ("network:_conv_backward",),
    "network.fwd_bwd": ("network:_forward_backward",),
    "network.sgd_step": ("network:sgd_step",),
    "network.evaluate": ("network:evaluate",),
    "network.check_mask": ("network:_check_mask",),
    "sparsity.sample_mask": ("sparsity:sample_mask",),
    "sparsity.reduce_network": ("sparsity:reduce_network",),
    "search.run": ("search:run_search",),
    "search.fitness": ("search:fitness",),
    "pipeline.cell": ("pipeline:run_cell",),
    "pipeline.init": ("pipeline:_parent_for",),
    "pipeline.train": ("pipeline:_train",),
    "pipeline.persist": ("pipeline:write_run_record", "pipeline:write_failure"),
    "pipeline.resume_check": ("pipeline:is_completed",),
    "pipeline.load_record": ("pipeline:read_run_record",),
    "cli.load_config": ("cli:load_config",),
    "cli.build_experiment": ("cli:build_experiment",),
    "cli.report": ("cli:cmd_report",),
}


# ---------------------------------------------------------------------------
# Work counts, computed from shapes
# ---------------------------------------------------------------------------

def _conv_macs(x, w, stride) -> int:
    n, h, wd, c_in = x.shape
    kh, kw, _, c_out = w.shape
    oh = (h - kh) // stride + 1
    ow = (wd - kw) // stride + 1
    return n * oh * ow * kh * kw * c_in * c_out


def conv_forward_flops(args, kwargs, result) -> int:
    x, w, _b, stride = args[:4]
    return 2 * _conv_macs(x, w, stride)


def conv_backward_flops(args, kwargs, result) -> int:
    x, w, stride = args[:3]
    return 4 * _conv_macs(x, w, stride)  # dw and dx each cost one forward


def forward_macs(args, kwargs, result) -> list[int]:
    """[useful, computed] multiply-adds of one forward pass.

    Computed counts every weight the pass multiplies. Useful counts only
    weights joining an active input to an active output node (structured
    masks) or weights left on (unstructured masks).
    """
    net, mask, x = args[:3]
    n = len(x)
    masks = getattr(mask, "masks", None) or {}
    structured = mask is not None and mask.mode == "structured"
    shape = tuple(net.input_shape)
    active_in = shape[-1]  # active channels (image) or features (vector)
    useful = computed = 0
    for i, layer in enumerate(net.spec):
        if layer.kind == "conv2d":
            w = net.params[i].weight
            k, c_in, c_out = w.shape[0], w.shape[2], w.shape[3]
            h = (shape[0] - k) // layer.stride + 1
            wd = (shape[1] - k) // layer.stride + 1
            positions = n * h * wd
            computed += positions * k * k * c_in * c_out
            active_out = c_out
            if i in masks and structured:
                active_out = int(masks[i].sum())
            if i in masks and not structured:
                useful += positions * int((masks[i] != 0).sum())
            else:
                useful += positions * k * k * active_in * active_out
            shape, active_in = (h, wd, c_out), active_out
        elif layer.kind == "flatten":
            active_in = active_in * shape[0] * shape[1]
            shape = (shape[0] * shape[1] * shape[2],)
        elif layer.kind == "dense":
            w = net.params[i].weight
            computed += n * w.size
            active_out = w.shape[1]
            if i in masks and structured:
                active_out = int(masks[i].sum())
            if i in masks and not structured:
                useful += n * int((masks[i] != 0).sum())
            else:
                useful += n * active_in * active_out
            shape, active_in = (w.shape[1],), active_out
    return [useful, computed]


def split_bytes(args, kwargs, result) -> int:
    """Bytes held by the train/validation/test arrays after set-up."""
    total = 0
    for part in result:
        for name in ("train", "validation", "test"):
            ds = getattr(part, name, None)
            if ds is not None:
                total += ds.inputs.nbytes + ds.labels.nbytes
    return total


WORK = {
    "network.conv_forward": conv_forward_flops,
    "network.conv_backward": conv_backward_flops,
    "network.forward_pass": forward_macs,
    "cli.build_experiment": split_bytes,
}


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------

class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.work_errors: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent, time.perf_counter(), time.thread_time()

    def _close(self, name, opened, work_fn, args, kwargs, result, ok):
        t1, c1 = time.perf_counter(), time.thread_time()
        stack, sid, parent, t0, c0 = opened
        stack.pop()
        work = None
        if ok and work_fn is not None:
            try:
                work = work_fn(args, kwargs, result)
            except Exception:  # a refactored signature must not break the run
                self.work_errors[name] = self.work_errors.get(name, 0) + 1
        self.spans.append([sid, parent, name, t0, t1, threading.get_ident(),
                           c1 - c0, work])

    def wrap(self, name: str, fn):
        work_fn = WORK.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    opened = tracer._open()
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(name, opened, None, args, kwargs, None, False)
                        return
                    tracer._close(name, opened, None, args, kwargs, None, True)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                opened = tracer._open()
                ok, result = False, None
                try:
                    result = fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    tracer._close(name, opened, work_fn, args, kwargs, result, ok)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Import every package module, then rebind each target to its wrapper."""
        package = importlib.import_module(PACKAGE)
        modules = [package]
        for info in pkgutil.iter_modules(package.__path__):
            modules.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
        for name, targets in TARGETS.items():
            for target in targets:
                module_name, _, qualname = target.partition(":")
                owner = _lookup(f"{PACKAGE}.{module_name}", qualname.rpartition(".")[0])
                attr = qualname.rpartition(".")[2]
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None or not callable(fn):
                    self.absent.append(target)
                    continue
                wrapped = self.wrap(name, fn)
                if inspect.isclass(owner):
                    setattr(owner, attr, wrapped)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, wrapped)


def _lookup(module_name: str, path: str):
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def covered(interval, children) -> float:
    """Length of ``interval`` covered by the union of ``children`` intervals."""
    lo, hi = interval
    total, end = 0.0, lo
    for a, b in sorted(children):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _empty() -> dict:
    return {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0, "self_s": 0.0, "work": None,
            "durations": []}


def summarize(spans) -> dict[str, dict]:
    """Per-layer sums: calls, wall_s, cpu_s, self_s, work, durations."""
    children: dict[int, list] = {}
    for sid, parent, _name, t0, t1, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out: dict[str, dict] = {}
    for sid, _parent, name, t0, t1, _tid, cpu, work in spans:
        agg = out.setdefault(name, _empty())
        wall = t1 - t0
        agg["calls"] += 1
        agg["wall_s"] += wall
        agg["cpu_s"] += cpu
        agg["self_s"] += wall - covered((t0, t1), children.get(sid, ()))
        agg["durations"].append(wall)
        if work is not None:
            agg["work"] = _add(agg["work"], work)
    return out


def merge(summaries) -> dict[str, dict]:
    """Sum several processes' summaries layer by layer."""
    out: dict[str, dict] = {}
    for summary in summaries:
        for name, agg in summary.items():
            acc = out.setdefault(name, _empty())
            for key in ("calls", "wall_s", "cpu_s", "self_s"):
                acc[key] += agg[key]
            acc["durations"] += agg["durations"]
            if agg["work"] is not None:
                acc["work"] = _add(acc["work"], agg["work"])
    return out


def _add(a, b):
    if a is None:
        return b
    if isinstance(b, list):
        return [x + y for x, y in zip(a, b)]
    return a + b


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 where the layer did no work."""
    return num / den if den > 0 else 0.0
