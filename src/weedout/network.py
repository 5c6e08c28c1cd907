"""The overparameterized parent network: layer stack, passes, SGD.

A network is a flat list of :class:`LayerSpec` plus per-layer parameter
tensors. Every parameterized layer but the last, the logits, is maskable.
No pass takes a mask: ``masked_network`` is the one place a mask meets the
parameters. It multiplies each weight by its binary weight mask
(unstructured mode), or zeroes a deactivated node's incoming weights and
bias (structured mode), so a dead node outputs zero. Backpropagation is
hand-written per layer kind.

A convolution runs as im2col GEMMs: the input's windows, unrolled in the
weight's (kh, kw, c_in) order, multiply the flattened weight, one
cache-sized block of examples at a time. A large dense GEMM runs as row
chunks, or as column chunks when it has few rows, and a large element-wise
pass (relu and its gradient, the SGD update with its gradient mask) as flat
pieces. The backward pass skips the gradient with respect to the first
parameterized layer's input, which nothing reads.

Blocks, chunks and pieces depend only on array shapes, and each writes its
own part of the result; per-block weight gradients are summed in block order.
A cell with two or more threads scores its search candidates on a
:class:`KernelPool`, and training and evaluation pass one to the kernels,
which run their pieces on it in contiguous runs. The threads only choose
who computes a piece, so at a fixed BLAS thread count every result is the
same bytes for any pool size, ``None`` (one thread) included.

Search fitness and training both run ``sparsity.sub_network(net, mask)``:
the smaller network ``sparsity.reduce_network`` builds for a structured
mask, or a copy with an unstructured mask multiplied into its weights. That
copy's layers carry their masks (``LayerParams.weight_mask``), and
``sgd_step`` masks only those layers' updates.
``mean_loss`` and ``evaluate`` forward in tile-aligned row blocks sized from
the network they run (``_blocked_logits``, ``activation_block_rows``) and
take one loss over the joined logits. Those logits are the bytes of one pass
only on one BLAS thread: a multi-threaded BLAS splits a GEMM's rows among
its threads by the GEMM's size (see _ROW_ALIGN).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import MaskMismatchError, ShapeMismatchError, SpecValidationError
from .numerics import RngStream, Tensor, he_normal, softmax_cross_entropy

if TYPE_CHECKING:
    from .sparsity import MaskSet

PARAM_KINDS = ("dense", "conv2d")
LAYER_KINDS = PARAM_KINDS + ("relu", "flatten")


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the stack.

    ``width`` is the output feature count: units for dense layers, output
    channels for conv2d. Every parameterized layer but the last is maskable:
    its output nodes may be deactivated. The last layer is the dense logits
    layer, which is never masked.
    """

    kind: str
    width: int | None = None
    kernel_size: int | None = None
    stride: int = 1


def dense(width: int) -> LayerSpec:
    return LayerSpec("dense", width=width)


def conv2d(channels: int, kernel_size: int, stride: int = 1) -> LayerSpec:
    return LayerSpec("conv2d", width=channels, kernel_size=kernel_size, stride=stride)


def relu_layer() -> LayerSpec:
    return LayerSpec("relu")


def flatten_layer() -> LayerSpec:
    return LayerSpec("flatten")


def default_conv_spec(num_classes: int = 10) -> list[LayerSpec]:
    """Desk-scale conv architecture: two conv blocks then two dense layers."""
    return [
        conv2d(16, 3), relu_layer(),
        conv2d(32, 3), relu_layer(),
        flatten_layer(),
        dense(128), relu_layer(),
        dense(num_classes),
    ]


def default_dense_spec(num_classes: int = 10, hidden: tuple[int, ...] = (64, 32)) -> list[LayerSpec]:
    """Desk-scale dense architecture for vector inputs."""
    spec: list[LayerSpec] = []
    for width in hidden:
        spec.append(dense(width))
        spec.append(relu_layer())
    spec.append(dense(num_classes))
    return spec


def layer_output_shapes(spec: list[LayerSpec], input_shape) -> list[tuple[int, ...]]:
    """Shape after each layer, validating the stack along the way."""
    spec = list(spec)
    if not spec:
        raise SpecValidationError("layer stack is empty")
    shape = tuple(int(s) for s in input_shape)
    if not shape or any(s < 1 for s in shape):
        raise SpecValidationError(f"invalid input shape {shape}")
    shapes: list[tuple[int, ...]] = []
    for i, layer in enumerate(spec):
        where = f"layer {i} ({layer.kind})"
        if layer.kind == "conv2d":
            if len(shape) != 3:
                raise SpecValidationError(f"{where}: expects [H, W, C] input, got {shape}")
            if layer.width is None or layer.width < 1:
                raise SpecValidationError(f"{where}: channel count must be positive")
            k, s = layer.kernel_size, layer.stride
            if k is None or k < 1 or s < 1:
                raise SpecValidationError(f"{where}: bad kernel/stride ({k}, {s})")
            h, w, _ = shape
            if h < k or w < k:
                raise SpecValidationError(f"{where}: kernel {k} exceeds input {h}x{w}")
            shape = ((h - k) // s + 1, (w - k) // s + 1, layer.width)
        elif layer.kind == "dense":
            if len(shape) != 1:
                raise SpecValidationError(
                    f"{where}: expects flat input, got {shape} (missing flatten?)")
            if layer.width is None or layer.width < 1:
                raise SpecValidationError(f"{where}: width must be positive")
            shape = (layer.width,)
        elif layer.kind == "relu":
            pass
        elif layer.kind == "flatten":
            shape = (math.prod(shape),)
        else:
            raise SpecValidationError(f"{where}: unknown layer kind {layer.kind!r}")
        shapes.append(shape)
    if spec[-1].kind != "dense":
        raise SpecValidationError("final layer must be a dense logits layer")
    return shapes


def maskable_indices(spec: list[LayerSpec]) -> list[int]:
    """Spec indices of the parameterized layers before the last (the logits)."""
    return [i for i, layer in enumerate(spec[:-1]) if layer.kind in PARAM_KINDS]


def weight_shapes(spec: list[LayerSpec], input_shape) -> dict[int, tuple[int, ...]]:
    """Weight shape of each parameterized layer, by spec index: ``(fan_in,
    width)`` or ``(k, k, c_in, channels)``. The stack is validated on the way."""
    shapes = layer_output_shapes(spec, input_shape)
    prev = tuple(int(s) for s in input_shape)
    out: dict[int, tuple[int, ...]] = {}
    for i, layer in enumerate(spec):
        if layer.kind == "dense":
            out[i] = (prev[0], layer.width)
        elif layer.kind == "conv2d":
            out[i] = (layer.kernel_size, layer.kernel_size, prev[2], layer.width)
        prev = shapes[i]
    return out


@dataclass
class LayerParams:
    weight: Tensor
    bias: Tensor
    weight_mask: Tensor | None = None  # weights training holds at zero; never written

    def copy(self) -> "LayerParams":
        return LayerParams(self.weight.copy(), self.bias.copy(), self.weight_mask)


Gradients = list  # list[LayerParams | None], congruent with Network.params


@dataclass
class Network:
    """Layer stack with materialized parameters.

    Before any training, ``init_network(spec, input_shape, seed)`` with the
    seed that built it reconstructs ``params`` bit-exactly.
    """

    spec: list[LayerSpec]
    input_shape: tuple[int, ...]
    params: list[LayerParams | None]

    def copy(self) -> "Network":
        params = [p.copy() if p is not None else None for p in self.params]
        return Network(list(self.spec), tuple(self.input_shape), params)


def init_network(spec: list[LayerSpec], input_shape, seed: int) -> Network:
    """Materialize a network: He-normal weights, zero biases."""
    spec = list(spec)
    shapes = weight_shapes(spec, input_shape)
    rng = RngStream(seed).split("init")
    params: list[LayerParams | None] = [None] * len(spec)
    for i, shape in shapes.items():
        w = he_normal(math.prod(shape[:-1]), shape, rng.split(f"layer{i}"))
        params[i] = LayerParams(w, np.zeros(shape[-1]))
    return Network(spec, tuple(int(s) for s in input_shape), params)


def _check_mask(net: Network, mask: "MaskSet | None") -> None:
    """Check that ``mask`` has one array per maskable layer of ``net``, each a
    node vector or weight-shaped as its mode needs; entries were checked when built."""
    if mask is None:
        return
    maskable = maskable_indices(net.spec)
    if sorted(mask.masks) != maskable:
        raise MaskMismatchError(
            f"mask covers layers {sorted(mask.masks)} but maskable layers are {maskable}")
    for i, m in mask.masks.items():
        expected = (net.spec[i].width,) if mask.mode == "structured" \
            else net.params[i].weight.shape
        if m.shape != expected:
            raise MaskMismatchError(
                f"{mask.mode} mask for layer {i} has shape {m.shape}, expected {expected}")


def masked_network(net: Network, mask: "MaskSet | None") -> Network:
    """A copy of ``net`` with ``mask`` applied to its parameters, sharing no
    array with it, or ``net`` itself for no mask: each weight times its weight
    mask, which the layer keeps as ``weight_mask`` (unstructured), or a dead
    node's incoming weights and bias zeroed (structured, the node vector
    broadcast over the weight's last axis)."""
    if mask is None:
        return net
    _check_mask(net, mask)
    structured = mask.mode == "structured"
    params = [p if p is None else p.copy() if (m := mask.masks.get(i)) is None
              else LayerParams(p.weight * m, p.bias * m) if structured
              else LayerParams(p.weight * m, p.bias.copy(), m)
              for i, p in enumerate(net.params)]
    return Network(net.spec, net.input_shape, params)


class KernelPool:
    """Threads on which one cell scores candidates and runs kernel pieces.

    ``run`` splits a job's pieces into ``threads`` contiguous runs; the
    calling thread takes the first run and ``threads - 1`` pool threads the
    others. A pool is owned by one cell and never submits work to itself.
    """

    def __init__(self, threads: int):
        self.threads = threads
        self._executor = ThreadPoolExecutor(threads - 1, thread_name_prefix="weedout-kernel")

    def __enter__(self) -> "KernelPool":
        return self

    def __exit__(self, *exc) -> None:
        self._executor.shutdown()

    def run(self, piece, count: int) -> None:
        """Call ``piece(k)`` once for every k in ``range(count)``."""
        runs = min(self.threads, count)
        bounds = [r * count // runs for r in range(runs + 1)]

        def run_span(first: int, stop: int) -> None:
            for k in range(first, stop):
                piece(k)

        futures = [self._executor.submit(run_span, bounds[r], bounds[r + 1])
                   for r in range(1, runs)]
        try:
            run_span(bounds[0], bounds[1])
        finally:
            wait(futures)  # no piece may outlive the call that owns its output
        for future in futures:
            future.result()


def kernel_pool(threads: int):
    """A context giving a :class:`KernelPool` of ``threads``, or None for one."""
    return KernelPool(threads) if threads >= 2 else nullcontext()


def run_pieces(pool: KernelPool | None, piece, count: int) -> None:
    """Call ``piece(k)`` for every k in ``range(count)``, on ``pool`` if any."""
    if pool is None or count < 2:
        for k in range(count):
            piece(k)
    else:
        pool.run(piece, count)


# A dense GEMM is cut by its shapes alone: one of more than _CHUNK_ROWS rows
# into multiples of that many rows holding at least _CHUNK_MACS multiply-adds,
# a shorter one into multiples of _CHUNK_COLS columns holding _COL_CHUNK_MACS;
# one smaller than two chunks stays one call. Each chunk repacks the operand it
# does not cut, which costs one thread time (OpenBLAS 0.3.31, 2-vCPU Xeon):
# ``h @ w`` with the 25088x128 weight took 16-24% longer in 64-row chunks and
# 2% in 256-row ones, ``dh @ w.T`` 15% longer in 512-column chunks. So at batch
# 128 a conv net's ``h @ w`` runs as two 64-column chunks, ``dh @ w.T`` as
# 2048-column and ``h_in.T @ dh`` as 512-row chunks; desk GEMMs stay one call.
_CHUNK_ROWS = 256
_CHUNK_COLS = 64
_CHUNK_MACS = 1 << 23
_COL_CHUNK_MACS = 1 << 25


def _gemm(a: Tensor, b: Tensor, pool: KernelPool | None = None) -> Tensor:
    """``a @ b``, computed as row or column chunks chosen from the shapes alone."""
    m, k = a.shape
    n = b.shape[1]
    if m * k * n <= _CHUNK_MACS:  # less than one chunk of either kind
        return a @ b
    by_rows = m > _CHUNK_ROWS
    unit, length, other, macs = ((_CHUNK_ROWS, m, n, _CHUNK_MACS) if by_rows
                                 else (_CHUNK_COLS, n, m, _COL_CHUNK_MACS))
    step = unit * -(-macs // (unit * k * other))
    if step >= length:
        return a @ b
    out = np.empty((m, n))

    def chunk(c: int) -> None:
        s = slice(c * step, (c + 1) * step)
        if by_rows:
            np.matmul(a[s], b, out=out[s])
        else:
            np.matmul(a, b[:, s], out=out[:, s])

    run_pieces(pool, chunk, -(-length // step))
    return out


# An element-wise pass of _MIN_PIECES or more flat _PIECE_SIZE pieces (2 MB of
# float64) runs them on a pool; each element's bytes are the same however the
# array is cut. A 2-piece 7488x51 momentum update gained 2.01 -> 1.96 ms on two
# threads and doubled its spread; a 4-piece one went 7.3 -> 5.3 ms (2 vCPUs).
_PIECE_SIZE = 1 << 18
_MIN_PIECES = 4


def _elementwise(pool: KernelPool | None, op, *arrays: Tensor, out: Tensor | None = None):
    """``op(*arrays, out=out)`` for an element-wise ``op`` (which may also update
    its inputs) over arrays of one shape: with a pool, _MIN_PIECES or more pieces
    and C-contiguous arrays, piece by piece on flat views; else one plain call."""
    if pool is None or arrays[0].size < _MIN_PIECES * _PIECE_SIZE or not all(
            x.flags.c_contiguous for x in arrays + (out,) if x is not None):
        return op(*arrays, out=out)
    out = np.empty_like(arrays[0]) if out is None else out
    flat = [x.reshape(-1) for x in (*arrays, out)]

    def piece(k: int) -> None:
        s = slice(k * _PIECE_SIZE, (k + 1) * _PIECE_SIZE)
        op(*(x[s] for x in flat[:-1]), out=flat[-1][s])

    run_pieces(pool, piece, -(-out.size // _PIECE_SIZE))
    return out


def _relu(h: Tensor, out: Tensor | None = None) -> Tensor:
    return np.maximum(h, 0.0, out=out)


def _relu_grad(dh: Tensor, h_in: Tensor, out: Tensor | None = None) -> Tensor:
    return np.multiply(dh, h_in > 0.0, out=out)


# A convolution runs as im2col GEMMs over blocks of examples; each block's
# patch matrix holds at most this many bytes. A cache-sized block is faster
# than one GEMM over the whole batch, and memory does not grow with the batch.
_BLOCK_BYTES = 2 << 20


def _patch_blocks(x: Tensor, kh: int, kw: int, stride: int) -> list:
    """One function per block of examples, returning ``(examples, patches)``.

    ``patches`` has one row per output position of the block, holding that
    position's window in the weight's (kh, kw, c_in) order. It is built only
    when its block's function is called, so no two blocks need exist at once.
    """
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    windows = windows.transpose(0, 1, 2, 4, 5, 3)
    step = max(1, _BLOCK_BYTES // (int(np.prod(windows.shape[1:])) * x.itemsize))

    def block(start: int):
        examples = slice(start, start + step)
        return examples, windows[examples].reshape(-1, kh * kw * x.shape[3])

    return [partial(block, start) for start in range(0, x.shape[0], step)]


def _conv_forward(x: Tensor, w: Tensor, b: Tensor, stride: int,
                  pool: KernelPool | None = None) -> Tensor:
    n, h, wd, _ = x.shape
    kh, kw, _, c_out = w.shape
    oh = (h - kh) // stride + 1
    ow = (wd - kw) // stride + 1
    out = np.empty((n, oh, ow, c_out))
    w_mat = w.reshape(-1, c_out)
    blocks = _patch_blocks(x, kh, kw, stride)

    def forward_block(k: int) -> None:
        examples, patches = blocks[k]()
        out_block = out[examples]
        np.matmul(patches, w_mat, out=out_block.reshape(-1, c_out))
        out_block += b

    run_pieces(pool, forward_block, len(blocks))
    return out


def _conv_backward(x: Tensor, w: Tensor, stride: int, dout: Tensor,
                   input_grad: bool = True, pool: KernelPool | None = None):
    """``(dw, db, dx)`` of a convolution; ``dx`` is None unless ``input_grad``."""
    kh, kw, c_in, c_out = w.shape
    oh, ow = dout.shape[1], dout.shape[2]
    dx = np.zeros_like(x) if input_grad else None
    blocks = _patch_blocks(x, kh, kw, stride)
    dw = np.zeros((kh * kw * c_in, c_out))
    # blocks keep their own dw, added in block order for the same bytes on any
    # thread; dw is made first, as made last it raised a conv cell's peak RSS 7%
    dw_blocks: list[Tensor | None] = [None] * len(blocks)

    def backward_block(k: int) -> None:
        examples, patches = blocks[k]()
        dflat = dout[examples].reshape(-1, c_out)
        dw_blocks[k] = patches.T @ dflat
        if dx is None:
            return
        dx_block = dx[examples]
        for a in range(kh):
            for bb in range(kw):
                dx_block[:, a:a + stride * oh:stride, bb:bb + stride * ow:stride, :] += \
                    (dflat @ w[a, bb].T).reshape(len(dx_block), oh, ow, c_in)

    run_pieces(pool, backward_block, len(blocks))
    for dw_block in dw_blocks:
        dw += dw_block
    db = dout.sum(axis=(0, 1, 2))
    return dw.reshape(w.shape), db, dx


def _forward_pass(net: Network, mask, x: Tensor, keep_inputs: bool,
                  pool: KernelPool | None = None):
    """Run ``masked_network(net, mask)``; optionally keep each layer's input
    for backprop. Returns the logits and the kept inputs; ``pool`` runs the
    kernels' pieces. ``bench/trace_layers.py`` counts multiply-adds from the
    ``net``, ``mask`` and ``x`` of this call, so they stay positional.

    A relu after a parameterized layer overwrites its input, which no longer
    shares memory with ``x``; its kept input then holds its output, as its
    gradient reads only ``h > 0``.
    """
    net = masked_network(net, mask)
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1:] != net.input_shape:
        raise ShapeMismatchError(
            f"batch shape {x.shape[1:]} does not match input shape {net.input_shape}")
    inputs: list[Tensor | None] = []
    h, h_is_ours = x, False
    for i, layer in enumerate(net.spec):
        inputs.append(h if keep_inputs else None)
        if layer.kind in PARAM_KINDS:
            p = net.params[i]
            if layer.kind == "dense":
                h = _gemm(h, p.weight, pool)
                h += p.bias
            else:
                h = _conv_forward(h, p.weight, p.bias, layer.stride, pool)
            h_is_ours = True
        elif layer.kind == "relu":
            h = _elementwise(pool, _relu, h, out=h if h_is_ours else None)
        elif layer.kind == "flatten":
            h = h.reshape(h.shape[0], -1)
    return h, inputs


def forward(net: Network, mask: "MaskSet | None", batch: Tensor) -> Tensor:
    """Logits of ``masked_network(net, mask)`` on a batch, in blocks of
    _ROW_ALIGN rows, so the masked weights it copies do not add to a whole
    batch's activations (18.9 and 17 MB on a 28x28 conv parent at 64 rows)."""
    return _blocked_logits(masked_network(net, mask), lambda a, b: batch[a:b],
                           len(batch), _ROW_ALIGN)


def _forward_backward(net: Network, x: Tensor, labels, pool: KernelPool | None = None):
    logits, inputs = _forward_pass(net, None, x, True, pool)
    loss, dh = softmax_cross_entropy(logits, labels)
    grads: Gradients = [None] * len(net.spec)
    # Nothing reads the gradient with respect to the first parameterized
    # layer's input, so it is not computed. A dense layer's weight gradient
    # is taken last, when the larger gradients below it are freed.
    first = 0
    while net.params[first] is None:
        first += 1
    dense_douts = []
    for i in range(len(net.spec) - 1, first - 1, -1):
        layer = net.spec[i]
        if layer.kind == "dense":
            dense_douts.append((i, dh))
            dh = _gemm(dh, net.params[i].weight.T, pool) if i > first else None
        elif layer.kind == "conv2d":
            dw, db, dh = _conv_backward(inputs[i], net.params[i].weight, layer.stride, dh,
                                        i > first, pool)
            grads[i] = LayerParams(dw, db)
        elif layer.kind == "relu":
            dh = _elementwise(pool, _relu_grad, dh, inputs[i], out=dh)
        elif layer.kind == "flatten":
            dh = dh.reshape(inputs[i].shape)
    for i, dout in dense_douts:
        grads[i] = LayerParams(_gemm(inputs[i].T, dout, pool), dout.sum(axis=0))
    return loss, grads, logits


def loss_and_grads(net: Network, batch: Tensor, labels):
    """Mean cross-entropy plus exact backprop gradients."""
    loss, grads, _ = _forward_backward(net, batch, labels)
    return loss, grads


# A BLAS GEMM computes a row by the kernel of the tile holding it, so row
# blocks keep a whole-batch pass's bits only when they start on tile bounds:
# 51-row blocks moved logits by an ulp where 48-row ones did not (OpenBLAS
# 0.3.31 on one thread, AVX-512), and 1- or 2-row GEMMs take other kernels,
# as does a block under the small-matrix limit (about 1e6 multiply-adds)
# when its whole batch is over it. A multi-threaded BLAS also splits a
# GEMM's rows among its threads by size, so there a block's last bits can
# differ from one pass's.
_ROW_ALIGN = 16


def activation_block_rows(net: Network) -> int:
    """Rows per forward block: as many as fill _BLOCK_BYTES or match ``net``'s
    largest weight in its widest activation, whichever is more, rounded down
    to a multiple of _ROW_ALIGN. A block much smaller than the weight re-reads
    it per block for little saving: 10-row blocks scored a CIFAR-shaped
    unstructured search 20% slower than 128."""
    widest = max(math.prod(s) for s in layer_output_shapes(net.spec, net.input_shape))
    largest = max(p.weight.size for p in net.params if p is not None)
    rows = max(_BLOCK_BYTES // (widest * 8), largest // widest)
    return max(_ROW_ALIGN, rows - rows % _ROW_ALIGN)


def _blocked_logits(net: Network, rows, n: int, block_rows: int | None = None,
                    pool: KernelPool | None = None) -> Tensor:
    """Logits of ``n`` examples, ``rows(a, b)`` giving the inputs of rows a to
    b, forwarded in blocks of ``block_rows`` (default:
    ``activation_block_rows(net)``) rounded down to a multiple of _ROW_ALIGN,
    at least _ROW_ALIGN; a last block of fewer than _ROW_ALIGN rows joins the
    block before it. With one BLAS thread, the logits keep the bits of one pass."""
    block_rows = block_rows or activation_block_rows(net)
    step = max(_ROW_ALIGN, block_rows - block_rows % _ROW_ALIGN)
    starts = range(0, max(n - _ROW_ALIGN, 0) + 1, step)
    logits = [_forward_pass(net, None, rows(a, b), False, pool)[0]
              for a, b in zip(starts, [*starts[1:], n])]
    return logits[0] if len(logits) == 1 else np.concatenate(logits)


def mean_loss(net: Network, batch: Tensor, labels) -> float:
    """Forward-only mean cross-entropy (no gradient work), the forward on
    ``_blocked_logits``'s blocks."""
    logits = _blocked_logits(net, lambda a, b: batch[a:b], len(batch))
    loss, _ = softmax_cross_entropy(logits, labels, with_grad=False)
    return loss


class EvalResult(NamedTuple):
    accuracy: float
    mean_loss: float


def evaluate(net: Network, dataset, batch_size: int = 512,
             pool: KernelPool | None = None) -> EvalResult:
    """Accuracy and mean loss over a dataset; deterministic, in dataset order.

    The loss is taken over chunks of ``batch_size`` examples, the forward on
    ``_blocked_logits``'s blocks of them, which bounds the activations held at
    once. ``pool`` runs the kernels' pieces; the result does not depend on it.
    """
    n = len(dataset.labels)
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    correct = 0
    loss_sum = 0.0
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        logits = _blocked_logits(
            net, lambda a, b: dataset.take(slice(start + a, start + b))[0],
            stop - start, pool=pool)
        y = dataset.labels[start:stop]
        loss, _ = softmax_cross_entropy(logits, y, with_grad=False)
        loss_sum += loss * len(y)
        correct += int((logits.argmax(axis=1) == y).sum())
    return EvalResult(accuracy=correct / n, mean_loss=loss_sum / n)


@dataclass
class SgdState:
    """Per-parameter velocity buffers for momentum SGD."""

    velocities: list[LayerParams | None] = field(default_factory=list)

    @classmethod
    def zeros(cls, net: Network) -> "SgdState":
        vel = [LayerParams(np.zeros_like(p.weight), np.zeros_like(p.bias))
               if p is not None else None for p in net.params]
        return cls(vel)


def sgd_step(net: Network, grads: Gradients, lr: float, momentum: float,
             state: SgdState, pool: KernelPool | None = None) -> Network:
    """One momentum-SGD update, in place on an exclusively-owned network.

    velocity <- momentum * velocity + grads; params <- params - lr * velocity.
    A layer's ``weight_mask`` zeroes its gradient's masked entries in place
    first, so a weight already masked to zero keeps its signed zero.
    ``pool`` runs large weights' updates in pieces, to the same bytes.
    """
    if not lr > 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if not 0 <= momentum < 1:
        raise ValueError(f"momentum must lie in [0, 1), got {momentum}")

    def update(p: Tensor, g: Tensor, out: Tensor) -> None:  # out: the velocity
        out *= momentum
        out += g
        p -= lr * out

    def masked_update(p: Tensor, g: Tensor, m: Tensor, out: Tensor) -> None:
        g *= m
        update(p, g, out)

    for p, g, v in zip(net.params, grads, state.velocities):
        if p is None:
            continue
        if g is None or v is None:
            raise ValueError("gradients/state are not congruent with the network")
        if g.weight.shape != p.weight.shape or g.bias.shape != p.bias.shape:
            raise ValueError("gradient shapes are not congruent with the network")
        if p.weight_mask is not None:
            _elementwise(pool, masked_update, p.weight, g.weight, p.weight_mask,
                         out=v.weight)
        else:
            _elementwise(pool, update, p.weight, g.weight, out=v.weight)
        update(p.bias, g.bias, out=v.bias)
    return net


def parent_checksum(net: Network) -> str:
    """Order-stable SHA-256 over all parameter bytes."""
    import hashlib

    h = hashlib.sha256()
    # Hashing the arrays gives the same digest without the copies, but freeing
    # a large copy raises glibc's mmap threshold, so later temporaries reuse heap
    # pages: without it the bench's conv_search_mnist cell (2-vCPU Xeon) made
    # 4x the page faults and took 14% more CPU time.
    for p in net.params:
        if p is not None:
            h.update(np.ascontiguousarray(p.weight).tobytes())
            h.update(np.ascontiguousarray(p.bias).tobytes())
    return h.hexdigest()
