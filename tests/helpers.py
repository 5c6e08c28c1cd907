"""Shared oracles and fixture writers for the test suite.

The gradient oracle differentiates the forward-only loss numerically, so it
never touches the hand-written backward pass it is checking. The selector
helper maps parent-network parameter coordinates onto reduced-network ones
using only the flatten/channel geometry, for comparing the two gradient
paths. The writers produce IDX and CIFAR-10 files for the loaders to read.
"""

import struct

import numpy as np

from weedout.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC
from weedout.network import LayerParams, layer_output_shapes, mean_loss


def write_idx_images(path, images):
    """Write uint8 images [n, rows, cols] as an IDX file."""
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(images.tobytes())


def write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
        f.write(labels.tobytes())


def encode_cifar10_records(inputs, labels):
    """Inverse of the CIFAR-10 decoder; lossless for loader-produced data."""
    pixels = np.rint(np.asarray(inputs) * 255.0).astype(np.uint8)
    planes = pixels.transpose(0, 3, 1, 2).reshape(len(labels), -1)
    records = np.concatenate(
        [np.asarray(labels, dtype=np.uint8)[:, None], planes], axis=1)
    return records.tobytes()


def pre_activation(net, mask, inputs, weights, i):
    """What entered relu ``i``, recomputed from the kept input and returned
    weight of the parameterized layer before it, with the network's own
    kernels: a relu runs in place, so its own kept input holds its output."""
    from weedout.network import _conv_forward, _gemm

    j = i - 1
    if j < 0 or net.spec[j].kind not in ("dense", "conv2d"):
        raise ValueError(f"relu {i} does not follow a parameterized layer")
    layer, bias = net.spec[j], net.params[j].bias
    if layer.kind == "dense":
        h = _gemm(inputs[j], weights[j])
        h += bias
    else:
        h = _conv_forward(inputs[j], weights[j], bias, layer.stride)
    if mask is not None and mask.mode == "structured" and j in mask.masks:
        h = h * mask.masks[j]
    return h


def kink_distance(net, mask, x):
    """Smallest |pre-activation| entering any relu layer, pinned entries aside.

    Central differences are invalid within eps of a relu kink; instances are
    only usable for gradient checking when this distance comfortably exceeds
    the step size. An entry is pinned when a structured node mask zeroes its
    position: it stays exactly zero under any parameter perturbation, so it
    is excluded. Every other exact zero (a unit whose inputs are all dead, a
    column an unstructured mask removes whole) sits on the kink and gives
    distance 0.
    """
    from weedout.network import _forward_pass

    _, inputs, weights = _forward_pass(net, mask, x, keep_inputs=True)
    structured = mask is not None and mask.mode == "structured"
    dist = float("inf")
    free = None  # per entry of the current activation: not pinned by a node mask
    for i, layer in enumerate(net.spec):
        if layer.kind == "relu":
            vals = np.abs(pre_activation(net, mask, inputs, weights, i))
            if free is not None:
                vals = vals[free]
            if vals.size:
                dist = min(dist, float(vals.min()))
        elif layer.kind in ("dense", "conv2d"):
            free = None
            if structured and i in mask.masks:  # never the logits layer
                free = np.broadcast_to(mask.masks[i] != 0.0, inputs[i + 1].shape)
        elif layer.kind == "flatten" and free is not None:
            free = free.reshape(len(x), -1)
    return dist


def numeric_gradients(net, mask, x, y, eps=1e-5):
    """Central finite differences of the mean loss wrt every parameter."""
    grads = []
    for p in net.params:
        if p is None:
            grads.append(None)
            continue
        pair = []
        for arr in (p.weight, p.bias):
            g = np.zeros_like(arr)
            flat = arr.reshape(-1)
            gf = g.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                up = mean_loss(net, mask, x, y)
                flat[j] = orig - eps
                down = mean_loss(net, mask, x, y)
                flat[j] = orig
                gf[j] = (up - down) / (2.0 * eps)
            pair.append(g)
        grads.append(LayerParams(*pair))
    return grads


def max_rel_error(analytic, numeric):
    """Worst per-tensor relative error between two gradient sets."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        if a is None:
            continue
        for ga, gn in ((a.weight, n.weight), (a.bias, n.bias)):
            denom = max(np.abs(ga).max(), np.abs(gn).max(), 1e-8)
            worst = max(worst, float(np.abs(ga - gn).max()) / denom)
    return worst


def active_selectors(spec, input_shape, mask):
    """(input_keep, output_keep) boolean selectors per parameterized layer.

    Mirrors the row-major [..., channel] flatten convention: feature
    (h*W + w)*C + c, channel index varying fastest.
    """
    sel = np.ones(input_shape[-1] if len(input_shape) == 3 else input_shape[0],
                  dtype=bool)
    shapes = layer_output_shapes(spec, input_shape)
    prev = tuple(input_shape)
    selectors = {}
    for i, layer in enumerate(spec):
        if layer.kind in ("dense", "conv2d"):
            if i in mask.masks:
                out_sel = mask.masks[i] > 0.0
            else:
                out_sel = np.ones(layer.width, dtype=bool)
            selectors[i] = (sel, out_sel)
            sel = out_sel
        elif layer.kind == "flatten":
            h, w, _ = prev
            sel = np.tile(sel, h * w)
        prev = shapes[i]
    return selectors


def slice_parent_gradients(net, mask, grads):
    """Project parent-coordinate gradients into reduced-network coordinates."""
    selectors = active_selectors(net.spec, net.input_shape, mask)
    out = []
    for i, g in enumerate(grads):
        if g is None:
            out.append(None)
            continue
        in_sel, out_sel = selectors[i]
        if net.spec[i].kind == "dense":
            w = g.weight[in_sel][:, out_sel]
        else:
            w = g.weight[:, :, in_sel][:, :, :, out_sel]
        out.append(LayerParams(w, g.bias[out_sel]))
    return out


def masked_incident_zero(net, mask, grads):
    """True iff every gradient entry incident to a deactivated node is 0.0."""
    selectors = active_selectors(net.spec, net.input_shape, mask)
    for i, g in enumerate(grads):
        if g is None:
            continue
        in_sel, out_sel = selectors[i]
        if net.spec[i].kind == "dense":
            if not np.all(g.weight[~in_sel] == 0.0):
                return False
            if not np.all(g.weight[:, ~out_sel] == 0.0):
                return False
        else:
            if not np.all(g.weight[:, :, ~in_sel] == 0.0):
                return False
            if not np.all(g.weight[:, :, :, ~out_sel] == 0.0):
                return False
        if not np.all(g.bias[~out_sel] == 0.0):
            return False
    return True


def gradients_close(a, b, atol):
    for ga, gb in zip(a, b):
        if ga is None or gb is None:
            if ga is not gb:
                return False
            continue
        if ga.weight.shape != gb.weight.shape:
            return False
        if np.abs(ga.weight - gb.weight).max() > atol:
            return False
        if np.abs(ga.bias - gb.bias).max() > atol:
            return False
    return True
