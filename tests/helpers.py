"""Shared oracles and fixture writers for the test suite.

The reference pass computes a network under a mask directly from the
definitions: ``einsum`` for every layer, a structured mask multiplying each
maskable layer's output by its node vector and an unstructured one each
weight by its mask. It calls none of ``weedout.network``'s kernels, so a
fault in them cannot cancel out of a comparison against it. The gradient
oracle differentiates the reference loss numerically, so it touches neither
the kernels nor the hand-written backward pass it is checking. The selector
helper maps parent-network parameter coordinates onto reduced-network ones
using only the flatten/channel geometry, for comparing the two gradient
paths. The writers produce IDX and CIFAR-10 files for the loaders to read.
"""

import struct

import numpy as np

from weedout.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC
from weedout.network import LayerParams, forward, layer_output_shapes
from weedout.sparsity import reduce_network


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


def reference_forward(x, w, b, stride):
    """A convolution that visits every output position and contracts its
    window with ``einsum``."""
    n, h, wd, _ = x.shape
    kh, kw, _, c_out = w.shape
    oh, ow = (h - kh) // stride + 1, (wd - kw) // stride + 1
    out = np.empty((n, oh, ow, c_out))
    for i in range(oh):
        for j in range(ow):
            window = x[:, i * stride:i * stride + kh, j * stride:j * stride + kw, :]
            out[:, i, j] = np.einsum("nabc,abcd->nd", window, w) + b
    return out


def reference_backward(x, w, stride, dout):
    """``(dw, db, dx)`` of :func:`reference_forward`, position by position."""
    kh, kw = w.shape[:2]
    dw = np.zeros_like(w)
    dx = np.zeros_like(x)
    for i in range(dout.shape[1]):
        for j in range(dout.shape[2]):
            rows = slice(i * stride, i * stride + kh)
            cols = slice(j * stride, j * stride + kw)
            dw += np.einsum("nabc,nd->abcd", x[:, rows, cols, :], dout[:, i, j])
            dx[:, rows, cols, :] += np.einsum("nd,abcd->nabc", dout[:, i, j], w)
    return dw, dout.sum(axis=(0, 1, 2)), dx


def reference_pass(net, mask, x):
    """Logits of ``net`` under ``mask``, and per relu its input and the
    entries a structured node mask leaves free to move (None: all of them)."""
    structured = mask is not None and mask.mode == "structured"
    masks = {} if mask is None else mask.masks
    h, free, relu_inputs = np.asarray(x, dtype=np.float64), None, []
    for i, layer in enumerate(net.spec):
        if layer.kind in ("dense", "conv2d"):
            p, free = net.params[i], None
            w = p.weight * masks[i] if i in masks and not structured else p.weight
            if layer.kind == "dense":
                h = np.einsum("nk,kd->nd", h, w) + p.bias
            else:
                h = reference_forward(h, w, p.bias, layer.stride)
            if structured and i in masks:  # never the logits layer
                h = h * masks[i]
                free = np.broadcast_to(masks[i], h.shape)
        elif layer.kind == "relu":
            relu_inputs.append((h, free))
            h = np.maximum(h, 0.0)
        elif layer.kind == "flatten":
            h = h.reshape(len(h), -1)
            free = None if free is None else free.reshape(len(h), -1)
    return h, relu_inputs


def reference_loss(net, mask, x, y):
    """Mean cross-entropy of :func:`reference_pass`'s logits."""
    z, _ = reference_pass(net, mask, x)
    z = z - z.max(axis=1, keepdims=True)
    return float(np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(len(y)), y]))


def reduced_logit_gap(net, mask, x):
    """Largest gap between the reduced network's logits and the reference
    pass of ``net`` under the structured ``mask``."""
    reduced = forward(reduce_network(net, mask), None, x)
    return float(np.abs(reduced - reference_pass(net, mask, x)[0]).max())


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
    _, relu_inputs = reference_pass(net, mask, x)
    values = [np.abs(h if free is None else h[free]) for h, free in relu_inputs]
    return min((float(v.min()) for v in values if v.size), default=float("inf"))


def numeric_gradients(net, mask, x, y, eps=1e-5):
    """Central finite differences of :func:`reference_loss` wrt every parameter."""
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
                up = reference_loss(net, mask, x, y)
                flat[j] = orig - eps
                down = reference_loss(net, mask, x, y)
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
