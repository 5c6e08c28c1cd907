"""Binary sparsity masks: sampling, measurement, and graph reduction.

Masks use exact counts, not i.i.d. coin flips: at sparsity ratio ``eta``
every maskable layer gets exactly ``round_half_up(eta * width)`` zeros,
placed uniformly at random. That keeps every member of a search population
at identical sparsity, so configuration quality is the only variable.

``reduce_network`` physically deletes deactivated nodes (dense units or conv
channels) and their incident weight rows/columns. ``sub_network`` is the one
place a mask becomes something to run: a structured mask is scored, trained
and evaluated as its reduced network, with no mask, while an unstructured
mask keeps the parent and its masked kernels. The masked structured forward
in ``network`` stays as the equivalence oracle the reduced network must
reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSparsityError, UnsupportedModeError
from .network import (LayerParams, LayerSpec, Network, layer_output_shapes,
                      maskable_indices)
from .numerics import RngStream, round_half_up

MASK_MODES = ("structured", "unstructured")


@dataclass(frozen=True)
class MaskSet:
    """Per-layer binary masks for one sparse sub-network.

    ``masks`` maps spec indices of maskable layers to 0/1 float arrays:
    node vectors in structured mode, weight-shaped arrays in unstructured
    mode. A sampled MaskSet is reconstructible bit-exactly from
    ``(spec, eta, mode, sample_seed)``.
    """

    mode: str
    masks: dict[int, np.ndarray]
    eta: float = 0.0
    sample_seed: int = 0


def _validate_eta(eta: float) -> float:
    eta = float(eta)
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"sparsity ratio must lie in [0, 1), got {eta}")
    return eta


def _zero_count(eta: float, size: int, name: str) -> int:
    k = round_half_up(eta * size)
    if k >= size:
        raise InfeasibleSparsityError(
            f"{name}: sparsity {eta} would deactivate all {size} positions")
    return k


def _structured_masks(spec: list[LayerSpec], eta: float, seed: int) -> dict[int, np.ndarray]:
    rng = RngStream(seed).split("structured")
    masks: dict[int, np.ndarray] = {}
    for i in maskable_indices(spec):
        width = spec[i].width
        k = _zero_count(eta, width, f"layer {i} ({spec[i].kind}, width {width})")
        m = np.ones(width)
        if k:
            off = rng.split(f"layer{i}").choice_without_replacement(width, k)
            m[off] = 0.0
        masks[i] = m
    return masks


def _unstructured_masks(spec: list[LayerSpec], input_shape, eta: float,
                        seed: int) -> dict[int, np.ndarray]:
    shapes = layer_output_shapes(spec, input_shape)
    rng = RngStream(seed).split("unstructured")
    masks: dict[int, np.ndarray] = {}
    maskable = set(maskable_indices(spec))
    prev = tuple(input_shape)
    for i, layer in enumerate(spec):
        if i in maskable:
            if layer.kind == "dense":
                wshape = (prev[0], layer.width)
            else:
                wshape = (layer.kernel_size, layer.kernel_size, prev[2], layer.width)
            size = int(np.prod(wshape))
            k = _zero_count(eta, size, f"layer {i} ({layer.kind}, {size} weights)")
            m = np.ones(size)
            if k:
                off = rng.split(f"layer{i}").choice_without_replacement(size, k)
                m[off] = 0.0
            masks[i] = m.reshape(wshape)
        prev = shapes[i]
    return masks


def sample_structured(spec: list[LayerSpec], eta: float, rng: RngStream) -> MaskSet:
    """Draw a node mask: exactly round_half_up(eta*width) zeros per maskable layer."""
    eta = _validate_eta(eta)
    seed = rng.spawn_seed()
    return MaskSet("structured", _structured_masks(spec, eta, seed), eta, seed)


def sample_unstructured(spec: list[LayerSpec], input_shape, eta: float,
                        rng: RngStream) -> MaskSet:
    """Draw a weight mask: exact zero counts per maskable weight tensor."""
    eta = _validate_eta(eta)
    seed = rng.spawn_seed()
    return MaskSet("unstructured", _unstructured_masks(spec, input_shape, eta, seed),
                   eta, seed)


def sample_mask(spec: list[LayerSpec], input_shape, eta: float, mode: str,
                rng: RngStream) -> MaskSet:
    """Mode-dispatching mask sampler used by pipeline and config code."""
    if mode == "structured":
        return sample_structured(spec, eta, rng)
    if mode == "unstructured":
        return sample_unstructured(spec, input_shape, eta, rng)
    raise ValueError(f"unknown sparsity mode {mode!r}")


def resample_mask(spec: list[LayerSpec], input_shape, mode: str, eta: float,
                  sample_seed: int) -> MaskSet:
    """Reconstruct a sampled MaskSet from its recorded identity."""
    eta = _validate_eta(eta)
    if mode == "structured":
        return MaskSet(mode, _structured_masks(spec, eta, sample_seed), eta, sample_seed)
    if mode == "unstructured":
        return MaskSet(mode, _unstructured_masks(spec, input_shape, eta, sample_seed),
                       eta, sample_seed)
    raise ValueError(f"unknown sparsity mode {mode!r}")


def realized_sparsity(mask: MaskSet) -> float:
    """Fraction of deactivated positions over all maskable positions."""
    total = sum(m.size for m in mask.masks.values())
    if total == 0:
        return 0.0
    zeros = sum(int((m == 0.0).sum()) for m in mask.masks.values())
    return zeros / total


def per_layer_sparsity(mask: MaskSet) -> dict[int, float]:
    return {i: float((m == 0.0).mean()) for i, m in mask.masks.items()}


def reduce_network(net: Network, mask: MaskSet) -> Network:
    """Physically delete masked nodes, producing a smaller equivalent network.

    Structured masks only. For each deactivated dense unit or conv channel the
    incident weight rows/columns (and bias entry) are removed; downstream
    dense layers drop the flattened feature columns fed by removed channels.
    The reduced network's unmasked forward pass reproduces the masked parent's
    logits within tight float tolerance on any input.
    """
    if mask.mode != "structured":
        raise UnsupportedModeError("reduce_network requires a structured mask")
    from .network import _check_mask

    _check_mask(net, mask)
    shapes = layer_output_shapes(net.spec, net.input_shape)
    new_spec: list[LayerSpec] = []
    new_params: list[LayerParams | None] = []
    # Selector of still-active positions in the current feature tensor:
    # channel flags for [H, W, C] shapes, feature flags for flat shapes.
    selector = np.ones(net.input_shape[-1] if len(net.input_shape) == 3
                       else net.input_shape[0], dtype=bool)
    prev_shape = net.input_shape
    for i, layer in enumerate(net.spec):
        if layer.kind in ("dense", "conv2d"):
            keep_out = (mask.masks[i] > 0.0) if i in mask.masks \
                else np.ones(layer.width, dtype=bool)
            p = net.params[i]
            w = p.weight.take(np.flatnonzero(selector), axis=-2) \
                .take(np.flatnonzero(keep_out), axis=-1)
            new_params.append(LayerParams(w, p.bias[keep_out]))
            new_spec.append(LayerSpec(layer.kind, width=int(keep_out.sum()),
                                      kernel_size=layer.kernel_size,
                                      stride=layer.stride, maskable=layer.maskable))
            selector = keep_out
        elif layer.kind == "flatten":
            h, w_dim, _ = prev_shape
            selector = np.tile(selector, h * w_dim)  # channel axis varies fastest
            new_spec.append(layer)
            new_params.append(None)
        else:
            new_spec.append(layer)
            new_params.append(None)
        prev_shape = shapes[i]
    return Network(new_spec, tuple(net.input_shape), new_params, net.init_seed)


def sub_network(net: Network, mask: MaskSet) -> tuple[Network, MaskSet | None]:
    """The network and mask that compute ``net`` under ``mask``.

    A structured mask yields its reduced network, run with no mask; it
    shares no arrays with ``net``, so training it leaves the parent intact.
    A deactivated node gets exactly zero gradient and momentum in the
    masked parent, so the reduced network trains to the same values up to
    the order of summation. An unstructured mask keeps ``net`` and ``mask``.
    """
    if mask.mode == "structured":
        return reduce_network(net, mask), None
    return net, mask


def active_parameter_count(net: Network, mask: MaskSet | None) -> int:
    """Number of parameters of ``net`` that can still influence the output.

    A structured mask counts its reduced network's parameters; pass the
    :func:`sub_network` pair when it is already built. An unstructured mask
    counts the weights it leaves on plus every bias.
    """
    if mask is not None and mask.mode == "structured":
        net, mask = sub_network(net, mask)
    total = 0
    for i, p in enumerate(net.params):
        if p is None:
            continue
        kept = int(mask.masks[i].sum()) if mask is not None and i in mask.masks \
            else p.weight.size
        total += kept + p.bias.size
    return total
