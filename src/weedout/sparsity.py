"""Binary sparsity masks: sampling, measurement, and graph reduction.

Masks use exact counts, not i.i.d. coin flips: at sparsity ratio ``eta``
every maskable layer gets exactly ``round_half_up(eta * size)`` zeros,
placed uniformly at random, where ``size`` is its width (structured) or its
weight count (unstructured). That keeps every member of a search population
at identical sparsity, so configuration quality is the only variable.
``resample_mask`` is the one sampler.

``reduce_network`` physically deletes deactivated nodes (dense units or conv
channels) and their incident weight rows/columns. ``sub_network`` is the
network a search scores a mask on: a structured mask's reduced network, or
the parent with an unstructured mask multiplied into its weights
(``network.masked_network``). Training builds the same network, an
unstructured one in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InfeasibleSparsityError, MaskMismatchError,
                     UnsupportedModeError)
from .network import (LayerParams, LayerSpec, Network, _check_mask,
                      maskable_indices, masked_network, weight_shapes)
from .numerics import RngStream, round_half_up

MASK_MODES = ("structured", "unstructured")


@dataclass(frozen=True, eq=False)
class MaskSet:
    """Per-layer boolean masks for one sparse sub-network.

    ``masks`` maps spec indices of maskable layers to boolean arrays, True
    where a position stays active: node vectors in structured mode,
    weight-shaped arrays in unstructured mode. Building a MaskSet is the one
    place a mask's own validity is checked: a known mode, and only 0/1
    entries in an array that is not boolean yet (it is converted in place).
    ``network._check_mask`` checks only that a MaskSet fits its network.
    ``==`` and ``hash`` go by identity; ``search._mask_key`` compares values.
    """

    mode: str
    masks: dict[int, np.ndarray]
    eta: float = 0.0
    sample_seed: int = 0

    def __post_init__(self):
        if self.mode not in MASK_MODES:
            raise UnsupportedModeError(
                f"unknown mask mode {self.mode!r}, expected one of {MASK_MODES}")
        for i, m in self.masks.items():
            if m.dtype != bool:
                if not ((m == 0) | (m == 1)).all():
                    raise MaskMismatchError(f"mask for layer {i} has non-binary entries")
                self.masks[i] = m.astype(bool)


def resample_mask(spec: list[LayerSpec], input_shape, mode: str, eta: float,
                  sample_seed: int) -> MaskSet:
    """Build the mask that ``(spec, input_shape, mode, eta, sample_seed)`` names.

    Layer ``i``'s zeros are placed by the stream ``sample_seed/mode/layer{i}``;
    ``input_shape`` is read only in unstructured mode, for the weight shapes.
    """
    eta = float(eta)
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"sparsity ratio must lie in [0, 1), got {eta}")
    rng = RngStream(sample_seed).split(mode)
    shapes = weight_shapes(spec, input_shape) if mode == "unstructured" else None
    masks: dict[int, np.ndarray] = {}
    for i in maskable_indices(spec):
        shape = shapes[i] if shapes is not None else (spec[i].width,)
        size = math.prod(shape)
        k = round_half_up(eta * size)
        if k >= size:
            raise InfeasibleSparsityError(
                f"layer {i} ({spec[i].kind}, {mode} shape {shape}): sparsity {eta} "
                f"would deactivate all {size} positions")
        masks[i] = m = np.ones(shape, dtype=bool)
        if k:
            m.put(rng.split(f"layer{i}").choice_without_replacement(size, k), False)
    return MaskSet(mode, masks, eta, sample_seed)


def sample_mask(spec: list[LayerSpec], input_shape, eta: float, mode: str,
                rng: RngStream) -> MaskSet:
    """Draw a fresh mask: draw a seed from ``rng``, then resample."""
    return resample_mask(spec, input_shape, mode, eta, rng.spawn_seed())


def sample_structured(spec: list[LayerSpec], eta: float, rng: RngStream) -> MaskSet:
    """Draw a node mask: exactly round_half_up(eta*width) zeros per maskable layer."""
    return sample_mask(spec, None, eta, "structured", rng)


def realized_sparsity(mask: MaskSet) -> float:
    """Fraction of deactivated positions over all maskable positions."""
    total = sum(m.size for m in mask.masks.values())
    if total == 0:
        return 0.0
    zeros = sum(m.size - int(m.sum()) for m in mask.masks.values())
    return zeros / total


def reduce_network(net: Network, mask: MaskSet) -> Network:
    """Physically delete masked nodes, producing a smaller equivalent network.

    Structured masks only. For each deactivated dense unit or conv channel the
    incident weight rows/columns (and bias entry) are removed; downstream
    dense layers drop the flattened feature columns fed by removed channels.
    The reduced network's unmasked forward pass reproduces the masked parent's
    logits within tight float tolerance on any input.
    """
    _check_mask(net, mask)
    if mask.mode != "structured":
        raise UnsupportedModeError("reduce_network requires a structured mask")
    new_spec = list(net.spec)
    new_params: list[LayerParams | None] = [None] * len(net.spec)
    # Flags of the still-active channels (or features) feeding the next weight.
    selector = np.ones(net.input_shape[-1], dtype=bool)
    for i, p in enumerate(net.params):
        if p is None:
            continue
        layer = net.spec[i]
        keep_out = mask.masks[i] if i in mask.masks else np.ones(layer.width, dtype=bool)
        # After a flatten the channel varies fastest, so its flags repeat.
        keep_in = np.tile(selector, p.weight.shape[-2] // len(selector))
        w = p.weight.take(np.flatnonzero(keep_in), axis=-2) \
            .take(np.flatnonzero(keep_out), axis=-1)
        new_params[i] = LayerParams(w, p.bias[keep_out])
        new_spec[i] = LayerSpec(layer.kind, width=int(keep_out.sum()),
                                kernel_size=layer.kernel_size, stride=layer.stride)
        selector = keep_out
    return Network(new_spec, tuple(net.input_shape), new_params)


def sub_network(net: Network, mask: MaskSet) -> Network:
    """The network that computes ``net`` under ``mask``: the reduced network
    for a structured mask, ``masked_network(net, mask)`` for an unstructured
    one. Neither shares a masked weight with ``net``."""
    if mask.mode == "structured":
        return reduce_network(net, mask)
    return masked_network(net, mask)


def active_parameter_count(net: Network, mask: MaskSet | None) -> int:
    """Number of parameters of ``net`` that can still influence the output.

    A structured mask counts its reduced network's parameters, which is what
    the reduced network counts with no mask. An unstructured mask counts the
    weights it leaves on plus every bias.
    """
    if mask is not None and mask.mode == "structured":
        net, mask = reduce_network(net, mask), None
    total = 0
    for i, p in enumerate(net.params):
        if p is None:
            continue
        kept = int(mask.masks[i].sum()) if mask is not None and i in mask.masks \
            else p.weight.size
        total += kept + p.bias.size
    return total
