#!/usr/bin/env python3
"""Masking a node is the same as deleting it from the compute graph.

Walks one sparse sub-network end to end: sample a structured mask over a
small conv net, physically delete the deactivated channels/units, and compare
logits, loss, and gradients between the masked parent and the reduced copy.
"""

import numpy as np

from weedout import RngStream, forward, init_network, loss_and_grads, reduce_network
from weedout.network import conv2d, dense, flatten_layer, relu_layer
from weedout.sparsity import active_parameter_count, realized_sparsity, sample_structured

spec = [
    conv2d(8, 3), relu_layer(),
    conv2d(12, 3), relu_layer(),
    flatten_layer(),
    dense(32), relu_layer(),
    dense(10),
]
input_shape = (12, 12, 1)

net = init_network(spec, input_shape, seed=7)
parent_count = active_parameter_count(net, None)  # every weight and bias
print(f"parent network: {parent_count} parameters")

rng = RngStream(2024)
mask = sample_structured(spec, eta=0.6, rng=rng.split("mask"))
print(f"\nsampled a structured mask at eta=0.6 "
      f"(realized sparsity {realized_sparsity(mask):.3f})")
for i, m in mask.masks.items():
    print(f"  layer {i} ({spec[i].kind}, width {spec[i].width}): {int((~m).sum())} nodes off")

reduced = reduce_network(net, mask)
reduced_count = active_parameter_count(reduced, None)
print(f"\nreduced network: {reduced_count} parameters "
      f"({parent_count - reduced_count} deleted)")

x = rng.split("x").normal((16,) + input_shape)
y = np.asarray(rng.split("y").integers(0, 10, size=16))

logits_masked = forward(net, mask, x)
logits_reduced = forward(reduced, None, x)
print(f"\nmax |masked logits - reduced logits| = "
      f"{np.abs(logits_masked - logits_reduced).max():.3e}")

loss_masked, grads = loss_and_grads(net, mask, x, y)
loss_reduced, _ = loss_and_grads(reduced, None, x, y)
print(f"loss difference = {abs(loss_masked - loss_reduced):.3e}")

# gradients incident to a deactivated channel are exactly zero
off_channels = np.where(mask.masks[0] == 0.0)[0]
g = grads[0].weight  # [kh, kw, in, out]
print(f"\nfirst conv layer: channels {off_channels.tolist()} are off; "
      f"max |gradient| into them = {np.abs(g[:, :, :, off_channels]).max():.1f} "
      f"(exactly zero)")
