"""Deterministic float64 array operations and splittable seeded randomness.

Every quantity that flows through the rest of the package is a row-major
float64 ``numpy.ndarray`` (aliased ``Tensor`` here). All randomness is drawn
from :class:`RngStream`, a counter-based generator keyed by ``(seed, path)``
so that sibling streams never interact: how much one consumer draws can never
shift the values another consumer sees.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import ShapeMismatchError

Tensor = np.ndarray

MAX_SEED = 2**64


def check_finite(x: Tensor, context: str = "tensor") -> Tensor:
    """Return ``x`` unchanged, raising if it contains NaN or Inf."""
    if not np.isfinite(x).all():
        raise ValueError(f"{context} contains non-finite values")
    return x


class RngStream:
    """Counter-based random stream identified by a seed and a label path.

    Two streams with the same ``(seed, path)`` produce bit-identical draws on
    every run. ``split(label)`` derives an independent child stream; children
    are a pure function of their path, so results do not depend on creation
    order, draw interleaving, or thread count. The Philox generator is built
    on the first draw, so a stream that is only split never builds one. A
    stream is never shared between threads.
    """

    __slots__ = ("seed", "_path", "_generator")

    def __init__(self, seed: int, _path: tuple[str, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < MAX_SEED:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self._path = _path
        self._generator: np.random.Generator | None = None

    @property
    def _gen(self) -> np.random.Generator:
        if self._generator is None:
            key = np.frombuffer(self._derive_key(), dtype=np.uint64)
            self._generator = np.random.Generator(np.random.Philox(key=key))
        return self._generator

    def _derive_key(self) -> bytes:
        h = hashlib.sha256()
        h.update(self.seed.to_bytes(8, "little"))
        for label in self._path:
            raw = label.encode("utf-8")
            h.update(len(raw).to_bytes(4, "little"))
            h.update(raw)
        return h.digest()[:16]

    def split(self, label) -> "RngStream":
        """Derive the independent child stream named ``label``."""
        return RngStream(self.seed, self._path + (str(label),))

    def spawn_seed(self) -> int:
        """Draw a fresh 64-bit seed, e.g. to stamp a reproducible sub-object."""
        return int(self._gen.integers(0, MAX_SEED, dtype=np.uint64))

    def normal(self, shape, loc: float = 0.0, scale: float = 1.0) -> Tensor:
        return self._gen.normal(loc=loc, scale=scale, size=shape).astype(np.float64, copy=False)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> Tensor:
        return self._gen.uniform(low=low, high=high, size=shape)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        """Pick ``k`` distinct indices uniformly from ``range(n)``."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot choose {k} of {n} without replacement")
        return self._gen.choice(n, size=k, replace=False)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={'/'.join(self._path)!r})"


def round_half_up(x: float) -> int:
    """Round to the nearest integer, breaking .5 ties upward."""
    return int(math.floor(x + 0.5))


def he_normal(fan_in: int, shape, rng: RngStream) -> Tensor:
    """Draw i.i.d. Normal(0, 2/fan_in) entries of the given shape."""
    fan_in = int(fan_in)
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    shape = tuple(int(s) for s in np.atleast_1d(shape))
    if any(s < 1 for s in shape):
        raise ValueError(f"shape entries must be positive, got {shape}")
    sigma = math.sqrt(2.0 / fan_in)
    return rng.normal(shape, scale=sigma)


def softmax_cross_entropy(logits: Tensor, labels, *,
                          with_grad: bool = True) -> tuple[float, Tensor | None]:
    """Mean cross-entropy of softmax(logits) against integer class labels.

    Returns ``(loss, d_loss/d_logits)``. The gradient is for the mean, i.e.
    already divided by the batch size. With ``with_grad=False`` the gradient
    is not computed and ``None`` stands in its place; the loss is the same.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeMismatchError(f"logits must be [batch, classes], got {logits.shape}")
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeMismatchError(f"labels shape {labels.shape} does not match batch {n}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be integer class indices")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels must lie in [0, {c}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    check_finite(logits, "logits")
    rows = np.arange(n)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-(shifted[rows, labels] - log_z[:, 0]).mean())
    if not math.isfinite(loss):
        raise ValueError("cross-entropy loss is non-finite")
    if not with_grad:
        return loss, None
    grad = np.exp(shifted - log_z)
    grad[rows, labels] -= 1.0
    grad /= n
    check_finite(grad, "cross-entropy gradient")
    return loss, grad
