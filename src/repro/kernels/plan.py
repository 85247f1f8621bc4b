"""Quantization plans: precomputed blocking geometry.

Every call into the fast backend re-derives the same facts from its
arguments: where the block axis lands after ``moveaxis``, whether the axis
length divides ``k1`` (no padding -> pure-view blocking), the blocked and
sub-blocked shapes, and how to restore the output.  A :class:`QuantPlan`
computes all of that once per ``(shape, axis, k1, k2, dtype)``; plans are
cached in a bounded LRU keyed on that tuple.  Kernels allocate their
working buffers per call — a buffer the size of the input costs far less
than retaining one for every shape a decode ever visits.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

__all__ = [
    "QuantPlan",
    "get_plan",
    "clear_plan_cache",
    "plan_cache_info",
]

#: Maximum number of cached plans; old entries are evicted LRU-first.
MAX_PLANS = 128

_CACHE: OrderedDict[tuple, "QuantPlan"] = OrderedDict()
_LOCK = threading.Lock()
_HITS = 0
_MISSES = 0


class QuantPlan:
    """Blocking geometry for one ``(shape, axis, k1, k2)``.

    Attributes:
        blocked_shape: shape after blocking, ``(..., blocks, k1)``.
        sub_shape: shape after sub-blocking, ``(..., blocks, k1/k2, k2)``.
        pad: zero elements appended to reach a multiple of ``k1``.
        needs_move: whether the block axis is not already trailing.
    """

    __slots__ = (
        "shape", "axis", "k1", "k2", "n", "pad", "needs_move",
        "moved_shape", "padded_shape", "blocked_shape", "sub_shape",
    )

    def __init__(self, shape: tuple[int, ...], axis: int, k1: int, k2: int):
        ndim = len(shape)
        axis = axis % ndim
        self.shape = shape
        self.axis = axis
        self.k1 = k1
        self.k2 = k2
        self.n = shape[axis]
        self.pad = (-self.n) % k1
        self.needs_move = axis != ndim - 1

        lead = tuple(s for i, s in enumerate(shape) if i != axis)
        self.moved_shape = lead + (self.n,)
        self.padded_shape = lead + (self.n + self.pad,)
        blocks = (self.n + self.pad) // k1
        self.blocked_shape = lead + (blocks, k1)
        self.sub_shape = lead + (blocks, k1 // k2, k2)

    # ------------------------------------------------------------------
    # Blocking / restoring
    # ------------------------------------------------------------------
    def block(self, x: np.ndarray) -> np.ndarray:
        """Return ``x`` reshaped to :attr:`blocked_shape`.

        A pure view when the axis is trailing and divides ``k1`` (the
        common case — every nn layer and the whole sweep); otherwise the
        same moveaxis/pad/reshape sequence as the reference backend.
        """
        if self.needs_move:
            x = np.moveaxis(x, self.axis, -1)
        if self.pad:
            # manual zero-pad: np.pad's generic machinery costs ~30x the
            # single allocate-and-copy this actually is (values identical)
            padded = np.zeros(self.padded_shape, dtype=x.dtype)
            padded[..., : self.n] = x
            x = padded
        return x.reshape(self.blocked_shape)

    def restore(self, blocked_values: np.ndarray) -> np.ndarray:
        """Undo :meth:`block` on a freshly computed output array."""
        flat = blocked_values.reshape(self.padded_shape)
        if self.pad:
            flat = flat[..., : self.n]
        if self.needs_move:
            flat = np.moveaxis(flat, -1, self.axis)
        return flat


def get_plan(shape: tuple[int, ...], axis: int, k1: int, k2: int,
             dtype: np.dtype) -> QuantPlan:
    """Fetch (or build and cache) the plan for one call signature.

    ``dtype`` is part of the key for forward compatibility with non-float64
    engines; the blocking geometry itself is dtype-independent.
    """
    global _HITS, _MISSES
    key = (shape, axis % max(len(shape), 1), k1, k2, np.dtype(dtype).str)
    with _LOCK:
        plan = _CACHE.get(key)
        if plan is not None:
            _HITS += 1
            _CACHE.move_to_end(key)
            return plan
        _MISSES += 1
        plan = QuantPlan(shape, axis, k1, k2)
        _CACHE[key] = plan
        while len(_CACHE) > MAX_PLANS:
            _CACHE.popitem(last=False)
        return plan


def clear_plan_cache() -> None:
    """Drop every cached plan."""
    global _HITS, _MISSES
    with _LOCK:
        _CACHE.clear()
        _HITS = 0
        _MISSES = 0


def plan_cache_info() -> dict:
    """Cache statistics for tests and diagnostics."""
    with _LOCK:
        return {"size": len(_CACHE), "hits": _HITS, "misses": _MISSES,
                "max_size": MAX_PLANS}
