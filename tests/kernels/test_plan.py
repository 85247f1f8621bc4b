"""Unit tests for the QuantPlan cache and its blocking geometry."""

import numpy as np
import pytest

from repro.core.bdr import BDRConfig
from repro.core.quantize import bdr_quantize
from repro.kernels import clear_plan_cache, get_plan, plan_cache_info, use_backend
from repro.kernels.plan import MAX_PLANS, QuantPlan


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestGeometry:
    def test_divisible_trailing_axis_is_pure_view(self):
        plan = QuantPlan((4, 64), axis=-1, k1=16, k2=2)
        assert plan.pad == 0 and not plan.needs_move
        x = np.arange(256, dtype=np.float64).reshape(4, 64)
        blocked = plan.block(x)
        assert blocked.base is not None  # a view, not a copy
        assert np.shares_memory(blocked, x)
        assert blocked.shape == (4, 4, 16)

    def test_padding_geometry(self):
        plan = QuantPlan((2, 13), axis=-1, k1=8, k2=2)
        assert plan.pad == 3
        x = np.ones((2, 13))
        blocked = plan.block(x)
        assert blocked.shape == (2, 2, 8)
        np.testing.assert_array_equal(blocked[..., -1, -3:], 0.0)

    def test_block_restore_roundtrip(self):
        rng = np.random.default_rng(0)
        for shape, axis, k1 in [((4, 64), -1, 16), ((13, 5), 0, 8),
                                ((3, 7, 10), 1, 4), ((2, 13), -1, 8)]:
            plan = QuantPlan(shape, axis, k1, 1)
            x = rng.normal(size=shape)
            roundtrip = plan.restore(plan.block(x).copy())
            np.testing.assert_array_equal(roundtrip, x)

    def test_sub_shape(self):
        plan = QuantPlan((4, 64), axis=-1, k1=16, k2=2)
        assert plan.sub_shape == (4, 4, 8, 2)


class TestCache:
    def test_repeated_calls_hit(self):
        a = get_plan((4, 64), -1, 16, 2, np.float64)
        b = get_plan((4, 64), -1, 16, 2, np.float64)
        assert a is b
        info = plan_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_distinct_keys_miss(self):
        get_plan((4, 64), -1, 16, 2, np.float64)
        get_plan((4, 64), -1, 16, 4, np.float64)
        get_plan((4, 64), 0, 16, 2, np.float64)
        get_plan((8, 64), -1, 16, 2, np.float64)
        assert plan_cache_info()["misses"] == 4

    def test_negative_axis_normalized(self):
        a = get_plan((4, 64), -1, 16, 2, np.float64)
        b = get_plan((4, 64), 1, 16, 2, np.float64)
        assert a is b

    def test_lru_eviction_bounded(self):
        for n in range(MAX_PLANS + 10):
            get_plan((1, 16 * (n + 1)), -1, 16, 2, np.float64)
        assert plan_cache_info()["size"] == MAX_PLANS

    def test_quantize_populates_cache(self):
        # large enough to clear the small-array plan-free path
        x = np.random.default_rng(1).normal(size=(256, 64))
        config = BDRConfig.mx(m=4)
        with use_backend("numpy"):
            bdr_quantize(x, config)
            first = plan_cache_info()
            bdr_quantize(x, config)
            second = plan_cache_info()
        assert first["misses"] == second["misses"] == 1
        assert second["hits"] == first["hits"] + 1


class TestScratchCheckout:
    """Kernel working buffers are allocated per call: no output may alias."""

    def test_scratch_never_aliases_results(self):
        """Back-to-back quantizations must not overwrite earlier outputs."""
        rng = np.random.default_rng(2)
        config = BDRConfig.mx(m=7)
        x1, x2 = rng.normal(size=(2, 8, 64))
        with use_backend("numpy"):
            q1 = bdr_quantize(x1, config)
            snapshot = q1.copy()
            bdr_quantize(x2, config)
        np.testing.assert_array_equal(q1, snapshot)
