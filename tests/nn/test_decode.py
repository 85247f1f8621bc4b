"""Unit tests for the KV-cache decode subsystem (:mod:`repro.nn.decode`).

The central invariant: cached quantized payloads are bit-identical to the
corresponding slices of a full-tensor quantization, for every append
pattern — that is what makes incremental decoding exact.  Exercised under
both kernel backends.
"""

import numpy as np
import pytest

from repro.core.quantize import quantize_call_count
from repro.formats import get_format
from repro.kernels import use_backend
from repro.nn.attention import MultiHeadAttention, causal_mask
from repro.nn.decode import (
    CrossKV,
    DecodeState,
    KVCache,
    PagedKVCache,
    supports_cached_decode,
)
from repro.nn.quantized import (
    QuantSpec,
    quantize_partial_block,
    quantized_bmm_prequant,
)
from repro.nn.tensor import Tensor, no_grad
from repro.serve.sched import PagePool

BACKENDS = ("numpy", "reference")


def make_cache(spec, batch=2, heads=2, head_dim=12, capacity=48):
    return KVCache(batch, heads, head_dim, capacity, spec)


def append_pattern(cache, k, v, sizes):
    start = 0
    for size in sizes:
        cache.append(k[:, :, start : start + size], v[:, :, start : start + size])
        start += size


APPEND_PATTERNS = [[1] * 37, [10, 1, 1, 5, 16, 3, 1], [37], [16, 16, 5]]


def make_storage(storage, spec, capacity=48):
    """A batch-1 cache over contiguous buffers or pool pages of ``k1`` rows."""
    if storage == "contiguous":
        return make_cache(spec, batch=1, capacity=capacity)
    block = spec.activation.block_size()
    pool = PagePool(2, 12, block, total_pages=-(-capacity // block))
    return PagedKVCache(pool, "s0", 2, 12, capacity, spec)


def run_append_pattern(storage, spec, k, v, sizes):
    """The filled cache and the engine calls its appends made."""
    cache = make_storage(storage, spec)
    before = quantize_call_count()
    append_pattern(cache, k, v, sizes)
    return cache, quantize_call_count() - before


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fmt_name", ["mx6", "mx9", "mx4"])
@pytest.mark.parametrize(
    "sizes,storage",
    [pytest.param(sizes, "contiguous", id=f"sizes{i}")
     for i, sizes in enumerate(APPEND_PATTERNS)]
    + [pytest.param(sizes, "paged", id=f"sizes{i}-paged")
       for i, sizes in enumerate(APPEND_PATTERNS)],
)
def test_cache_payloads_match_full_quantize(backend, fmt_name, sizes, storage):
    """Sealed blocks + requantized tail == one full-tensor quantization.

    Both storages run the one cache algorithm, so they must also make the
    same number of quantization-engine calls for every append pattern.
    """
    spec = QuantSpec.inference(fmt_name, activation=fmt_name)
    rng = np.random.default_rng(7)
    total = sum(sizes)
    k = rng.normal(size=(1, 2, total, 12))
    v = rng.normal(size=(1, 2, total, 12))
    with use_backend(backend):
        cache, calls = run_append_pattern(storage, spec, k, v, sizes)
        _, contiguous_calls = run_append_pattern("contiguous", spec, k, v, sizes)
        fmt = spec.activation
        expect_kT = fmt.quantize(np.swapaxes(k, -1, -2), axis=-2)
        expect_v = fmt.quantize(v, axis=-2)
    np.testing.assert_array_equal(cache.keys_t, expect_kT)
    np.testing.assert_array_equal(cache.values, expect_v)
    assert cache.length == total
    assert cache.sealed == (total // fmt.block_size()) * fmt.block_size()
    assert calls == contiguous_calls > 0


def test_cache_fp32_passthrough():
    cache = make_cache(None)
    rng = np.random.default_rng(0)
    k = rng.normal(size=(2, 2, 9, 12))
    v = rng.normal(size=(2, 2, 9, 12))
    append_pattern(cache, k, v, [4, 5])
    np.testing.assert_array_equal(cache.keys_t, np.swapaxes(k, -1, -2))
    np.testing.assert_array_equal(cache.values, v)
    assert cache.sealed == 9  # position-local: everything seals immediately


def test_cache_rewind_drops_unsealed_suffix():
    spec = QuantSpec.inference("mx6", activation="mx6")
    cache = make_cache(spec)
    rng = np.random.default_rng(1)
    k = rng.normal(size=(2, 2, 21, 12))
    v = rng.normal(size=(2, 2, 21, 12))
    append_pattern(cache, k, v, [21])
    assert (cache.length, cache.sealed) == (21, 16)
    cache.rewind()
    assert (cache.length, cache.sealed) == (16, 16)
    # re-appending the dropped suffix restores identical payloads
    cache.append(k[:, :, 16:], v[:, :, 16:])
    fmt = spec.activation
    np.testing.assert_array_equal(cache.values, fmt.quantize(v, axis=-2))


def test_cache_reset_reuses_buffers():
    spec = QuantSpec.inference("mx6", activation="mx6")
    cache = make_cache(spec)
    rng = np.random.default_rng(2)
    k = rng.normal(size=(2, 2, 10, 12))
    v = rng.normal(size=(2, 2, 10, 12))
    append_pattern(cache, k, v, [10])
    buf = cache.kT
    cache.reset()
    assert cache.length == 0 and cache.sealed == 0
    append_pattern(cache, k, v, [10])
    assert cache.kT is buf  # eviction keeps the preallocated storage


def test_cache_overflow_and_spec_change_rejected():
    spec = QuantSpec.inference("mx6", activation="mx6")
    cache = KVCache(1, 2, 12, 8, spec)
    rng = np.random.default_rng(3)
    k = rng.normal(size=(1, 2, 9, 12))
    with pytest.raises(ValueError, match="overflow"):
        cache.append(k, k)
    other = QuantSpec.inference("mx6", activation="mx6")
    with pytest.raises(ValueError, match="spec changed"):
        cache.append(k[:, :, :1], k[:, :, :1], spec=other)


def test_cache_rejects_stochastic_and_stateful_formats():
    stochastic = QuantSpec.uniform("mx6")
    stochastic.rounding = "stochastic"
    with pytest.raises(ValueError, match="stateless"):
        make_cache(stochastic)
    delayed = QuantSpec.inference("int8", activation=get_format("int8"))
    assert delayed.activation.cache_key() is None  # delayed scaling: stateful
    with pytest.raises(ValueError, match="stateless"):
        make_cache(delayed)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fmt_name", ["mx6", "mx9", "msfp16", "mx4"])
@pytest.mark.parametrize("axis", [-1, -2])
def test_quantize_partial_block_matches_quantize(backend, fmt_name, axis):
    """The partial-block entry point is bit-identical to Format.quantize."""
    try:
        fmt = get_format(fmt_name)
    except ValueError:
        pytest.skip(f"format {fmt_name} not registered")
    block = fmt.block_size()
    rng = np.random.default_rng(11)
    for length in (1, block // 2 or 1, block):
        shape = [3, 5, 7]
        shape[axis] = length
        x = rng.normal(size=shape) * np.exp2(rng.integers(-30, 30, size=(3, 1, 1)))
        with use_backend(backend):
            full = fmt.quantize(x, axis=axis)
            part = fmt.quantize_partial(x, axis=axis)
        np.testing.assert_array_equal(full, part, err_msg=f"{fmt_name} len={length}")


def test_quantize_partial_block_passthrough_and_helper():
    x = np.ones((2, 3))
    assert quantize_partial_block(x, None, axis=-1) is x
    fmt = get_format("mx6")
    np.testing.assert_array_equal(
        quantize_partial_block(x, fmt, axis=-1), fmt.quantize(x, axis=-1)
    )


def test_bmm_prequant_requires_no_grad():
    a = Tensor(np.ones((1, 2, 3)), requires_grad=True)
    with pytest.raises(RuntimeError, match="no_grad"):
        quantized_bmm_prequant(a, np.ones((1, 3, 2)), None)
    with no_grad():
        out = quantized_bmm_prequant(a, np.ones((1, 3, 2)), None)
    assert out.shape == (1, 2, 2)


@pytest.mark.parametrize("fmt_name", [None, "mx6"])
def test_cached_attention_matches_full(fmt_name):
    """Prefill + per-token steps reproduce full attention bit-for-bit."""
    rng = np.random.default_rng(5)
    spec = QuantSpec.inference(fmt_name, activation=fmt_name) if fmt_name else None
    attn = MultiHeadAttention(24, 2, rng=rng, quant=spec)
    x = Tensor(rng.normal(size=(2, 20, 24)))
    with no_grad():
        full = attn(x, mask=causal_mask(20))
        cache = KVCache(2, 2, 12, 32, spec)
        prefill = attn(Tensor(x.data[:, :20]), mask=causal_mask(20), cache=cache)
    np.testing.assert_array_equal(full.data, prefill.data)


def test_cross_kv_builds_once():
    rng = np.random.default_rng(6)
    spec = QuantSpec.inference("mx6", activation="mx6")
    attn = MultiHeadAttention(24, 2, rng=rng, quant=spec)
    memory = Tensor(rng.normal(size=(2, 13, 24)))
    cross = CrossKV()
    with no_grad():
        kT1, v1 = cross.project(attn, memory)
        kT2, v2 = cross.project(attn, Tensor(np.zeros((2, 13, 24))))
    assert kT1 is kT2 and v1 is v2  # frozen after the first build
    k = attn._split_heads(attn.k_proj(memory)).data
    fmt = spec.activation
    np.testing.assert_array_equal(kT1, fmt.quantize(np.swapaxes(k, -1, -2), axis=-2))


def test_decode_state_rewind_boundary():
    spec = QuantSpec.inference("mx6", activation="mx6")
    layers = [make_cache(spec), make_cache(spec)]
    state = DecodeState(layers, capacity=48)
    rng = np.random.default_rng(8)
    k = rng.normal(size=(2, 2, 21, 12))
    for cache in layers:
        append_pattern(cache, k, k, [21])
    state.position = 21
    assert state.rewind() == 16
    assert state.position == 16
    assert all(cache.length == 16 for cache in layers)


def test_supports_cached_decode_gating():
    from repro.data.synthetic import SyntheticLanguage
    from repro.flow.cast import direct_cast
    from repro.models.gpt import GPT, GPT_SIZES

    lang = SyntheticLanguage(seed=0)
    model = GPT(lang.vocab_size, GPT_SIZES["GPT-XS"], rng=np.random.default_rng(0))
    assert supports_cached_decode(model)  # fp32
    direct_cast(model, "mx6")
    assert supports_cached_decode(model)
    direct_cast(model, "mx6?rounding=stochastic")
    assert not supports_cached_decode(model)
