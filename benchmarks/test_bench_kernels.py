"""Micro-benchmarks of the quantization kernels themselves.

These time the emulation throughput (elements/second) of each format
family — the practical cost of using this library as an MX emulator.
The suite doubles as the regression gate: ``benchmarks/check_regression.py``
compares a fresh ``--benchmark-json`` run against the committed
``benchmarks/BENCH_kernels.json`` baseline and fails on a >25% slowdown.

``test_raw_engine_mx9_reference`` times the legacy unfused path, so one run
shows the fast-backend speedup directly (the fused backend must hold >=2x
on the mx9/mx6/bfp kernels).
"""

import numpy as np
import pytest

from repro.core.bdr import BDRConfig
from repro.core.quantize import bdr_quantize
from repro.fidelity.qsnr import measure_qsnr
from repro.fidelity.sweep import run_sweep
from repro.formats.registry import get_format
from repro.kernels import clear_plan_cache, use_backend
from repro.nn.quantized import QuantSpec, quantized_matmul
from repro.nn.tensor import Tensor

SHAPE = (256, 1024)


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(0).normal(size=SHAPE)


@pytest.mark.parametrize("name", ["mx9", "mx6", "mx4", "msfp16", "int8", "vsq6", "fp8_e4m3"])
def test_quantize_kernel(benchmark, data, name):
    fmt = get_format(name)
    result = benchmark(lambda: fmt.quantize(data, axis=-1))
    assert result.shape == SHAPE


def test_raw_engine_mx9(benchmark, data):
    config = BDRConfig.mx(m=7)
    benchmark(lambda: bdr_quantize(data, config, axis=-1))


def test_raw_engine_mx9_reference(benchmark, data):
    """The legacy unfused path: the denominator of the speedup claim."""
    config = BDRConfig.mx(m=7)
    with use_backend("reference"):
        benchmark(lambda: bdr_quantize(data, config, axis=-1))


def test_planned_path_cold_vs_warm(benchmark, data):
    """Steady-state planned execution: every call after the first reuses the
    cached QuantPlan (geometry).  The plan cache is cleared once
    up front so the timed calls include exactly one cold plan build."""
    config = BDRConfig.mx(m=4)
    clear_plan_cache()

    def warm_calls():
        return bdr_quantize(data, config, axis=-1)

    benchmark(warm_calls)


def test_measure_qsnr_batched_mx6(benchmark):
    """The Figure 7 inner loop: stateless formats collapse the chunked
    ensemble into a single batched quantize call."""
    result = benchmark.pedantic(
        lambda: measure_qsnr(get_format("mx6"), n_vectors=2000), rounds=3, iterations=1
    )
    assert 20.0 < result < 40.0


def test_run_sweep_parallel_smoke(benchmark):
    """run_sweep fans out over a process pool; results stay bit-identical
    to the serial path (asserted in tests/fidelity), so this only times the
    dispatch overhead on a small grid."""
    configs = [BDRConfig.mx(m=2), BDRConfig.mx(m=4), BDRConfig.bfp(m=3, k1=16),
               BDRConfig.mx(m=7)]
    points = benchmark.pedantic(
        lambda: run_sweep(configs=configs, include_named=False,
                          n_vectors=200, n_jobs=2),
        rounds=1, iterations=1,
    )
    assert len(points) == len(configs)


def test_quantized_matmul_forward_backward(benchmark):
    rng = np.random.default_rng(1)
    a_data = rng.normal(size=(64, 256))
    w_data = rng.normal(size=(256, 64))
    spec = QuantSpec.uniform("mx9")

    def step():
        a = Tensor(a_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        quantized_matmul(a, w, spec).sum().backward()
        return w.grad

    assert benchmark(step) is not None


def test_quantized_matmul_memoized_weights(benchmark):
    """Inference-style reuse: the weight tensor persists across calls, so
    Q(w) is computed once and served from the tensor's quantization cache."""
    rng = np.random.default_rng(2)
    a_data = rng.normal(size=(64, 256))
    w = Tensor(rng.normal(size=(256, 64)), requires_grad=True)
    spec = QuantSpec.uniform("mx9")

    def step():
        return quantized_matmul(Tensor(a_data), w, spec)

    assert benchmark(step).shape == (64, 64)