"""Thread-safety of the plan LRU.

The contention regression test for serving: ``InferenceSession`` workers
drive the kernel subsystem from several threads at once, so concurrent
``get_plan`` traffic — and even a hostile ``clear_plan_cache`` mid-flight
— must never corrupt results or the cache bounds.
"""

import threading

import numpy as np
import pytest

from repro.formats.registry import get_format
from repro.kernels.plan import clear_plan_cache, plan_cache_info

N_THREADS = 8
ITERATIONS = 40


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _run_threads(worker):
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)]
    errors = []

    def wrapped(i):
        try:
            worker(i)
        except BaseException as err:  # noqa: BLE001
            errors.append(err)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(N_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


class TestConcurrentQuantization:
    def test_shared_shapes_identical_to_serial(self):
        """N threads hammering the same plan produce serial results."""
        fmt = get_format("mx6")
        rng = np.random.default_rng(0)
        inputs = [rng.normal(size=(8, 16, 32)) for _ in range(N_THREADS)]
        expected = [fmt.quantize(x, axis=-1) for x in inputs]
        clear_plan_cache()
        results = [None] * N_THREADS

        def worker(i):
            out = None
            for _ in range(ITERATIONS):
                out = fmt.quantize(inputs[i], axis=-1)
            results[i] = out

        _run_threads(worker)
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got, want)

    def test_mixed_formats_and_shapes_under_contention(self):
        # stateless formats only: delayed-scaling families (int8/vsq) are
        # history-dependent by design, so repeated calls legitimately differ
        fmts = [get_format(n) for n in ("mx6", "mx9", "msfp12", "mx4")]
        rng = np.random.default_rng(1)
        inputs = [rng.normal(size=(4, 8 * (i + 1), 32)) for i in range(N_THREADS)]
        expected = [
            fmts[i % len(fmts)].quantize(x, axis=-1) for i, x in enumerate(inputs)
        ]

        def worker(i):
            fmt = fmts[i % len(fmts)]
            for _ in range(ITERATIONS):
                out = fmt.quantize(inputs[i], axis=-1)
                np.testing.assert_array_equal(out, expected[i])

        _run_threads(worker)
        info = plan_cache_info()
        assert info["size"] <= info["max_size"]

    def test_clear_cache_mid_flight_is_safe(self):
        """An admin clearing the cache under live traffic loses no bits."""
        fmt = get_format("mx6")
        rng = np.random.default_rng(2)
        x = rng.normal(size=(8, 16, 32))
        expected = fmt.quantize(x, axis=-1)
        stop = threading.Event()

        def clearer():
            while not stop.is_set():
                clear_plan_cache()

        chaos = threading.Thread(target=clearer)
        chaos.start()
        try:

            def worker(i):
                for _ in range(ITERATIONS):
                    np.testing.assert_array_equal(fmt.quantize(x, axis=-1), expected)

            _run_threads(worker)
        finally:
            stop.set()
            chaos.join()
        info = plan_cache_info()
        assert info["size"] <= info["max_size"]


class TestSessionContention:
    def test_threaded_sessions_share_one_compiled_model(self):
        """The serving regression: concurrent workers, bit-identical scores."""
        from repro.data.synthetic import SyntheticLanguage
        from repro.data.tasks import make_task
        from repro.models.gpt import GPT, GPT_SIZES
        from repro.serve.compile import compile_model

        lang = SyntheticLanguage(seed=0)
        model = GPT(lang.vocab_size, GPT_SIZES["GPT-XS"], rng=np.random.default_rng(0))
        compiled = compile_model(model, "mx6")
        examples = make_task("recall", lang, n_examples=8, seed=1)
        requests = [
            {"task": "score", "context": ex.context, "candidates": ex.candidates}
            for ex in examples
        ]
        expected = compiled.run(requests)
        with compiled.session(max_batch=4, workers=4, max_wait=0.001) as session:
            futures = [session.submit(r) for r in requests * 4]
            results = [f.result(timeout=30) for f in futures]
        for i, result in enumerate(results):
            assert result == expected[i % len(expected)]
