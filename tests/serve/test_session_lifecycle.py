"""Dynamic counterpart of the lifecycle analysis rules: under shutdown
races every future must still resolve.

Two scripted races: ``close()`` against an active ``stream`` consumer,
and ``close()`` against a watchdog mid-replacement.  In both, no future
may be left unresolved and no consumer may block forever — the invariant
the ``dropped-future`` static rule enforces lexically.
"""

import threading
import time

import pytest

from repro.nn.layers import Module
from repro.serve import (
    SessionClosed,
    TaskAdapter,
    WorkerHung,
    compile_model,
    configure_faults,
    register_adapter,
)


class LifecycleEchoModel(Module):
    """Parameterless model; behavior scripted by request payloads."""


class LifecycleEchoAdapter(TaskAdapter):
    tasks = ("classify", "generate")

    def classify(self, payloads):
        out = []
        for payload in payloads:
            if payload.get("sleep"):
                time.sleep(payload["sleep"])
            out.append({"value": payload.get("value")})
        return out

    def generate_stream(self, prompt, max_new_tokens, eos=None):
        for i in range(int(prompt.get("n", max_new_tokens))):
            if prompt.get("sleep"):
                time.sleep(prompt["sleep"])
            yield i


register_adapter(LifecycleEchoModel, LifecycleEchoAdapter)


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    previous = configure_faults(None)
    yield
    configure_faults(previous)


def lifecycle_session(**overrides):
    overrides.setdefault("max_wait", 0.01)
    return compile_model(LifecycleEchoModel()).session(**overrides)


def drain_stream(stream, sink):
    """Consume a stream into ``sink``; record the terminal outcome."""
    try:
        for token in stream:
            sink["tokens"].append(token)
        sink["outcome"] = "exhausted"
    except BaseException as error:  # the consumer must see a typed error
        sink["outcome"] = error


class TestCloseVsStreamConsumer:
    def test_close_racing_active_stream_resolves_everything(self):
        session = lifecycle_session(workers=1)
        stream = session.stream(
            {"task": "generate", "prompt": {"n": 50, "sleep": 0.02}}
        )
        sink = {"tokens": [], "outcome": None}
        consumer = threading.Thread(target=drain_stream, args=(stream, sink))
        consumer.start()
        while not sink["tokens"]:  # the stream is demonstrably in flight
            time.sleep(0.005)
        session.close(timeout=0.2)  # give up on the mid-token worker
        consumer.join(timeout=5)
        assert not consumer.is_alive(), "stream consumer blocked after close()"
        # the consumer either drained the stream or got a typed error —
        # never a hang, never a bare unresolved future
        assert sink["outcome"] == "exhausted" or isinstance(
            sink["outcome"], BaseException
        )
        # the session is fully closed: new work is refused immediately
        with pytest.raises(SessionClosed):
            session.submit({"task": "classify", "value": 1})

    def test_abandoning_consumer_then_close_is_clean(self):
        with lifecycle_session(workers=1) as session:
            stream = session.stream(
                {"task": "generate", "prompt": {"n": 50, "sleep": 0.02}}
            )
            got = [next(stream), next(stream)]
            stream.close()  # consumer walks away; close() follows via ctx exit
            assert got == [0, 1]


class TestConcurrentClose:
    def test_concurrent_close_is_idempotent(self):
        """Regression for the close() epilogue: the final ``_closed``
        transition now happens under the condition variable, so a racing
        second close() can never observe a half-finished shutdown."""
        session = lifecycle_session(workers=2)
        futures = [
            session.submit({"task": "classify", "value": i, "sleep": 0.01})
            for i in range(8)
        ]
        barrier = threading.Barrier(3)

        def closer():
            barrier.wait()
            session.close(timeout=2)

        threads = [threading.Thread(target=closer) for _ in range(2)]
        for t in threads:
            t.start()
        barrier.wait()
        session.close(timeout=2)
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive(), "concurrent close() deadlocked"
        for future in futures:
            assert future.done(), "close() left a submitted future unresolved"
        with pytest.raises(SessionClosed):
            session.submit({"task": "classify", "value": 9})

    def test_submit_after_close_raises_not_hangs(self):
        session = lifecycle_session(workers=1)
        session.submit({"task": "classify", "value": 1}).result(timeout=5)
        session.close()
        for _ in range(3):  # idempotent, immediate
            session.close()
        with pytest.raises(SessionClosed):
            session.submit({"task": "classify", "value": 2})


class TestCloseVsWatchdogReplacement:
    def test_close_during_watchdog_replacement_resolves_all_futures(self):
        session = lifecycle_session(
            workers=1, watchdog_interval=0.03, hang_timeout=0.1
        )
        hung = session.submit({"task": "classify", "value": "hang", "sleep": 0.8})
        pending = [
            session.submit({"task": "classify", "value": i}) for i in range(4)
        ]
        # wait until the watchdog has marked the worker hung (the future
        # resolves with WorkerHung) so close() overlaps the replacement
        with pytest.raises(WorkerHung):
            hung.result(timeout=5)
        session.close(timeout=0.3)
        for future in pending + [hung]:
            assert future.done(), "close() during replacement dropped a future"
        summary = session.summary()
        # the hung request plus any batch-mates the watchdog failed with it
        assert summary["reliability"]["hung"] >= 1
        assert summary["reliability"]["workers_replaced"] >= 1

    def test_close_in_the_replacement_gap_never_meets_an_unstarted_worker(
        self, monkeypatch
    ):
        """Deterministic reproducer of the watchdog publish-before-start race.

        The patched ``_start_worker`` runs ``close()`` on another thread
        right after the watchdog published the replacement and before the
        replacement starts, and gives it half a second to get going.  The
        watchdog must make publish-and-start one step that ``close()``
        cannot split: the replacement starts before ``close()`` begins,
        or is never started at all.
        """
        session = lifecycle_session(
            workers=1, watchdog_interval=0.03, hang_timeout=0.1
        )
        start_worker = session._start_worker
        in_gap = threading.Event()
        closing_at_start = []
        close_errors = []

        def closer():
            try:
                session.close(timeout=0.3)
            except BaseException as error:  # the race surfaces here
                close_errors.append(error)

        closing = threading.Thread(target=closer)

        def gated_start(state):
            in_gap.set()
            closing.start()
            deadline = time.monotonic() + 0.5
            while not session._closing and time.monotonic() < deadline:
                time.sleep(0.005)
            closing_at_start.append(session._closing)
            start_worker(state)

        monkeypatch.setattr(session, "_start_worker", gated_start)
        hung = session.submit({"task": "classify", "value": "hang", "sleep": 0.8})
        pending = [
            session.submit({"task": "classify", "value": i}) for i in range(4)
        ]
        assert in_gap.wait(timeout=5), "the watchdog never replaced the worker"
        closing.join(timeout=10)
        assert not closing.is_alive(), "close() hung"
        assert not close_errors, close_errors
        assert closing_at_start == [False], (
            "the watchdog started a replacement worker after close() began"
        )
        for future in pending + [hung]:
            assert future.done(), "close() during replacement dropped a future"

    def test_close_while_worker_still_hung_fails_outstanding(self):
        session = lifecycle_session(
            workers=1, watchdog_interval=0.05, hang_timeout=10.0
        )
        # the worker hangs but the watchdog won't replace it (long
        # hang_timeout): close(timeout=small) must abandon it and fail
        # every outstanding future with SessionClosed
        stuck = session.submit({"task": "classify", "value": "x", "sleep": 1.0})
        queued = [
            session.submit({"task": "classify", "value": i}) for i in range(3)
        ]
        time.sleep(0.05)  # the worker is demonstrably mid-batch
        session.close(timeout=0.1)
        for future in queued + [stuck]:
            assert future.done(), "abandoned worker left a future unresolved"
        done_kinds = set()
        for future in queued + [stuck]:
            if future.cancelled():
                done_kinds.add("cancelled")
            elif future.exception() is not None:
                done_kinds.add(type(future.exception()).__name__)
            else:
                done_kinds.add("result")
        assert "SessionClosed" in done_kinds
