"""Load generators: open loop (Poisson schedule) and closed loop.

Both run on the calling (main) thread and only call
``InferenceSession.submit``; completion times are taken in the future's
``add_done_callback``, on whichever thread resolves it.

* Open loop: requests are due on a precomputed Poisson schedule and are
  sent when due whether or not earlier ones finished.  Latency runs from
  the **due** time, so a stall also charges the requests queued behind
  it; how late the generator itself sent (``lag``) is recorded per
  request.
* Closed loop: ``clients`` requests are outstanding at all times; the
  next one is sent when one resolves.  Latency runs from the send.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Phase",
    "PhaseResult",
    "poisson_offsets",
    "run_open_phase",
    "run_closed",
    "percentile",
]

def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed requests) sort last."""
    ordered = sorted(samples)
    if not ordered:
        return math.nan
    rank = max(0, min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def poisson_offsets(rng, rate: float, seconds: float) -> list[float]:
    """Arrival offsets (s) of a Poisson process at ``rate`` over ``seconds``,
    conditioned on exactly ``rate * seconds`` arrivals (sorted uniform
    times), so the offered load of a phase is the same on every seed."""
    n = max(1, round(rate * seconds))
    return sorted(float(t) for t in rng.uniform(0.0, seconds, size=n))


@dataclass
class Phase:
    """One fixed-rate open-loop phase: its name, rate and requests."""

    name: str
    rate: float
    offsets: list[float]
    requests: list


@dataclass
class PhaseResult:
    """Per-request outcomes of one phase, in send order.

    ``latencies_ms[i]`` is ``inf`` for a request that failed, was refused
    or timed out.  Only the outputs of the request indices asked for in
    ``keep`` are retained, so the generator's own memory stays small.
    """

    name: str
    rate: float
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    sent_at: list[float] = field(default_factory=list)  # perf_counter time
    latencies_ms: list[float] = field(default_factory=list)
    lags_ms: list[float] = field(default_factory=list)
    backlog: list[int] = field(default_factory=list)  # outstanding at each send
    due_s: list[float] = field(default_factory=list)  # due offset of each send
    outputs: dict = field(default_factory=dict)  # kept index -> result
    window: tuple[float, float] = (0.0, 0.0)  # first send .. last completion

    @property
    def rate_achieved(self) -> float:
        """Requests completed per second, from the first send to the last
        completion."""
        span = self.window[1] - self.window[0]
        return self.succeeded / span if span > 0 else 0.0

    def backlog_growing(self) -> bool:
        """Whether outstanding requests climbed through the phase: the
        least-squares slope of the backlog seen at each send, against its
        due time, exceeds a fifth of the offered rate per second."""
        n = len(self.backlog)
        if n < 8 or self.rate <= 0:
            return False
        t = self.due_s
        t_mean = sum(t) / n
        b_mean = sum(self.backlog) / n
        cov = sum((ti - t_mean) * (bi - b_mean) for ti, bi in zip(t, self.backlog))
        var = sum((ti - t_mean) ** 2 for ti in t)
        return var > 0 and cov / var > 0.2 * self.rate

    def blocks(self, size: int, skip: float = 0.0) -> list[tuple[float, list[float]]]:
        """``(requests sent per second, latencies)`` of consecutive runs of
        at least ``size`` requests in send order, after the first ``skip``
        seconds; the requests are split evenly, none dropped."""
        first = next(
            (i for i, t in enumerate(self.sent_at) if t >= self.window[0] + skip),
            len(self.sent_at),
        )
        n = len(self.sent_at) - first
        count = n // size
        out = []
        for k in range(count):
            lo, hi = first + k * n // count, first + (k + 1) * n // count
            end = self.sent_at[hi] if hi < len(self.sent_at) else self.window[1]
            if end > self.sent_at[lo]:
                out.append(((hi - lo) / (end - self.sent_at[lo]), self.latencies_ms[lo:hi]))
        return out


class _Book:
    """Send and completion bookkeeping of one phase.

    Completion times are taken in the futures' done-callbacks, on the
    resolving thread; outcomes are read on the main thread afterwards.
    """

    def __init__(self, result: PhaseResult, keep, notify=None):
        self.result = result
        self.keep = keep
        self.notify = notify
        self.lock = threading.Lock()
        self.completed = 0
        self.done_at: list = []
        self.futures: dict = {}

    def submit(self, session, request, sent_at: float) -> None:
        result = self.result
        index = len(result.sent_at)
        result.sent_at.append(sent_at)
        result.latencies_ms.append(math.inf)
        self.done_at.append(None)
        result.sent += 1
        try:
            future = session.submit(request)
        except Exception:  # noqa: BLE001 - refused by admission control
            result.failed += 1
            if self.notify is not None:
                self.notify.put(index)
            return
        self.futures[index] = future
        future.add_done_callback(lambda f, i=index: self._on_done(i))

    def _on_done(self, index: int) -> None:
        self.done_at[index] = time.perf_counter()
        with self.lock:
            self.completed += 1
        if self.notify is not None:
            self.notify.put(index)

    def settle(self, index: int, timeout: float) -> None:
        """Record the outcome of request ``index`` and forget its future."""
        future = self.futures.pop(index, None)
        if future is None:
            return
        result = self.result
        try:
            value = future.result(timeout=timeout)
        except Exception:  # noqa: BLE001 - any failure, timeout included, is a miss
            result.failed += 1
            return
        # a future's waiters wake before its callbacks run
        while self.done_at[index] is None:
            time.sleep(0.0005)
        result.succeeded += 1
        result.latencies_ms[index] = (self.done_at[index] - result.sent_at[index]) * 1e3
        if index in self.keep:
            result.outputs[index] = value

    def drain(self, drain_s: float) -> PhaseResult:
        deadline = time.perf_counter() + drain_s
        for index in sorted(self.futures):
            self.settle(index, max(0.0, deadline - time.perf_counter()))
        ends = [t for t in self.done_at if t is not None]
        result = self.result
        result.window = (min(result.sent_at, default=0.0), max(ends, default=0.0))
        return result


def run_open_phase(session, phase: Phase, keep=(), drain_s: float = 30.0) -> PhaseResult:
    """Send ``phase.requests`` at their due offsets; wait for them to drain.

    Latencies run from each request's due time.  A request refused at
    submit, failed, or unresolved ``drain_s`` after the last send counts
    as failed with infinite latency.  Outputs of the ``keep`` indices are
    retained for checking.
    """
    book = _Book(PhaseResult(phase.name, phase.rate), set(keep))
    result = book.result
    start = time.perf_counter() + 0.005
    for i, (offset, request) in enumerate(zip(phase.offsets, phase.requests)):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        result.lags_ms.append((time.perf_counter() - due) * 1e3)
        result.backlog.append(i - book.completed)
        result.due_s.append(offset)
        book.submit(session, request, due)
    return book.drain(drain_s)


def run_closed(session, requests, clients: int, seconds: float, keep=(),
               drain_s: float = 30.0) -> PhaseResult:
    """Keep ``clients`` requests outstanding for ``seconds``, cycling
    through ``requests``; the main thread sends each next request as soon
    as it learns one resolved.  ``lags_ms`` is that reaction time."""
    notify: queue.SimpleQueue = queue.SimpleQueue()
    book = _Book(PhaseResult("closed", 0.0), set(keep), notify)
    result = book.result

    def send() -> None:
        index = len(result.sent_at)
        book.submit(session, requests[index % len(requests)], time.perf_counter())

    stop = time.perf_counter() + seconds
    for _ in range(clients):
        send()
    while time.perf_counter() < stop:
        try:
            index = notify.get(timeout=drain_s)
        except queue.Empty:
            break
        send()
        finished = book.done_at[index]
        if finished is not None:
            result.lags_ms.append((result.sent_at[-1] - finished) * 1e3)
        book.settle(index, drain_s)
    return book.drain(drain_s)
