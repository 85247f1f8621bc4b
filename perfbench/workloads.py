"""The four benchmark workloads: inputs from a seed, set-up, load, checks.

Every workload drives the program through its public API only
(``compile_model``, ``SessionConfig``, ``InferenceSession.submit`` /
``health()`` / ``summary()``, ``run_sweep``), generates load on the main
thread, and serves ``mx6`` with ``workers=1``, so at most two threads do
work at once.  The model is GPT-S with fixed weights; the seed decides
only the inputs (prompts, arrival times, tasks, sweep ensembles).

Offered rates and latency limits are constants, identical on every
commit and never derived at run time.  They were set on a 2-core Xeon at
2.0 GHz, where whole-queue drains reach about 55 req/s (decode-ragged)
and 200 req/s (prefix-shared), but Poisson arrivals form smaller batches:
decode-ragged's backlog starts growing near 40 req/s and prefix-shared's
p90 climbs steeply past 90 req/s.  The high rates sit well below those
knees, because the host's speed drifted by a third within an hour and a
phase that flips between passing and failing its limit makes
``sustained_rps`` useless; the middle rates, whose latencies are
reported, sit at low load because run-to-run latency spread grows
quickly with load on a shared host.
"""

from __future__ import annotations

import statistics
import threading
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.quantize import quantize_call_count
from repro.data.synthetic import SyntheticLanguage
from repro.data.tasks import make_task
from repro.fidelity.sweep import bdr_design_space, run_sweep
from repro.kernels import plan_cache_info, use_backend
from repro.models.gpt import GPT, GPT_SIZES
from repro.serve import SessionConfig, compile_model
from repro.serve.metrics import cache_stats

from loadgen import (
    Phase,
    PhaseResult,
    percentile,
    poisson_offsets,
    run_closed,
    run_open_phase,
)
from spans import thread_cpu_s

FORMAT = "mx6"
MODEL = "GPT-S"
MODEL_SEED = 0

#: open loops: offered rates (req/s) of the low/mid/high phases, and the
#: e2e p90 limit (ms) a phase must meet to count as sustained
OPEN_LOOPS = {
    "decode-ragged": {"rates": (4.0, 8.0, 24.0), "p90_limit_ms": 500.0},
    "prefix-shared": {"rates": (15.0, 30.0, 60.0), "p90_limit_ms": 400.0},
}
#: share of the send time each open-loop phase gets; the mid phase, whose
#: latencies are reported, gets the most samples
PHASE_SHARES = {"low": 0.1, "mid": 0.8, "high": 0.1}
#: share of ``--seconds`` spent sending (the rest covers the drains)
SEND_SHARE = 0.9
SCHEDULER = {"max_streams": 64}
#: closed loop: requests outstanding, micro-batch size, task pool size
CLIENTS = 32
MAX_BATCH = 16
SCORE_POOL = 2048
#: minimum completions per block of the median-of-blocks statistics
#: (a block's p90 keeps at least 10 samples beyond it)
BLOCK = 500
BLOCK_OPEN = 100
#: generator lag p90 beyond which a run is invalid rather than reported
MAX_LAG_P90_MS = 25.0
#: how many timed outputs each check replays through the oracle
CHECK_SAMPLES = 12


class CheckFailed(Exception):
    """An output or counter disagreed with its oracle."""


class InvalidRun(Exception):
    """The load generator itself fell behind; the numbers mean nothing."""


@dataclass
class Measurement:
    """What one timed run of a workload produced."""

    phases: list[PhaseResult]
    e2e: dict[str, float]
    counters: dict = field(default_factory=dict)
    cpu_start: dict[int, float] = field(default_factory=dict)
    cpu_end: dict[int, float] = field(default_factory=dict)
    window: tuple[float, float] = (0.0, 0.0)


# ----------------------------------------------------------------------
# Set-up (timed as setup_s): model build, compile, warmup
# ----------------------------------------------------------------------
def _language() -> SyntheticLanguage:
    return SyntheticLanguage(seed=0)


def setup(workload: str):
    """Build and warm what ``workload`` serves; returns its state."""
    if workload == "format-sweep":
        # one design point per (k1, k2, d2) shape fills the kernel plans
        warm = [c for c in bdr_design_space() if c.m == 1]
        run_sweep(configs=warm, include_named=False, seed=10**6)
        return None
    lang = _language()
    model = GPT(lang.vocab_size, GPT_SIZES[MODEL], rng=np.random.default_rng(MODEL_SEED))
    compiled = compile_model(model, FORMAT)
    # warm over the workload's whole size range (masks, plans, pages)
    if workload == "score-closed":
        warm = _score_requests(lang, 4 * MAX_BATCH, 10**6)
    else:
        warm = _generate_requests(workload, np.random.default_rng(10**6), 32, lang.vocab_size)
    with compiled.session(session_config(workload)) as session:
        session.map(warm)
    return compiled


def session_config(workload: str) -> SessionConfig:
    if workload == "score-closed":
        return SessionConfig(format=FORMAT, max_batch=MAX_BATCH, workers=1)
    return SessionConfig(format=FORMAT, workers=1, scheduler=SCHEDULER)


# ----------------------------------------------------------------------
# Inputs (from the seed only)
# ----------------------------------------------------------------------
def _stratified(rng, n: int, low: int, high: int) -> np.ndarray:
    """``n`` integers spread evenly over ``[low, high]`` in seeded order:
    every seed sends the same mix of sizes, so runs differ in order and
    content, not in how much work they offer."""
    grid = low + np.floor((np.arange(n) + rng.random(n)) * (high - low + 1) / n)
    return rng.permutation(grid.astype(int))


def _generate_requests(workload: str, rng, n: int, vocab: int, prefix=None) -> list:
    if workload == "decode-ragged":
        prompt_lens = _stratified(rng, n, 4, 72)
        new_tokens = _stratified(rng, n, 8, 24)
        return [
            {
                "task": "generate",
                "prompt": rng.integers(1, vocab, size=int(length)),
                "max_new_tokens": int(new),
            }
            for length, new in zip(prompt_lens, new_tokens)
        ]
    if prefix is None:
        prefix = rng.integers(1, vocab, size=64)
    return [
        {
            "task": "generate",
            "prompt": np.concatenate([prefix, rng.integers(1, vocab, size=int(length))]),
            "max_new_tokens": 4,
        }
        for length in _stratified(rng, n, 4, 16)
    ]


def _score_requests(lang, n: int, seed: int) -> list:
    return [
        {"task": "score", "context": ex.context, "candidates": ex.candidates}
        for ex in make_task("recall", lang, n_examples=n, seed=seed)
    ]


def open_loop_phases(workload: str, seed: int, seconds: float) -> list[Phase]:
    """The low/mid/high phases of an open-loop workload for ``seed``."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    vocab = _language().vocab_size
    prefix = rng.integers(1, vocab, size=64)
    phases = []
    for (name, share), rate in zip(PHASE_SHARES.items(), OPEN_LOOPS[workload]["rates"]):
        offsets = poisson_offsets(rng, rate, seconds * SEND_SHARE * share)
        requests = _generate_requests(workload, rng, len(offsets), vocab, prefix)
        phases.append(Phase(name, rate, offsets, requests))
    return phases


def _sweep_seed(seed: int, i: int) -> int:
    """Ensemble seed of the ``i``-th sweep of a run: every sweep samples
    its own ensemble, so none reuses another's memoized samples."""
    return seed * 1000 + i


# ----------------------------------------------------------------------
# Timed runs
# ----------------------------------------------------------------------
def _serving_threads() -> list[threading.Thread]:
    return [
        t for t in threading.enumerate()
        if t.name.startswith(("serve-worker", "serve-sched"))
    ]


def _cpu(threads) -> dict[int, float]:
    return {t.ident: thread_cpu_s(t) for t in threads}


def _counter_snapshot() -> dict:
    stats = cache_stats()
    return {
        "engine_calls": quantize_call_count(),
        "lru_hits": stats["causal_mask"]["hits"] + stats["sinusoidal_positions"]["hits"],
        "lru_misses": stats["causal_mask"]["misses"]
        + stats["sinusoidal_positions"]["misses"],
        "plan_hits": plan_cache_info()["hits"],
        "plan_misses": plan_cache_info()["misses"],
    }


def _deltas(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in before}


def _picks(seed: int, population: int) -> list[int]:
    """The seeded indices whose outputs the checks replay (chosen before
    the run, so only their outputs are kept)."""
    rng = np.random.default_rng([seed, 7])
    return sorted(int(i) for i in rng.choice(population, CHECK_SAMPLES, replace=False))


def run_open(compiled, workload: str, phases: list[Phase], seed: int) -> Measurement:
    """Send every phase through one scheduler session; checks pages drain."""
    config = OPEN_LOOPS[workload]
    offsets = np.cumsum([0] + [len(p.requests) for p in phases])
    picks = _picks(seed, int(offsets[-1]))
    results = []
    with compiled.session(session_config(workload)) as session:
        threads = _serving_threads()
        before = _counter_snapshot()
        cpu0 = _cpu(threads)
        t0 = time.perf_counter()
        for phase, first in zip(phases, offsets):
            keep = [i - first for i in picks if first <= i < first + len(phase.requests)]
            results.append(run_open_phase(session, phase, keep))
            leaked = session.health()["kv"]["pages_used"]
            if leaked:
                raise CheckFailed(
                    f"{workload}/{phase.name}: {leaked} KV pages still held after the drain"
                )
        t1 = time.perf_counter()
        cpu1 = _cpu(threads)
        counters = _deltas(before, _counter_snapshot())
        counters["summary"] = session.summary()
        counters["health"] = session.health()
    # latency at the middle rate: medians over blocks of completions
    mid = results[1].blocks(BLOCK_OPEN) or [(0.0, results[1].latencies_ms)]
    sustained = [
        r for r in results
        if percentile(r.latencies_ms, 90) <= config["p90_limit_ms"]
        and not r.backlog_growing()
    ]
    attempted = sum(r.sent for r in results)
    succeeded = sum(r.succeeded for r in results)
    e2e = {
        "e2e_p50_ms": statistics.median(percentile(b, 50) for _, b in mid),
        "e2e_p90_ms": statistics.median(percentile(b, 90) for _, b in mid),
        # no phase sustained: the lowest phase's achieved rate stands in,
        # flagged by its own p90 in the report
        "sustained_rps": (sustained[-1] if sustained else results[0]).rate_achieved,
        "requests_per_s": succeeded / (t1 - t0),
        "success_rate": succeeded / attempted,
    }
    e2e["points_per_s"] = e2e["requests_per_s"]
    return Measurement(results, e2e, counters, cpu0, cpu1, (t0, t1))


def run_score(compiled, requests: list, seconds: float, seed: int) -> Measurement:
    """Closed loop; rate and latency percentiles are medians over blocks
    of :data:`BLOCK` consecutive completions, which damps host-load bursts."""
    with compiled.session(session_config("score-closed")) as session:
        threads = _serving_threads()
        before = _counter_snapshot()
        cpu0 = _cpu(threads)
        t0 = time.perf_counter()
        result = run_closed(session, requests, CLIENTS, seconds,
                            keep=_picks(seed, len(requests)))
        t1 = time.perf_counter()
        cpu1 = _cpu(threads)
        counters = _deltas(before, _counter_snapshot())
        counters["summary"] = session.summary()
        counters["health"] = session.health()
    blocks = result.blocks(BLOCK, skip=1.0)
    if not blocks:
        raise InvalidRun(f"fewer than {BLOCK} score requests completed after warm-in")
    rate = statistics.median(rate for rate, _ in blocks)
    e2e = {
        "e2e_p50_ms": statistics.median(percentile(b, 50) for _, b in blocks),
        "e2e_p90_ms": statistics.median(percentile(b, 90) for _, b in blocks),
        "sustained_rps": rate,
        "requests_per_s": rate,
        "points_per_s": rate,
        "success_rate": result.succeeded / result.sent,
    }
    return Measurement([result], e2e, counters, cpu0, cpu1, (t0, t1))


def run_format_sweep(seed: int, seconds: float) -> Measurement:
    """Default serial sweeps, back to back, until ``seconds`` have passed;
    rates come from the median sweep time."""
    result = PhaseResult("sweep", 0.0)
    engine_calls = []
    main = threading.current_thread()
    cpu0 = _cpu([main])
    before = _counter_snapshot()
    t0 = time.perf_counter()
    while True:
        calls = quantize_call_count()
        start = time.perf_counter()
        points = run_sweep(seed=_sweep_seed(seed, len(engine_calls)))
        end = time.perf_counter()
        if not engine_calls:
            result.outputs[0] = points
        engine_calls.append(quantize_call_count() - calls)
        result.sent += len(points)
        result.succeeded += len(points)
        result.latencies_ms.append((end - start) * 1e3)
        if end - t0 >= seconds:
            break
    t1 = time.perf_counter()
    cpu1 = _cpu([main])
    counters = _deltas(before, _counter_snapshot())
    counters["sweep_engine_calls"] = engine_calls
    result.window = (t0, t1)
    if len(set(engine_calls)) != 1:
        raise CheckFailed(f"sweep engine-call counts differ between sweeps: {engine_calls}")
    rate = len(points) / (statistics.median(result.latencies_ms) / 1e3)
    e2e = {
        "e2e_p50_ms": percentile(result.latencies_ms, 50),
        "e2e_p90_ms": percentile(result.latencies_ms, 90),
        "sustained_rps": rate,
        "requests_per_s": rate,
        "points_per_s": rate,
        "success_rate": 1.0,
    }
    return Measurement([result], e2e, counters, cpu0, cpu1, (t0, t1))


# ----------------------------------------------------------------------
# Output checks (oracles), run before any number is printed
# ----------------------------------------------------------------------
def check_generate(compiled, pairs) -> int:
    """Each ``(request, output)`` stream must equal serial ``generate_stream``."""
    for request, output in pairs:
        truth = list(
            compiled.adapter.generate_stream(request["prompt"], request["max_new_tokens"])
        )
        if output["tokens"] != truth:
            raise CheckFailed(
                f"stream diverged from serial decode: {output['tokens']} != {truth}"
            )
    return len(pairs)


def check_score(compiled, pairs) -> int:
    """Each ``(request, output)`` score must match the reference backend."""
    with use_backend("reference"):
        truth = compiled.run([request for request, _ in pairs])
    for (_, output), expected in zip(pairs, truth):
        if output != expected:
            raise CheckFailed(
                f"score differs from the reference backend: {output} != {expected}"
            )
    return len(pairs)


def check_sweep(points, configs, named: bool, sweep_seed: int) -> int:
    """``points`` (``run_sweep`` over ``configs`` [+ named]) must match the
    reference backend bit for bit."""
    with use_backend("reference"):
        truth = run_sweep(configs=configs, include_named=named, seed=sweep_seed)
    for mine, expected in zip(points, truth, strict=True):
        if mine != expected:
            raise CheckFailed(
                f"sweep point differs from the reference backend: {mine} != {expected}"
            )
    return len(points)


def precheck(workload: str, state, seed: int) -> int:
    """Before timing: a few seeded inputs through the timed path must match
    the oracle (a wrong program is refused before it is measured)."""
    rng = np.random.default_rng([seed, 11])
    if workload == "format-sweep":
        grid = bdr_design_space()
        configs = [grid[i] for i in sorted(rng.choice(len(grid), 4, replace=False))]
        sweep_seed = _sweep_seed(seed, 999)  # not one a timed sweep uses
        return check_sweep(run_sweep(configs=configs, include_named=False, seed=sweep_seed),
                           configs, False, sweep_seed)
    if workload == "score-closed":
        requests = _score_requests(_language(), 8, seed + 10**6)
    else:
        requests = _generate_requests(workload, rng, 4, _language().vocab_size)
    with state.session(session_config(workload)) as session:
        outputs = session.map(requests)
    check = check_score if workload == "score-closed" else check_generate
    return check(state, list(zip(requests, outputs)))


def check_timed(workload: str, state, inputs, measured: Measurement, seed: int) -> int:
    """After timing: the outputs kept from the timed run match the oracle."""
    if workload == "format-sweep":
        points = measured.phases[0].outputs[0]
        grid = bdr_design_space()
        picks = _picks(seed, len(grid))
        sweep_seed = _sweep_seed(seed, 0)
        return check_sweep([points[i] for i in picks], [grid[i] for i in picks],
                           False, sweep_seed) + check_sweep(
            points[len(grid):], [], True, sweep_seed)
    if workload == "score-closed":
        outputs = measured.phases[0].outputs
        pairs = [(inputs[i % len(inputs)], outputs[i]) for i in sorted(outputs)]
        return check_score(state, pairs)
    pairs = [
        (phase.requests[i], output)
        for phase, result in zip(inputs, measured.phases)
        for i, output in sorted(result.outputs.items())
    ]
    return check_generate(state, pairs)


def score_inputs(seed: int) -> list:
    return _score_requests(_language(), SCORE_POOL, seed)


def generator_lag_ok(phases: list[PhaseResult]) -> float:
    """p90 generator lag over the run; raise when the generator fell behind."""
    lags = [lag for r in phases for lag in r.lags_ms]
    lag = percentile(lags, 90) if lags else 0.0
    if lag > MAX_LAG_P90_MS:
        raise InvalidRun(
            f"load generator p90 lag {lag:.1f} ms > {MAX_LAG_P90_MS} ms: it fell "
            "behind its own schedule, so the run is invalid"
        )
    return lag
