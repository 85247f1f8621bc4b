"""Per-layer metrics of a traced run, computed from its spans and counters.

Self time is a span's duration minus the time its child spans cover.
Bytes and FLOPs are computed from tensor shapes (float64 operands), not
measured.  Each metric below names the end-to-end metric it should move
and on which workload; metrics of a layer a workload bypasses read 0.

========================  ==================================================
layer (metric prefix)     should move
========================  ==================================================
loadgen.*                 nothing: validates every run
session.*                 e2e_p50_ms on score-closed, success_rate everywhere
adapters.*                requests_per_s and e2e_p90_ms on score-closed
sched.*                   sustained_rps and e2e_p90_ms on decode-ragged, not
                          on score-closed or format-sweep
pages.*                   sustained_rps on prefix-shared, peak_rss_mb on both
                          open loops
nn.decode_step.*          decode-ragged
nn.forward/attention/     requests_per_s on score-closed
matmul, residency
kernels.* per call        decode-ragged (us_per_call, calls, calls_per_request)
kernels.* per element     points_per_s on format-sweep (elements, bytes, self_s)
fidelity.*, hardware.*    points_per_s on format-sweep only
trace.*                   nothing: tracing overhead and span coverage
========================  ==================================================
"""

from __future__ import annotations

import statistics
from collections import defaultdict, deque

from loadgen import percentile
from spans import self_times

__all__ = ["PER_LAYER", "ledger", "top_level_kernel_calls"]

#: every per-layer metric: (unit, which direction is better), report order
PER_LAYER = {
    "loadgen.sent": ("count", "higher"),
    "loadgen.succeeded": ("count", "higher"),
    "loadgen.failed": ("count", "lower"),
    **{
        f"loadgen.{phase}.{what}": ("count", "lower" if what == "failed" else "higher")
        for phase in ("low", "mid", "high")
        for what in ("sent", "succeeded", "failed")
    },
    "loadgen.lag_p90_ms": ("ms", "lower"),
    "session.submit_us": ("us", "lower"),
    "session.queue_wait_ms": ("ms", "lower"),
    "session.reliability_events": ("count", "lower"),
    "adapters.run_batch.calls": ("count", "lower"),
    "adapters.run_batch.self_s": ("s", "lower"),
    "adapters.batch_size_mean": ("requests", "higher"),
    "adapters.occupancy": ("ratio", "higher"),
    "sched.steps": ("count", "lower"),
    "sched.streams_per_step": ("streams", "higher"),
    "sched.step_busy_s": ("s", "lower"),
    "sched.idle_share": ("ratio", "higher"),
    "sched.serial_steps": ("count", "lower"),
    "sched.preemptions": ("count", "lower"),
    "sched.ttft_p50_ms": ("ms", "lower"),
    "sched.ttft_p90_ms": ("ms", "lower"),
    "pages.checkouts": ("count", "lower"),
    "pages.high_water": ("count", "lower"),
    "pages.checkout_us": ("us", "lower"),
    "pages.leaked": ("count", "lower"),
    "nn.decode_step.self_s": ("s", "lower"),
    "nn.decode_step.ms_per_step": ("ms", "lower"),
    "nn.forward.self_s": ("s", "lower"),
    "nn.attention.self_s": ("s", "lower"),
    "nn.matmul.calls": ("count", "lower"),
    "nn.matmul.self_s": ("s", "lower"),
    "nn.residency.hit_ratio": ("ratio", "higher"),
    "kernels.quantize.calls": ("count", "lower"),
    "kernels.quantize.elements": ("count", "lower"),
    "kernels.quantize.self_s": ("s", "lower"),
    "kernels.quantize.us_per_call": ("us", "lower"),
    "kernels.quantize.bytes": ("bytes", "lower"),
    "kernels.partial.calls": ("count", "lower"),
    "kernels.partial.self_s": ("s", "lower"),
    "kernels.epilogue.calls": ("count", "lower"),
    "kernels.epilogue.self_s": ("s", "lower"),
    "kernels.epilogue.flops": ("flop", "lower"),
    "kernels.plan.hit_ratio": ("ratio", "higher"),
    "kernels.calls_per_request": ("calls", "lower"),
    "kernels.engine_calls": ("count", "lower"),
    "kernels.sweep_engine_calls": ("count", "lower"),
    "fidelity.qsnr.calls": ("count", "lower"),
    "fidelity.qsnr.self_s": ("s", "lower"),
    "hardware.cost.self_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
}

_KERNEL_QUANTIZE = ("kernels.quantize", "kernels.partial")
_STEPS = ("nn.decode_step.batched", "nn.decode_step.serial")


def _is_top_kernel(span, names: dict[int, str]) -> bool:
    """A kernel call not nested in another quantize (backends may delegate
    partial blocks or fallbacks to ``quantize``; the engine counts once)."""
    return names.get(span[4]) not in _KERNEL_QUANTIZE


def top_level_kernel_calls(spans) -> int:
    """Kernel quantize + partial entries, as the engine counter counts them."""
    names = {span[0]: span[1] for span in spans}
    return sum(
        1 for span in spans
        if span[1] in _KERNEL_QUANTIZE and _is_top_kernel(span, names)
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _queue_waits_ms(submits, batches) -> list[float]:
    """Submit-to-batch-start wait of each request carried by a run_batch."""
    pending: dict[int, deque] = defaultdict(deque)
    for span in sorted(submits, key=lambda s: s[2]):
        pending[span[6]].append(span[2])
    waits = []
    for span in sorted(batches, key=lambda s: s[2]):
        for key in span[6] or ():
            queue = pending.get(key)
            if queue and queue[0] <= span[2]:
                waits.append((span[2] - queue.popleft()) * 1e3)
    return waits


def ledger(tracer, measured, *, max_batch: int, engine_calls: int,
           overhead_share: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced run.

    ``tracer`` holds the run's spans, per-thread root-span CPU time and
    thread names; ``measured`` the load generator's results and the
    program's own counters.
    """
    spans = tracer.spans
    names = {span[0]: span[1] for span in spans}
    selfs = self_times(spans)
    by_name: dict[str, list] = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def self_s(*span_names) -> float:
        return sum(selfs[s[0]] for n in span_names for s in by_name[n])

    def total_s(group) -> float:
        return sum(s[3] - s[2] for s in group)

    out: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    phases = measured.phases
    out["loadgen.sent"] = sum(p.sent for p in phases)
    out["loadgen.succeeded"] = sum(p.succeeded for p in phases)
    out["loadgen.failed"] = sum(p.failed for p in phases)
    labels = [p.name for p in phases] if len(phases) == 3 else ["mid"]
    for label, phase in zip(labels, phases):
        out[f"loadgen.{label}.sent"] = phase.sent
        out[f"loadgen.{label}.succeeded"] = phase.succeeded
        out[f"loadgen.{label}.failed"] = phase.failed
    lags = [lag for p in phases for lag in p.lags_ms]
    out["loadgen.lag_p90_ms"] = percentile(lags, 90) if lags else 0.0

    submits = by_name["session.submit"]
    batches = by_name["adapters.run_batch"]
    out["session.submit_us"] = _ratio(total_s(submits), len(submits)) * 1e6
    waits = _queue_waits_ms(submits, batches)
    out["session.queue_wait_ms"] = statistics.median(waits) if waits else 0.0
    summary = measured.counters.get("summary", {})
    out["session.reliability_events"] = sum(summary.get("reliability", {}).values())

    out["adapters.run_batch.calls"] = len(batches)
    out["adapters.run_batch.self_s"] = self_s("adapters.run_batch")
    sizes = [len(s[6] or ()) for s in batches]
    out["adapters.batch_size_mean"] = statistics.fmean(sizes) if sizes else 0.0
    out["adapters.occupancy"] = out["adapters.batch_size_mean"] / max_batch

    # scheduler steps: decode steps at the root of the scheduler thread
    steps = [
        s for n in _STEPS for s in by_name[n]
        if s[4] < 0 and tracer.thread_names.get(s[5]) == "serve-sched"
    ]
    out["sched.steps"] = len(steps)
    out["sched.streams_per_step"] = _ratio(
        sum(s[6] if s[1] == _STEPS[0] else 1 for s in steps), len(steps)
    )
    out["sched.step_busy_s"] = total_s(steps)
    makespan = measured.window[1] - measured.window[0]
    if steps:
        out["sched.idle_share"] = max(0.0, 1.0 - out["sched.step_busy_s"] / makespan)
    sched = summary.get("sched", {})
    out["sched.serial_steps"] = sched.get("serial_steps", 0)
    out["sched.preemptions"] = sched.get("preempted", 0)
    ttft = sched.get("slo", {}).get("ttft_ms", {})
    out["sched.ttft_p50_ms"] = ttft.get("p50", 0.0)
    out["sched.ttft_p90_ms"] = ttft.get("p90", 0.0)

    checkouts = by_name["pages.checkout"]
    out["pages.checkouts"] = sum(s[6] for s in checkouts)
    kv = measured.counters.get("health", {}).get("kv", {})
    out["pages.high_water"] = kv.get("high_water", 0)
    out["pages.checkout_us"] = _ratio(total_s(checkouts), len(checkouts)) * 1e6
    out["pages.leaked"] = kv.get("pages_used", 0)

    out["nn.decode_step.self_s"] = self_s(*_STEPS)
    out["nn.decode_step.ms_per_step"] = _ratio(total_s(steps), len(steps)) * 1e3
    out["nn.forward.self_s"] = self_s("nn.forward")
    out["nn.attention.self_s"] = self_s("nn.attention")
    out["nn.matmul.calls"] = len(by_name["nn.matmul"])
    out["nn.matmul.self_s"] = self_s("nn.matmul")
    counters = measured.counters
    out["nn.residency.hit_ratio"] = _ratio(
        counters.get("lru_hits", 0), counters.get("lru_hits", 0) + counters.get("lru_misses", 0)
    )

    quantize = [s for s in by_name["kernels.quantize"] if _is_top_kernel(s, names)]
    partial = [s for s in by_name["kernels.partial"] if _is_top_kernel(s, names)]
    epilogue = [s for s in by_name["kernels.epilogue"] if names.get(s[4]) != "kernels.epilogue"]
    out["kernels.quantize.calls"] = len(quantize)
    out["kernels.quantize.elements"] = sum(s[6] for s in quantize)
    out["kernels.quantize.self_s"] = self_s("kernels.quantize")
    out["kernels.quantize.us_per_call"] = _ratio(total_s(quantize), len(quantize)) * 1e6
    # float64 in, float64 out: 16 bytes per element, from shapes
    out["kernels.quantize.bytes"] = 16 * out["kernels.quantize.elements"]
    out["kernels.partial.calls"] = len(partial)
    out["kernels.partial.self_s"] = self_s("kernels.partial")
    out["kernels.epilogue.calls"] = len(epilogue)
    out["kernels.epilogue.self_s"] = self_s("kernels.epilogue")
    out["kernels.epilogue.flops"] = sum(s[6] for s in epilogue)
    out["kernels.plan.hit_ratio"] = _ratio(
        counters.get("plan_hits", 0),
        counters.get("plan_hits", 0) + counters.get("plan_misses", 0),
    )
    out["kernels.calls_per_request"] = _ratio(
        len(quantize) + len(partial), out["loadgen.succeeded"]
    )
    out["kernels.engine_calls"] = engine_calls
    sweeps = counters.get("sweep_engine_calls")
    out["kernels.sweep_engine_calls"] = sweeps[0] if sweeps else 0

    out["fidelity.qsnr.calls"] = len(by_name["fidelity.qsnr"])
    out["fidelity.qsnr.self_s"] = self_s("fidelity.qsnr")
    out["hardware.cost.self_s"] = self_s("hardware.cost")

    busy = sum(measured.cpu_end[t] - measured.cpu_start[t] for t in measured.cpu_start)
    covered = sum(tracer.root_cpu.get(t, 0.0) for t in measured.cpu_start)
    out["trace.overhead_share"] = overhead_share
    out["trace.coverage"] = _ratio(covered, busy)
    out["trace.spans"] = len(spans)
    return out
