"""Span tracing from outside the program: wrap public layer functions.

The benchmark never edits ``src/``.  Instead, :class:`Tracer` replaces a
fixed list of public functions and methods with timing wrappers for the
duration of a traced run and puts the originals back afterwards.
Modules bind most of these names with ``from ... import``, so a function
is patched at *every* import site: each loaded ``repro`` module whose
attribute is the original function object gets the wrapper.  Targets that
a later version of the program no longer has are skipped and listed in
:attr:`Tracer.missing`, so the per-layer metrics built on them read zero
instead of the benchmark breaking.

Each wrapped call records one span ``(sid, name, start, end, parent,
thread, work)``: the parent comes from a per-thread stack, ``work`` is a
size measured from the call's arguments (elements quantized, pages
checked out, streams stepped, ...).  Spans stay in memory until the run
ends.  For every thread, the CPU time spent inside root spans is summed
separately; :func:`thread_cpu_s` reads a thread's total CPU time so the
ledger can report how much of each serving thread's busy time the spans
cover.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["Tracer", "thread_cpu_s", "self_times"]


def _arg(args, kwargs, index: int, name: str):
    """A wrapped call's argument by position (``self`` is 0) or keyword."""
    return args[index] if len(args) > index else kwargs[name]


def _nelem(x) -> int:
    return int(getattr(x, "size", 0))


def _epilogue_flops(args, kwargs) -> int:
    a, w = _arg(args, kwargs, 1, "a"), _arg(args, kwargs, 2, "w")
    rows = _nelem(a) // max(a.shape[-1], 1)
    return 2 * rows * int(w.shape[0]) * int(w.shape[1])


def _request_key(request) -> int:
    """Identity of a request's context or prompt array: the same object
    from ``InferenceSession.submit`` to the ``run_batch`` that carries it."""
    payload = request if isinstance(request, dict) else request.payload
    return id(payload.get("context", payload.get("prompt")))


#: spans whose ``work`` field holds request identities, not a size
KEYED = ("session.submit", "adapters.run_batch")

# (span name, dotted owner, attribute, work(args, kwargs) or None).  An
# owner that is a class patches the method on that class and on every
# subclass defining its own override (kernel backends); an owner that is
# a module patches the function at every import site.
TARGETS = (
    ("session.submit", "repro.serve.session.InferenceSession", "submit",
     lambda a, k: _request_key(_arg(a, k, 1, "request"))),
    ("adapters.run_batch", "repro.serve.adapters.TaskAdapter", "run_batch",
     lambda a, k: [_request_key(r) for r in _arg(a, k, 1, "requests")]),
    ("nn.decode_step.batched", "repro.nn.decode", "batched_causal_decode_step",
     lambda a, k: len(_arg(a, k, 1, "windows"))),
    ("nn.decode_step.serial", "repro.nn.decode", "causal_decode_step", None),
    ("pages.checkout", "repro.serve.sched.pages.PagePool", "checkout_pages",
     lambda a, k: int(_arg(a, k, 2, "n"))),
    ("pages.release", "repro.serve.sched.pages.PagePool", "release_pages", None),
    ("nn.forward", "repro.models.gpt.GPT", "forward", None),
    ("nn.forward", "repro.models.gpt.GPT", "forward_rows", None),
    ("nn.attention", "repro.nn.attention.MultiHeadAttention", "forward", None),
    ("nn.attention", "repro.nn.attention.MultiHeadAttention", "_pipeline_tail", None),
    ("nn.matmul", "repro.nn.quantized", "quantized_matmul", None),
    ("nn.matmul", "repro.nn.quantized", "quantized_bmm", None),
    ("nn.matmul", "repro.nn.quantized", "quantized_matmul_prequant", None),
    ("nn.matmul", "repro.nn.quantized", "quantized_bmm_prequant", None),
    ("kernels.quantize", "repro.kernels.base.KernelBackend", "quantize",
     lambda a, k: _nelem(_arg(a, k, 1, "x"))),
    ("kernels.partial", "repro.kernels.base.KernelBackend", "quantize_partial",
     lambda a, k: _nelem(_arg(a, k, 1, "x"))),
    ("kernels.epilogue", "repro.kernels.base.KernelBackend", "matmul_epilogue",
     _epilogue_flops),
    ("fidelity.qsnr", "repro.fidelity.qsnr", "measure_qsnr", None),
    ("hardware.cost", "repro.hardware.cost", "hardware_cost", None),
)


def _resolve(dotted: str):
    """Import ``a.b.C`` as module ``a.b`` attribute ``C`` (or module a.b.C)."""
    try:
        return importlib.import_module(dotted)
    except ImportError:
        module, _, attr = dotted.rpartition(".")
        try:
            return getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            return None


def thread_cpu_s(thread: threading.Thread) -> float:
    """CPU seconds ``thread`` has used so far (Linux per-thread clock)."""
    if thread is threading.current_thread():
        return time.thread_time()
    return time.clock_gettime(time.pthread_getcpuclockid(thread.ident))


class Tracer:
    """In-memory span recorder over the public layer functions."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.root_cpu: dict[int, float] = defaultdict(float)
        self.thread_names: dict[int, str] = {}
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn, work):
        spans, ids, local = self.spans, self._ids, self._local
        root_cpu, names = self.root_cpu, self.thread_names
        clock, cpu = time.perf_counter, time.thread_time

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                names[threading.get_ident()] = threading.current_thread().name
            sid = next(ids)
            parent = stack[-1] if stack else -1
            size = work(args, kwargs) if work is not None else None
            cpu0 = cpu() if parent < 0 else 0.0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tid = threading.get_ident()
                if parent < 0:
                    root_cpu[tid] += cpu() - cpu0
                spans.append((sid, name, start, end, parent, tid, size))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Patch every target at each of its import sites."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for name, owner_path, attr, work in TARGETS:
            owner = _resolve(owner_path)
            if isinstance(owner, type):
                classes = [owner] + _subclasses(owner)
                patched = False
                for cls in classes:
                    if attr in cls.__dict__:
                        self._patch(cls, attr, self._wrap(name, cls.__dict__[attr], work))
                        patched = True
                if not patched:
                    self.missing.append(f"{owner_path}.{attr}")
                continue
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            wrapper = self._wrap(name, original, work)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "") or "").startswith("repro") and (
                    module.__dict__.get(attr) is original
                ):
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def clear(self) -> None:
        self.spans.clear()
        self.root_cpu.clear()

    # ------------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto-viewable)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        if not self.spans:
            t0 = 0.0
        else:
            t0 = min(span[2] for span in self.spans)
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": tid,
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": sid, "parent": parent}
                | ({} if name in KEYED else {"work": size}),
            }
            for sid, name, start, end, parent, tid, size in self.spans
        ]
        events.extend(
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": label}}
            for tid, label in self.thread_names.items()
        )
        path.write_text(json.dumps({"traceEvents": events}))


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children of one span run on the same thread inside it and never
    overlap each other, so their summed durations are the covered time.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return {
        sid: (end - start) - child_time.get(sid, 0.0)
        for sid, _, start, end, _, _, _ in spans
    }
