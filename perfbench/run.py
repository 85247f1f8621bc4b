"""The repository benchmark: one command, four workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload decode-ragged --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --workload format-sweep --trace 1   # per-layer ledger
    python3 perfbench/run.py --steady 10                         # spread vs bounds

Workloads (see ``BENCHMARK.json`` for why each was chosen; ``prefix-shared``
runs by name but is not in the gated set, because on a shared 2-core host
its ~20-30 ms latencies spread beyond any allowed bound across seeds):

* ``decode-ragged`` — open loop, Poisson arrivals at three fixed rates,
  ragged GPT-S ``generate`` through the continuous scheduler;
* ``prefix-shared`` — open loop, one shared 64-token prefix per run, short
  outputs: the prefill-heavy use of the same scheduler and page pool;
* ``score-closed`` — closed loop, 32 outstanding ``score`` requests
  through the micro-batched session (``max_batch=16``);
* ``format-sweep`` — back-to-back default serial ``run_sweep()`` calls.

With ``--trace 0`` the run prints every end-to-end metric; with
``--trace 1`` the public layer functions are wrapped (``spans.py``), the
per-layer ledger is printed (``ledger.py``), and the spans are written to
``.perfbench/spans-<workload>-seed<n>.json`` as Chrome trace events.
Outputs are checked against the repository's oracles (serial decode, the
``reference`` kernel backend) before any number is printed; a mismatch
exits with status 1 and no metrics.  A run whose load generator fell
behind its own schedule is invalid and exits with status 3.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).
"""

import time

_T0 = time.perf_counter()  # set-up time starts before any heavy import

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"

WORKLOADS = ("decode-ragged", "prefix-shared", "score-closed", "format-sweep")

#: every end-to-end metric, with its unit
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "e2e_p50_ms": "ms",
    "e2e_p90_ms": "ms",
    "sustained_rps": "1/s",
    "requests_per_s": "1/s",
    "points_per_s": "1/s",
}
#: extra fresh-interpreter set-ups per run; setup_s is the median of these
#: and the run's own set-up
SETUP_PROBES = 2


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--steady", type=int, default=0, metavar="K",
        help="run the workload (without --workload: every workload "
        "BENCHMARK.json lists) K times "
        "with seeds seed..seed+K-1 and print each end-to-end metric's "
        "median, quartiles and spread next to its bound",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _fail(status: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return status


def _setup_probe(workload: str) -> float:
    """Set-up seconds of one fresh interpreter (import, build, warmup)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--setup-probe"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def _overhead_share(untraced, traced, pairs: int = 4) -> float:
    """Median traced/untraced wall-time ratio of a fixed job, minus one;
    the two sides alternate so drift hits both."""
    untraced()  # warm whatever the job touches first
    ratios = []
    for i in range(pairs):
        first, second = (untraced, traced) if i % 2 == 0 else (traced, untraced)
        times = {}
        for job in (first, second):
            start = time.perf_counter()
            job()
            times[job] = time.perf_counter() - start
        ratios.append(times[traced] / times[untraced])
    return statistics.median(ratios) - 1.0


def _run(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(2, f"the program's source is missing (no {SRC / 'repro'})")
    sys.path.insert(0, str(SRC))
    import workloads as W

    state = W.setup(args.workload)
    setup_own = time.perf_counter() - _T0
    if args.setup_probe:
        print(f"{setup_own:.6f}")
        return 0
    setups = [setup_own] + [_setup_probe(args.workload) for _ in range(SETUP_PROBES)]

    from repro.core.quantize import quantize_call_count
    from spans import Tracer

    tracer = Tracer()
    workload, seed, seconds = args.workload, args.seed, args.seconds
    # per workload: its seeded inputs, measure(), and calibration(session)
    # -> the fixed job timed with and without tracing
    if workload in W.OPEN_LOOPS:
        inputs = W.open_loop_phases(workload, seed, seconds)

        def measure():
            return W.run_open(state, workload, inputs, seed)

        def calibration(session):
            return lambda: session.map(inputs[1].requests[:48])
    elif workload == "score-closed":
        inputs = W.score_inputs(seed)

        def measure():
            return W.run_score(state, inputs, seconds, seed)

        def calibration(session):
            return lambda: session.map(inputs[:1024])
    else:
        inputs = None

        def measure():
            return W.run_format_sweep(seed, seconds)

        def calibration(session):
            grid = W.bdr_design_space()[:60]
            return lambda: W.run_sweep(configs=grid, include_named=False,
                                       seed=W._sweep_seed(seed, 998))

    try:
        checked = W.precheck(workload, state, seed)
    except W.CheckFailed as error:
        return _fail(1, f"output check failed before timing: {error}")
    if args.trace:
        session = None if state is None else state.session(W.session_config(workload))
        try:
            job = calibration(session)

            def traced():
                with tracer:
                    job()

            overhead = _overhead_share(job, traced)
        finally:
            if session is not None:
                session.close()
        tracer.clear()
    try:
        if args.trace:
            calls_before = quantize_call_count()
            with tracer:
                measured = measure()
            engine_calls = quantize_call_count() - calls_before
        else:
            measured = measure()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        lag = W.generator_lag_ok(measured.phases)
        checked += W.check_timed(workload, state, inputs, measured, seed)
        if args.trace:
            from ledger import top_level_kernel_calls

            wrapped = top_level_kernel_calls(tracer.spans)
            if wrapped != engine_calls:
                raise W.CheckFailed(
                    f"traced kernel quantize+partial calls {wrapped} != engine "
                    f"counter delta {engine_calls}"
                )
    except W.CheckFailed as error:
        return _fail(1, f"output check failed: {error}")
    except W.InvalidRun as error:
        return _fail(3, str(error))

    attempted = sum(p.sent for p in measured.phases)
    failed = sum(p.failed for p in measured.phases)
    _report(measured, workload, lag, checked)
    if args.trace:
        from ledger import PER_LAYER, ledger

        values = ledger(tracer, measured, max_batch=W.MAX_BATCH,
                        engine_calls=engine_calls, overhead_share=overhead)
        path = SPANS_DIR / f"spans-{workload}-seed{seed}.json"
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}"
              " (bytes and FLOPs are computed from tensor shapes)")
        if tracer.missing:
            print(f"not traced (absent from the program): {', '.join(tracer.missing)}")
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        values = dict(measured.e2e, setup_s=statistics.median(setups), peak_rss_mb=peak_rss_mb)
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _report(measured, workload: str, lag: float, checked: int) -> None:
    """Human-readable per-phase table (requests sent/succeeded/failed)."""
    from loadgen import percentile

    print(f"workload {workload}: {checked} outputs matched their oracle; "
          f"generator lag p90 {lag:.2f} ms")
    print(f"  {'phase':6s} {'offered/s':>9s} {'sent':>6s} {'ok':>6s} {'failed':>6s} "
          f"{'achieved/s':>10s} {'p50 ms':>9s} {'p90 ms':>9s} backlog")
    for p in measured.phases:
        print(f"  {p.name:6s} {p.rate:9.1f} {p.sent:6d} {p.succeeded:6d} {p.failed:6d} "
              f"{p.rate_achieved:10.2f} {percentile(p.latencies_ms, 50):9.2f} "
              f"{percentile(p.latencies_ms, 90):9.2f} "
              f"{'growing' if p.backlog_growing() else 'steady'}")


def _steady(args) -> int:
    """Run each workload K times; print median, quartiles, spread vs bound."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    status = 0
    for workload in names:
        runs = []
        for k in range(args.steady):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed + k), "--seconds", str(args.seconds),
                 "--trace", "0"],
                capture_output=True, text=True, timeout=600, cwd=ROOT,
            )
            if done.returncode != 0:
                print(f"{workload} seed {args.seed + k}: exit {done.returncode}: "
                      f"{done.stderr.strip()}")
                status = 1
                continue
            runs.append(json.loads(done.stdout.strip().splitlines()[-1])["metrics"])
        print(f"{workload}: {len(runs)} runs")
        if len(runs) < 2:
            continue
        for name, bound in bounds.items():
            values = [run[name]["value"] for run in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
            print(f"  {name:16s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:7.2%}  bound {bound:5.0%}  {verdict}")
    return status


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.steady:
        return _steady(args)
    args.workload = args.workload or WORKLOADS[0]
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
