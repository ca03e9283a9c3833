"""Measurement loop of the benchmark: set-ups, timed operations with their
correctness checks, and the untraced and traced runs of one workload."""

from __future__ import annotations

import contextlib
import resource
import statistics
import time
import traceback
import tracemalloc

import tracing
import workloads

# the first operation must finish before this many seconds after start,
# whatever --seconds says, so that a run stays well inside 180 s
DEADLINE_S = 150.0
MIN_OPS = 3
MIN_TRACED_OPS = 2


def measure(run, check, case, seconds, min_ops, started, log, between=None):
    """Repeat run(case) until ``seconds`` have passed and at least ``min_ops``
    were made, unless another would end past the deadline; ``between`` runs
    after each operation, untimed. Returns (durations, iteration counts of
    the checked results, failures)."""
    durations, counts, failures = [], [], 0
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            result = run(case)
        except Exception:  # a failed operation is counted, not fatal
            durations.append(time.perf_counter() - t0)
            failures += 1
            log(f"operation raised:\n{traceback.format_exc()}")
        else:
            durations.append(time.perf_counter() - t0)
            reason, count = check(case, result)
            counts.append(count)
            if reason is not None:
                failures += 1
                log(f"incorrect result: {reason}")
        if between is not None:
            between()
        now = time.perf_counter()
        if now + durations[-1] - started > DEADLINE_S:
            break
        if len(durations) >= min_ops and now - begin >= seconds:
            break
    return durations, counts, failures


def nondeterministic(counts) -> int:
    """Repetitions whose iteration counts differ from the first one's."""
    return sum(c != counts[0] for c in counts[1:]) if counts else 0


def set_up(setup, spec, seed, tracer, reps):
    """``reps`` set-ups; returns (their durations, the last case)."""
    durations, case = [], None
    for _ in range(reps):
        case = None  # the previous case must not inflate this one's memory
        t0 = time.perf_counter()
        case = setup(spec, seed, tracer)
        durations.append(time.perf_counter() - t0)
    return durations, case


def untraced_run(w, args, started, log):
    setup, run, check = workloads.operations(w)
    setup_times, case = set_up(setup, w.spec, args.seed, workloads.NO_TRACE,
                               w.setup_reps)

    def more_setups():
        setup_times.extend(set_up(setup, w.spec, args.seed, workloads.NO_TRACE,
                                  w.setups_per_op)[0])

    durations, counts, failed = measure(run, check, case, args.seconds,
                                        MIN_OPS, started, log, more_setups)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (statistics.median(durations), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    extra = {"setup_samples_s": setup_times, "solve_samples_s": durations,
             "iterations": sorted(set(counts))}
    return metrics, len(durations), failed + nondeterministic(counts), extra


def traced_run(w, args, started, log):
    """Set-ups under spans and tracemalloc, then pairs of one untraced and
    one traced operation for --seconds; the median difference within a pair
    is the tracing overhead, so that drift of the machine cancels out."""
    setup, run, check = workloads.operations(w)
    tracer = tracing.Tracer()
    tracemalloc.start()
    try:
        _, case = set_up(setup, w.spec, args.seed, tracer, w.setup_reps)
    finally:
        tracemalloc.stop()

    def traced_op(c):
        with tracer.span("op"):
            return run(c)

    plain, traced, counts, failed = [], [], [], 0
    begin = time.perf_counter()
    while True:
        for op, durations in ((run, plain), (traced_op, traced)):
            with tracer.patched() if op is traced_op else contextlib.nullcontext():
                d, c, f = measure(op, check, case, 0.0, 1, started, log)
            durations += d
            counts += c
            failed += f
        now = time.perf_counter()
        if now + plain[-1] + traced[-1] - started > DEADLINE_S:
            break
        if len(traced) >= MIN_TRACED_OPS and now - begin >= args.seconds:
            break
    missing = [b for b in w.reaches if not tracer.named(b)]
    if missing:
        raise tracing.TraceGuardError(
            f"{w.name}: no calls recorded at {', '.join(missing)}")
    overhead = statistics.median(t - p for p, t in zip(plain, traced))
    metrics = tracing.layer_metrics(tracer, overhead,
                                    counts[0] if counts else (0, 0))
    extra = {"untraced_samples_s": plain, "traced_samples_s": traced,
             "iterations": sorted(set(counts)),
             "span_fields": tracing.Span.FIELDS,
             "spans": [s.as_row() for s in tracer.spans]}
    attempted = len(plain) + len(traced)
    return metrics, attempted, failed + nondeterministic(counts), extra


def run_workload(args, started, log) -> dict:
    w = workloads.WORKLOADS[args.workload]
    if args.tiny:
        w = workloads.tiny(w)
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny}
    run = traced_run if args.trace else untraced_run
    metrics, attempted, failed, extra = run(w, args, started, log)
    record.update(extra)
    record.update({"attempted": attempted, "failed": failed,
                   "fail_share": failed / attempted,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}})
    return record
