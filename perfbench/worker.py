"""One workload run in a fresh interpreter, driven by run.py.

Usage: python worker.py --workload W --seed S --seconds T [--setup-only] [--trace]

Prints JSON lines on stdout: one {"ready": ...} once shiftperm is
imported and the inputs exist, one {"lat": ...} per completed query,
and one {"done": ...} summary after the checks, holding each query's
median run, in seconds and in references.  The per-query lines let
run.py report partial counts if it has to kill the run.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import random
import resource
import statistics
import sys
import time

import numpy as np
import shiftperm  # noqa: F401  (imported first: its cost belongs to set-up)

import tracer as tracing
import workloads


REF_EVERY_S = 0.1  # the reference runs before a query once this long has passed
REF_WINDOW_S = 0.5  # a run is scaled by the references within this distance of it
REF_PY_N = 7_000  # each part of the reference takes about 0.3-0.6 ms on a 2-core x86-64 VM
REF_BIG_STEPS = 300
REF_NP_REPS = 15
_ref_rng = random.Random(0)
REF_BIG = (_ref_rng.getrandbits(20_000) | 1 << 20_000, _ref_rng.getrandbits(19_000) | 1 << 19_000)
REF_TABLE = np.arange(1 << 13, dtype=np.int64) * 40_503 % (1 << 13)


def reference() -> None:
    """Fixed work that shares no code with shiftperm, a third each of the
    three kinds it does: a pure-Python loop, shift-and-xor on 20000-bit
    ints, and numpy histograms over 2^13 entries.  Its time tracks how fast
    the host runs this process at the moment.  Load from elsewhere slows
    these kinds unequally, and the workloads mix them in different
    shares, so the reference holds some of each."""
    s = 0
    for i in range(REF_PY_N):
        s += i * i
    x, y = REF_BIG
    for _ in range(REF_BIG_STEPS):
        x ^= y << (x.bit_length() - y.bit_length())
        x |= 1 << 20_000
    for k in range(REF_NP_REPS):
        np.bincount(REF_TABLE ^ k, minlength=REF_TABLE.size).max()


def in_refs(runs, refs) -> list:
    """Each run's duration divided by the median duration of the references
    within REF_WINDOW_S of it (the nearest earlier one if none is)."""
    starts = [t for t, _ in refs]
    out = []
    for t0, t1 in runs:
        a = bisect.bisect_left(starts, t0 - REF_WINDOW_S)
        b = bisect.bisect_right(starts, t1 + REF_WINDOW_S)
        near = [d for _, d in refs[a:b]] or [refs[max(a - 1, 0)][1]]
        out.append((t1 - t0) / statistics.median(near))
    return out


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def verify(check, q, out) -> str | None:
    if isinstance(out, workloads.Raised) and out.kind != "NonUnitError":
        return f"raised {out.kind}: {out.message}"
    try:
        return check(q, out)
    except Exception as e:  # a crashing check counts against the query
        return f"check raised {type(e).__name__}: {e}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    queries = wl.generate(args.seed)
    digest = hashlib.sha256(workloads.digest_key(queries).encode()).hexdigest()
    emit({"ready": time.perf_counter(), "digest": digest})
    if args.setup_only:
        return 0

    if wl.in_process:
        run = wl.run
    else:
        command = workloads.cli_command(args.trace)  # CLI children inherit src on PYTHONPATH

        def run(q):
            return wl.run(q, command)

    # The timed phase runs the query list in passes until the deadline; the
    # first pass always completes.  Each pass starts with shiftperm's
    # functools caches empty, as in a fresh interpreter, so a repeat redoes
    # the work of the first run.  The reference runs between queries every
    # REF_EVERY_S; each run is also measured in the references timed around
    # it, which cancels most of the host's drifting speed.  A query's
    # latency is the median of its runs, so a run the reference tracked
    # badly does not decide it.
    # Only each query's first answer is kept (a repeat is compared with it
    # at once), so memory does not grow with the number of passes.
    tracer = tracing.Tracer() if args.trace and wl.in_process else None
    times = [[] for _ in queries]
    spans = []  # (query index, start, end) of every run
    refs = []  # (start, duration) of every reference
    answers = [None] * len(queries)
    differing = [0] * len(queries)  # repeats whose answer is not the first one
    first_pass_trace = None
    start = time.perf_counter()
    deadline = start + args.seconds
    next_ref = start
    while not times[-1] or time.perf_counter() < deadline:
        workloads.clear_caches()
        if tracer and not times[-1]:
            tracer.install()  # after the clear, so cache statistics start from it
        for i, q in enumerate(queries):
            now = time.perf_counter()
            if times[-1] and now >= deadline:
                break
            if now >= next_ref:
                reference()
                refs.append((now, time.perf_counter() - now))
                next_ref = now + REF_EVERY_S
            t0 = time.perf_counter()
            try:
                out = tracer.run_query(i, run, q) if tracer else run(q)
            except Exception as e:  # a query that raises is a failed query, not a crashed run
                out = workloads.Raised(type(e).__name__, str(e))
            t1 = time.perf_counter()
            lat = t1 - t0
            spans.append((i, t0, t1))
            emit({"lat": lat})
            if not times[i]:
                answers[i] = out
            elif not workloads.same(out, answers[i]):
                differing[i] += 1
            times[i].append(lat)
        if tracer and first_pass_trace is None:
            first_pass_trace = tracer.aggregate()
    elapsed = time.perf_counter() - start
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    # Each query's first answer goes through the workload's check; when it
    # fails, every run of that query counts as failed.
    check = wl.make_checker()
    failures, failed = [], 0
    for i, (q, out) in enumerate(zip(queries, answers)):
        problem = verify(check, q, out)
        if problem:
            failures.append({"query": i, "problem": problem})
            failed += len(times[i])
        elif differing[i]:
            failures.append({"query": i, "problem": f"{differing[i]} repeats gave another answer than the first run"})
            failed += differing[i]

    scaled = [[] for _ in queries]
    for (i, _, _), r in zip(spans, in_refs([(t0, t1) for _, t0, t1 in spans], refs)):
        scaled[i].append(r)

    summary = {
        "done": True,
        "attempted": sum(map(len, times)),
        "failed": failed,
        "failures": failures[:5],
        "elapsed": elapsed,
        "rss_mb": rss_mb,
        "median_s": [statistics.median(t) for t in times],
        "median_ref": [statistics.median(r) for r in scaled],
        "ref_s": statistics.median(d for _, d in refs),
        "runs_per_query": [min(map(len, times)), max(map(len, times))],
    }
    # the per-layer metrics describe the first pass, so their counts repeat
    # exactly for a seed however many passes the host allowed
    if tracer:
        summary["trace"] = first_pass_trace
    elif args.trace:
        aggs, imports = [], {}
        for out in answers:
            for line in out.stderr.splitlines():
                if line.startswith(tracing.TRACE_TAG):
                    aggs.append(json.loads(line[len(tracing.TRACE_TAG):]))
            for name, s in tracing.parse_importtime(out.stderr).items():
                imports.setdefault(name, []).append(s)
        summary["trace"] = tracing.merge(aggs)
        summary["imports"] = {k: statistics.median(v) for k, v in imports.items()}
    emit(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
