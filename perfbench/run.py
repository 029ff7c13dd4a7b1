"""shiftperm benchmark: one workload run, end-to-end or traced.

Usage, from the repository root (no install needed, src/ is put on the
children's PYTHONPATH):

    python3 perfbench/run.py --workload euclid-large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload in turn

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; the lines before it are the same numbers for people, plus a
`meta` line naming the seed, the input digest, the code and the
versions measured.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("cli-cold", "euclid-large", "factor-xi", "table-scan")
SETUP_REPEATS = 7  # interpreter starts per run whose set-up time is kept
BUDGET_MARGIN_S = 60.0  # a worker gets its measuring time plus this, then it is killed
# "ref" is the duration of worker.reference timed around each query
E2E_UNITS = {"setup_s": "s", "latency_p50_ref": "ref", "latency_p90_ref": "ref",
             "throughput_per_kref": "1/kref", "peak_rss_mb": "MB"}


@dataclass
class WorkerRun:
    setup_s: float | None
    lats: list
    done: dict | None
    stderr: str
    timed_out: bool
    exit_code: int
    ready: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return (
            not self.timed_out
            and self.exit_code == 0
            and self.done is not None
            and self.done["attempted"] >= 1
            and self.done["failed"] == 0
        )

    @property
    def attempted(self) -> int:
        # a killed run also counts the query it was in the middle of
        return self.done["attempted"] if self.done else len(self.lats) + 1

    @property
    def failed(self) -> int:
        return self.done["failed"] if self.done else self.attempted


def child_env(src: str) -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)


def launch(src, workload, seed, seconds, *, setup_only=False, trace=False) -> WorkerRun:
    """Start a worker, wait at most its budget, and kill its process group
    (the worker and any CLI process it started) if the budget runs out."""
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [
        WORKER, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--trace"] if trace else []
    budget = BUDGET_MARGIN_S + (0 if setup_only else seconds)
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(src), start_new_session=True,
    )
    timed_out = False
    try:
        out, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            continue
    ready = next((r for r in records if "ready" in r), None)
    return WorkerRun(
        setup_s=None if ready is None else ready["ready"] - start,
        lats=[r["lat"] for r in records if "lat" in r],
        done=next((r for r in records if r.get("done")), None),
        stderr=err,
        timed_out=timed_out,
        exit_code=proc.returncode,
        ready=ready or {},
    )


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("operand_bits"):
        return "bit"
    if name.endswith("bytes"):
        return "B"
    return "count"


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "shiftperm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def measure(src, workload, seed, seconds, trace) -> tuple:
    """Returns (result object, meta dict, lines for people)."""
    if not trace:
        # set-up starts are split around the timed run, so one slow stretch
        # of the host does not cover them all
        before = [launch(src, workload, seed, seconds, setup_only=True) for _ in range(SETUP_REPEATS // 2)]
        main = launch(src, workload, seed, seconds)
        after = [launch(src, workload, seed, seconds, setup_only=True) for _ in range(SETUP_REPEATS - 1 - len(before))]
        setups = before + after
        runs = setups + [main]
        setup_times = [r.setup_s for r in runs if r.setup_s is not None]
        correct = all(r.exit_code == 0 and r.setup_s is not None for r in setups) and main.correct
        metrics = {}
        if main.done and setup_times:
            lat_ref = main.done["median_ref"]
            metrics = {
                "setup_s": statistics.median(setup_times),
                "latency_p50_ref": statistics.median(lat_ref),
                "latency_p90_ref": p90(lat_ref),
                "throughput_per_kref": 1000 * len(lat_ref) / sum(lat_ref),
                "peak_rss_mb": main.done["rss_mb"],
            }
        result = {
            "correct": correct,
            "attempted": main.attempted,
            "failed": main.failed,
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
        }
        notes = [f"  set-up is the median of {len(setup_times)} interpreter starts"]
        if main.done:
            lat_s, (lo, hi) = main.done["median_s"], main.done["runs_per_query"]
            notes += [
                f"  in milliseconds: latency_p50_ms {1000 * statistics.median(lat_s):.6g}, "
                f"latency_p90_ms {1000 * p90(lat_s):.6g}, throughput_qps {len(lat_s) / sum(lat_s):.6g} 1/s; "
                f"1 ref = the reference, median {1000 * main.done['ref_s']:.4g} ms in this run",
                f"  {len(lat_s)} distinct queries, each run {lo}-{hi} times, latency = its median run; "
                f"{len(lat_s) - int(0.9 * len(lat_s))} at or beyond p90; "
                f"{main.done['attempted'] / main.done['elapsed']:.4g} runs/s observed",
            ]
        notes.append(f"  error_rate {main.failed / main.attempted:.4f} ({main.failed} of {main.attempted} failed)")
        workers = [main] + [r for r in setups if r.exit_code != 0 or r.setup_s is None]
    else:
        half = seconds / 2
        plain = launch(src, workload, seed, half)
        traced = launch(src, workload, seed, half, trace=True)
        correct = plain.correct and traced.correct
        metrics, notes = {}, []
        if plain.done and traced.done:
            import tracer

            metrics = tracer.layer_metrics(traced.done["trace"])
            imports = traced.done.get("imports") or tracer.parse_importtime(traced.stderr)
            for name in tracer.IMPORTS:
                metrics[f"import.{name}_s"] = imports.get(name, 0.0)
            metrics["trace.overhead_ratio"] = sum(traced.done["median_ref"]) / sum(plain.done["median_ref"])
            # client-side wall time of the traced first pass, which the spans describe
            metrics["trace.query_s"] = sum(traced.lats[:len(traced.done["median_s"])])
            correct = correct and metrics["trace.layers_self_s"] <= metrics["trace.query_s"]
            if traced.done["trace"]["absent"]:
                notes.append("  traced functions absent: " + " ".join(traced.done["trace"]["absent"]))
        result = {
            "correct": correct,
            "attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
        }
        notes.append(f"  untraced {len(plain.lats)} runs, traced {len(traced.lats)} runs, {half:g} s each; "
                     "layer metrics cover the traced first pass")
        workers = [plain, traced]
    for w in workers:
        if w.timed_out:
            notes.append(f"  a worker exceeded its budget and was killed after {len(w.lats)} queries")
        elif w.done is None or w.exit_code != 0:
            notes.append(f"  a worker failed (exit {w.exit_code}): {w.stderr.strip()[-400:]}")
        elif w.done["failures"]:
            notes.append(f"  failed checks: {w.done['failures']}")
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs_digest": workers[-1].ready.get("digest"),
        "source_digest": source_digest(src),
        "commit": git_commit(os.path.dirname(src)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "sympy": metadata.version("sympy"),
        "nproc": os.cpu_count(),
    }
    return result, meta, notes


def report(workload, result, meta, notes) -> None:
    print(f"perfbench {workload} seed={meta['seed']} seconds={meta['seconds']} trace={meta['trace']} "
          f"correct={str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for line in notes:
        print(line)
    print("meta " + json.dumps(meta, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "shiftperm", "__init__.py")):
        print(f"no shiftperm source under {src}; run from the repository root", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, meta, notes = measure(src, name, args.seed, args.seconds, bool(args.trace))
        report(name, result, meta, notes)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
