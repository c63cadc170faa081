"""One fresh benchmark process: set up, warm up, then run jobs in a closed loop.

Started by run.py, never by hand.  Every job calls ``pvarkit.cli.main(argv)``
in this process on one thread; its output is checked after the job's clock
stops.  The last line on stdout is this process's result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from pvarkit.cli import main  # noqa: E402

import metrics  # noqa: E402
from tracing import Tracer, layer_times  # noqa: E402
from workloads import WORKLOAD_TYPES  # noqa: E402


def run_job(job, tracer=None) -> tuple[float, int, str, str | None]:
    """Time one ``main(argv)`` call; returns (seconds, exit code, stdout, error)."""
    text = io.StringIO()
    error = None
    if tracer is not None:
        tracer.job += 1
        tracer.install()  # only around the call, so checks stay untraced
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = main(job.argv)
            else:
                with tracer.span("job"):
                    rc = main(job.argv)
        except SystemExit as exc:  # argparse rejects a flag
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # any crash is a failed job, not a dead run
            rc, error = -1, "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    return elapsed, rc, text.getvalue(), error


class Runner:
    """Counts attempted jobs and run-level checks; each failure is one entry."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.errors: list[str] = []

    def finish(self, job, outcome, workload=None) -> float:
        """Check a job's output after its clock stopped; returns its time."""
        elapsed, rc, text, error = outcome
        self.attempted += 1
        error = error or (workload or self.workload).check(job, rc, text)
        if error:
            self.errors.append("job %d (%s): %s" % (self.attempted, " ".join(job.argv[:3]), error))
        return elapsed

    def job(self, job, tracer=None) -> float:
        return self.finish(job, run_job(job, tracer))

    def run_check(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.errors.append("%s: %s" % (label, "; ".join(errors)))

    def cycle(self, tracer=None) -> list[float]:
        return [self.job(job, tracer) for job in self.workload.jobs]


def another(start: float, rounds: int, seconds: float) -> bool:
    """Whether one more round of average length ends nearer ``seconds`` than stopping now."""
    elapsed = time.perf_counter() - start
    return elapsed * (rounds + 0.5) / rounds <= seconds


def measure(runner, seconds: float) -> dict:
    """Whole cycles, at least one, for about ``seconds``; the job mix stays fixed."""
    start = time.perf_counter()
    cycles = [runner.cycle()]
    while another(start, len(cycles), seconds):
        cycles.append(runner.cycle())
    return {
        "cycles": cycles,
        "cycle_samples": sum(runner.workload.samples()),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(runner, seconds: float, spans_file: str) -> dict:
    """Alternate a traced cycle with an untraced one, at least once, for ``seconds``."""
    tracer = Tracer()
    start = time.perf_counter()
    cycles, overheads = [], []
    while not cycles or another(start, len(cycles), seconds):
        first = tracer.job + 1
        traced = sum(runner.cycle(tracer))
        plain = sum(runner.cycle())
        cycles.append(set(range(first, tracer.job + 1)))
        overheads.append(traced - plain)

    errors, extra = runner.workload.recompute()
    runner.run_check("recomputation", errors)

    counts = []
    for ids in cycles:
        total = dict(extra)
        for job_id in sorted(ids):
            for name, value in tracer.counts.get(job_id, {}).items():
                total[name] = total.get(name, 0) + value
        counts.append(total)
    runner.run_check(
        "counts", ["cycles disagree: %s" % counts] if any(c != counts[0] for c in counts) else []
    )
    jobs = runner.workload.jobs
    counts[0]["cli.bytes_in"] = sum(os.path.getsize(f) for job in jobs for f in job.inputs)
    counts[0]["cli.bytes_out"] = sum(os.path.getsize(f) for job in jobs for f in job.outputs)

    layers = dict.fromkeys(metrics.LAYERS, 0)
    layers.update(counts[0])
    per_cycle = [layer_times(tracer.spans, c, runner.workload.lab_metric) for c in cycles]
    for name in per_cycle[0]:
        layers[name] = statistics.median(c[name] for c in per_cycle)
    layers["trace.overhead_s"] = statistics.median(overheads)

    with open(spans_file, "w", encoding="utf-8") as fp:
        json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": tracer.spans}, fp)
    return {"layers": layers, "jobs": 2 * len(cycles) * len(jobs)}


def main_worker(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_TYPES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--verify", action="store_true", help="run the run-level checks")
    ap.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC at spawn")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    workload = WORKLOAD_TYPES[args.workload](args.size, args.seed, args.workdir)
    workload.generate()
    # The warm-up runs the same code on tiny inputs: a full-size lab job
    # takes 5 s or more, which would be most of a run's time.
    warm = WORKLOAD_TYPES[args.workload]("tiny", args.seed, os.path.join(args.workdir, "warm-up"))
    warm.generate()
    warm_up = run_job(warm.jobs[0])
    result = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0}
    runner = Runner(workload)
    runner.finish(warm.jobs[0], warm_up, warm)
    if args.trace:
        spans = os.path.join(args.workdir, "spans-seed%d.json" % args.seed)
        result.update(measure_traced(runner, args.seconds, spans))
    else:
        result.update(measure(runner, args.seconds))
    if args.verify:
        runner.run_check("run check", workload.verify())
    result["attempted"] = runner.attempted
    result["errors"] = runner.errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main_worker())
