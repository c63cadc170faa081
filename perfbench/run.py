"""pvarkit benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see metrics.WORKLOADS for why each is here): step4, example3,
bound-check, pvar-walk.  Each job calls ``pvarkit.cli.main(argv)`` in a
fresh worker process with one thread, on input files made from the seed;
no ``--threads`` flag is passed and ``PVARKIT_THREADS`` is removed from the
workers' environment.

With ``--trace 0`` the run starts three fresh workers one after another.
Each sets up (interpreter start, import, inputs, one warm-up job on
tiny-size inputs) and then runs whole cycles of jobs for about S/3
seconds: at least one cycle, and as many as end nearest that share.  With
``--trace 1`` a single worker alternates a traced cycle with an untraced
one and reports per-layer self times and counts; see tracing.py.

Every job's output is checked after its clock stops; see workloads.py.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full report, with versions, the
layer-to-metric map and the span trace, goes to ``.bench_out/``.
Run ``python3 perfbench/selftest.py`` for a tiny-size check of all this.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
PACKAGE = os.path.join(ROOT, "src", "pvarkit")
OUT = os.path.join(ROOT, ".bench_out")
BUDGET_S = 170.0  # a run must end within 180 s


class RunFailed(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PVARKIT_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, workdir: str, deadline: float, seconds: float, verify: bool) -> dict:
    cmd = [
        sys.executable,
        WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--workdir", workdir,
    ]
    if verify:
        cmd.append("--verify")
    cmd += ["--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed("worker exceeded the %g s budget" % BUDGET_S) from None
    if proc.returncode != 0 or not out.strip():
        raise RunFailed("worker exited with code %d" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fp:
                return fp.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fp:
            for line in fp:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fp:
                digest.update(name.encode() + b"\0" + fp.read())
    return digest.hexdigest()


def describe(args, jobs: int) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "why": metrics.WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "jobs": jobs,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "client": "closed loop, one client, one process, one thread",
    }


def tail_note(n: int) -> str:
    if n < 100:
        return "%d jobs: no tail percentile has ten samples beyond it" % n
    return "p90 has %d samples beyond it" % int(n * 0.1)


def untraced(args, workdir, deadline):
    # Timed work is split over the processes so that it spans more of the
    # run: on a shared machine speed drifts over seconds.
    share = args.seconds / metrics.SETUPS
    results = [
        spawn(args, workdir, deadline, share, verify=i == metrics.SETUPS - 1)
        for i in range(metrics.SETUPS)
    ]
    cycles = [c for r in results for c in r["cycles"]]
    jobs = sum(len(c) for c in cycles)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "job_s.min": min(sum(c) / len(c) for c in cycles),
        "job_s.p50": statistics.median(sum(c) / len(c) for c in cycles),
        "samples_per_s": sum(r["cycle_samples"] * len(r["cycles"]) for r in results)
        / sum(sum(c) for c in cycles),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
    }
    notes = {
        "job_s.min": ["%d cycles" % len(cycles)],
        "job_s.p50": ["%d cycles" % len(cycles), tail_note(jobs)],
    }
    return results, values, notes, jobs


def traced(args, workdir, deadline):
    result = spawn(args, workdir, deadline, args.seconds, verify=True)
    values = dict(result["layers"])
    # Exact counts depend only on the inputs: compare with an earlier run
    # of the same seed in this checkout, if there was one.
    counts = {name: values[name] for name in metrics.EXACT_COUNTS}
    stored = os.path.join(workdir, "counts-seed%d.json" % args.seed)
    result["attempted"] += 1
    if os.path.exists(stored):
        with open(stored, encoding="utf-8") as fp:
            before = json.load(fp)
        if before != counts:
            result["errors"].append("exact counts %s differ from an earlier run's %s" % (counts, before))
    else:
        with open(stored, "w", encoding="utf-8") as fp:
            json.dump(counts, fp)
    return [result], values, {}, result["jobs"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the self-test only")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print("no pvarkit sources under %s" % PACKAGE, file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    workdir = os.path.join(OUT, "%s-%s" % (args.workload, args.size))
    os.makedirs(workdir, exist_ok=True)
    try:
        results, values, notes, count = (traced if args.trace else untraced)(args, workdir, deadline)
    except RunFailed as exc:
        print("benchmark run failed: %s" % exc, file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    table = metrics.LAYERS if args.trace else metrics.END_TO_END
    if not args.trace:
        values["failed_ratio"] = len(errors) / attempted
        notes["failed_ratio"] = ["%d of %d" % (len(errors), attempted)]
    meta = describe(args, count)
    report = {
        "meta": meta,
        "metrics": {
            name: {
                "value": values[name],
                "unit": unit,
                "note": "; ".join([note] + notes.get(name, [])),
            }
            for name, (unit, note) in table.items()
        },
        "errors": errors,
        "workers": results,
    }
    path = os.path.join(
        OUT, "report-%s-%s-seed%d-trace%d.json" % (args.workload, args.size, args.seed, args.trace)
    )
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(report, fp, indent=1)

    print("pvarkit benchmark  %s" % " ".join("%s=%s" % kv for kv in meta.items() if kv[0] != "why"))
    print("why: %s" % meta["why"])
    for name, entry in report["metrics"].items():
        print("  %-26s %16.6g %-6s %s" % (name, entry["value"], entry["unit"], entry["note"]))
    for error in errors:
        print("FAILED: %s" % error)
    print("report: %s" % os.path.relpath(path, ROOT))
    shown = list(metrics.LAYERS) if args.trace else metrics.BOUNDED
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {n: {"value": values[n], "unit": table[n][0]} for n in shown},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
