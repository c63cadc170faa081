"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once at tiny size with tracing off and on, and checks
that the result line follows the benchmark's output contract, that every
metric in BENCHMARK.json and in metrics.py appears with its unit, and that
the benchmark refuses to run where the pvarkit sources are missing.
Failed output checks are printed, not asserted: they are findings about
the program, and this test is about the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py"] + args,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def check_spec(spec) -> None:
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == metrics.WORKLOADS[w["name"]], w["name"]
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics.BOUNDED)
    for m in spec["end_to_end"]:
        assert m["unit"] == metrics.END_TO_END[m["name"]][0], m["name"]
    assert [m["name"] for m in spec["per_layer"]] == list(metrics.LAYERS)
    for m in spec["per_layer"]:
        assert m["unit"] == metrics.LAYERS[m["name"]][0], m["name"]


def check_run(workload: str, trace: int, spec) -> None:
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert isinstance(last["failed"], int) and 0 <= last["failed"] <= last["attempted"]
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), m["name"]

    report_file = os.path.join(
        ROOT, ".bench_out", "report-%s-tiny-seed7-trace%d.json" % (workload, trace)
    )
    with open(report_file, encoding="utf-8") as fp:
        report = json.load(fp)
    table = metrics.LAYERS if trace else metrics.END_TO_END
    for name, (unit, _) in table.items():
        assert report["metrics"][name]["unit"] == unit, name
    for key in ("python", "numpy", "nproc", "git_commit", "src_sha256", "seed", "jobs", "why"):
        assert key in report["meta"], key
    status = "ok" if last["correct"] else "FAILED %d of %d" % (last["failed"], last["attempted"])
    print("%-12s trace %d: %d metrics with units, outputs %s" % (workload, trace, len(expected), status))
    for line in proc.stdout.splitlines():
        if line.startswith("FAILED"):
            print("    " + line[:200])


def check_refuses_without_sources() -> None:
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "step4", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and "correct" not in proc.stdout
    print("without sources: exit code %d, no result" % proc.returncode)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    check_spec(spec)
    for workload in metrics.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, spec)
    check_refuses_without_sources()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
