"""The four workloads: inputs made from the seed, job argument lists, and the
checks each job's output must pass.

A cycle is one pass over a workload's inputs; the lab workloads and
bound-check have one job per cycle, pvar-walk has twelve.  Checks run
outside the timed region.  Claimed bounds are compared against a
correctly rounded recomputation within a relative tolerance, never pinned
bit for bit, because they sum with numpy and their last digits depend on
its summation order.  Measured quantities are compared exactly.

A pvar value is checked twice.  Re-summed along its partition with the
DP's own arithmetic (``row_norms`` on the coordinate matrix, array
``** p``, left to right) it must match bit for bit.  ``partition_sum``,
which takes each distance with ``norm`` and a scalar ``** p``, must match
within PARTITION_RTOL, the tolerance the package's own tests use: numpy's
array and scalar powers differ in the last bit on some arguments.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from pvarkit import (
    DiscretePath,
    Generator,
    compose_path,
    diff_norm,
    find_holder_violators,
    gen_example3,
    gen_step4_path,
    norm,
    partition_sum,
    power_divergence_candidates,
    pvar,
    pvar_bruteforce,
    pvar_restricted,
    step4_blocks,
)
from pvarkit.spaces import row_norms

BOUND_RTOL = 1e-12
PARTITION_RTOL = 1e-12
NORMS = ("l1", "l2", "linf", {"lp": 1.5})
RESTRICTION = 16  # increments per brute-force cross-check


class Job:
    def __init__(self, argv, inputs, outputs, key=0):
        self.argv = argv
        self.inputs = inputs
        self.outputs = outputs
        self.key = key  # which input of the cycle


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fp:
        return json.load(fp)


def _write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(obj, fp)


def _walk(rng, n: int, dim: int, norm_json) -> dict:
    """A dense random-walk path file with n samples on [0, 1]."""
    values = np.cumsum(rng.standard_normal((n, dim)), axis=0)
    return {
        "interval": [0.0, 1.0],
        "times": np.linspace(0.0, 1.0, n).tolist(),
        "space": {"kind": "dense", "dim": dim, "norm": norm_json},
        "values": [{"dense": row} for row in values.tolist()],
    }


class Workload:
    """One workload at one size and seed, working in its own directory."""

    lab_metric = None  # layer metric that takes the job span's self time

    def __init__(self, size: str, seed: int, workdir: str):
        self.size = size
        self.seed = seed
        self.dir = workdir
        self.jobs: list[Job] = []
        os.makedirs(workdir, exist_ok=True)

    def file(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def generate(self) -> None:
        """Write the input files for this seed and fill ``jobs``."""
        raise NotImplementedError

    def check(self, job: Job, rc: int, text: str) -> str | None:
        """Why a job's exit code, stdout ``text`` or output files are wrong; None if right."""
        raise NotImplementedError

    def samples(self) -> list[int]:
        """Input-path samples per job of one cycle."""
        raise NotImplementedError

    def verify(self) -> list[str]:
        """Run-level checks, once per run; returns error messages."""
        return []

    def recompute(self) -> tuple[list[str], dict[str, int]]:
        """Traced-run recomputation from public pieces: errors and counts."""
        return [], {}


class _Lab(Workload):
    experiment = ""
    depths: dict[str, tuple[int, ...]] = {}
    lab_metric = "lab.self_s"

    def generate(self) -> None:
        self.depth_list = self.depths[self.size]
        csv_path = self.file("report.csv")
        argv = [
            "lab",
            "--experiment",
            self.experiment,
            "--depths",
            ",".join(str(d) for d in self.depth_list),
            "--out",
            csv_path,
        ]
        self.jobs = [Job(argv, [], [csv_path, self.file("report.json")])]
        self.first = None

    def check(self, job: Job, rc: int, text: str):
        if rc != 0:
            return "exit code %d" % rc
        summary = _read_json(job.outputs[1])
        if not summary["all_satisfied"]:
            return "all_satisfied is false"
        if summary["depths"] != list(self.depth_list):
            return "depths %s, asked for %s" % (summary["depths"], self.depth_list)
        if self.first is None:
            self.first = summary
        elif summary != self.first:
            return "summary differs from the first job's"
        return None

    def _compare(self, quantities, bounds) -> list[str]:
        errors = []
        if self.first is None:
            return ["no job output to compare"]
        if self.first["quantities"] != quantities:
            errors.append(
                "quantities %r differ from the recomputation %r"
                % (self.first["quantities"], quantities)
            )
        reported = next(v for k, v in self.first.items() if k.startswith("claimed_"))
        for got, want in zip(reported, bounds):
            if not abs(got - want) <= BOUND_RTOL * abs(want):
                errors.append("claimed bound %r is not %r to %g" % (got, want, BOUND_RTOL))
        return errors


class Step4(_Lab):
    """``lab --experiment step4`` with the default power(0.25) map, p=1, q=2."""

    experiment = "step4"
    depths = {"full": (1, 2, 4, 8, 12), "tiny": (1, 2)}
    P, Q = 1.0, 2.0

    def _pieces(self):
        f = Generator.power(self.P / (2.0 * self.Q))
        candidates = power_divergence_candidates()
        M = max(norm(f(v)) for v in candidates)
        pairs = find_holder_violators(f, self.P, self.Q, M, candidates, self.depth_list[-1])
        return f, M, pairs

    def samples(self):
        _, _, pairs = self._pieces()
        return [sum(len(gen_step4_path(self.P, self.Q, pairs, d)) for d in self.depth_list)]

    def recompute(self):
        f, M, pairs = self._pieces()
        blocks = step4_blocks(self.P, self.Q, pairs, self.depth_list[-1])
        claims = [
            b.m_used * diff_norm(f(b.u), f(b.w)) ** self.Q if b.capped else M ** self.Q
            for b in blocks
        ]
        bounds = [math.fsum(claims[:d]) for d in self.depth_list]
        quantities = [
            pvar(compose_path(f, gen_step4_path(self.P, self.Q, pairs, d)), self.Q).value
            for d in self.depth_list
        ]
        capped = sum(1 for b in blocks if b.capped)
        return self._compare(quantities, bounds), {"lab.blocks_capped": capped}


class Example3(_Lab):
    """``lab --experiment example3``: sparse sup-norm paths, every sample distinct."""

    experiment = "example3"
    depths = {"full": (10, 100, 1000, 1500), "tiny": (10, 100)}
    BOUND_TERMS = 10 ** 6  # the experiment's default partial-sum length

    def samples(self):
        return [sum(len(gen_example3(d)) for d in self.depth_list)]

    def recompute(self):
        bound = 1.0 + math.fsum(1.0 / ((i + 1.0) * (i + 1.0)) for i in range(1, self.BOUND_TERMS + 1))
        quantities = [pvar(gen_example3(d), 1.0).value for d in self.depth_list]
        errors = self._compare(quantities, [bound] * len(self.depth_list))
        return errors, {"lab.blocks_capped": 0}


class BoundCheck(Workload):
    """``bound-check`` of power(0.5) on one seeded 1-D random walk, p=1, q=2."""

    N = {"full": 250, "tiny": 30}

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        path, gen, out = self.file("walk.json"), self.file("gen.json"), self.file("report.json")
        _write_json(_walk(rng, self.N[self.size], 1, "l2"), path)
        _write_json({"name": "power", "beta": 0.5}, gen)
        argv = ["bound-check", "--gen", gen, "--input", path, "--p", "1", "--q", "2", "--out", out]
        self.jobs = [Job(argv, [gen, path], [out])]
        self.first = None

    def check(self, job, rc, text):
        if rc != 0:
            return "exit code %d" % rc
        report = _read_json(job.outputs[0])
        if not report["bound_holds"] or "-> holds" not in text:
            return "the bound check does not say holds"
        if self.first is None:
            self.first = report
        elif report != self.first:
            return "report differs from the first job's"
        return None

    def samples(self):
        return [self.N[self.size]]


class PvarWalk(Workload):
    """``pvar`` on twelve seeded dense random walks.

    Input i has dimension 1 + i % 3, norm NORMS[i % 4] and p = 1 + i // 4,
    so every dimension meets every norm and every p once per cycle.
    """

    N = {"full": 6000, "tiny": 200}
    COUNT = 12

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 4])
        self.p = []
        self.jobs = []
        for i in range(self.COUNT):
            path, out = self.file("walk%02d.json" % i), self.file("out%02d.json" % i)
            _write_json(_walk(rng, self.N[self.size], 1 + i % 3, NORMS[i % 4]), path)
            p = 1 + i // 4
            self.p.append(float(p))
            argv = ["pvar", "--input", path, "--p", str(p), "--out", out]
            self.jobs.append(Job(argv, [path], [out], key=i))
        self.verified = {}  # key -> output text already checked

    def _path(self, key: int) -> DiscretePath:
        # Not cached: twelve loaded paths would add to the worker's peak RSS.
        return DiscretePath.from_json(_read_json(self.jobs[key].inputs[0]))

    def check(self, job, rc, text):
        if rc != 0:
            return "exit code %d" % rc
        with open(job.outputs[0], "r", encoding="utf-8") as fp:
            raw = fp.read()
        if self.verified.get(job.key) == raw:
            return None
        result = json.loads(raw)
        path, p = self._path(job.key), self.p[job.key]
        part = result["partition"]
        if result["p"] != p or part[0] != 0 or part[-1] != len(path) - 1:
            return "input %d: result does not describe the input" % job.key
        if any(a >= b for a, b in zip(part, part[1:])):
            return "input %d: partition not strictly increasing" % job.key
        mat = path.coordinate_matrix()
        terms = row_norms(mat[part[:-1]] - mat[part[1:]], path.space.norm) ** p
        resummed = 0.0
        for term in terms.tolist():
            resummed += term
        independent = partition_sum(path, part, p)
        for label, total, rtol in (
            ("re-summed with the DP's arithmetic", resummed, 0.0),
            ("partition_sum", independent, PARTITION_RTOL),
        ):
            if not abs(total - result["value"]) <= rtol * abs(total):
                return "input %d (%s, p=%g): %s gives %r, reported %r" % (
                    job.key,
                    path.space.norm.to_json(),
                    p,
                    label,
                    total,
                    result["value"],
                )
        self.verified[job.key] = raw
        return None

    def samples(self):
        return [self.N[self.size]] * self.COUNT

    def verify(self):
        """DP on seeded 16-increment restrictions equals the brute force, bit for bit."""
        rng = np.random.default_rng([self.seed, 5])
        errors = []
        for key in range(self.COUNT):
            path, p = self._path(key), self.p[key]
            a = int(rng.integers(0, len(path) - RESTRICTION))
            c, d = float(path.times[a]), float(path.times[a + RESTRICTION])
            dp = pvar_restricted(path, p, c, d).value
            brute = pvar_bruteforce(path.restrict(c, d), p).value
            if dp != brute:
                errors.append(
                    "input %d: restriction at %d gives DP %r, brute force %r" % (key, a, dp, brute)
                )
        return errors


WORKLOAD_TYPES = {
    "step4": Step4,
    "example3": Example3,
    "bound-check": BoundCheck,
    "pvar-walk": PvarWalk,
}
