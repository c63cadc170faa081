"""Spans around calls into pvarkit's layers, recorded from outside the package.

``Tracer.install`` swaps each traced public function for a timing wrapper
in every pvarkit module that refers to it, so the wrappers see the calls
the command line makes; ``uninstall`` puts the originals back.  Nothing
inside the package is edited.  A span holds name, start, end, parent index
and job id; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

import pvarkit.cli as cli
import pvarkit.lab as lab
import pvarkit.operators as operators
import pvarkit.variation as variation
from pvarkit.lab import BoundReport, DivergenceReport
from pvarkit.paths import DiscretePath

_MODULES = (cli, lab, operators, variation)

# span name -> layer metric its self time feeds
SPAN_METRIC = {
    "variation.pvar": "variation.pvar_s",
    "operators.holder": "operators.holder_s",
    "operators.compose": "operators.compose_s",
    "operators.covering": "operators.covering_s",
    "spaces.embed": "spaces.embed_s",
    "paths.from_json": "paths.from_json_s",
    "cli.load": "cli.load_s",
    "cli.write": "cli.write_s",
    "lab.build": "lab.build_s",
    "lab.violators": "lab.violators_s",
}
JOB = "job"
BOOKKEEPING = "trace.count"  # counting work; excluded from every layer


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.counts: dict[int, dict[str, int]] = {}  # job -> count name -> value
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, amount: int) -> None:
        job = self.counts.setdefault(self.job, {})
        job[name] = job.get(name, 0) + int(amount)

    # -- installing the wrappers -------------------------------------------

    def _swap(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _swap_everywhere(self, fn, new) -> None:
        hits = [(m, k) for m in _MODULES for k, v in vars(m).items() if v is fn]
        if not hits:
            raise RuntimeError("no pvarkit module refers to %s" % fn.__qualname__)
        for module, attr in hits:
            self._swap(module, attr, new)

    def _timed(self, name: str, fn, count=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                with self.span(BOOKKEEPING):
                    count(args, out)
            return out

        return wrapper

    def install(self) -> None:
        pvar = variation.pvar

        def traced_pvar(path, p, *args, **kwargs):
            with self.span("spaces.embed"):
                mat = path.coordinate_matrix()
            with self.span(BOOKKEEPING):
                rows, cols = mat.shape
                self.add("variation.pvar_calls", 1)
                self.add("variation.samples", rows)
                self.add("variation.distinct_values", len(np.unique(mat, axis=0)))
                self.add("variation.pairs_computed", rows * (rows - 1) // 2)
                self.add("spaces.embed_cols", cols)
                self.add("spaces.embed_bytes", rows * cols * 8)
            with self.span("variation.pvar"):
                return pvar(path, p, *args, **kwargs)

        self._swap_everywhere(pvar, traced_pvar)
        self._swap_everywhere(
            operators.estimate_holder,
            self._timed(
                "operators.holder",
                operators.estimate_holder,
                lambda args, est: self.add("operators.holder_pairs", est.pair_count),
            ),
        )
        self._swap_everywhere(
            operators.compose_path,
            self._timed(
                "operators.compose",
                operators.compose_path,
                lambda args, out: self.add("operators.compose_samples", len(out)),
            ),
        )
        self._swap_everywhere(
            operators.epsilon_covering,
            self._timed("operators.covering", operators.epsilon_covering),
        )
        self._swap_everywhere(lab.gen_step4_path, self._timed("lab.build", lab.gen_step4_path))
        self._swap_everywhere(lab.gen_example3, self._timed("lab.build", lab.gen_example3))
        self._swap_everywhere(
            lab.find_holder_violators,
            self._timed("lab.violators", lab.find_holder_violators),
        )
        from_json = DiscretePath.__dict__["from_json"].__func__
        self._swap(
            DiscretePath,
            "from_json",
            classmethod(
                self._timed(
                    "paths.from_json",
                    from_json,
                    lambda args, out: self.add("paths.samples", len(out)),
                )
            ),
        )
        # The command line's own file I/O: private helpers, so a rename
        # fails loudly here instead of leaving the layer unmeasured.
        self._swap(cli, "_load_json", self._timed("cli.load", cli._load_json))
        self._swap(cli, "_dump_json", self._timed("cli.write", cli._dump_json))
        for report in (DivergenceReport, BoundReport):
            self._swap(report, "write_csv", self._timed("cli.write", report.write_csv))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_times(spans, jobs, job_metric: str | None) -> dict[str, float]:
    """Summed self time per layer metric over the spans of ``jobs``.

    The root span of each job is the whole ``cli.main`` call; its self time
    goes to ``job_metric`` when the workload names one.
    """
    totals = {metric: 0.0 for metric in SPAN_METRIC.values()}
    if job_metric:
        totals[job_metric] = 0.0
    for rec, own in zip(spans, self_times(spans)):
        name, job = rec[0], rec[4]
        if job not in jobs:
            continue
        if name in SPAN_METRIC:
            totals[SPAN_METRIC[name]] += own
        elif name == JOB and job_metric:
            totals[job_metric] += own
    return totals
