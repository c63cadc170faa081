"""Acceptance gate: the eleven release criteria, one printed line each.

Every criterion states a mathematical inequality or exact identity plus a
tolerance; the helpers here only add timing and the pass/fail line.  None of
the tolerances may be loosened: a red line here means the library, not the
test, is wrong.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from pvarkit.lab import (
    example3_experiment,
    gen_step4_path,
    gen_thm6_spikes,
    remark_experiment,
    step4_divergence_experiment,
    step4_restricted_bound,
    step4_total_bound,
)
from pvarkit.operators import (
    Generator,
    compose_path,
    composition_bound_check,
)
from pvarkit.paths import DiscretePath
from pvarkit.spaces import Vector, diff_norm, norm
from pvarkit.variation import (
    bv_norm,
    partition_sum,
    pvar,
    pvar_bruteforce,
    pvar_restricted,
    sup_norm,
)

from conftest import build_corpus

EXPONENTS = (1.0, 1.5, 2.0, 3.0)


@contextmanager
def reported(capsys, number, label):
    info = {}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print("[FAIL] acceptance %02d %s" % (number, label))
        raise
    elapsed = time.perf_counter() - start
    detail = info.get("detail", "")
    with capsys.disabled():
        print(
            "[PASS] acceptance %02d %s%s (%.2fs)"
            % (number, label, ": " + detail if detail else "", elapsed)
        )


def test_01_exhaustive_oracle_equivalence(corpus500, capsys):
    with reported(capsys, 1, "optimized search equals exhaustive oracle") as info:
        start = time.perf_counter()
        worst = 0.0
        for path in corpus500:
            for p in EXPONENTS:
                fast = pvar(path, p).value
                slow = pvar_bruteforce(path, p).value
                assert math.isclose(fast, slow, rel_tol=1e-9, abs_tol=1e-12)
                if slow != 0.0:
                    worst = max(worst, abs(fast - slow) / abs(slow))
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        info["detail"] = "500 paths x 4 exponents, max rel dev %.2e" % worst


def test_02_square_jump_step_path_exact(capsys):
    with reported(capsys, 2, "square-jump step path: 4 optimal vs 2 finest") as info:
        path = DiscretePath(
            [0.0, 1.0, 2.0, 3.0],
            [Vector.dense([x]) for x in (0.0, 1.0, 2.0, 2.0)],
            (0.0, 3.0),
        )
        res = pvar(path, 2.0)
        assert res.value == 4.0
        assert res.partition == [0, 3]
        assert pvar_bruteforce(path, 2.0).value == 4.0
        assert partition_sum(path, range(4), 2.0) == 2.0
        info["detail"] = "var2 = 4, finest sum = 2, zero tolerance"


def test_03_variation_exponent_embedding(corpus500, capsys):
    with reported(capsys, 3, "variation root decreases in the exponent") as info:
        checked = 0
        for path in corpus500:
            roots = {p: pvar(path, p).value ** (1.0 / p) for p in EXPONENTS}
            for i, p in enumerate(EXPONENTS):
                for q in EXPONENTS[i:]:
                    assert roots[q] <= roots[p] + 1e-9
                    checked += 1
        info["detail"] = "%d ordered exponent pairs over 500 paths" % checked


def test_04_sup_norm_below_variation_norm(corpus500, capsys):
    with reported(capsys, 4, "sup norm below the variation norm") as info:
        for path in corpus500:
            s = sup_norm(path)
            for p in EXPONENTS:
                assert s <= bv_norm(path, p) + 1e-9
        info["detail"] = "500 paths x 4 exponents"


def test_05_composition_bound_with_estimated_constant(capsys):
    with reported(capsys, 5, "var_q of composition below L^q var_p") as info:
        p, q = 1.0, 2.0
        mixed = build_corpus(100, seed=21)
        scalar = build_corpus(100, seed=22, dims=(1,))
        tent = Generator.scalar_lipschitz([(-2.5, 2.5), (0.0, 0.0), (2.5, 2.5)])
        cases = [
            (Generator.identity(), mixed),
            (tent, scalar),
            (Generator.power(p / q), scalar),
        ]
        for f, paths in cases:
            for path in paths:
                report = composition_bound_check(f, path, p, q)
                assert report.bound_holds
        info["detail"] = "3 generators x 100 paths, tolerance 1e-9"


def test_06_unit_inputs_unbounded_scores(capsys):
    with reported(capsys, 6, "norm-1 inputs with composed norm k") as info:
        start = time.perf_counter()
        f = Generator.l2_sup()
        for k in range(1, 51):
            e_k = Vector.sparse({k: 1.0})
            x = DiscretePath([0.0, 1.0], [e_k, e_k], (0.0, 1.0))
            assert bv_norm(x, 1.0) == 1.0
            assert bv_norm(compose_path(f, x), 1.0) == float(k)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        info["detail"] = "k = 1..50, zero tolerance"


def test_07_spike_train_divergence_with_variation_budget(capsys):
    with reported(capsys, 7, "composed variation grows like n M^q") as info:
        start = time.perf_counter()
        p, q = 1.0, 2.0
        depths = (1, 2, 4, 8)
        exp = step4_divergence_experiment(p=p, q=q, depths=depths)
        report = exp.report
        M = exp.M
        assert report.all_satisfied
        for d, quantity, bound in zip(report.depths, report.quantities,
                                      report.bounds):
            assert bound == pytest.approx(d * M ** q, rel=1e-12)
            assert quantity >= d * M ** q - 1e-9
        path8 = gen_step4_path(p, q, exp.pairs, 8)
        r = max(norm(v) for v in path8.values)
        total = pvar(path8, p).value
        ceiling = step4_total_bound(p, r)
        assert total <= ceiling
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        info["detail"] = "depths {1,2,4,8}, var_p %.3f <= %.3f" % (total, ceiling)


def test_08_restricted_variation_tail_bounds(capsys):
    with reported(capsys, 8, "restricted variation below its tail bound") as info:
        p, q = 1.0, 2.0
        exp = step4_divergence_experiment(p=p, q=q, depths=(8,))
        path8 = gen_step4_path(p, q, exp.pairs, 8)
        for n in range(1, 9):
            got = pvar_restricted(path8, p, 1.0 / (n + 1), 1.0).value
            limit = step4_restricted_bound(p, n)
            assert got <= limit + 1e-9
        info["detail"] = "windows [1/(n+1), 1] for n = 1..8"


def test_09_alternating_spikes_budget_and_growth(capsys):
    with reported(capsys, 9, "spike trains: budget 2, composed growth") as info:
        p, q, beta = 1.0, 2.0, 0.25
        f = Generator.power(beta)
        rng = np.random.default_rng(0)
        for _ in range(20):
            gap = float(rng.uniform(0.05, 1.0))
            base = float(rng.uniform(-1.0, 0.0))
            u = Vector.dense([base + gap])
            w = Vector.dense([base])
            assert diff_norm(u, w) <= 1.0
            path = gen_thm6_spikes(u, w, p)
            assert pvar(path, p).value <= 2.0 + 1e-9
            m = (len(path) - 2) // 2
            fgap = diff_norm(f(u), f(w))
            composed = compose_path(f, path)
            assert pvar(composed, q).value >= m * fgap ** q - 1e-9
        info["detail"] = "20 random pairs, p=1 q=2 beta=0.25"


def test_10_spike_count_drives_norm_growth(capsys):
    with reported(capsys, 10, "composed norm grows like sqrt(n)") as info:
        q = 2.0
        f = Generator.power(0.5)
        u = Vector.dense([0.81])
        fgap = diff_norm(f(u), f(u.space.zero()))
        report = remark_experiment(depths=(1, 4, 16, 64), q=q)
        assert report.all_satisfied
        for n, quantity in zip(report.depths, report.quantities):
            assert quantity >= math.sqrt(float(n)) * fgap - 1e-9
        info["detail"] = "n in {1,4,16,64}, image gap %.2f" % fgap


def test_11_bounded_variation_with_stable_covering(capsys):
    with reported(capsys, 11, "variation bounded while the net stabilizes") as info:
        outcome = example3_experiment(depths=(10, 100, 1000), eps=0.01)
        report = outcome.report
        assert report.all_satisfied
        i = np.arange(1, 10 ** 6 + 1, dtype=float)
        ceiling = 1.0 + float(np.sum(1.0 / ((i + 1.0) * (i + 1.0)))) + 1e-6
        qs = report.quantities
        assert all(a <= b for a, b in zip(qs, qs[1:]))
        assert all(x <= ceiling for x in qs)
        assert outcome.covering_counts[1] == outcome.covering_counts[2]
        assert outcome.point_counts[0] < outcome.point_counts[1] < outcome.point_counts[2]
        info["detail"] = "net size %d at depths 100 and 1000" % outcome.covering_counts[2]
