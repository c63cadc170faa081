#!/usr/bin/env python3
"""The spike-train construction that forces composed variation to diverge.

Plan of attack, in the order the code runs it:

1. scan a grid of candidate points for pairs (u_n, w_n) whose image gap
   under f beats 4 M n^2 |u_n - w_n|^(p/q) -- possible precisely because
   f fails to be (p/q)-Holder near 0;
2. for each pair, build a block of m_n = floor(n^(-2q) |u_n - w_n|^(-p))
   spikes: background w_n, repeatedly interrupted by u_n;
3. chain the blocks into one path on [0, 1], deeper blocks packed toward 0.

The input path keeps var_p under a closed-form ceiling at every depth, but
each block hands the composed path at least M^q of q-variation, so the
composed total grows linearly in the depth: same input space, same map,
variation gone to infinity.
"""

from pvarkit import pvar
from pvarkit.lab import (
    find_holder_violators,
    gen_step4_path,
    power_divergence_candidates,
    step4_divergence_experiment,
    step4_restricted_bound,
    step4_total_bound,
)
from pvarkit.operators import Generator
from pvarkit.spaces import diff_norm, norm
from pvarkit.variation import pvar_restricted


def main():
    p, q = 1.0, 2.0
    f = Generator.power(p / (2.0 * q))
    candidates = power_divergence_candidates()
    M = max(norm(f(v)) for v in candidates)

    pairs = find_holder_violators(f, p, q, M, candidates, 8)
    print("pairs violating the growth gap (M = %.6g):" % M)
    for n, (u, w) in enumerate(pairs, start=1):
        print(
            "  n=%d  |u-w| = %-12.6g image gap = %-12.6g needs > %.6g"
            % (n, diff_norm(u, w), diff_norm(f(u), f(w)),
               4 * M * n * n * diff_norm(u, w) ** (p / q))
        )

    exp = step4_divergence_experiment(p=p, q=q, depths=(1, 2, 4, 8))
    print("\ndepth   var_q(f o x)   claimed n M^q")
    for d, got, bound in zip(*[exp.report.depths, exp.report.quantities,
                               exp.report.bounds]):
        print("%-7d %-14.6g %.6g" % (d, got, bound))

    path8 = gen_step4_path(p, q, exp.pairs, 8)
    r = max(norm(v) for v in path8.values)
    print("\ninput-side budget at depth 8: var_p = %.6g  <=  %.6g (closed form)"
          % (pvar(path8, p).value, step4_total_bound(p, r)))

    print("\ntail windows [1/(n+1), 1] stay under their own closed forms:")
    for n in (1, 2, 4, 8):
        got = pvar_restricted(path8, p, 1.0 / (n + 1), 1.0).value
        print("  n=%d: %.6g <= %.6g" % (n, got, step4_restricted_bound(p, n)))

    print("\nA smooth map cannot feed step 1: swap in the identity and the")
    print("pair search raises NoViolatorFound at n = 3, because for small")
    print("gaps |u - w| > threshold * |u - w|^(1/2) eventually fails.")


if __name__ == "__main__":
    main()
