#!/usr/bin/env python3
"""A composition operator that is locally bounded but not bounded.

Inputs: constant paths sitting at the standard basis sequences e_k, all of
norm exactly 1.  The score map looks at a sequence, pays k for a full-size
k-th coordinate, and its first output coordinate is the best score.  Every
input has norm 1; the k-th output has norm k.  One bounded set, unbounded
image -- with every number exact, no tolerance involved.
"""

from pvarkit import DiscretePath, Generator, Vector, bv_norm, compose_path
from pvarkit.lab import gen_example5_experiment


def main():
    f = Generator.l2_sup()
    print("k    |x_k|_1   |f o x_k|_1")
    print("-" * 30)
    for k in (1, 2, 3, 5, 8, 13, 21, 34):
        e_k = Vector.sparse({k: 1.0})
        x = DiscretePath([0.0, 1.0], [e_k, e_k], (0.0, 1.0))
        print("%-4d %-9g %g" % (k, bv_norm(x, 1.0), bv_norm(compose_path(f, x), 1.0)))

    print()
    report = gen_example5_experiment(range(1, 51))
    print(
        "packaged run, k = 1..50: all exact integers, satisfied = %s"
        % report.all_satisfied
    )
    print()
    print("The map is continuous at each point of the domain it cares about")
    print("and bounded on every ball of small radius around the basis")
    print("vectors; unboundedness needs the whole unit sphere, which is why")
    print("no local argument can rescue operator boundedness here.")


if __name__ == "__main__":
    main()
