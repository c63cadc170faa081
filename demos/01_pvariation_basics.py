#!/usr/bin/env python3
"""Where p-variation comes from, on paths small enough to inspect by hand.

The running example is a step path through 0, 1, 2 that then stands still.
For p = 2 the best partition skips the middle points entirely: the single
squared jump |2 - 0|^2 = 4 beats the finest partition's 1 + 1 + 0 = 2.
The optimizer has to discover that, and the exhaustive oracle confirms it.
"""

import numpy as np

from pvarkit import DiscretePath, Vector, partition_sum, pvar, pvar_bruteforce


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def main():
    banner("A step path where coarse beats fine")
    path = DiscretePath(
        [0.0, 1.0, 2.0, 3.0],
        [Vector.dense([x]) for x in (0.0, 1.0, 2.0, 2.0)],
        (0.0, 3.0),
    )
    for p in (1.0, 2.0, 3.0):
        res = pvar(path, p)
        finest = partition_sum(path, range(len(path)), p)
        print(
            "p=%-3g  optimal %-8g over samples %s   finest-partition sum %g"
            % (p, res.value, res.partition, finest)
        )
    print("\nAt p = 1 refinement is free (triangle inequality); for p > 1")
    print("intermediate points can only water down a big jump.")

    banner("The optimizer against the exhaustive oracle")
    rng = np.random.default_rng(7)
    for trial in range(3):
        xs = rng.uniform(-2, 2, size=9)
        times = np.linspace(0.0, 1.0, len(xs))
        zig = DiscretePath(times, [Vector.dense([x]) for x in xs], (0.0, 1.0))
        fast = pvar(zig, 2.5).value
        slow = pvar_bruteforce(zig, 2.5).value
        print("trial %d: dynamic program %.12g   all-subsequence max %.12g" % (trial, fast, slow))
    print("\nThe dynamic program walks O(n k) edges for k distinct values; the oracle tries all")
    print("2^(n-1) subsequences. They must agree to the last bit of the search,")
    print("which is the backbone correctness check of the whole library.")


if __name__ == "__main__":
    main()
