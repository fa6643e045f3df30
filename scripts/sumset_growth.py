#!/usr/bin/env python3
"""Tabulate |T_n| for q = x^(2^k) - 1 against 2^(n-1)(2^k - 1) + 1.

The table shows why the degree-bound check in the verification suite
fails: for k >= 2 the sum sets outgrow the stated bound at small n
(|T_n| is polynomial in n of degree 2^(k-1), while the bound starts
small and only wins once the 2^(n-1) factor takes over).  The column
`exact` is the closed-form lattice count `exact_degree(n, k)`, and n_k
is the last n at which the bound fails ("-" when it never does): it
holds for every n > n_k.

Usage: python scripts/sumset_growth.py [max_n]
"""

import sys

sys.path.insert(0, "src")

from aprings.annihilator import RootSpec, degree_bound, exact_degree, root_sum_set
from aprings.config import Limits

# past n = 200 the bound, which doubles with n, stays ahead of |T_n|,
# which grows like n^(2^(k-1)), for every k <= 5
HORIZON = 200


def last_failure(k: int) -> str:
    failing = [n for n in range(1, HORIZON) if exact_degree(n, k) > degree_bound(n, k)]
    return str(failing[-1]) if failing else "-"


def main() -> None:
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    limits = Limits(max_summands=max(12, max_n), max_sumset=200000)
    print(f"{'k':>2} {'n':>2} {'|T_n|':>7} {'exact':>7} {'bound':>7} {'n_k':>4}  status")
    for k in (1, 2, 3):
        spec = RootSpec.unity(2**k)
        n_k = last_failure(k)
        for n in range(1, max_n + 1):
            size = len(root_sum_set(spec, n, "signed", limits))
            bound = degree_bound(n, k)
            status = "<= bound" if size <= bound else "EXCEEDS"
            print(f"{k:>2} {n:>2} {size:>7} {exact_degree(n, k):>7} {bound:>7} {n_k:>4}  {status}")
        print()


if __name__ == "__main__":
    main()
