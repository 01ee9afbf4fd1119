#!/usr/bin/env python3
"""Scan the image index of SL(ell^2)/mu_ell over odd primes.

For each prime the full generating set of the descent monoid is built and
the gcd of the indices n_lambda is reported, all via the closed form.
ell = 5 takes about 0.015 s and ell = 7 (66,407 generators) about 0.9 s on
a 2-core Intel Xeon with Python 3.11.
"""
import argparse
import sys
import time
from math import isqrt

from schern import explore_conjecture
from schern.tables import MAX_CONJECTURE_ELL


def odd_primes(limit):
    for k in range(3, limit + 1, 2):
        if all(k % p for p in range(3, isqrt(k) + 1, 2)):
            yield k


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-ell", type=int, default=5,
                    help="largest prime to try (default 5; 7, the largest "
                    "accepted, takes about 0.9 s)")
    args = ap.parse_args()
    if args.max_ell > MAX_CONJECTURE_ELL:
        ap.error(f"--max-ell {args.max_ell} exceeds the ceiling "
                 f"{MAX_CONJECTURE_ELL} of explore_conjecture")

    all_match = True
    for ell in odd_primes(args.max_ell):
        t0 = time.perf_counter()
        rep = explore_conjecture(ell)
        dt = time.perf_counter() - t0
        all_match &= rep.matches_ell
        print(
            f"ell={ell}: SL({rep.spec.n})/mu_{rep.spec.d}  "
            f"generators={rep.basis_size}  index={rep.image_index}  "
            f"equals ell={'yes' if rep.matches_ell else 'NO'}  "
            f"divisible={'yes' if rep.all_rows_divisible else 'NO'}  "
            f"dual-invariant={'yes' if rep.duality_invariant else 'NO'}  "
            f"({dt:.1f}s)"
        )
    print("index equals ell for every prime tried"
          if all_match else "pattern broke somewhere above")
    return 0


if __name__ == "__main__":
    sys.exit(main())
