#!/usr/bin/env python3
"""Tabulate encoder coverage across a range of prime fields.

For each odd prime p in [--p-min, --p-max] the script fixes one curve shape,
reduces the given integer coefficients mod p, enumerates the full parameter
domain, and compares the encoder image against the affine point set. Primes
where a or b vanish mod p are skipped (the families require ab != 0).

Output is deterministic for a given flag set: one row per prime, or a JSON
array with --json.
"""

import argparse
import json

from hypoint.curves import CurveParams
from hypoint.ff import field_new, is_prime
from hypoint.survey import DEFAULT_CAP, coverage


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--family", choices=("g1", "g2"), default="g1")
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--a", type=int, default=1)
    ap.add_argument("--b", type=int, default=1)
    ap.add_argument("--p-min", type=int, default=5)
    ap.add_argument("--p-max", type=int, default=101)
    ap.add_argument("--json", action="store_true", help="emit a JSON array instead of a table")
    args = ap.parse_args(argv)
    if args.n < 3 or args.n % 2 == 0:
        ap.error(f"--n must be odd and at least 3 (the encoder's three-point map), got {args.n}")
    if args.p_max > DEFAULT_CAP:
        ap.error(f"--p-max must not exceed the enumeration cap {DEFAULT_CAP}, got {args.p_max}")

    rows = []
    for p in range(args.p_min | 1, args.p_max + 1, 2):
        if not is_prime(p) or args.a % p == 0 or args.b % p == 0:
            continue
        K = field_new(p)
        params = CurveParams(args.family, args.n, K.elem(args.a), K.elem(args.b))
        rows.append(coverage(params))

    if args.json:
        print(json.dumps([r.to_json() for r in rows], indent=2, sort_keys=True))
        return 0

    header = f"{'p':>6} {'size_T':>8} {'bound':>8} {'curve':>7} {'image':>7} {'missed':>7}  ratio"
    print(f"curve {args.family}:n={args.n},a={args.a},b={args.b}")
    print(header)
    print("-" * len(header))
    for r in rows:
        bound = r.bound if r.bound_applicable else "-"
        print(f"{r.q:>6} {r.size_T:>8} {bound!s:>8} {r.curve_size:>7} "
              f"{r.image_size:>7} {r.curve_size - r.image_size:>7}  {r.coverage_ratio}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
