#!/usr/bin/env python3
"""Monte Carlo campaign for the two Haar-average results.

Runs both averages (two-copy success with a known Schmidt basis, four-copy
pipeline success with an unknown basis) at increasing sample counts and
tabulates the estimates against the analytic values 1/5 and 2/105.  The
z column is the deviation in units of the standard error; values should
hover around 1 and stay below 4.
"""
import argparse

from epp_lab import sampling


def run_mode(name, analytic, estimator, sizes, seed):
    print(f"{name}: analytic = {analytic!r}")
    # the label says what the estimator draws; it does not depend on n
    print(f"rng = {estimator(1, seed).algorithm}")
    print(f"{'n':>9}  {'mean':>22}  {'std_error':>22}  {'z':>6}")
    for n in sizes:
        est = estimator(n, seed)
        z = abs(est.mean - analytic) / est.std_error
        print(f"{n:>9}  {est.mean!r:>22}  {est.std_error!r:>22}  {z:>6.2f}")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--max-samples", type=int, default=10**5)
    args = parser.parse_args()

    sizes = []
    n = 1000
    while n <= args.max_samples:
        sizes.append(n)
        n *= 10

    print(f"seed = {args.seed}")
    print()
    run_mode(
        "known-basis two-copy average",
        sampling.known_basis_average_quadrature(),
        sampling.known_basis_average_mc,
        sizes,
        args.seed,
    )
    run_mode(
        "unknown-basis four-copy average",
        sampling.unknown_basis_average_exact(),
        sampling.unknown_basis_average_mc,
        sizes,
        args.seed,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
