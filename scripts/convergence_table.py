#!/usr/bin/env python3
"""Print error tables for the scenarios with closed-form references.

Halving the step four times should show first-order decay for the impacting
scenarios and roundoff-level errors for free flight.
"""

import argparse

from proxsweep import convergence_study
from proxsweep.scenarios import lookup


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenarios", default="floor,piston,pocket,free",
                        help="comma separated scenario names")
    parser.add_argument("--h0", type=float, default=0.04, help="coarsest step")
    parser.add_argument("--levels", type=int, default=4, help="number of halvings")
    args = parser.parse_args()

    h_list = [args.h0 / 2 ** k for k in range(args.levels)]
    for name in args.scenarios.split(","):
        scn = lookup(name.strip())
        rows = convergence_study(scn.system, scn.force, scn.q0, scn.u0, scn.T,
                                 h_list, reference=scn.reference())
        print(f"\n{scn.name}  (T = {scn.T:g})")
        print(f"  {'h':>10}  {'sup error':>12}  {'order':>6}")
        for row in rows:
            order = "-" if row["order"] is None else f"{row['order']:.2f}"
            print(f"  {row['h']:>10g}  {row['err']:>12.4e}  {order:>6}")


if __name__ == "__main__":
    main()
