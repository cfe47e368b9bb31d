"""Locate the floor of the total coherence along q for several couplings.

For each nu the total coherence dips to a strictly positive minimum at some
interior q before recovering toward q=1.  This script prints that minimum as
found by `find_min_c_total`, one vectorised scan-and-refine that resolves
the dip down to nu = 1e-5.  As nu -> 0 the floor tends to about 0.371383,
reached within about nu^2/2 of q = 1.
"""

import argparse
import sys

from unruh_coherence import find_min_c_total


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nu", type=float, nargs="+",
                    default=[0.1, 0.2, 0.3, 0.5, 0.7, 1.0],
                    help="coupling values to scan (default: a small ladder)")
    args = ap.parse_args(argv)

    print(f"{'nu':>6}  {'q_min':>16}  {'c_total_min':>14}")
    for nu in args.nu:
        if nu <= 0:
            print(f"{nu:>6}  (skipped: coherence is constant at nu=0)",
                  file=sys.stderr)
            continue
        q_star, value = find_min_c_total(nu)
        print(f"{nu:>6g}  {q_star:>16.12f}  {value:>14.12f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
