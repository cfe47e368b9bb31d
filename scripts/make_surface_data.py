"""Generate the coherence surface over the (q, nu) grid and write it to CSV.

Produces the data behind the sweep plots: total, collective, and localized
coherence of the two-detector state on a regular grid, with the triangle
slack and the closed-form vs eigensolver gap recorded per point.
"""

import argparse
import sys
import time

from unruh_coherence import SweepSpec, run_sweep, verify_sweep, write_csv


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=101,
                    help="points per axis (default 101)")
    ap.add_argument("--out", default="surface.csv",
                    help="output CSV path (default surface.csv)")
    args = ap.parse_args(argv)

    spec = SweepSpec(q_steps=args.steps, nu_steps=args.steps)
    t0 = time.perf_counter()
    result = run_sweep(spec)
    records = result.records
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_csv(records, fh)
    elapsed = time.perf_counter() - t0

    for notice in result.notices:
        print(f"note: {notice}", file=sys.stderr)

    best = records[records.c_total.argmin()]
    report = verify_sweep(spec, records)
    print(f"wrote {len(records)} rows to {args.out} in {elapsed:.2f} s")
    print(f"min c_total = {best.c_total:.12f} at q = {best.q:g}, nu = {best.nu:g}")
    print(f"min triangle slack = {records.triangle_slack.min():.3e} "
          "(negative would be a violation)")
    print(f"max closed-form vs eigensolver gap = {report.max_path_gap:.3e}")
    print(f"monotone-decreasing fraction in nu = {report.monotonic_fraction_in_nu:.4f}")
    print(f"monotone-decreasing fraction in q  = {report.monotonic_fraction_in_q:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
