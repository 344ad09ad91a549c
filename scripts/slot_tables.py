"""Print degree tables and filtration slots for the catalog families.

Handy for eyeballing how the invariants move with the parameters, e.g.

    python3 scripts/slot_tables.py chow_rost --p 3 --n 2 --s 2
    python3 scripts/slot_tables.py pfister_neighbor_chow --n 3
"""

import argparse
import sys

from rostcalc.catalog import CATALOG_IDS, RING_IDS, catalog_build
from rostcalc.graded import _fmt, gr_ps, normalize


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("id", choices=CATALOG_IDS)
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--m", type=int)
    ap.add_argument("--d", type=int)
    ap.add_argument("--di", help="comma-separated d_i for the excellent quadric")
    ap.add_argument("--s", type=int, default=0, help="also print gr slots to depth s")
    args = ap.parse_args()
    if args.id not in RING_IDS:
        print(f"error: {args.id} has no ring, so no degree table; "
              f"use `rostcalc build {args.id}`", file=sys.stderr)
        return 2

    params = {"p": args.p, "n": args.n}
    if args.m is not None:
        params["m"] = args.m
    if args.d is not None:
        params["d"] = args.d
    if args.di:
        params["di"] = [int(x) for x in args.di.split(",")]

    obj = catalog_build(args.id, params)
    M = obj.module()
    nf = normalize(M)
    print(f"{args.id} {params}")
    for d, (free, torsion) in nf.degrees:
        print(f"  degree {d:>3}: {_fmt(nf.p, (free, torsion))}")
    for note in obj.notes:
        print(f"  note: {note}")

    if args.s > 0:
        filt = gr_ps(M, args.s)
        print(f"p-power filtration, depth {args.s}:")
        for k in range(0, args.s + 2):
            print(f"  slot {k}: {_fmt(nf.p, filt.slot_aggregate(k))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
