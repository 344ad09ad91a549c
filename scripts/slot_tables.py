"""Print degree tables and filtration slots for the catalog families.

Handy for eyeballing how the invariants move with the parameters, e.g.

    python3 scripts/slot_tables.py chow_rost --p 3 --n 2 --depth 2
    python3 scripts/slot_tables.py pfister_neighbor_chow --n 3

The parameter flags are those of `rostcalc build`, and an entry's own
defaults fill in the ones not given.
"""

import argparse
import sys

from rostcalc.catalog import CATALOG_IDS, RING_IDS, catalog_build
from rostcalc.cli import _add_params, _params_from
from rostcalc.graded import _fmt, gr_ps, normalize


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("id", choices=CATALOG_IDS)
    _add_params(ap)
    ap.add_argument("--depth", type=int, default=0, help="also print gr slots to this depth")
    args = ap.parse_args()
    if args.id not in RING_IDS:
        print(f"error: {args.id} has no ring, so no degree table; "
              f"use `rostcalc build {args.id}`", file=sys.stderr)
        return 2

    params = _params_from(args)
    try:
        obj = catalog_build(args.id, params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    M = obj.module()
    nf = normalize(M)
    print(f"{args.id} {params}")
    for d, (free, torsion) in nf.degrees:
        print(f"  degree {d:>3}: {_fmt(nf.p, (free, torsion))}")
    for note in obj.notes:
        print(f"  note: {note}")

    if args.depth > 0:
        print(f"p-power filtration, depth {args.depth}:")
        for k, slot in enumerate(gr_ps(M, args.depth)):
            print(f"  slot {k}: {_fmt(nf.p, slot)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
