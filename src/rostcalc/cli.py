"""Command-line entry point.

Verbs: build a catalog object, verify one theorem id, run the whole default
verification grid, list known ids, and take tensor products / quotients of
catalog modules.  Machine output is stable JSON (sorted keys, no timestamps)
so verify-all runs are byte-identical across invocations of the same version.

Exit codes: 0 success/verified, 1 refuted, 2 usage or write error, 3 not-certifiable.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache

from . import __version__
from .catalog import CATALOG, CATALOG_IDS, RING_IDS, CatalogError, catalog_build, flags
from .graded import _fmt, kill_generator, normalize, tensor_normal_form
from .km import gr_geometric, localize_v, to_chow
from .kunneth import CLAIMS, IMAGE_PRESETS, THEOREM_IDS, default_grid, verify_theorem
from .omega import chow_collapse
from .report import NOT_CERTIFIABLE, REFUTED, VERIFIED


def int_list(text: str) -> list[int] | None:
    """A comma-separated list of ints; an empty one reads as no flag."""
    return [int(x) for x in text.split(",") if x.strip()] or None


# Every parameter a claim or catalog entry reads, each one's flag on every
# parameter verb; the id then refuses those it does not read.
PARAMS = tuple(dict.fromkeys(k for t in (*CATALOG.values(), *CLAIMS.values()) for k in t.params))
# The flags that do not take one int.
_FLAG_TYPES = {
    "di": {"type": int_list, "help": "comma-separated torsion cutoffs d_i"},
    "image": {"choices": IMAGE_PRESETS},
}


def _add_params(sub: argparse.ArgumentParser) -> None:
    for name in PARAMS:
        sub.add_argument("--" + name, **_FLAG_TYPES.get(name, {"type": int}))


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "text"), default="json")
    sub.add_argument("--out", type=str, default=None)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process on first use (not at import)."""
    ap = argparse.ArgumentParser(
        prog="rostcalc",
        description="exact graded-ring computations for twisted-form motives",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sp = ap.add_subparsers(dest="verb", required=True)

    b = sp.add_parser("build", help="construct a catalog object")
    b.add_argument("id", choices=CATALOG_IDS)
    _add_params(b)
    _add_output(b)

    v = sp.add_parser("verify", help="verify one theorem id")
    v.add_argument("id", choices=THEOREM_IDS)
    _add_params(v)
    _add_output(v)

    va = sp.add_parser("verify-all", help="run the default verification grid")
    va.add_argument("--only", choices=THEOREM_IDS, help="run only the reports of this id")
    _add_output(va)

    ls = sp.add_parser("list", help="list catalog and theorem ids")
    _add_output(ls)

    t = sp.add_parser("tensor", help="tensor product of two catalog modules")
    t.add_argument("left", choices=RING_IDS)
    t.add_argument("right", choices=RING_IDS)
    _add_params(t)
    _add_output(t)

    q = sp.add_parser("quotient", help="kill named generators of a catalog module")
    q.add_argument("id", choices=RING_IDS)
    q.add_argument("--kill", action="append", default=[], metavar="NAME")
    _add_params(q)
    _add_output(q)
    return ap


def _params_from(args: argparse.Namespace) -> dict:
    return {k: getattr(args, k) for k in PARAMS if getattr(args, k) is not None}


def _build_normal_form(id: str, params: dict) -> dict:
    obj = catalog_build(id, params)
    if id == "omega_image_rost":
        return normalize(chow_collapse(obj.omega).module()).to_json()
    if id == "km_rost":
        localized = localize_v(obj.km)
        free, torsion = localized.aggregate()
        return {
            "to_chow": normalize(to_chow(obj.km)).to_json(),
            "gr_geometric": normalize(gr_geometric(obj.km)).to_json(),
            # complete for homogeneous relations, so "anomalies" stays empty
            "localized": {
                "p": localized.p, "m": obj.km.m, "free_rank": free, "torsion": list(torsion),
                "per_class": localized.to_json()["degrees"], "anomalies": [],
            },
        }
    return normalize(obj.module()).to_json()


def _fmt_normal_form(data: dict) -> str:
    degrees = data.get("degrees", {})
    lines = [
        f"degree {d}: {_fmt(data['p'], (degrees[d]['free'], degrees[d]['torsion']))}"
        for d in sorted(degrees, key=int)
    ]
    return "\n".join(lines) if lines else "0"


def _emit(args: argparse.Namespace, data: dict, text: str | None = None) -> None:
    if args.format == "json":
        payload = json.dumps(data, sort_keys=True, indent=2)
    else:
        payload = text if text is not None else json.dumps(data, sort_keys=True, indent=2)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        except OSError as exc:  # a usage error: exit 1 would read as a refutation
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        print(payload)


_VERDICT_EXIT = {VERIFIED: 0, REFUTED: 1, NOT_CERTIFIABLE: 3}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "build":
            data = _build_normal_form(args.id, _params_from(args))
            _emit(args, data, _fmt_normal_form(data) if "degrees" in data else None)
            return 0
        if args.verb == "verify":
            report = verify_theorem(args.id, _params_from(args))
            data = report.to_json()
            text = f"{report.id} {json.dumps(report.params, sort_keys=True)}: {report.verdict}"
            _emit(args, data, text)
            return _VERDICT_EXIT[report.verdict]
        if args.verb == "verify-all":
            reports = []
            start = time.perf_counter()
            for id_, prm in default_grid():
                if args.only not in (None, id_):
                    continue
                t0 = time.perf_counter()
                reports.append(verify_theorem(id_, prm))
                dt = time.perf_counter() - t0
                print(f"{dt:8.3f} s  {id_} {json.dumps(prm, sort_keys=True)}", file=sys.stderr)
            dt = time.perf_counter() - start
            print(f"{dt:8.3f} s  {len(reports)} reports", file=sys.stderr)
            data = {
                "version": __version__,
                "reports": [r.to_json() for r in reports],
                "summary": {
                    "total": len(reports),
                    "verified": sum(r.verdict == VERIFIED for r in reports),
                    "refuted": sum(r.verdict == REFUTED for r in reports),
                    "not_certifiable": sum(
                        r.verdict == NOT_CERTIFIABLE for r in reports
                    ),
                },
            }
            text = "\n".join(
                f"{r.id} {json.dumps(r.params, sort_keys=True)}: {r.verdict}"
                for r in reports
            )
            _emit(args, data, text)
            # a refutation outranks a report that could not be certified
            return min({_VERDICT_EXIT[r.verdict] for r in reports} - {0}, default=0)
        if args.verb == "list":
            data = {"catalog": list(CATALOG_IDS), "theorems": list(THEOREM_IDS)}
            text = "\n".join(["catalog:", *CATALOG_IDS, "", "theorems:", *THEOREM_IDS])
            _emit(args, data, text)
            return 0
        if args.verb == "tensor":
            params = _params_from(args)
            sides = (args.left, args.right)
            unread = [k for k in params if all(k not in CATALOG[id_].params for id_ in sides)]
            if unread:
                raise CatalogError(f"neither {args.left} nor {args.right} reads {flags(unread)}")
            # the same id on both sides is built once, and normalized once
            modules = {
                id_: catalog_build(
                    id_, {k: v for k, v in params.items() if k in CATALOG[id_].params}
                ).module()
                for id_ in dict.fromkeys(sides)
            }
            data = tensor_normal_form(modules[args.left], modules[args.right]).to_json()
            _emit(args, data, _fmt_normal_form(data))
            return 0
        if args.verb == "quotient":
            params = _params_from(args)
            mod = catalog_build(args.id, params).module()
            for name in args.kill:
                mod = kill_generator(mod, name)
            data = normalize(mod).to_json()
            _emit(args, data, _fmt_normal_form(data))
            return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable verb")


if __name__ == "__main__":
    sys.exit(main())
