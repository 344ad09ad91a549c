"""Benchmark items: what each workload runs and how its answers are checked.

An item is one call a rostcalc user makes: one `verify_theorem` report, one
CLI invocation, or one planted module pushed through `normalize` and two
`membership` solves.  Items are made from the seed alone; rostcalc only ever
sees the generated items.

This module imports rostcalc lazily, inside the functions that need it, so
that the worker can time the import.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("grid", "frontier", "construct")

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# The time of the worker's speed probe (`worker.reference_seconds`) on a
# quiet Intel Xeon host with Python 3.11.  Item times are reported as if
# every probe had taken this long.
REFERENCE_S = 0.009

# Cap on one item, in seconds at the reference speed; the wall-clock cap is
# this times the probe over REFERENCE_S, and never less than this.  `build
# km_rost --p 5 --n 4 --m 1` did not finish in 600 s at the seed commit,
# because `km._minor_invariants` enumerates minors without bound; it hits
# this cap and counts as failed.
ITEM_CAP_S = 8.0

# Items that hit the cap at the seed commit.  Each attempt costs the whole
# cap, so a run attempts them in its first pass only.
RUN_ONCE = frozenset({"build km_rost --p 5 --n 4 --m 1"})

FRONTIER = (
    ("cor-1.3", {"p": 5, "s": 3}),
    ("cor-1.3", {"p": 3, "s": 4}),
    ("remark-4.2-negative", {"p": 11}),
    ("cor-4.2", {"p": 11}),
    ("thm-5.5-torsion-square", {"n": 6}),
)

CONSTRUCT_CLI = (
    ("build", "km_rost", "--p", "7", "--n", "3", "--m", "1"),
    ("build", "km_rost", "--p", "11", "--n", "3", "--m", "1"),
    ("build", "km_rost", "--p", "3", "--n", "4", "--m", "1"),
    ("build", "omega_image_rost", "--p", "3", "--n", "4"),
    ("tensor", "pfister_neighbor_chow", "pfister_neighbor_chow", "--n", "4"),
    ("quotient", "chow_rost", "--p", "5", "--n", "3", "--kill", "c_1(y)"),
    ("build", "km_rost", "--p", "5", "--n", "4", "--m", "1"),
)

# (p, generator count) of the planted modules in one construct pass.  The
# time to normalize a random dense planted matrix has a heavy tail that grows
# fast with its size: at 10 generators the draws measured 0.01 to 0.23 s, at
# 12 generators 0.1 to over 5 s.  So the size-10 plants are drawn afresh from
# each seed, three per prime, and the larger ones are drawn once from a fixed
# seed and only have their row and column signs flipped by the run's seed,
# which changes the matrix but not one bit length in its elimination.  That
# keeps the pass time steady from seed to seed while entries still grow to
# about 10^5 bits.
PLANTED_DRAWN = ((2, 10), (3, 10), (5, 10)) * 3
PLANTED_SIGNED = ((5, 11), (2, 12), (3, 12))


@dataclass(frozen=True)
class Plant:
    """A single-degree module with known invariants and two right-hand sides.

    The relation matrix is M = L U D L' U' with unit-triangular L, U, L', U'
    and D the gens x rels matrix diag(p^e_1, ..., p^e_rels), so coker M is
    Z^(gens - rels) plus Z/p^e for every e >= 1.  `inside` is M x for an
    integer x; `outside` is L U e_j for a coordinate j that D does not reach
    with a unit, so no p-local x solves M x = outside.
    """

    p: int
    degree: int
    gens: int
    columns: tuple[tuple[int, ...], ...]
    free: int
    torsion: tuple[int, ...]
    inside: tuple[int, ...]
    outside: tuple[int, ...]


@dataclass(frozen=True)
class Item:
    key: str
    kind: str  # "verify", "cli" or "planted"
    payload: object


def _matmul(a, b):
    inner = len(b)
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _unit_triangular(rng: random.Random, n: int, lower: bool):
    return [
        [
            1 if i == j else (rng.randint(-1, 1) if (i > j if lower else i < j) else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]


def make_plant(rng: random.Random, p: int, gens: int) -> Plant:
    free = rng.randint(0, 2)
    rels = gens - free
    exps = [rng.randint(0, 3) for _ in range(rels)]
    if free == 0 and not any(exps):
        exps[rng.randrange(rels)] = 1
    D = [[p ** exps[j] if i == j else 0 for j in range(rels)] for i in range(gens)]
    P = _matmul(_unit_triangular(rng, gens, True), _unit_triangular(rng, gens, False))
    Q = _matmul(_unit_triangular(rng, rels, True), _unit_triangular(rng, rels, False))
    M = _matmul(_matmul(P, D), Q)
    x = [rng.choice((-2, -1, 1, 2)) for _ in range(rels)]
    inside = tuple(sum(M[i][j] * x[j] for j in range(rels)) for i in range(gens))
    unreached = [j for j in range(gens) if j >= rels or exps[j] >= 1]
    j = rng.choice(unreached)
    outside = tuple(P[i][j] for i in range(gens))
    return Plant(
        p=p,
        degree=2 * rng.randint(0, 4),
        gens=gens,
        columns=tuple(tuple(M[i][c] for i in range(gens)) for c in range(rels)),
        free=free,
        torsion=tuple(sorted(e for e in exps if e)),
        inside=inside,
        outside=outside,
    )


def resign_plant(rng: random.Random, plant: Plant) -> Plant:
    """The same plant conjugated by random diagonal sign matrices S M T."""
    row = [rng.choice((-1, 1)) for _ in range(plant.gens)]
    col = [rng.choice((-1, 1)) for _ in plant.columns]
    columns = tuple(
        tuple(row[i] * t * c[i] for i in range(plant.gens)) for t, c in zip(col, plant.columns)
    )
    x = [rng.choice((-2, -1, 1, 2)) for _ in columns]
    inside = tuple(sum(c[i] * xc for c, xc in zip(columns, x)) for i in range(plant.gens))
    outside = tuple(r * b for r, b in zip(row, plant.outside))
    return replace(plant, columns=columns, inside=inside, outside=outside)


def _report_key(id_: str, params: dict) -> str:
    return f"{id_} {json.dumps(params, sort_keys=True)}"


def make_items(workload: str, seed: int) -> list[Item]:
    """The items of one pass, in the order the seed gives them."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "grid":
        from rostcalc.kunneth import default_grid

        items = [Item(_report_key(i, p), "verify", (i, p)) for i, p in default_grid()]
    elif workload == "frontier":
        items = [Item(_report_key(i, p), "verify", (i, p)) for i, p in FRONTIER]
    elif workload == "construct":
        items = [Item(" ".join(argv), "cli", argv) for argv in CONSTRUCT_CLI]
        plants = [make_plant(rng, p, gens) for p, gens in PLANTED_DRAWN]
        for p, gens in PLANTED_SIGNED:
            base = make_plant(random.Random(f"base:{p}:{gens}"), p, gens)
            plants.append(resign_plant(rng, base))
        for k, plant in enumerate(plants):
            items.append(Item(f"planted p={plant.p} gens={plant.gens} #{k}", "planted", plant))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # The frontier keeps its order: with five large items, the order moved
    # a pass's peak RSS by 11% (allocator fragmentation), more than the code.
    if workload != "frontier":
        rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# running and checking one item
# ---------------------------------------------------------------------------


class ItemCapped(BaseException):
    """Raised by the SIGALRM handler when an item exceeds the cap.

    A BaseException, so that no `except Exception` inside rostcalc swallows it.
    """


def _on_alarm(signum, frame):
    raise ItemCapped()


@contextlib.contextmanager
def item_cap(seconds: float):
    """Interrupt the body after `seconds` of wall time (main thread only)."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def execute(item: Item):
    """Run one item through rostcalc's public API; returns its raw answer."""
    if item.kind == "verify":
        from rostcalc.kunneth import verify_theorem

        id_, params = item.payload
        return json.dumps(verify_theorem(id_, params).to_json(), sort_keys=True, indent=2)
    if item.kind == "cli":
        from rostcalc.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(item.payload))
        return code, out.getvalue()
    if item.kind == "planted":
        from rostcalc.exact_linalg import membership
        from rostcalc.graded import DegreeComponent, GradedFPModule, normalize

        plant = item.payload
        module = GradedFPModule(
            p=plant.p,
            components={plant.degree: DegreeComponent(plant.gens, plant.columns)},
            window=(plant.degree, plant.degree),
        )
        nf = normalize(module)
        matrix = module.relation_matrix(plant.degree)
        return nf, membership(matrix, plant.inside), membership(matrix, plant.outside)
    raise ValueError(f"unknown item kind {item.kind!r}")


def canonical_text(item: Item, answer) -> str:
    """The bytes a user would see for this answer; golden files store these."""
    if item.kind == "verify":
        return answer
    if item.kind == "cli":
        code, stdout = answer
        return f"exit {code}\n{stdout}"
    nf, inside, outside = answer
    # hex, because decimal str() of an int over 4300 digits raises.
    fmt = lambda xs: None if xs is None else [  # noqa: E731
        f"{x.numerator:x}/{x.denominator:x}" for x in xs
    ]
    return json.dumps(
        {"normal_form": nf.to_json(), "inside": fmt(inside), "outside": fmt(outside)},
        sort_keys=True,
    )


def check_plant(plant: Plant, text: str) -> list[str]:
    """Differences between a planted item's answer text and its plant."""
    answer = json.loads(text)
    problems = []
    degrees = answer["normal_form"]["degrees"]
    expected = {str(plant.degree): {"free": plant.free, "torsion": list(plant.torsion)}}
    if degrees != expected:
        problems.append(f"normal form {degrees} != planted {expected}")
    if answer["inside"] is None:
        problems.append("in-span right-hand side reported unsolvable")
    else:
        x = [Fraction(int(a, 16), int(b, 16)) for a, b in (t.split("/") for t in answer["inside"])]
        if any(xi.denominator % plant.p == 0 for xi in x):
            problems.append("in-span solution is not p-local")
        for i in range(plant.gens):
            if sum(col[i] * xi for col, xi in zip(plant.columns, x)) != plant.inside[i]:
                problems.append(f"in-span solution wrong in row {i}")
                break
    if answer["outside"] is not None:
        problems.append("out-of-span right-hand side reported solvable")
    return problems


def load_golden(workload: str) -> dict[str, str | None]:
    """Item key -> canonical text recorded at the seed commit.

    `None` marks an item that had no answer at the seed commit (it hit the
    cap); such an item is unchecked if it ever finishes.
    """
    path = GOLDEN_DIR / f"{workload}.json"
    with open(path) as fh:
        return json.load(fh)["outputs"]
