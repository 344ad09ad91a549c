"""The word ring gr_m(R_1) (x) ... (x) gr_m(R_s)/J against its closed form.

A class of the word ring is a pair (e, l).  Here e in {0..p-1}^s is the
y-exponent on each factor, 0 for the unit letter, and l, from 0 to |supp e|,
is the number of c_m labels: J moves a label between two factors of the
support, so only their number is kept.  The class is named by the word that
puts the l labels on the first factors of the support.  Its degree is
sum_t e_t * deg y_t - l * (p^m - 1), and it has order p when l > 0 and is free
otherwise.  The generators are c_0(y_t^j), c_m(y_t^j) for j = 1..p-1, factor
by factor, and a generator on factor t acts on (e, l) by:

- c_0(y_t^j) or c_m(y_t^j) with e_t = 0: add j at t, and one label for c_m,
  with coefficient 1;
- c_0(y_t^j) with e_t > 0 and l = 0: p times (e + j at t, 0) when e_t + j < p;
- zero in every other case.

`closed_form` builds the ring from these rules alone, with no tensor and no
quotient, and `mismatch` names the first part of a built ring that differs
from it.  The fold `kunneth._word_ring` is compared at every word-ring size
the tests build, the pinned cor-1.3 sizes and every ring of the default grid.
"""

import itertools
import json
from pathlib import Path

import pytest

from rostcalc import kunneth
from rostcalc.kunneth import default_grid, j_ideal, verify_theorem


def closed_form(p: int, ns: tuple[int, ...], m: int):
    """(basis, unit, generators, ops) of gr_m(R_1) (x) ... (x) gr_m(R_s)/J,
    factor t on y_t with exponent ns[t-1]; each basis class is (name,
    degree, torsion exponent), sorted by (degree, name) as the fold lists
    them, and ops is {generator: {class: (class, coefficient)}}."""
    assert 1 <= m < min(ns), "every factor carries c_m"
    s, ydeg = len(ns), [(p**n - 1) // (p - 1) for n in ns]

    def name(e, l):
        letters = []
        for t, j in enumerate(e, 1):
            if j:
                i = m if len(letters) < l else 0
                letters.append(f"c_{i}(y_{t})" if j == 1 else f"c_{i}(y_{t}^{j})")
        return "*".join(letters) or "1"

    def degree(e, l):
        return sum(j * d for j, d in zip(e, ydeg)) - l * (p**m - 1)

    classes = sorted(
        ((e, l) for e in itertools.product(range(p), repeat=s) for l in range(s + 1 - e.count(0))),
        key=lambda c: (degree(*c), name(*c)),
    )
    index = {c: k for k, c in enumerate(classes)}
    basis = tuple((name(e, l), degree(e, l), 1 if l else 0) for e, l in classes)

    def at(e, t, j):
        return e[:t] + (e[t] + j,) + e[t + 1:]

    zero = (0,) * s
    gen = {(t, j, i): index[at(zero, t, j), 1 if i else 0]
           for t in range(s) for j in range(1, p) for i in (0, m)}
    ops = {g: {} for g in gen.values()}
    for (e, l), x in index.items():
        for t, j in itertools.product(range(s), range(1, p)):
            if e[t] == 0:
                ops[gen[t, j, 0]][x] = (index[at(e, t, j), l], 1)
                ops[gen[t, j, m]][x] = (index[at(e, t, j), l + 1], 1)
            elif l == 0 and e[t] + j < p:
                ops[gen[t, j, 0]][x] = (index[at(e, t, j), 0], p)
    return basis, index[zero, 0], tuple(gen.values()), ops


def mismatch(ring, p: int, ns: tuple[int, ...], m: int) -> str | None:
    """The first of basis, unit, generators and ops in which the ring
    differs from the closed form, or None when it equals it."""
    basis, unit, generators, ops = closed_form(p, ns, m)
    got = {
        "basis": tuple((b.name, b.degree, b.torsion_exp) for b in ring.basis),
        "unit": ring.unit,
        "generators": ring.generators,
        "ops": ring.ops,
    }
    want = {"basis": basis, "unit": unit, "generators": generators, "ops": ops}
    return next((what for what in got if got[what] != want[what]), None)


PINNED_RINGS = json.loads((Path(__file__).parent / "data" / "kunneth_ring_sha256.json").read_text())

# (p, ns, m) of every word ring the other tests build: the size formula's
# rings (p, n, m, s), the full-tensor and fold-stage comparisons, the cache
# sweeps and the ring sha256 pins; then the pinned cor-1.3 sizes
SIZES = sorted(
    {(p, (n,) * s, m) for p, n, m, s in [
        (2, 2, 1, 2), (2, 2, 1, 3), (3, 2, 1, 2), (3, 2, 1, 3), (2, 2, 1, 5), (3, 2, 1, 4),
        (5, 2, 1, 2), (5, 2, 1, 3), (7, 2, 1, 2), (2, 3, 2, 3), (3, 3, 1, 3), (5, 2, 1, 5),
        *(tuple(entry["args"]) for entry in PINNED_RINGS),
        (3, 2, 1, 6), (5, 2, 1, 5), (7, 2, 1, 4),
    ]}
    | {(p, ns, 1) for p, ns in [
        (2, (2, 2, 2, 2)), (3, (2, 2, 2)), (3, (2, 3)), (2, (3, 2, 4)), (5, (2, 2)),
        (5, (2, 2, 2)), (3, (2, 2, 2, 2)),
    ]}
    | {(p, ns, 1) for p in (2, 3, 5) for ns in ((2,), (3,), (2, 2))}
)


@pytest.mark.parametrize("p, ns, m", SIZES, ids=str)
def test_word_ring_is_its_closed_form(p, ns, m):
    assert mismatch(kunneth._word_ring(p, ns, m), p, ns, m) is None


def test_every_grid_word_ring_is_its_closed_form(monkeypatch):
    built = set()
    word_ring = kunneth._word_ring

    def recorded(p, ns, m):
        built.add((p, ns, m))
        return word_ring(p, ns, m)

    monkeypatch.setattr(kunneth, "_word_ring", recorded)
    for id_, params in default_grid():
        verify_theorem(id_, params)
    assert {ns for _, ns, _ in built} >= {(2, 2), (2, 2, 2)}
    for key in sorted(built):
        assert mismatch(word_ring(*key), *key) is None, key


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("p, ns", [(3, (2, 2, 2)), (2, (2, 3))])
def test_a_fold_missing_one_j_generator_fails_the_closed_form(monkeypatch, p, ns, k):
    # one-entry defect: the pairs of J lose generator k, so two classes the
    # closed form holds as one stay apart
    def planted(p, m, s):
        gens = list(j_ideal(p, m, s))
        del gens[k]
        return tuple(gens)

    monkeypatch.setattr(kunneth, "j_ideal", planted)
    assert mismatch(kunneth._word_ring(p, ns, 1), p, ns, 1) == "basis"
