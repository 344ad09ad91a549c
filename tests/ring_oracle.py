"""Oracles for the products of a `PresentedRing`, kept apart from the package.

`product_table` is the full N x N product table of a ring.  It reads only
the generator operators `ops`, the words (`words()`) and the `basis`, and
reduces with its own `c % p**e`, so it shares no product code with
`PresentedRing.multiply`.  `ring_json` writes a ring with that table in the
format the ring sha256 pins were recorded in, and `ring_sha256` hashes it.
`vector_product` multiplies two vectors {class: coefficient} through the
table, and `first_nonzero_power` is the vector search that
`ideal_power_witness` must agree with.
"""

import hashlib
import itertools
import json


def canon(ring, k: int, c: int) -> int:
    """c reduced mod p^e on the class k of order p^e, kept on a free class."""
    e = ring.basis[k].torsion_exp
    return c % ring.p**e if e else c


def product_table(ring) -> dict[int, dict[int, tuple[int, int]]]:
    """{k: L_k} for every class k, each L_k in the format of `ops`: the
    identity for the unit, ops[k] for a generator, and c*L_g*L_j for any
    other class with word (c, g, j).  The classes are derived in degree
    order, so L_j is there before L_k needs it."""
    ops, basis = ring.ops, ring.basis
    table = {ring.unit: {x: (x, 1) for x in range(len(basis))}, **ops}
    words = ring.words()
    for k in sorted(words, key=lambda k: basis[k].degree):
        if k in table:
            continue
        c, g, j = words[k]
        op = table[k] = {}
        for x, (y, d) in table[j].items():
            if (t := ops[g].get(y)) is not None and (r := canon(ring, t[0], c * d * t[1])):
                op[x] = (t[0], r)
    return table


def ring_json(ring) -> dict:
    """The ring with its full product table: "i,j" -> {k: c} for each
    nonzero e_i * e_j = c*e_k."""
    table = product_table(ring)
    return {
        "p": ring.p,
        "unit": ring.unit,
        "basis": [
            {"name": b.name, "degree": b.degree, "torsion_exp": b.torsion_exp}
            for b in ring.basis
        ],
        "mult": {
            f"{i},{j}": {str(k): c}
            for i in range(len(ring.basis))
            for j, (k, c) in sorted(table[i].items())
        },
    }


def ring_sha256(ring) -> str:
    """sha256 of the sorted-key JSON of `ring_json`, as the pins hold it."""
    return hashlib.sha256(json.dumps(ring_json(ring), sort_keys=True).encode()).hexdigest()


def vector_product(ring, table, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two vectors {class: coefficient}, read off the table."""
    out: dict[int, int] = {}
    for k, cb in b.items():
        for x, ca in a.items():
            if (t := table[k].get(x)) is not None:
                out[t[0]] = out.get(t[0], 0) + ca * cb * t[1]
    return {j: r for j, c in out.items() if (r := canon(ring, j, c))}


def first_nonzero_power(ring, generators, s: int):
    """The first nonzero s-fold product of the named classes in
    `combinations_with_replacement` order, each multiplied up from the unit
    as a vector: (factor names, ((class name, coefficient), ...), degree),
    the shape of `ideal_power_witness`, or None."""
    table = product_table(ring)
    for combo in itertools.combinations_with_replacement(
        sorted(ring.index_of(g) for g in generators), s
    ):
        acc = {ring.unit: 1}
        for k in combo:
            acc = vector_product(ring, table, acc, {k: 1})
        if acc:
            return (
                tuple(ring.basis[k].name for k in combo),
                tuple((ring.basis[k].name, c) for k, c in sorted(acc.items())),
                sum(ring.basis[k].degree for k in combo),
            )
    return None
