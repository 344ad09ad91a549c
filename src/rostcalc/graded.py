"""Graded finitely presented modules over Z_(p).

A module is a dict of per-degree presentations: `gens` generators and a tuple
of relation columns, each a dict from generator position to its nonzero
coefficient.  The cokernel of the relation matrix in each degree is the degree
piece of the module.  Degrees outside `window` are zero by declaration.  A map
stores the image of each source generator as such a dict over the target's
generators.  Dense relation columns are accepted at the constructor and
converted there; `relation_matrix` gives a dense matrix back.

`tensor_product` builds the presentation of A (x) B; `tensor_normal_form`,
which the `tensor` verb prints, gives only its normal form, by the Kunneth
formula from the normal forms of A and B.

Modules are treated as immutable; every operation returns a fresh value.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property

from .exact_linalg import PLocalMatrix, SpanSolver, is_prime
from .record import Frozen, Record


class GradedModuleError(ValueError):
    pass


class DegreeComponent(Frozen):
    """One degree of a presentation: `gens` generators, optionally named, and
    the relation columns, each stored as a dict from generator position to
    nonzero coefficient.  A column given densely, as a sequence of length
    `gens`, is converted here."""

    _fields = ("gens", "relations", "names")

    def __init__(self, gens: int, relations=(), names: tuple[str, ...] | None = None):
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "relations", _sparse_columns(relations, gens))
        object.__setattr__(self, "names", names)
        if names is not None and len(names) != gens:
            raise GradedModuleError("name count != generator count")


def _sparse_columns(cols, n: int) -> tuple[dict[int, int], ...]:
    """cols, each a mapping over positions 0..n-1 or a sequence of length n,
    as dicts of their nonzeros; a dict without a zero value is kept as it is."""
    out, dicts = [], []
    for col in cols:
        if type(col) is not dict and isinstance(col, Mapping):
            col = dict(col)  # a defaultdict or Counter is a mapping, not a sequence
        if type(col) is dict:
            dicts.append(col)
            if 0 in col.values():
                col = {j: x for j, x in col.items() if x}
        elif len(col) != n:
            raise GradedModuleError("column length != generator count")
        else:
            col = {j: x for j, x in enumerate(col) if x}
        out.append(col)
    keys = set().union(*dicts)
    if keys and (min(keys) < 0 or max(keys) >= n):
        raise GradedModuleError("column position out of range")
    return tuple(out)


class GradedFPModule(Record):
    _fields = ("p", "components", "window")

    def __init__(self, p: int, components: dict[int, DegreeComponent], window: tuple[int, int]):
        self.p = p
        self.components = components
        self.window = window
        if not is_prime(self.p):
            raise GradedModuleError(f"p={self.p} is not prime")
        lo, hi = self.window
        for d, comp in self.components.items():
            if comp.gens == 0 and not comp.relations:
                continue
            if not (lo <= d <= hi):
                raise GradedModuleError(f"degree {d} outside window {self.window}")

    def gens_at(self, d: int) -> int:
        comp = self.components.get(d)
        return comp.gens if comp else 0

    def names_at(self, d: int) -> tuple[str, ...] | None:
        comp = self.components.get(d)
        return comp.names if comp else None

    def relation_matrix(self, d: int) -> PLocalMatrix:
        """The dense relation matrix of degree d, one column per relation."""
        comp = self.components.get(d)
        if comp is None:
            raise GradedModuleError(f"no generators in degree {d}")
        rows = [[col.get(i, 0) for col in comp.relations] for i in range(comp.gens)]
        return PLocalMatrix.from_rows(self.p, rows, cols=len(comp.relations))

    def degrees(self) -> list[int]:
        return sorted(d for d, c in self.components.items() if c.gens)

    @cached_property
    def _positions(self) -> dict[str, tuple[int, int]]:
        """name -> (degree, position), the first occurrence of each name."""
        positions: dict[str, tuple[int, int]] = {}
        for d, comp in self.components.items():
            for i, name in enumerate(comp.names or ()):
                positions.setdefault(name, (d, i))
        return positions

    def generator_index(self, name: str) -> tuple[int, int]:
        """(degree, position) of a named generator."""
        if (pos := self._positions.get(name)) is None:
            raise GradedModuleError(f"no generator named {name!r}")
        return pos


def zero_module(p: int) -> GradedFPModule:
    return GradedFPModule(p=p, components={}, window=(0, 0))


def cyclic_summands(p: int, summands, window=None) -> GradedFPModule:
    """Module from (degree, order_exponent, name) triples; exponent 0 = free."""
    names: dict[int, list[str]] = {}
    rels: dict[int, list[dict[int, int]]] = {}
    for d, e, name in summands:
        if (at := names.get(d)) is None:
            at, rels[d] = names.setdefault(d, []), []
        if e > 0:
            rels[d].append({len(at): p**e})
        at.append(name)
    components = {d: DegreeComponent(len(at), tuple(rels[d]), tuple(at)) for d, at in names.items()}
    if window is None:
        ds = list(names) or [0]
        window = (min(ds), max(ds))
    return GradedFPModule(p=p, components=components, window=window)


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------


class NormalForm(Frozen):
    """Per-degree (free rank, sorted torsion exponents)."""

    _fields = ("p", "degrees")

    def __init__(self, p: int, degrees: tuple[tuple[int, tuple[int, tuple[int, ...]]], ...]):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "degrees", degrees)

    def as_dict(self) -> dict[int, tuple[int, tuple[int, ...]]]:
        return {d: fr_tors for d, fr_tors in self.degrees}

    def at(self, d: int) -> tuple[int, tuple[int, ...]]:
        return self.as_dict().get(d, (0, ()))

    def aggregate(self) -> tuple[int, tuple[int, ...]]:
        free = sum(fr for _, (fr, _) in self.degrees)
        torsion = sorted(e for _, (_, tors) in self.degrees for e in tors)
        return free, tuple(torsion)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "degrees": {
                str(d): {"free": fr, "torsion": list(tors)}
                for d, (fr, tors) in self.degrees
            },
        }

    @classmethod
    def from_dict(cls, p: int, d: dict[int, tuple[int, tuple[int, ...]]]) -> "NormalForm":
        degs = tuple(
            sorted((deg, (fr, tuple(sorted(tors)))) for deg, (fr, tors) in d.items() if fr or tors)
        )
        return cls(p=p, degrees=degs)


def normalize(M: GradedFPModule) -> NormalForm:
    """Per-degree (free rank, torsion exponents) of M, read off the SNF
    exponents of the relation columns (`SpanSolver.exponents`).  Every solve
    against those columns, such as `GradedMap.well_defined` or `membership`
    on `relation_matrix(d)`, shares that one factorisation."""
    out: dict[int, tuple[int, tuple[int, ...]]] = {}
    for d in M.degrees():
        comp = M.components[d]
        exps = SpanSolver(M.p, comp.relations, range(comp.gens)).exponents()
        free, torsion = comp.gens - len(exps), tuple(e for e in exps if e)
        if free or torsion:
            out[d] = (free, torsion)
    return NormalForm.from_dict(M.p, out)


class IsoResult(Frozen):
    _fields = ("equal", "diffs")

    def __init__(self, equal: bool, diffs: tuple[str, ...]):
        object.__setattr__(self, "equal", equal)
        object.__setattr__(self, "diffs", diffs)

    def __bool__(self) -> bool:
        return self.equal


def iso_equal(A: GradedFPModule, B: GradedFPModule) -> IsoResult:
    """Degreewise comparison of normal forms, with a human-readable diff."""
    if A.p != B.p:
        raise GradedModuleError("prime mismatch")
    na, nb = normalize(A).as_dict(), normalize(B).as_dict()
    diffs = []
    for d in sorted(set(na) | set(nb)):
        left = na.get(d, (0, ()))
        right = nb.get(d, (0, ()))
        if left != right:
            diffs.append(f"degree {d}: {_fmt(A.p, left)} != {_fmt(B.p, right)}")
    return IsoResult(equal=not diffs, diffs=tuple(diffs))


def _fmt(p: int, piece: tuple[int, tuple[int, ...]]) -> str:
    free, tors = piece
    parts = []
    if free:
        parts.append(f"Z^{free}" if free > 1 else "Z")
    parts.extend(f"Z/{p**e}" for e in tors)
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def direct_sum(A: GradedFPModule, B: GradedFPModule) -> GradedFPModule:
    if A.p != B.p:
        raise GradedModuleError("prime mismatch")
    components: dict[int, DegreeComponent] = {}
    for d in set(A.components) | set(B.components):
        ca = A.components.get(d, DegreeComponent(0))
        cb = B.components.get(d, DegreeComponent(0))
        shifted = tuple({ca.gens + j: x for j, x in col.items()} for col in cb.relations)
        names = None
        if ca.names is not None and cb.names is not None:
            names = ca.names + cb.names
        components[d] = DegreeComponent(ca.gens + cb.gens, ca.relations + shifted, names)
    window = (min(A.window[0], B.window[0]), max(A.window[1], B.window[1]))
    return GradedFPModule(p=A.p, components=components, window=window)


def tensor_product(A: GradedFPModule, B: GradedFPModule) -> GradedFPModule:
    """Presentation tensor product; degrees add, relations are r (x) g and g (x) r.

    In degree d the parts (da, db) with da + db = d follow one another, and
    generator (i, j) of a part sits at its offset + i * (gens of db) + j.
    Everything in sight sits in even topological degree, so no sign rules
    enter.
    """
    if A.p != B.p:
        raise GradedModuleError("prime mismatch")
    parts: dict[int, tuple[int, list[dict[int, int]], list[str] | None]] = {}
    for da, ca in A.components.items():
        if ca.gens == 0:
            continue
        for db, cb in B.components.items():
            if cb.gens == 0:
                continue
            d, nb = da + db, cb.gens
            offset, rels, names = parts.get(d, (0, [], []))
            for col in ca.relations:
                for j in range(offset, offset + nb):
                    rels.append({i * nb + j: x for i, x in col.items()})
            for i in range(offset, offset + ca.gens * nb, nb):
                rels.extend({i + j: x for j, x in col.items()} for col in cb.relations)
            if names is not None and ca.names is not None and cb.names is not None:
                names.extend(f"{a}*{b}" for a in ca.names for b in cb.names)
            else:
                names = None
            parts[d] = (offset + ca.gens * nb, rels, names)
    components = {
        d: DegreeComponent(gens, tuple(rels), None if names is None else tuple(names))
        for d, (gens, rels, names) in parts.items()
    }
    window = (A.window[0] + B.window[0], A.window[1] + B.window[1])
    return GradedFPModule(p=A.p, components=components, window=window)


def tensor_normal_form(A: GradedFPModule, B: GradedFPModule) -> NormalForm:
    """Normal form of A (x) B by the Kunneth formula over Z_(p), from the
    normal forms of the factors; no product presentation is built.

    Tensor is right exact, so coker M_A (x) coker M_B is the cokernel of the
    presentation `tensor_product` builds from r (x) g and g (x) r.  Up to
    isomorphism A is the sum of Z/p^a_i in degree d_i and B that of Z/p^b_j
    in degree e_j (Z/p^0 = Z).  Tensor distributes over (+), degrees add, and
    Z/p^a (x) Z/p^b = Z/p^min(a,b), where Z (x) Z/p^b = Z/p^b and Z (x) Z = Z.
    """
    if A.p != B.p:
        raise GradedModuleError("prime mismatch")
    left = normalize(A).degrees
    right = left if B is A else normalize(B).degrees
    out: dict[int, tuple[int, tuple[int, ...]]] = {}
    for da, (fa, ta) in left:
        for db, (fb, tb) in right:
            free, tors = out.get(da + db, (0, ()))
            tors += ta * fb + tb * fa + tuple(min(a, b) for a in ta for b in tb)
            out[da + db] = (free + fa * fb, tors)
    return NormalForm.from_dict(A.p, out)


def quotient(M: GradedFPModule, extra_relations) -> GradedFPModule:
    """Quotient by homogeneous elements given as (degree, coefficient vector),
    each vector dense or a dict of positions, as a relation column."""
    components = dict(M.components)
    for d, vec in extra_relations:
        if not (M.window[0] <= d <= M.window[1]):
            raise GradedModuleError(f"quotient generator degree {d} outside window")
        comp = components.get(d)
        if comp is None:
            if any(vec.values() if isinstance(vec, dict) else vec):
                raise GradedModuleError(f"no generators in degree {d}")
            continue
        components[d] = DegreeComponent(comp.gens, comp.relations + (vec,), comp.names)
    return GradedFPModule(p=M.p, components=components, window=M.window)


def kill_generator(M: GradedFPModule, name: str) -> GradedFPModule:
    d, i = M.generator_index(name)
    return quotient(M, [(d, {i: 1})])


# ---------------------------------------------------------------------------
# the p-power filtration functor
# ---------------------------------------------------------------------------


def slot_invariants(free: int, torsion, s: int) -> list[tuple[int, tuple[int, ...]]]:
    """Slots 1..s+1 of the filtration for one normal-form piece (free, torsion)."""
    torsion = tuple(torsion)
    out = []
    for k in range(1, s + 1):
        rank = free + sum(1 for e in torsion if e >= k)
        out.append((0, tuple([1] * rank)))
    leftover = tuple(sorted(e - s for e in torsion if e > s))
    out.append((free, leftover))
    return out


def gr_ps(A: GradedFPModule, s: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Associated graded of A by 1, p, p^2, ..., p^s: its s+2 slots, each
    ungraded as (free rank, sorted torsion exponents).

    Slot 0 is the degree-0 part of A; slot k (1 <= k <= s) is the subquotient
    p^{k-1}A+ / p^k A+; slot s+1 is p^s A+.
    """
    if s < 1:
        raise GradedModuleError("filtration depth must be >= 1")
    free, torsion = [0] * (s + 2), [[] for _ in range(s + 2)]
    for d, piece in normalize(A).degrees:
        if d < 0:
            raise GradedModuleError("filtration expects nonnegative degrees")
        pieces = slot_invariants(*piece, s) if d else [piece]
        for k, (fr, tors) in enumerate(pieces, 1 if d else 0):
            free[k] += fr
            torsion[k].extend(tors)
    return tuple(zip(free, (tuple(sorted(t)) for t in torsion)))


def slot_json(slots, first: int = 1) -> dict:
    """Report JSON of ungraded slots (free, torsion), slots[0] named slot_{first}."""
    return {f"slot_{k}": {"free": f, "torsion": list(t)} for k, (f, t) in enumerate(slots, first)}


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------


class GradedMap(Record):
    """Degree-preserving map.  `columns[d][j]` is the image of source
    generator j of degree d, a dict from target generator position to
    nonzero coefficient; a generator or degree without an entry maps to
    zero, and no `columns` is the zero map."""

    _fields = ("source", "target", "columns")

    def __init__(
        self, source: GradedFPModule, target: GradedFPModule,
        columns: dict[int, dict[int, dict[int, int]]] | None = None,
    ):
        self.source = source
        self.target = target
        self.columns = {}
        for d, cols in (columns or {}).items():
            if cols and (min(cols) < 0 or max(cols) >= self.source.gens_at(d)):
                raise GradedModuleError(f"map column out of range in degree {d}")
            nonzero = _sparse_columns(cols.values(), self.target.gens_at(d))
            self.columns[d] = {j: col for j, col in zip(cols, nonzero) if col}

    def well_defined(self) -> IsoResult:
        """Check every source relation maps into the target relation span."""
        problems = []
        for d in self.source.degrees():
            span, cols = None, self.columns.get(d, {})  # the target relations, factored once
            for rel in self.source.components[d].relations:
                if image := _image(cols, rel.items()):
                    if span is None:
                        comp = self.target.components[d]
                        span = SpanSolver(self.target.p, comp.relations, range(comp.gens))
                    if not span.contains(image):
                        problems.append(f"degree {d}: relation image not in target relations")
        return IsoResult(equal=not problems, diffs=tuple(problems))


def _image(cols: dict[int, dict[int, int]], terms) -> dict[int, int]:
    """sum of c * cols[j] over the (j, c) of terms, as a dict of nonzeros."""
    out: dict[int, int] = {}
    for j, c in terms:
        if c and (col := cols.get(j)):
            for i, a in col.items():
                out[i] = out.get(i, 0) + a * c
    return {i: x for i, x in out.items() if x} if out else out
