"""Graded finitely presented modules over Z_(p).

A module is a dict of per-degree presentations: `gens` generators and a tuple
of relation columns (each column a vector of length `gens`).  The cokernel of
the relation matrix in each degree is the degree piece of the module.  Degrees
outside `window` are zero by declaration.

`tensor_product` builds the presentation of A (x) B; `tensor_normal_form`,
which the `tensor` verb prints, gives only its normal form, by the Kunneth
formula from the normal forms of A and B.

Modules are treated as immutable; every operation returns a fresh value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .exact_linalg import PLocalMatrix, SpanSolver, is_prime, snf_exponents


class GradedModuleError(ValueError):
    pass


@dataclass(frozen=True)
class DegreeComponent:
    gens: int
    relations: tuple[tuple[int, ...], ...] = ()  # columns
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        for col in self.relations:
            if len(col) != self.gens:
                raise GradedModuleError("relation column length != generator count")
        if self.names is not None and len(self.names) != self.gens:
            raise GradedModuleError("name count != generator count")


@dataclass
class GradedFPModule:
    p: int
    components: dict[int, DegreeComponent]
    window: tuple[int, int]

    def __post_init__(self):
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
        comp = self.components.get(d)
        if comp is None:
            raise GradedModuleError(f"no generators in degree {d}")
        return PLocalMatrix.from_columns(self.p, comp.relations, rows=comp.gens)

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


def free_module(p: int, degrees_and_names, window=None) -> GradedFPModule:
    """Free module on named generators: iterable of (degree, name)."""
    comps: dict[int, list[str]] = {}
    for d, name in degrees_and_names:
        comps.setdefault(d, []).append(name)
    components = {
        d: DegreeComponent(gens=len(names), relations=(), names=tuple(names))
        for d, names in comps.items()
    }
    if window is None:
        ds = list(comps) or [0]
        window = (min(ds), max(ds))
    return GradedFPModule(p=p, components=components, window=window)


def cyclic_summands(p: int, summands, window=None) -> GradedFPModule:
    """Module from (degree, order_exponent, name) triples; exponent 0 = free."""
    by_degree: dict[int, list[tuple[int, str]]] = {}
    for d, e, name in summands:
        by_degree.setdefault(d, []).append((e, name))
    components = {}
    for d, items in by_degree.items():
        n = len(items)
        rels = []
        for i, (e, _) in enumerate(items):
            if e > 0:
                col = [0] * n
                col[i] = p**e
                rels.append(tuple(col))
        components[d] = DegreeComponent(
            gens=n, relations=tuple(rels), names=tuple(name for _, name in items)
        )
    if window is None:
        ds = list(by_degree) or [0]
        window = (min(ds), max(ds))
    return GradedFPModule(p=p, components=components, window=window)


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalForm:
    """Per-degree (free rank, sorted torsion exponents)."""

    p: int
    degrees: tuple[tuple[int, tuple[int, tuple[int, ...]]], ...]

    def as_dict(self) -> dict[int, tuple[int, tuple[int, ...]]]:
        return {d: fr_tors for d, fr_tors in self.degrees}

    def at(self, d: int) -> tuple[int, tuple[int, ...]]:
        return self.as_dict().get(d, (0, ()))

    def aggregate(self) -> tuple[int, tuple[int, ...]]:
        free = sum(fr for _, (fr, _) in self.degrees)
        torsion = sorted(e for _, (_, tors) in self.degrees for e in tors)
        return free, tuple(torsion)

    def is_zero(self) -> bool:
        return not self.degrees

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "degrees": {
                str(d): {"free": fr, "torsion": list(tors)}
                for d, (fr, tors) in self.degrees
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "NormalForm":
        degs = []
        for k, v in data["degrees"].items():
            degs.append((int(k), (int(v["free"]), tuple(int(e) for e in v["torsion"]))))
        return cls(p=int(data["p"]), degrees=tuple(sorted(degs)))

    @classmethod
    def from_dict(cls, p: int, d: dict[int, tuple[int, tuple[int, ...]]]) -> "NormalForm":
        degs = tuple(
            sorted((deg, (fr, tuple(sorted(tors)))) for deg, (fr, tors) in d.items() if fr or tors)
        )
        return cls(p=p, degrees=degs)


def normalize(M: GradedFPModule) -> NormalForm:
    """Per-degree (free rank, torsion exponents) of M.  The relation columns
    are the rows of the transpose, which has the same SNF exponents."""
    out: dict[int, tuple[int, tuple[int, ...]]] = {}
    for d in M.degrees():
        comp = M.components[d]
        exps = snf_exponents(PLocalMatrix.from_rows(M.p, comp.relations, cols=comp.gens))
        free, torsion = comp.gens - len(exps), tuple(e for e in exps if e)
        if free or torsion:
            out[d] = (free, torsion)
    return NormalForm.from_dict(M.p, out)


@dataclass(frozen=True)
class IsoResult:
    equal: bool
    diffs: tuple[str, ...]

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
        gens = ca.gens + cb.gens
        rels = [tuple(col) + (0,) * cb.gens for col in ca.relations]
        rels += [(0,) * ca.gens + tuple(col) for col in cb.relations]
        names = None
        if ca.names is not None and cb.names is not None:
            names = ca.names + cb.names
        components[d] = DegreeComponent(gens=gens, relations=tuple(rels), names=names)
    window = (min(A.window[0], B.window[0]), max(A.window[1], B.window[1]))
    return GradedFPModule(p=A.p, components=components, window=window)


def tensor_product(A: GradedFPModule, B: GradedFPModule) -> GradedFPModule:
    """Presentation tensor product; degrees add, relations are r (x) g and g (x) r.

    Everything in sight sits in even topological degree, so no sign rules
    enter.
    """
    if A.p != B.p:
        raise GradedModuleError("prime mismatch")
    blocks: dict[int, list[tuple[int, list[tuple[int, ...]], tuple[str, ...] | None]]] = {}
    for da, ca in A.components.items():
        if ca.gens == 0:
            continue
        for db, cb in B.components.items():
            if cb.gens == 0:
                continue
            d = da + db
            gens = ca.gens * cb.gens  # index (i, j) -> i*cb.gens + j
            rels: list[tuple[int, ...]] = []
            for col in ca.relations:
                for j in range(cb.gens):
                    new = [0] * gens
                    for i in range(ca.gens):
                        new[i * cb.gens + j] = col[i]
                    rels.append(tuple(new))
            for i in range(ca.gens):
                for col in cb.relations:
                    new = [0] * gens
                    for j in range(cb.gens):
                        new[i * cb.gens + j] = col[j]
                    rels.append(tuple(new))
            names = None
            if ca.names is not None and cb.names is not None:
                names = tuple(
                    f"{ca.names[i]}*{cb.names[j]}"
                    for i in range(ca.gens)
                    for j in range(cb.gens)
                )
            blocks.setdefault(d, []).append((gens, rels, names))
    components: dict[int, DegreeComponent] = {}
    for d, parts in blocks.items():
        gens = sum(g for g, _, _ in parts)
        rels: list[tuple[int, ...]] = []
        names_acc: list[str] = []
        named = all(nm is not None for _, _, nm in parts)
        offset = 0
        for g, part_rels, nm in parts:
            for col in part_rels:
                rels.append((0,) * offset + col + (0,) * (gens - offset - g))
            if named:
                names_acc.extend(nm)  # type: ignore[arg-type]
            offset += g
        components[d] = DegreeComponent(
            gens=gens, relations=tuple(rels), names=tuple(names_acc) if named else None
        )
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
    """Quotient by homogeneous elements given as (degree, coefficient vector)."""
    components = dict(M.components)
    for d, vec in extra_relations:
        if not (M.window[0] <= d <= M.window[1]):
            raise GradedModuleError(f"quotient generator degree {d} outside window")
        comp = components.get(d)
        if comp is None:
            if any(vec):
                raise GradedModuleError(f"no generators in degree {d}")
            continue
        vec = tuple(int(x) for x in vec)
        if len(vec) != comp.gens:
            raise GradedModuleError("quotient vector length mismatch")
        components[d] = DegreeComponent(
            gens=comp.gens, relations=comp.relations + (vec,), names=comp.names
        )
    return GradedFPModule(p=M.p, components=components, window=M.window)


def kill_generator(M: GradedFPModule, name: str) -> GradedFPModule:
    d, i = M.generator_index(name)
    vec = [0] * M.gens_at(d)
    vec[i] = 1
    return quotient(M, [(d, vec)])


# ---------------------------------------------------------------------------
# the p-power filtration functor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiltrationGraded:
    """Associated graded of A by 1, p, p^2, ..., p^s.

    Slot 0 is the degree-0 part of A; slot k (1 <= k <= s) is the subquotient
    p^{k-1}A+ / p^k A+; slot s+1 is p^s A+.  Each slot holds a per-degree
    normal form.
    """

    p: int
    s: int
    slots: tuple[tuple[int, NormalForm], ...]

    def slot(self, k: int) -> NormalForm:
        for kk, nf in self.slots:
            if kk == k:
                return nf
        raise GradedModuleError(f"slot {k} out of range")

    def slot_aggregate(self, k: int) -> tuple[int, tuple[int, ...]]:
        return self.slot(k).aggregate()


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


def gr_ps(A: GradedFPModule, s: int) -> FiltrationGraded:
    if s < 1:
        raise GradedModuleError("filtration depth must be >= 1")
    nf = normalize(A)
    slot_tables: list[dict[int, tuple[int, tuple[int, ...]]]] = [dict() for _ in range(s + 2)]
    for d, (free, torsion) in nf.degrees:
        if d == 0:
            slot_tables[0][0] = (free, torsion)
            continue
        if d < 0:
            raise GradedModuleError("filtration expects nonnegative degrees")
        pieces = slot_invariants(free, torsion, s)
        for k in range(1, s + 2):
            fr, tors = pieces[k - 1]
            if fr or tors:
                slot_tables[k][d] = (fr, tors)
    slots = tuple(
        (k, NormalForm.from_dict(A.p, table)) for k, table in enumerate(slot_tables)
    )
    return FiltrationGraded(p=A.p, s=s, slots=slots)


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------


@dataclass
class GradedMap:
    """Degree-preserving map, a matrix (target gens x source gens) per degree."""

    source: GradedFPModule
    target: GradedFPModule
    matrices: dict[int, tuple[tuple[int, ...], ...]] = field(default_factory=dict)

    def matrix_at(self, d: int) -> tuple[tuple[int, ...], ...]:
        sg, tg = self.source.gens_at(d), self.target.gens_at(d)
        m = self.matrices.get(d)
        if m is None:
            return tuple((0,) * sg for _ in range(tg))
        if len(m) != tg or any(len(row) != sg for row in m):
            raise GradedModuleError(f"map matrix shape mismatch in degree {d}")
        return m

    def apply(self, d: int, vec) -> tuple[int, ...]:
        return _apply(self.matrix_at(d), vec)

    def well_defined(self) -> IsoResult:
        """Check every source relation maps into the target relation span."""
        problems = []
        for d in self.source.degrees():
            comp = self.source.components[d]
            if not comp.relations:
                continue
            span, m = None, self.matrix_at(d)  # the target relations, factored once
            for col in comp.relations:
                if any(image := _apply(m, col)):
                    span = span or SpanSolver(self.target.relation_matrix(d))
                    if not span.contains(dict(enumerate(image))):
                        problems.append(f"degree {d}: relation image not in target relations")
        return IsoResult(equal=not problems, diffs=tuple(problems))


def _apply(m, vec) -> tuple[int, ...]:
    """m * vec, summed over the nonzero entries of vec only."""
    nonzero = [(j, c) for j, c in enumerate(vec) if c]
    return tuple(sum(row[j] * c for j, c in nonzero) for row in m)
