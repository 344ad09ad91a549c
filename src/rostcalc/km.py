"""Graded modules over the connective ring k_m* = Z_(p)[v], deg v = -(p^m - 1).

Z_(p)[v] is not a principal ideal domain, so there is no single normal form;
instead the module invariants are extracted through base changes that do have
one: v -> 0 and the localization at v, which also decides v-torsion (a class
is v-torsion exactly when it vanishes once v is inverted).  For every shape
occurring in the catalog these invariants are complete.

Relation entries are polynomials in v with integer coefficients, stored as
ascending coefficient tuples.  All relations must be homogeneous for the
grading deg(f * g) = deg(g) - deg_v(f) * (p^m - 1), so every entry is a single
term c * v^k whose exponent k is fixed by the degrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exact_linalg import PLocalMatrix, SpanSolver, is_prime, snf_exponents, solve_sparse
from .graded import (
    DegreeComponent,
    GradedFPModule,
    kill_generator,
    normalize,
    slot_invariants,
)
from .report import REFUTED, VERIFIED, TheoremReport

Poly = tuple[int, ...]


class KmModuleError(ValueError):
    pass


@dataclass(frozen=True)
class KmPresentation:
    p: int
    m: int
    gens: tuple[tuple[str, int], ...]  # (name, Chow degree)
    rels: tuple[tuple[Poly, ...], ...]  # one polynomial vector per relation
    # rel_degree of each relation, computed once (None for a zero relation)
    rel_degrees: tuple[int | None, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise KmModuleError(f"p={self.p} must be prime")
        if self.m < 1:
            raise KmModuleError("m must be >= 1")
        for rel in self.rels:
            if len(rel) != len(self.gens):
                raise KmModuleError("relation length mismatch")
        # homogeneity check happens in rel_degree
        object.__setattr__(self, "rel_degrees", tuple(self.rel_degree(rel) for rel in self.rels))

    @property
    def vdeg(self) -> int:
        return self.p**self.m - 1

    def rel_degree(self, rel: tuple[Poly, ...]) -> int | None:
        degs = set()
        for (name_deg, poly) in zip(self.gens, rel):
            _, gdeg = name_deg
            for k, c in enumerate(poly):
                if c:
                    degs.add(gdeg - k * self.vdeg)
        if not degs:
            return None
        if len(degs) > 1:
            raise KmModuleError(f"inhomogeneous relation (degrees {sorted(degs)})")
        return degs.pop()

    def gen_index(self, name: str) -> int:
        for i, (nm, _) in enumerate(self.gens):
            if nm == name:
                return i
        raise KmModuleError(f"no generator named {name!r}")


def free_km(p: int, m: int, gens) -> KmPresentation:
    return KmPresentation(p=p, m=m, gens=tuple(gens), rels=())


# ---------------------------------------------------------------------------
# base change v -> 0
# ---------------------------------------------------------------------------


def to_chow(M: KmPresentation) -> GradedFPModule:
    """Set v = 0: constant coefficients of every relation, graded by degree."""
    by_degree: dict[int, list[int]] = {}
    names: dict[int, list[str]] = {}
    pos: dict[int, tuple[int, int]] = {}
    for i, (name, d) in enumerate(M.gens):
        by_degree.setdefault(d, [])
        names.setdefault(d, [])
        pos[i] = (d, len(names[d]))
        names[d].append(name)
        by_degree[d].append(i)
    rel_cols: dict[int, list[tuple[int, ...]]] = {d: [] for d in by_degree}
    for rel, d in zip(M.rels, M.rel_degrees):
        if d is None:
            continue
        if d not in by_degree:
            # the v->0 reduction of this relation is zero in every degree
            consts = [poly[0] if poly else 0 for poly in rel]
            if any(consts):
                raise KmModuleError("relation hits a degree without generators")
            continue
        col = [0] * len(by_degree[d])
        nonzero = False
        for i, poly in enumerate(rel):
            c0 = poly[0] if poly else 0
            if c0:
                gd, gpos = pos[i]
                if gd != d:
                    raise KmModuleError("internal degree bookkeeping error")
                col[gpos] = c0
                nonzero = True
        if nonzero:
            rel_cols[d].append(tuple(col))
    components = {
        d: DegreeComponent(
            gens=len(idxs), relations=tuple(rel_cols[d]), names=tuple(names[d])
        )
        for d, idxs in by_degree.items()
    }
    degs = sorted(by_degree) or [0]
    return GradedFPModule(p=M.p, components=components, window=(min(degs), max(degs)))


# ---------------------------------------------------------------------------
# graded slices and membership over Z_(p)[v]
# ---------------------------------------------------------------------------


def graded_slice(M: KmPresentation, D: int) -> list[dict[tuple[int, int], int]]:
    """Relation columns of degree D of the free module, as sparse vectors.

    Coordinates are pairs (generator i, a) standing for v^a * e_i, with
    deg(e_i) - a*vdeg == D; the columns are the admissible shifts v^k * rel
    of matching degree.  Homogeneity makes the infinite-dimensional
    membership question finite in each degree.
    """
    vdeg = M.vdeg
    cols = []
    for rel, rdeg in zip(M.rels, M.rel_degrees):
        if rdeg is None or rdeg < D or (rdeg - D) % vdeg:
            continue
        k = (rdeg - D) // vdeg
        cols.append(
            {(i, a + k): c for i, poly in enumerate(rel) for a, c in enumerate(poly) if c}
        )
    return cols


def slice_membership(M: KmPresentation, target: dict[tuple[int, int], int], D: int) -> bool:
    """Is the degree-D element sum c * v^a * e_i in the relation span?

    No caller in the package: it stays as the test oracle of
    `v_torsion_generators` and as a target of the per-layer tracer."""
    for (i, a), c in target.items():
        if c and not (0 <= i < len(M.gens) and a >= 0 and M.gens[i][1] - a * M.vdeg == D):
            raise KmModuleError("target outside the slice")
    return solve_sparse(M.p, graded_slice(M, D), target) is not None


# ---------------------------------------------------------------------------
# localization at v
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KmLocalizedInvariants:
    """Invariants of M[v^-1] over Z_(p)[v, v^-1].

    free_rank counts free summands; torsion lists p-power exponents; per_class
    splits both by generator degree mod vdeg.  For homogeneous relations these
    are complete (see `localize_v`); the JSON form keeps an "anomalies" key
    that is always empty.
    """

    p: int
    m: int
    free_rank: int
    torsion: tuple[int, ...]
    per_class: tuple[tuple[int, tuple[int, tuple[int, ...]]], ...]

    def aggregate(self) -> tuple[int, tuple[int, ...]]:
        return self.free_rank, self.torsion

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "free_rank": self.free_rank,
            "torsion": list(self.torsion),
            "per_class": {
                str(c): {"free": fr, "torsion": list(tors)}
                for c, (fr, tors) in self.per_class
            },
            "anomalies": [],
        }


def _class_matrix(M: KmPresentation, cls: int) -> tuple[list[int], list[list[Poly]]]:
    vdeg = M.vdeg
    gen_idx = [i for i, (_, d) in enumerate(M.gens) if d % vdeg == cls]
    cols = []
    for rel, rdeg in zip(M.rels, M.rel_degrees):
        if rdeg is None or rdeg % vdeg != cls:
            continue
        cols.append([rel[i] for i in gen_idx])
    # rows = generators, columns = relations
    matrix = [[cols[j][r] for j in range(len(cols))] for r in range(len(gen_idx))]
    return gen_idx, matrix


def _class_at_one(M: KmPresentation, cls: int) -> tuple[list[int], PLocalMatrix]:
    """The class matrix at v = 1: each entry is one term c * v^k, read as c."""
    gen_idx, matrix = _class_matrix(M, cls)
    at_one = [[sum(a) for a in row] for row in matrix]
    return gen_idx, PLocalMatrix.from_rows(M.p, at_one, cols=len(at_one[0]))


def localize_v(M: KmPresentation) -> KmLocalizedInvariants:
    """Invariants of M[v^-1], one degree class mod vdeg at a time.

    Write the generator and relation degrees of a class as cls + a_i*vdeg
    and cls + b_j*vdeg.  Homogeneity makes entry (i, j) of the class matrix
    c_ij * v^(a_i - b_j), so the matrix is D_g * C * D_r^-1 with D_g, D_r
    diagonal powers of v and C = (c_ij) the matrix at v = 1.  Powers of v are
    units of Z_(p)[v, v^-1], so the class has the invariants of C over Z_(p),
    `snf_exponents(C)`.  The same holds mod p over F_p[v, v^-1], where every
    invariant factor is therefore a constant: no torsion prime to (p, v).
    """
    vdeg = M.vdeg
    per_class: dict[int, tuple[int, tuple[int, ...]]] = {}
    free_total = 0
    torsion_total: list[int] = []
    for cls in sorted({d % vdeg for _, d in M.gens}):
        gen_idx, at_one = _class_at_one(M, cls)
        exps = snf_exponents(at_one)
        free = len(gen_idx) - len(exps)
        torsion = tuple(e for e in exps if e)
        if free or torsion:
            per_class[cls] = (free, torsion)
        free_total += free
        torsion_total.extend(torsion)
    return KmLocalizedInvariants(
        p=M.p,
        m=M.m,
        free_rank=free_total,
        torsion=tuple(sorted(torsion_total)),
        per_class=tuple(sorted(per_class.items())),
    )


def v_torsion_generators(M: KmPresentation) -> tuple[str, ...]:
    """Generators killed by a power of v, in generator order.

    e_i is killed by a power of v exactly when it is zero in M[v^-1].  In its
    degree class mod vdeg, M[v^-1] is the cokernel of D_g * C * D_r^-1 (see
    `localize_v`), with C the class matrix at v = 1 and D_g, D_r diagonal
    powers of v, units once v is inverted.  D_g^-1 e_i is a unit multiple of
    e_i, so e_i = 0 there exactly when e_i is a Z_(p)[v, v^-1]-combination of
    the columns of C.  C has entries in Z_(p); comparing the coefficients of
    v^0 shows that this holds exactly when e_i is a Z_(p)-combination of
    them.  One factored span per class decides it for all its generators.
    """
    killed = set()
    for cls in sorted({d % M.vdeg for _, d in M.gens}):
        gen_idx, at_one = _class_at_one(M, cls)
        span = SpanSolver(at_one)
        killed.update(i for r, i in enumerate(gen_idx) if span.contains({r: 1}))
    return tuple(name for i, (name, _) in enumerate(M.gens) if i in killed)


# ---------------------------------------------------------------------------
# geometric-filtration associated graded
# ---------------------------------------------------------------------------


def gr_geometric(M: KmPresentation) -> GradedFPModule:
    """v -> 0 reduction modulo the classes of v-torsion generators."""
    killed = v_torsion_generators(M)
    out = to_chow(M)
    for name in killed:
        out = kill_generator(out, name)
    return out


def check_cor_3_5_second(M: KmPresentation, bar: KmPresentation) -> TheoremReport:
    """Slotwise comparison of the localized geometric graded with the split form.

    Left: the v->0 geometric graded of M re-read over the periodic ring
    (free summands stay free, p-torsion stays).  Right: the p-power
    filtration slots of the localized split module, degree-0 part split off
    as slot 0.  The two sides are compared slot by slot, ungraded.
    """
    gr = gr_geometric(M)
    nf = normalize(gr)
    unit_piece = nf.at(0)
    pos_free = sum(fr for d, (fr, _) in nf.degrees if d != 0)
    pos_torsion = sorted(e for d, (_, tors) in nf.degrees if d != 0 for e in tors)
    left = {
        "slot_0": {"free": unit_piece[0], "torsion": list(unit_piece[1])},
        "slot_1": {"free": 0, "torsion": [1] * len(pos_torsion)},
        "slot_2": {"free": pos_free, "torsion": []},
    }
    if any(e != 1 for e in pos_torsion):
        # higher torsion would spread over both slots; catalog objects have none
        left["slot_1"] = {"free": 0, "torsion": pos_torsion}

    if bar.rels:
        raise KmModuleError("the split form must be free")
    bar_unit = KmPresentation(bar.p, bar.m, tuple(g for g in bar.gens if g[1] == 0), ())
    bar_pos = KmPresentation(bar.p, bar.m, tuple(g for g in bar.gens if g[1] != 0), ())
    inv_unit = localize_v(bar_unit).aggregate()
    inv_pos = localize_v(bar_pos).aggregate()
    pieces = slot_invariants(*inv_pos, 1)
    right = {
        "slot_0": {"free": inv_unit[0], "torsion": list(inv_unit[1])},
        "slot_1": {"free": pieces[0][0], "torsion": list(pieces[0][1])},
        "slot_2": {"free": pieces[1][0], "torsion": list(pieces[1][1])},
    }
    ok = left == right
    return TheoremReport(
        id="cor-3.5-second",
        params={"p": M.p, "m": M.m},
        verdict=VERIFIED if ok else REFUTED,
        left=left,
        right=right,
        notes=["ungraded slotwise comparison of localized invariants"],
    )
