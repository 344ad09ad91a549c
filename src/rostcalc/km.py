"""Graded modules over the connective ring k_m* = Z_(p)[v], deg v = -(p^m - 1).

Z_(p)[v] is not a principal ideal domain, so there is no single normal form;
instead the module invariants are extracted through base changes that do have
one: v -> 0 and the localization at v, which also decides v-torsion (a class
is v-torsion exactly when it vanishes once v is inverted).  For every shape
occurring in the catalog these invariants are complete.

A relation is the tuple of its terms (i, c, k), each c * v^k on generator i
with c != 0 and k >= 0.  All relations must be homogeneous for the grading
deg(f * g) = deg(g) - deg_v(f) * (p^m - 1): every term of a relation has its
degree deg(e_i) - k * (p^m - 1), so an entry with two powers of v, such as
1 + v, cannot be written.
"""

from __future__ import annotations

from .exact_linalg import SpanSolver, is_prime
from .graded import (
    DegreeComponent,
    GradedFPModule,
    NormalForm,
    gr_ps,
    normalize,
    quotient,
    slot_json,
)
from .record import Frozen


class KmModuleError(ValueError):
    pass


class KmPresentation(Frozen):
    _fields = ("p", "m", "gens", "rels")

    def __init__(
        self, p: int, m: int,
        gens: tuple[tuple[str, int], ...],  # (name, Chow degree)
        rels: tuple[tuple[tuple[int, int, int], ...], ...],  # terms (i, c, k): c * v^k * e_i
    ):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "rels", rels)
        if not is_prime(self.p):
            raise KmModuleError(f"p={self.p} must be prime")
        if self.m < 1:
            raise KmModuleError("m must be >= 1")
        degrees = []  # the degree of each relation, None for one with no terms
        for rel in self.rels:
            if any(not 0 <= i < len(self.gens) for i, _, _ in rel):
                raise KmModuleError(f"a term of {rel} names no generator")
            if any(k < 0 or not c for _, c, k in rel):
                raise KmModuleError(f"a term of {rel} has coefficient 0 or a negative power of v")
            degs = sorted({self.gens[i][1] - k * self.vdeg for i, _, k in rel})
            if len(degs) > 1:
                raise KmModuleError(f"inhomogeneous relation (degrees {degs})")
            if len({i for i, _, _ in rel}) < len(rel):
                raise KmModuleError(f"a generator is named twice in {rel}")
            degrees.append(degs[0] if degs else None)
        object.__setattr__(self, "rel_degrees", tuple(degrees))

    @property
    def vdeg(self) -> int:
        return self.p**self.m - 1


# ---------------------------------------------------------------------------
# base change v -> 0
# ---------------------------------------------------------------------------


def to_chow(M: KmPresentation) -> GradedFPModule:
    """Set v = 0: the terms with no v of every relation, graded by degree.
    A relation of degree d has them on generators of degree d."""
    names: dict[int, list[str]] = {}
    pos = []  # generator i -> its position in its degree
    for name, d in M.gens:
        at = names.setdefault(d, [])
        pos.append(len(at))
        at.append(name)
    rels: dict[int, list[dict[int, int]]] = {d: [] for d in names}
    for rel, d in zip(M.rels, M.rel_degrees):
        if chow := {pos[i]: c for i, c, k in rel if k == 0}:
            rels[d].append(chow)
    components = {d: DegreeComponent(len(at), tuple(rels[d]), tuple(at)) for d, at in names.items()}
    degs = sorted(names) or [0]
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
        shift = (rdeg - D) // vdeg
        cols.append({(i, k + shift): c for i, c, k in rel})
    return cols


def slice_membership(M: KmPresentation, target: dict[tuple[int, int], int], D: int) -> bool:
    """Is the degree-D element sum c * v^a * e_i in the relation span?

    No caller in the package: it stays as the test oracle of
    `v_torsion_generators` and as a target of the per-layer tracer."""
    for (i, a), c in target.items():
        if c and not (0 <= i < len(M.gens) and a >= 0 and M.gens[i][1] - a * M.vdeg == D):
            raise KmModuleError("target outside the slice")
    return SpanSolver(M.p, graded_slice(M, D)).contains(target)


# ---------------------------------------------------------------------------
# localization at v
# ---------------------------------------------------------------------------


def _class_at_one(M: KmPresentation, cls: int) -> tuple[list[int], list[dict[int, int]]]:
    """The generators of degree class cls mod vdeg, and the class matrix at
    v = 1 by its relation columns, dicts from row (position in the class) to
    nonzero entry: each term c * v^k is read as c."""
    gen_idx = [i for i, (_, d) in enumerate(M.gens) if d % M.vdeg == cls]
    row = {i: r for r, i in enumerate(gen_idx)}
    return gen_idx, [
        {row[i]: c for i, c, _ in rel}
        for rel, rdeg in zip(M.rels, M.rel_degrees)
        if rdeg is not None and rdeg % M.vdeg == cls
    ]


def localize_v(M: KmPresentation) -> NormalForm:
    """Invariants of M[v^-1] over Z_(p)[v, v^-1], keyed by degree class mod
    vdeg: M[v^-1] is graded by degree mod vdeg, one class at a time.

    Write the generator and relation degrees of a class as cls + a_i*vdeg
    and cls + b_j*vdeg.  Homogeneity makes entry (i, j) of the class matrix
    c_ij * v^(a_i - b_j), so the matrix is D_g * C * D_r^-1 with D_g, D_r
    diagonal powers of v and C = (c_ij) the matrix at v = 1.  Powers of v are
    units of Z_(p)[v, v^-1], so the class has the invariants of C over Z_(p):
    the SNF exponents of C, read off the factorisation of C's columns that
    `v_torsion_generators` shares.  The same holds mod p over F_p[v, v^-1],
    where every invariant factor is therefore a constant: no torsion prime
    to (p, v).
    """
    per_class: dict[int, tuple[int, tuple[int, ...]]] = {}
    for cls in sorted({d % M.vdeg for _, d in M.gens}):
        gen_idx, at_one = _class_at_one(M, cls)
        exps = SpanSolver(M.p, at_one, range(len(gen_idx))).exponents()
        per_class[cls] = (len(gen_idx) - len(exps), tuple(e for e in exps if e))
    return NormalForm.from_dict(M.p, per_class)


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
        span = SpanSolver(M.p, at_one, range(len(gen_idx)))
        killed.update(i for r, i in enumerate(gen_idx) if span.contains({r: 1}))
    return tuple(name for i, (name, _) in enumerate(M.gens) if i in killed)


# ---------------------------------------------------------------------------
# geometric-filtration associated graded
# ---------------------------------------------------------------------------


def gr_geometric(M: KmPresentation) -> GradedFPModule:
    """v -> 0 reduction modulo the classes of v-torsion generators."""
    out = to_chow(M)
    killed = map(out.generator_index, v_torsion_generators(M))
    return quotient(out, [(d, {i: 1}) for d, i in killed])


def check_cor_3_5_second(M: KmPresentation, bar: GradedFPModule) -> tuple[dict, dict]:
    """The two sides of the slotwise comparison of the localized geometric
    graded with the split form, as report JSON slot_0 .. slot_2, to be
    compared slot by slot, ungraded.

    Left: the v->0 geometric graded of M re-read over the periodic ring
    (free summands stay free, p-torsion stays).  Right: the p-power
    filtration slots of the split module `bar`, degree-0 part as slot 0
    (`gr_ps` at depth 1); the split form is free, so inverting v changes
    none of its invariants.
    """
    nf = normalize(gr_geometric(M))
    pos_free = sum(fr for d, (fr, _) in nf.degrees if d != 0)
    # p-torsion fills slot 1; higher torsion would spread over both slots
    # and is kept whole there, but catalog objects have none
    pos_torsion = tuple(sorted(e for d, (_, tors) in nf.degrees if d != 0 for e in tors))
    left = (nf.at(0), (0, pos_torsion), (pos_free, ()))
    return slot_json(left, 0), slot_json(gr_ps(bar, 1), 0)
