"""Ambient cobordism-style model and its collapse to a Chow-level ring.

The ambient object is the free Z_(p)-module on monomials v_I * y_1^{j_1} ...
y_s^{j_s}, with v_I a monomial in variables v_1, v_2, ... of Chow degree
-(p^i - 1), each y_t of positive degree, and y_t^p = 0.  The distinguished
submodule is spanned over all v-monomial translates of the images

    res(c_0(Y)) = p * Y,     res(c_i(Y)) = v_i * Y   (i >= 1),

(the index-0 case is the v_0 = p convention).  Collapsing the submodule by
v-positive translates yields a graded ring with an explicit basis; the
structure constants are recovered by exact membership computations in the
ambient, not postulated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact_linalg import (
    PLocalMatrix, is_prime, kernel_basis, snf_exponents, solve_sparse, sparse_matrix
)
from .graded import GradedFPModule, GradedMap, cyclic_summands

VKey = tuple[tuple[int, int], ...]  # sorted ((index, exponent), ...)
YKey = tuple[int, ...]
Element = dict[tuple[VKey, YKey], int]


class OmegaModelError(ValueError):
    pass


@dataclass(frozen=True)
class DegreeRule:
    """Chow degrees (half the topological ones) for a Rost-type factor."""

    p: int
    n: int

    @property
    def y_degree(self) -> int:
        return (self.p**self.n - 1) // (self.p - 1)

    def c_degree(self, i: int, j: int = 1) -> int:
        return j * self.y_degree - (self.p**i - 1)


def class_name(i: int, j: int, factor: int | None = None) -> str:
    y = "y" if factor is None else f"y_{factor}"
    power = y if j == 1 else f"{y}^{j}"
    return f"c_{i}({power})"


def _vkey_mul(a: VKey, b: VKey) -> VKey:
    acc: dict[int, int] = {}
    for i, e in a:
        acc[i] = acc.get(i, 0) + e
    for i, e in b:
        acc[i] = acc.get(i, 0) + e
    return tuple(sorted(acc.items()))


@dataclass(frozen=True)
class OmegaImageModel:
    """Ambient model for a product of Rost-type factors with exponents n_t."""

    p: int
    factor_ns: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise OmegaModelError(f"p={self.p} must be prime")
        if not self.factor_ns:
            raise OmegaModelError("at least one factor required")
        for n in self.factor_ns:
            if n < 2:
                raise OmegaModelError("factor exponent n must be >= 2")

    @property
    def nfactors(self) -> int:
        return len(self.factor_ns)

    def rule(self, t: int = 0) -> DegreeRule:
        return DegreeRule(self.p, self.factor_ns[t])

    # -- elements ----------------------------------------------------------

    def monomial(self, coeff: int, v: VKey, y: YKey) -> Element:
        if len(y) != self.nfactors:
            raise OmegaModelError("y-exponent tuple has wrong length")
        if any(e >= self.p for e in y):
            return {}
        if coeff == 0:
            return {}
        return {(tuple(sorted(v)), tuple(y)): coeff}

    def add(self, a: Element, b: Element) -> Element:
        out = dict(a)
        for k, c in b.items():
            nc = out.get(k, 0) + c
            if nc:
                out[k] = nc
            else:
                out.pop(k, None)
        return out

    def scale(self, c: int, a: Element) -> Element:
        if c == 0:
            return {}
        return {k: c * v for k, v in a.items()}

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.scale(-1, b))

    def mul(self, a: Element, b: Element) -> Element:
        out: Element = {}
        for (va, ya), ca in a.items():
            for (vb, yb), cb in b.items():
                y = tuple(x + z for x, z in zip(ya, yb))
                if any(e >= self.p for e in y):
                    continue  # y_t^p = 0
                key = (_vkey_mul(va, vb), y)
                nc = out.get(key, 0) + ca * cb
                if nc:
                    out[key] = nc
                else:
                    out.pop(key, None)
        return out

    def term_degree(self, key: tuple[VKey, YKey]) -> int:
        v, y = key
        d = sum(j * self.rule(t).y_degree for t, j in enumerate(y))
        d -= sum(e * (self.p**i - 1) for i, e in v)
        return d

    def element_degree(self, a: Element) -> int | None:
        """Common Chow degree of a homogeneous element (None for 0)."""
        degs = {self.term_degree(k) for k in a}
        if not a:
            return None
        if len(degs) != 1:
            raise OmegaModelError("element is not homogeneous")
        return degs.pop()

    # -- the image submodule ----------------------------------------------

    def image_generators(self) -> list[tuple[str, tuple[tuple[int, int] | None, ...]]]:
        """Named generators: unit plus one class per factor choice.

        Single factor: 1 and c_i(y^j).  For several factors the generators
        are products of per-factor choices (None meaning the unit in that
        slot).
        """
        per_factor: list[list[tuple[int, int] | None]] = []
        for n in self.factor_ns:
            opts: list[tuple[int, int] | None] = [None]
            opts += [(i, j) for j in range(1, self.p) for i in range(0, n)]
            per_factor.append(opts)
        out = []
        for combo in itertools.product(*per_factor):
            parts = [
                class_name(i, j, t + 1 if self.nfactors > 1 else None)
                for t, cls in enumerate(combo)
                if cls is not None
                for i, j in [cls]
            ]
            name = "*".join(parts) if parts else "1"
            out.append((name, combo))
        return out

    def res_class(self, t: int, i: int, j: int) -> Element:
        """Ambient image of the class c_i(y_t^j)."""
        n = self.factor_ns[t]
        if not (0 <= i <= n - 1 and 1 <= j <= self.p - 1):
            raise OmegaModelError(f"no class c_{i}(y^{j}) for n={n}, p={self.p}")
        y = tuple(j if tt == t else 0 for tt in range(self.nfactors))
        if i == 0:
            return self.monomial(self.p, (), y)
        return self.monomial(1, ((i, 1),), y)

    def res_word(self, combo) -> Element:
        acc = self.monomial(1, (), (0,) * self.nfactors)
        for t, cls in enumerate(combo):
            if cls is None:
                continue
            i, j = cls
            acc = self.mul(acc, self.res_class(t, i, j))
        return acc

    def image_coefficients_in_ideal(self) -> bool:
        """Positive-degree generators have all coefficients in (p, v_1..v_{n-1})."""
        for name, combo in self.image_generators():
            if name == "1":
                continue
            el = self.res_word(combo)
            for (v, _y), coeff in el.items():
                if coeff % self.p == 0:
                    continue
                if any(1 <= i <= max(self.factor_ns) - 1 and e > 0 for i, e in v):
                    continue
                return False
        return True

    def check_commutation_identity(self, r: int, s: int, j: int = 1, t: int = 0) -> bool:
        """v_s * res(c_r(Y)) == v_r * res(c_s(Y)), with v_0 = p."""

        def times_v(i: int, el: Element) -> Element:
            if i == 0:
                return self.scale(self.p, el)
            out: Element = {}
            for (v, y), c in el.items():
                out[(_vkey_mul(v, ((i, 1),)), y)] = c
            return out

        lhs = times_v(s, self.res_class(t, r, j))
        rhs = times_v(r, self.res_class(t, s, j))
        return lhs == rhs


# ---------------------------------------------------------------------------
# rings with a distinguished basis and structure constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisClass:
    name: str
    degree: int
    torsion_exp: int  # 0 = free, e >= 1 means additive order p^e


def _canon_coeff(c, exp: int, p: int):
    """Canonical representative of a Z_(p) scalar modulo p^exp (exp=0: exact)."""
    if isinstance(c, int):
        return c % p**exp if exp else c
    c = Fraction(c)
    if exp == 0:
        return int(c) if c.denominator == 1 else c
    mod = p**exp
    if c.denominator % p == 0:
        raise OmegaModelError("coefficient is not p-local")
    return (c.numerator * pow(c.denominator, -1, mod)) % mod


@dataclass
class PresentedRing:
    """Graded commutative ring on an explicit basis with structure constants."""

    p: int
    basis: tuple[BasisClass, ...]
    unit: int
    mult: dict[tuple[int, int], dict[int, int]]
    generators: tuple[int, ...] = ()

    def index_of(self, name: str) -> int:
        for k, b in enumerate(self.basis):
            if b.name == name:
                return k
        raise OmegaModelError(f"no basis class named {name!r}")

    def basis_vector(self, name: str) -> dict[int, int]:
        return {self.index_of(name): 1}

    def multiply(self, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
        out: dict = {}
        for i, ca in a.items():
            for j, cb in b.items():
                table = self.mult.get((i, j), {})
                for k, ck in table.items():
                    out[k] = out.get(k, 0) + ca * cb * ck
        return self._canon_vector(out)

    def _canon_vector(self, vec: dict) -> dict[int, int]:
        canon = {}
        for k, c in vec.items():
            c = _canon_coeff(c, self.basis[k].torsion_exp, self.p)
            if c:
                canon[k] = c
        return canon

    def power(self, vec: dict[int, int], m: int) -> dict[int, int]:
        acc = {self.unit: 1}
        for _ in range(m):
            acc = self.multiply(acc, vec)
        return acc

    def module(self) -> GradedFPModule:
        return cyclic_summands(
            self.p, [(b.degree, b.torsion_exp, b.name) for b in self.basis]
        )

    def torsion_names(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.basis if b.torsion_exp)

    def audit(self) -> None:
        """Exhaustive certificate that `mult` defines a graded commutative ring.

        The table is read as the regular representation L_a : x -> a*x on the
        module M = sum of Z_(p)/p^{e_k} over the basis, and six facts are
        checked, exhaustively at every basis size:

        1. unit: 1*x = x for every class x;
        2. commutativity: a*b = b*a;
        3. grading: every term of a*b has degree deg a + deg b;
        4. torsion compatibility: p^{e_a} (a*b) = 0 when a has order p^{e_a};
        5. generation: the words in the generators (the whole basis when
           `generators` is empty) applied to the unit span every degree of M
           over Z_(p);
        6. g(c*x) = c(g*x) for every generator g and classes c, x.

        Checks 1-4 make the table a commutative bilinear product on M.  From
        6 and commutativity, (g*a)x = x(g*a) = g(x*a) = g(a*x), so L_{g*a} =
        L_g L_a; with 5, every L_a is a polynomial in the pairwise commuting
        L_g, hence L_{a*b} = L_a L_b, which is associativity.  The work is
        about |G| * nnz(mult) products instead of N^3.
        """
        n, p, unit = len(self.basis), self.p, self.unit
        names = [b.name for b in self.basis]
        deg = [b.degree for b in self.basis]
        exp = [b.torsion_exp for b in self.basis]
        if not 0 <= unit < n:
            raise OmegaModelError(f"unit index {unit} names no basis class")
        L: list[dict[int, dict]] = [{} for _ in range(n)]  # L[a][x] = a*x, nonzero
        for (a, b), tab in self.mult.items():
            if not (0 <= a < n and 0 <= b < n and all(0 <= k < n for k in tab)):
                raise OmegaModelError(f"product entry {a},{b} names no basis class")
            fractions = [Fraction(c) for c in tab.values() if not isinstance(c, int)]
            if any(c.denominator % p == 0 for c in fractions):
                raise OmegaModelError(f"coefficient of {names[a]}*{names[b]} is not p-local")
            vec = self._canon_vector(tab)
            if vec:
                L[a][b] = vec

        for x in range(n):
            if L[unit].get(x) != {x: 1}:
                raise OmegaModelError(f"unit fails on {names[x]}")
        for a in range(n):
            for b, vec in L[a].items():
                if L[b].get(a) != vec:
                    raise OmegaModelError(f"not commutative at {names[a]}, {names[b]}")
                for k, c in vec.items():
                    if deg[k] != deg[a] + deg[b]:
                        raise OmegaModelError(
                            f"{names[a]}*{names[b]} has a term {names[k]} of the wrong degree"
                        )
                    if exp[a] and _canon_coeff(p ** exp[a] * c, exp[k], p):
                        raise OmegaModelError(
                            f"{names[a]}*{names[b]} is not killed by the order of {names[a]}"
                        )

        gens = sorted(set(self.generators or range(n)) - {unit})
        if any(not 0 <= g < n for g in gens):
            raise OmegaModelError("generator index names no basis class")
        by_degree: dict[int, list[int]] = {}
        for k in range(n):
            by_degree.setdefault(deg[k], []).append(k)
        for d in sorted(by_degree):
            # the unit and every class of lower degree are already spanned
            spanning = [
                L[g][k]
                for g in gens
                for k in by_degree.get(d - deg[g], ())
                if (k == unit or deg[k] < d) and k in L[g]
            ]
            covered = {
                k for vec in spanning if len(vec) == 1 for k, c in vec.items() if c.numerator % p
            }
            rest = [k for k in by_degree[d] if k != unit and k not in covered]
            if rest and not self._spans(rest, spanning):
                raise OmegaModelError(
                    f"generators do not span degree {d}: {', '.join(names[k] for k in rest)}"
                )

        for g in gens:
            for x in range(n):
                # right[c] = c(g*x), the sum of w (k*c) over the terms w e_k of
                # g*x; both sides vanish for every c not walked here
                right: dict[int, dict] = {}
                for k, w in L[g].get(x, {}).items():
                    for c, vec in L[k].items():
                        acc = right.setdefault(c, {})
                        for j, d in vec.items():
                            acc[j] = acc.get(j, 0) + w * d
                for c in L[x].keys() | right.keys():
                    if self._apply(L[g], L[x].get(c, {})) != self._canon_vector(right.get(c, {})):
                        raise OmegaModelError(
                            f"associativity fails: {names[g]}({names[c]}*{names[x]}) "
                            f"!= {names[c]}({names[g]}*{names[x]})"
                        )

    def _apply(self, op: dict[int, dict], vec: dict) -> dict[int, int]:
        """The operator with columns op[x] applied to the vector vec."""
        acc: dict = {}
        for k, c in vec.items():
            for j, d in op.get(k, {}).items():
                acc[j] = acc.get(j, 0) + c * d
        return self._canon_vector(acc)

    def _spans(self, rows: list[int], vectors: list[dict]) -> bool:
        """Do the vectors span the classes `rows` modulo all other classes?"""
        cols = []
        for vec in vectors:
            scale = math.lcm(*(Fraction(c).denominator for c in vec.values()))
            cols.append({k: vec[k] * scale for k in rows if k in vec})
        for k in rows:  # the order relation p^{e_k} e_k = 0
            if self.basis[k].torsion_exp:
                cols.append({k: self.p ** self.basis[k].torsion_exp})
        exps = snf_exponents(sparse_matrix(self.p, cols)[0])
        return len(exps) == len(rows) and not any(exps)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "unit": self.unit,
            "basis": [
                {"name": b.name, "degree": b.degree, "torsion_exp": b.torsion_exp}
                for b in self.basis
            ],
            "mult": {
                f"{i},{j}": {str(k): (str(c) if isinstance(c, Fraction) else c) for k, c in tab.items()}
                for (i, j), tab in sorted(self.mult.items())
                if tab
            },
        }


def tensor_name(a: str, b: str) -> str:
    """The name of the class a (x) b, the unit "1" dropped."""
    return a if b == "1" else (b if a == "1" else f"{a}*{b}")


def ring_tensor(A: PresentedRing, B: PresentedRing) -> PresentedRing:
    """Tensor product ring over Z_(p); orders combine as p^min(e_a, e_b).

    (a (x) b)(a' (x) b') = aa' (x) bb', so the table comes from the nnz(A) *
    nnz(B) pairs of nonzero products.  It needs no audit of its own: a tensor
    product of audited rings is a commutative ring that the factors'
    generators span, so `ring_quotient`'s ideal check on it is sound, and the
    quotient is audited.
    """
    if A.p != B.p:
        raise OmegaModelError("prime mismatch")
    basis = []
    index: dict[tuple[int, int], int] = {}
    for i, a in enumerate(A.basis):
        for j, b in enumerate(B.basis):
            exp = min((e for e in (a.torsion_exp, b.torsion_exp) if e), default=0)
            index[(i, j)] = len(basis)
            basis.append(BasisClass(tensor_name(a.name, b.name), a.degree + b.degree, exp))
    ring = PresentedRing(
        p=A.p,
        basis=tuple(basis),
        unit=index[(A.unit, B.unit)],
        mult={},
        generators=tuple(index[(g, B.unit)] for g in A.generators or range(len(A.basis)))
        + tuple(index[(A.unit, g)] for g in B.generators or range(len(B.basis))),
    )
    for (a1, a2), ta in A.mult.items():
        for (b1, b2), tb in B.mult.items():
            vec = ring._canon_vector(
                {index[(i, j)]: ca * cb for i, ca in ta.items() for j, cb in tb.items()}
            )
            if vec:
                ring.mult[(index[(a1, b1)], index[(a2, b2)])] = vec
    return ring


def ring_quotient(ring: PresentedRing, killed_names=(), identified=()) -> PresentedRing:
    """The quotient of an audited ring by the span I of the named classes k and
    of the differences a - b of the identified pairs of named classes.

    Closure: in a union-find, each pair (a, b) that merges two classes is
    multiplied by every generator g (the whole basis when `generators` is
    empty); g*a and g*b must both vanish or be single terms c*x and c*y with
    one c, and then x ~ y; anything else is an error.  Identified classes
    share degree, order and being killed, so the lowest index of each class
    not killed is a basis of ring/I, listed by (degree, name).  Certificate,
    with pi the projection to ring/I: pi(g*k) = 0 for every killed k, and
    pi(g*x) = pi(g*r) for every identified x with survivor r.  So g*I lies in
    I, which suffices: the parent's audit certifies that words in the
    generators span the ring, so any a*i is a Z_(p)-combination of
    g_1(g_2(...(g_r i))), each step in I.  The quotient is audited.
    """
    n, names = len(ring.basis), [b.name for b in ring.basis]
    killed = {ring.index_of(name) for name in killed_names}
    if ring.unit in killed:
        raise OmegaModelError("the unit cannot be killed")
    gens = sorted(set(ring.generators or range(n)) - {ring.unit})
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    pairs = [(ring.index_of(a), ring.index_of(b)) for a, b in identified]
    while pairs:
        a, b = pairs.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        A, B = ring.basis[a], ring.basis[b]
        for what, x, y in (
            ("degrees", A.degree, B.degree),
            ("torsion exponents", A.torsion_exp, B.torsion_exp),
            ("killed", a in killed, b in killed),
        ):
            if x != y:
                raise OmegaModelError(
                    f"cannot identify {A.name} with {B.name}: {what} {x} and {y}"
                )
        root[max(ra, rb)] = min(ra, rb)
        for g in gens:
            va = ring._canon_vector(ring.mult.get((g, a), {}))
            vb = ring._canon_vector(ring.mult.get((g, b), {}))
            if (va or vb) and not (len(va) == len(vb) == 1 and [*va.values()] == [*vb.values()]):
                raise OmegaModelError(
                    f"identifying {A.name} with {B.name} needs {names[g]}*{A.name} "
                    f"- {names[g]}*{B.name} to be a difference of two equal single terms"
                )
            if va:
                pairs.append((*va, *vb))  # the classes of the two single terms

    survivors = sorted(
        {find(k) for k in range(n) if k not in killed},
        key=lambda k: (ring.basis[k].degree, names[k]),
    )
    new = {k: i for i, k in enumerate(survivors)}
    image = {k: new[find(k)] for k in range(n) if k not in killed}
    quotient = PresentedRing(
        p=ring.p,
        basis=tuple(ring.basis[k] for k in survivors),
        unit=image[ring.unit],
        mult={},
        generators=tuple(image[g] for g in ring.generators if g in image),
    )

    def project(vec: dict) -> dict[int, int]:
        out: dict = {}
        for k, c in vec.items():
            if k in image:
                out[image[k]] = out.get(image[k], 0) + c
        return quotient._canon_vector(out)

    for g in gens:
        for x in (x for x in range(n) if x not in new):
            gx = project(ring.mult.get((g, x), {}))
            if x in killed and gx:
                raise OmegaModelError(
                    f"the killed classes span no ideal: {names[g]}*{names[x]} has a term "
                    f"{quotient.basis[min(gx)].name}"
                )
            if x in image and gx != project(ring.mult.get((g, survivors[image[x]]), {})):
                raise OmegaModelError(
                    f"the identified classes span no ideal: {names[g]}*{names[x]} "
                    f"!= {names[g]}*{names[survivors[image[x]]]} in the quotient"
                )
    for (a, b), tab in ring.mult.items():
        if a in new and b in new and (vec := project(tab)):
            quotient.mult[(new[a], new[b])] = vec
    quotient.audit()
    return quotient


# ---------------------------------------------------------------------------
# collapse of the image submodule
# ---------------------------------------------------------------------------


def _v_monomials(weight: int, max_index: int, p: int) -> list[VKey]:
    """All v-monomials in v_1..v_max of exact weight sum e_i*(p^i-1)."""
    out: list[VKey] = []

    def rec(w: int, i: int, acc: list[tuple[int, int]]):
        if w == 0:
            out.append(tuple(acc))
            return
        if i > max_index:
            return
        step = p**i - 1
        rec(w, i + 1, acc)
        e = 1
        while e * step <= w:
            rec(w - e * step, i + 1, acc + [(i, e)])
            e += 1

    rec(weight, 1, [])
    return sorted(out)


def chow_collapse(model: OmegaImageModel) -> PresentedRing:
    """Quotient of the image submodule by its v-positive translates.

    Returns the resulting graded ring with basis the surviving generator
    classes; additive orders and all products are certified by membership
    computations in the ambient module.  Only single-factor models are
    supported (products are handled at the level of tensor constructions).
    """
    if model.nfactors != 1:
        raise OmegaModelError("collapse implemented for single-factor models")
    p = model.p
    rule = model.rule()
    top = (p - 1) * rule.y_degree
    vmax = 1
    while p ** (vmax + 1) - 1 <= top:
        vmax += 1

    gens = model.image_generators()  # (name, combo)
    gen_elements = {name: model.res_word(combo) for name, combo in gens}
    gen_degree = {
        name: (0 if name == "1" else model.element_degree(el))
        for name, el in gen_elements.items()
    }

    # per degree: spanning set (v-monomial, generator) of the image submodule
    slices: dict[int, dict] = {}
    for d in range(0, top + 1):
        cols: list[tuple[VKey, str]] = []
        for name, _ in gens:
            w = gen_degree[name] - d
            if w < 0:
                continue
            if w == 0:
                cols.append(((), name))
            else:
                cols.extend((vm, name) for vm in _v_monomials(w, vmax, p))
        if not cols:
            continue
        slices[d] = {
            "cols": cols,
            "elements": [
                model.mul(model.monomial(1, vm, (0,)), gen_elements[name]) for vm, name in cols
            ],
            "survivors": [idx for idx, (vm, _) in enumerate(cols) if vm == ()],
        }

    # additive certification: in each degree the surviving classes form
    # independent cyclic summands with order read off the index pattern
    basis: list[BasisClass] = []
    for d in sorted(slices):
        sl = slices[d]
        surv = sl["survivors"]
        if not surv:
            continue
        kern = kernel_basis(sparse_matrix(p, sl["elements"])[0])
        restricted = [{pos: vec[i] for pos, i in enumerate(surv) if vec[i]} for vec in kern]
        orders = []
        for i in surv:
            name = sl["cols"][i][1]
            exp = 0 if name == "1" or name.startswith("c_0(") else 1
            orders.append(exp)
        # relation span must equal span{p * e_t : torsion t}
        for vec in restricted:
            for pos, c in vec.items():
                if orders[pos] == 0:
                    raise OmegaModelError(f"free class acquires a relation in degree {d}")
                if c % p != 0:
                    raise OmegaModelError(f"unexpected relation shape in degree {d}")
        for pos, exp in enumerate(orders):
            if exp and solve_sparse(p, restricted, {pos: p}) is None:
                raise OmegaModelError(
                    f"class {sl['cols'][surv[pos]][1]} is not p-torsion in degree {d}"
                )
        for pos, i in enumerate(surv):
            name = sl["cols"][i][1]
            basis.append(BasisClass(name=name, degree=d, torsion_exp=orders[pos]))

    index = {b.name: k for k, b in enumerate(basis)}
    unit = index["1"]

    def class_of(el: Element, d: int) -> dict[int, int]:
        """Express an image element as a vector on the surviving classes."""
        if not el:
            return {}
        sl = slices.get(d)
        if sl is None:
            raise OmegaModelError(f"no image classes in degree {d}")
        x = solve_sparse(p, sl["elements"], el)
        if x is None:
            raise OmegaModelError("element is not in the image submodule")
        out: dict[int, int] = {}
        for i in sl["survivors"]:
            name = sl["cols"][i][1]
            k = index[name]
            c = _canon_coeff(x[i], basis[k].torsion_exp, p)
            if c:
                out[k] = c
        return out

    mult: dict[tuple[int, int], dict[int, int]] = {}
    for a in range(len(basis)):
        for b in range(len(basis)):
            ea = gen_elements[basis[a].name]
            eb = gen_elements[basis[b].name]
            prod = model.mul(ea, eb)
            if not prod:
                continue
            d = basis[a].degree + basis[b].degree
            vec = class_of(prod, d)
            if vec:
                mult[(a, b)] = vec
    ring = PresentedRing(
        p=p,
        basis=tuple(basis),
        unit=unit,
        mult=mult,
        generators=tuple(k for k, b in enumerate(basis) if k != unit),
    )
    ring.audit()
    return ring


# ---------------------------------------------------------------------------
# torsion ideals and their powers
# ---------------------------------------------------------------------------


def torsion_ideal(ring: PresentedRing, res: GradedMap | None = None) -> tuple[str, ...]:
    """Names of the p-torsion basis classes generating the kernel ideal.

    When the restriction map to the split form is supplied, two facts are
    certified: every torsion class maps to zero, and the map is rationally
    injective on the free part.
    """
    names = ring.torsion_names()
    if res is not None:
        mod = ring.module()
        for name in names:
            d, i = mod.generator_index(name)
            vec = [0] * mod.gens_at(d)
            vec[i] = 1
            if any(res.apply(d, vec)):
                raise OmegaModelError(f"torsion class {name} has nonzero restriction")
        for d in mod.degrees():
            comp = mod.components[d]
            free_cols = [
                i
                for i, nm in enumerate(comp.names or ())
                if ring.basis[ring.index_of(nm)].torsion_exp == 0
            ]
            if not free_cols:
                continue
            m = res.matrix_at(d)
            sub = [[row[i] for i in free_cols] for row in m]
            A = PLocalMatrix.from_rows(ring.p, sub, cols=len(free_cols))
            if len(snf_exponents(A)) != len(free_cols):
                raise OmegaModelError(f"restriction not injective on free part, degree {d}")
    return names


@dataclass(frozen=True)
class PowerWitness:
    factors: tuple[str, ...]
    vector: tuple[tuple[str, int], ...]
    degree: int


def ideal_power_witness(
    ring: PresentedRing, generators, s: int
) -> PowerWitness | None:
    """First nonzero s-fold product of ideal generators, or None if T^s = 0.

    Products of s general ideal elements are ring-linear combinations of
    s-fold products of the generators, so exhausting those products is a
    complete zero-ness certificate.
    """
    if s < 1:
        raise OmegaModelError("power must be >= 1")
    idx = [ring.index_of(g) for g in generators]
    for combo in itertools.combinations_with_replacement(sorted(idx), s):
        acc = {ring.unit: 1}
        for k in combo:
            acc = ring.multiply(acc, {k: 1})
        if acc:
            names = tuple(ring.basis[k].name for k in combo)
            vec = tuple((ring.basis[k].name, c) for k, c in sorted(acc.items()))
            degree = sum(ring.basis[k].degree for k in combo)
            return PowerWitness(factors=names, vector=vec, degree=degree)
    return None
