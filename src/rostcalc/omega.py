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

`OmegaImageModel` is the package's one ambient model; its one element
format is the monomial, a `Term` (c, v, Y) standing for c*v^I*Y, with None
for zero.  `kunneth.BarKmModel` is the same model read with the single
variable v = v_m for the (**) criterion.  Every image generator is one term,
so both answer their span questions term by term, with no translate listed
and nothing eliminated: the collapse over v_1, v_2, ..., the criterion over
v_m alone (the row-splitting lemma in `chow_collapse` and
`kunneth.BarKmModel`).

A `PresentedRing` is the operators L_g : x -> g*x of its generators g on an
explicit basis, each column one term (k, c) for g*x = c*e_k, certified by
the commuting-operator criterion in `audit`; every other product is read
off words in the generators.  `chow_collapse`,
`ring_tensor` and `ring_quotient` each emit operators, not product tables.
`chow_collapse` and the catalog rings are audited; `ring_tensor` and
`ring_quotient` take certified rings and return certified rings, by the
lemmas in their docstrings, so only the rings at the leaves of a build are
audited.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from .exact_linalg import SpanSolver, is_prime, pvaluation
from .graded import GradedFPModule, GradedMap, cyclic_summands
from .record import Frozen

VKey = tuple[tuple[int, int], ...]  # sorted ((index, exponent), ...)
YKey = tuple[int, ...]
Term = tuple[int, VKey, YKey]  # (c, v, Y), the term c*v*Y with c != 0; None is zero


class OmegaModelError(ValueError):
    pass


def y_degree(p: int, n: int) -> int:
    """Chow degree (half the topological one) of y for a Rost-type factor."""
    return (p**n - 1) // (p - 1)


def c_degree(p: int, n: int, i: int, j: int = 1) -> int:
    """Chow degree of c_i(y^j) for a Rost-type factor."""
    return j * y_degree(p, n) - (p**i - 1)


def _power(var: str, k: int) -> str:
    """The name of the monomial var^k."""
    return "1" if k == 0 else (var if k == 1 else f"{var}^{k}")


def _c(i: int, j: int, var: str) -> str:
    return f"c_{i}({_power(var, j)})"


def _vkey_mul(a: VKey, b: VKey) -> VKey:
    acc: dict[int, int] = {}
    for i, e in a + b:
        acc[i] = acc.get(i, 0) + e
    return tuple(sorted(acc.items()))


class OmegaImageModel(Frozen):
    """Ambient model for a product of Rost-type factors with exponents n_t.

    Every element the model holds is one term c*v^I*Y, a `Term` (c, v, Y)
    with c != 0, or None for zero: the image generators, their products and
    the (**) targets are all monomials, so there is no sum to form.  The
    y-degrees of the factors are computed once, here.
    """

    _fields = ("p", "factor_ns")

    def __init__(self, p: int, factor_ns: tuple[int, ...]):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "factor_ns", factor_ns)
        if not is_prime(self.p):
            raise OmegaModelError(f"p={self.p} must be prime")
        if not self.factor_ns:
            raise OmegaModelError("at least one factor required")
        if any(n < 2 for n in self.factor_ns):
            raise OmegaModelError("factor exponent n must be >= 2")
        ydegs = tuple(y_degree(self.p, n) for n in self.factor_ns)
        object.__setattr__(self, "ydegs", ydegs)

    @property
    def nfactors(self) -> int:
        return len(self.factor_ns)

    # -- terms -------------------------------------------------------------

    def monomial(self, coeff: int, v: VKey, y: YKey) -> Term | None:
        if len(y) != self.nfactors:
            raise OmegaModelError("y-exponent tuple has wrong length")
        if coeff == 0 or any(e >= self.p for e in y):
            return None
        return coeff, tuple(sorted(v)), tuple(y)

    def mul(self, a: Term, b: Term) -> Term | None:
        """The product of two terms; None when some y_t^p appears."""
        (ca, va, ya), (cb, vb, yb) = a, b
        y = tuple(x + z for x, z in zip(ya, yb))
        if any(e >= self.p for e in y):
            return None  # y_t^p = 0
        return ca * cb, _vkey_mul(va, vb), y

    def term_degree(self, term: Term) -> int:
        _, v, y = term
        d = sum(j * yd for j, yd in zip(y, self.ydegs))
        return d - sum(e * (self.p**i - 1) for i, e in v)

    # -- the image submodule ----------------------------------------------

    def image_generators(self) -> list[tuple[str, tuple[int, int] | None]]:
        """Named generators of a single-factor model: 1, then c_i(y^j) as
        (name, (i, j)) for j = 1..p-1 and i = 0..n-1."""
        (n,) = self.factor_ns
        return [("1", None)] + [(_c(i, j, "y"), (i, j)) for j in range(1, self.p) for i in range(n)]

    def res_class(self, t: int, i: int, j: int) -> Term:
        """Ambient image of the class c_i(y_t^j)."""
        n = self.factor_ns[t]
        if not (0 <= i <= n - 1 and 1 <= j <= self.p - 1):
            raise OmegaModelError(f"no class c_{i}(y^{j}) for n={n}, p={self.p}")
        y = tuple(j if tt == t else 0 for tt in range(self.nfactors))
        return self.monomial(1 if i else self.p, ((i, 1),) if i else (), y)

    def res_word(self, combo) -> Term:
        """Ambient image of the word with class combo[t] (or none) on factor
        t; one class per factor keeps every y-exponent below p."""
        acc = self.monomial(1, (), (0,) * self.nfactors)
        for t, cls in enumerate(combo):
            if cls is not None:
                acc = self.mul(acc, self.res_class(t, *cls))
        return acc

    def check_commutation_identity(self, r: int, s: int, j: int = 1, t: int = 0) -> bool:
        """v_s * res(c_r(Y)) == v_r * res(c_s(Y)), with v_0 = p."""
        one = (0,) * self.nfactors
        v = {i: self.monomial(1 if i else self.p, ((i, 1),) if i else (), one) for i in (r, s)}
        return self.mul(v[s], self.res_class(t, r, j)) == self.mul(v[r], self.res_class(t, s, j))


# ---------------------------------------------------------------------------
# rings with a distinguished basis and structure constants
# ---------------------------------------------------------------------------


class BasisClass(Frozen):
    _fields = ("name", "degree", "torsion_exp")

    def __init__(self, name: str, degree: int, torsion_exp: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "torsion_exp", torsion_exp)  # 0 = free, e >= 1: order p^e


def _canon_coeff(c, exp: int, p: int):
    """Canonical representative of a Z_(p) scalar modulo p^exp (exp=0: exact),
    for an int or a Fraction only: a float or a bool is refused."""
    if type(c) is int:
        return c % p**exp if exp else c
    if type(c) is not Fraction:
        raise OmegaModelError(f"coefficient {c!r} is not an int or a Fraction")
    if c.denominator % p == 0:
        raise OmegaModelError("coefficient is not p-local")
    if exp == 0:
        return int(c) if c.denominator == 1 else c
    mod = p**exp
    return (c.numerator * pow(c.denominator, -1, mod)) % mod


Operator = dict[int, tuple[int, int]]  # columns x -> the term (k, c) of L(x) = c*e_k; zero absent


class PresentedRing(Frozen):
    """Graded commutative ring on an explicit basis, given by the operators
    of its generators: ops[g][x] = (k, c) is the term g*x = c*e_k, and a
    zero column is absent.  One term is the only column format.

    The generators are the keys of `ops`.  Coefficients are made canonical
    on construction, and a column that is not a (class, coefficient) pair
    on the basis is refused; `audit` certifies that the operators define a
    ring.  Frozen, so a ring shared between callers keeps its fields; the
    caches of `words` and `operator` are deterministic.
    """

    _fields = ("p", "basis", "unit", "ops")

    def __init__(
        self, p: int, basis: tuple[BasisClass, ...], unit: int, ops: dict[int, Operator]
    ):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "unit", unit)
        n, names = len(self.basis), [b.name for b in self.basis]
        object.__setattr__(self, "_index", {name: k for k, name in enumerate(names)})
        object.__setattr__(self, "_words", None)
        object.__setattr__(self, "_derived", {})
        if not 0 <= self.unit < n:
            raise OmegaModelError(f"unit index {self.unit} names no basis class")
        canon = {}
        valid = range(n)
        for g, op in ops.items():
            if not 0 <= g < n:
                raise OmegaModelError(f"generator index {g} names no basis class")
            if g == self.unit:
                raise OmegaModelError("the unit cannot be a generator")
            if not isinstance(op, dict):
                raise OmegaModelError(f"L_{names[g]} is {op!r}, not a dict of columns")
            col = canon[g] = {}
            for x, term in op.items():
                if not (type(term) is tuple and len(term) == 2 and x in valid and term[0] in valid):
                    raise OmegaModelError(f"column {x} of L_{names[g]} is {term!r}, "
                                          "not a (class, coefficient) pair on the basis")
                k, c = term
                if c := _canon_coeff(c, self.basis[k].torsion_exp, self.p):
                    col[x] = (k, c)
        object.__setattr__(self, "ops", canon)

    def index_of(self, name: str) -> int:
        k = self._index.get(name)
        if k is None:
            raise OmegaModelError(f"no basis class named {name!r}")
        return k

    def _apply(self, op: Operator, term, scale=1):
        """The canonical term of scale * op(c*e_x) for term = (x, c); None is
        zero, as argument and as result."""
        if term is None or (t := op.get(term[0])) is None:
            return None
        k, c = t
        c = _canon_coeff(scale * term[1] * c, self.basis[k].torsion_exp, self.p)
        return (k, c) if c else None

    def multiply(self, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
        """The product of two vectors, each {class: coefficient}."""
        out: dict = {}
        for k, cb in b.items():
            op = self.operator(k)
            for x, ca in a.items():
                if (t := op.get(x)) is not None:
                    out[t[0]] = out.get(t[0], 0) + ca * cb * t[1]
        basis, p = self.basis, self.p
        return {j: r for j, c in out.items() if (r := _canon_coeff(c, basis[j].torsion_exp, p))}

    def operator(self, k: int) -> Operator:
        """L_k : x -> k*x, in the format of ops.  For a generator this is
        ops[k]; for any other class it is derived from the word of k
        (`words`) and cached.  Only L_k is kept: the classes on its chain of
        words are passed through."""
        op = self.ops.get(k, self._derived.get(k))
        if op is None and k == self.unit:
            op = self._derived[k] = {x: (x, 1) for x in range(len(self.basis))}
        if op is not None:
            return op
        words, chain = self.words(), [k]
        j = words[k][2]
        while j not in self.ops and j not in self._derived and j != self.unit:
            chain.append(j)  # down the words from k to a class whose operator is known
            j = words[j][2]
        op = self.operator(j)
        for x in reversed(chain):  # back up, holding only the previous step L_j
            c, g, _ = words[x]  # L_x = c L_g L_j
            op = {y: t for y, term in op.items() if (t := self._apply(self.ops[g], term, c))}
        self._derived[k] = op
        return op

    def module(self) -> GradedFPModule:
        return cyclic_summands(self.p, ((b.degree, b.torsion_exp, b.name) for b in self.basis))

    def torsion_names(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.basis if b.torsion_exp)

    def audit(self) -> None:
        """Certificate that the generator operators define a graded
        commutative ring on M, the sum of Z_(p)/p^{e_x} over the basis.

        1. each L_g is well defined on M and raises degree by deg g: every
           term of g*x has degree deg g + deg x, and p^{e_x} (g*x) = 0;
        2. L_g(1) = g;
        3. the L_g commute pairwise: on each column x the canonical terms
           L_g L_h x and L_h L_g x are equal.  A term on one class can cancel
           a term on another only when both are zero, so comparing the two
           terms is the whole check;
        4. `words` writes every class but the unit as c*g*e_j, a unit c
           times one generator column, with e_j the unit or of lower degree.

        Proof.  By 1 and 3, M is a module over S = Z_(p)[T_g : g a
        generator] with T_g acting as L_g.  By 4 and induction on degree,
        every class is P(L)*1 for some P in S, so P -> P(L)*1 maps S onto M
        and M = S/Ann(1).  The ring structure of S/Ann(1) carried over is
        a*b = P_a(L)*b for any P_a with P_a(L)*1 = a.  It is well defined:
        if P(L)*1 = Q(L)*1 then (P - Q)(L)*b = P_b(L)(P - Q)(L)*1 = 0, as the
        L_g commute.  It is commutative, associative and has unit 1, and it
        is graded by 1.  By 2, T_g is a P_g for the class g, so
        multiplication by g is L_g, and `multiply` reads each P_a off the
        words.  The work is |G|^2 operator products on nonzero columns, one
        term each, with no table of N^2 products.
        """
        names = [b.name for b in self.basis]
        deg = [b.degree for b in self.basis]
        exp = [b.torsion_exp for b in self.basis]
        for g, op in self.ops.items():
            for x, (k, c) in op.items():
                if deg[k] != deg[g] + deg[x]:
                    raise OmegaModelError(
                        f"{names[g]}*{names[x]} has a term {names[k]} of the wrong degree"
                    )
                if exp[x] and _canon_coeff(self.p ** exp[x] * c, exp[k], self.p):
                    raise OmegaModelError(
                        f"{names[g]}*{names[x]} is not killed by the order of {names[x]}"
                    )
            if op.get(self.unit) != (g, 1):
                raise OmegaModelError(f"L_{names[g]}(1) is not {names[g]}")
        gens = list(self.ops)
        for i, g in enumerate(gens):
            for h in gens[i + 1:]:
                Lg, Lh = self.ops[g], self.ops[h]
                for x in Lg.keys() | Lh.keys():
                    if self._apply(Lg, Lh.get(x)) != self._apply(Lh, Lg.get(x)):
                        raise OmegaModelError(
                            f"L_{names[g]} and L_{names[h]} do not commute on {names[x]}"
                        )
        self.words()

    def words(self) -> dict[int, tuple[int, int, int]]:
        """Every class k but the unit as a word (c, g, j), k = c*g*e_j with
        c a unit and e_j the unit or of lower degree: read off a generator
        column ops[g][j] = (k, c) with c a unit.  Raises if some
        class has no such column; a hand-built ring lists that class as a
        generator."""
        if self._words is not None:
            return self._words
        p, ops, basis, deg = self.p, self.ops, self.basis, [b.degree for b in self.basis]
        words: dict[int, tuple[int, int, int]] = {}
        for g, op in ops.items():
            for j, (k, c) in op.items():
                if (k not in words and (j == self.unit or deg[g] > 0)
                        and (c if isinstance(c, int) else c.numerator) % p):
                    words[k] = (_canon_coeff(1 / Fraction(c), basis[k].torsion_exp, p), g, j)
        if rest := [k for k in range(len(basis)) if k != self.unit and k not in words]:
            d = min(deg[k] for k in rest)
            unspanned = ", ".join(basis[k].name for k in rest if deg[k] == d)
            raise OmegaModelError(
                f"generators do not span degree {d}: {unspanned}; make each a generator"
            )
        object.__setattr__(self, "_words", words)
        return words

    def to_json(self) -> dict:
        """The ring with its full product table, the one place it is built."""
        return {
            "p": self.p,
            "unit": self.unit,
            "basis": [
                {"name": b.name, "degree": b.degree, "torsion_exp": b.torsion_exp}
                for b in self.basis
            ],
            "mult": {
                f"{i},{j}": {str(k): str(c) if isinstance(c, Fraction) else c}
                for i in range(len(self.basis))
                for j, (k, c) in sorted(self.operator(i).items())
            },
        }


def tensor_name(a: str, b: str) -> str:
    """The name of the class a (x) b, the unit "1" dropped."""
    return a if b == "1" else (b if a == "1" else f"{a}*{b}")


def ring_tensor(A: PresentedRing, B: PresentedRing) -> PresentedRing:
    """Tensor product ring over Z_(p); orders combine as p^min(e_a, e_b).

    Its generators are the g (x) 1 and the 1 (x) h, with L_{g (x) 1} =
    L_g (x) I and L_{1 (x) h} = I (x) L_h.  It needs no audit of its own: a
    tensor product of certified rings is a commutative ring that the factors'
    generators span, so it is certified, `ring_quotient`'s closure and
    killed-class check on it are sound, and the quotient is certified in
    turn.  With generators of positive degree, a word c*g*e_j of a gives
    the word c*(g (x) 1)*(e_j (x) b) of a (x) b, and a word of b one of
    1 (x) b.  Its columns are not canonical, as a coefficient p of a factor
    can land on a class of order p; `PresentedRing` reduces them.
    """
    if A.p != B.p:
        raise OmegaModelError("prime mismatch")
    nb = len(B.basis)  # the class a_i (x) b_j has index i * nb + j
    basis = []
    for a in A.basis:
        for b in B.basis:
            exp = min((e for e in (a.torsion_exp, b.torsion_exp) if e), default=0)
            basis.append(BasisClass(tensor_name(a.name, b.name), a.degree + b.degree, exp))
    ops = {}
    for g, op in A.ops.items():
        ops[g * nb + B.unit] = {
            i * nb + j: (k * nb + j, c) for i, (k, c) in op.items() for j in range(nb)
        }
    for h, op in B.ops.items():
        ops[A.unit * nb + h] = {
            i * nb + j: (i * nb + k, c) for j, (k, c) in op.items() for i in range(len(A.basis))
        }
    return PresentedRing(A.p, tuple(basis), A.unit * nb + B.unit, ops)


def ring_quotient(ring: PresentedRing, killed_names=(), identified=()) -> PresentedRing:
    """The quotient of a certified ring by the span I of the named classes k
    and of the differences a - b of the identified pairs of named classes.

    Certified means audited (`PresentedRing.audit`), or built from certified
    rings by `ring_tensor` or `ring_quotient`; a parent that is neither is
    outside this contract.  The quotient is certified by the lemma below,
    not audited again.

    Closure: in a union-find, each pair (a, b) that merges two classes is
    multiplied by every generator g; the terms g*a and g*b must both vanish
    or be c*x and c*y with one c, and then x ~ y; anything else is an
    error.  Identified classes share degree, order and being killed, so the
    lowest index of each class not killed is a basis of ring/I, listed by
    (degree, name), and ring/I is the sum of Z_(p)/p^{e_r} over it.
    Certificate, with pi the projection to ring/I: pi(g*k) = 0 for every
    killed k, checked, and pi(g*x) = pi(g*r) for every identified x with
    survivor r, proved by the closure.  Every pair (a, b) that merges two
    classes is checked against every generator g: g*a and g*b are both zero,
    or c*x and c*y with one c and x ~ y, so pi(g*a) = pi(g*b).
    These checked pairs connect each identified x to its survivor r, so
    pi(g*x) = pi(g*r) by transitivity.  So g*I lies in I, which suffices:
    the parent is certified, so words in the generators span it, and any
    a*i is a Z_(p)-combination of g_1(g_2(...(g_r i))), each step in I.

    Lemma: the quotient satisfies the four properties of `audit`.  Its
    operators L'_g are pi L_g on the survivors, so pi L_g = L'_g pi, and
    L'_g is well defined on ring/I because L_g(I) lies in I.  1: a term of
    pi(g*x) is the image of a term of g*x, of degree deg g + deg x, and
    identified classes share their order, so p^{e_x} kills pi(g*x).  2:
    L'_g(1) = pi(g*1) = pi(g).  3: L'_g L'_h pi = pi L_g L_h = pi L_h L_g =
    L'_h L'_g pi, and pi is onto, so the L'_g commute.  4: a surviving
    class k has a parent word k = c*g*e_j; neither g nor j is killed, or k
    would lie in the ideal I, so L'_g pi(e_j) = pi(g*e_j) = c^{-1} pi(e_k)
    is a column of L'_g, and the quotient's lazy `words` finds it.
    """
    n, names = len(ring.basis), [b.name for b in ring.basis]
    killed = {ring.index_of(name) for name in killed_names}
    if ring.unit in killed:
        raise OmegaModelError("the unit cannot be killed")
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
        for g, op in ring.ops.items():
            (ka, ca), (kb, cb) = op.get(a, (a, 0)), op.get(b, (b, 0))  # a zero column is 0*e_a
            if ca != cb:
                raise OmegaModelError(
                    f"identifying {A.name} with {B.name} needs {names[g]}*{A.name} "
                    f"- {names[g]}*{B.name} to be a difference of two equal single terms"
                )
            if ca:
                pairs.append((ka, kb))  # the classes of the two terms

    survivors = sorted(
        {find(k) for k in range(n) if k not in killed},
        key=lambda k: (ring.basis[k].degree, names[k]),
    )
    new = {k: i for i, k in enumerate(survivors)}
    image = {k: new[find(k)] for k in range(n) if k not in killed}
    basis = tuple(ring.basis[k] for k in survivors)
    ops = {}
    for g, op in ring.ops.items():
        for x in sorted(killed):
            if (t := op.get(x)) is not None and t[0] in image:
                raise OmegaModelError(
                    f"the killed classes span no ideal: {names[g]}*{names[x]} has a term "
                    f"{basis[image[t[0]]].name}"
                )
        if g in image:
            ops[image[g]] = {new[x]: (image[k], c) for x, (k, c) in op.items()
                             if x in new and k in image}
    return PresentedRing(ring.p, basis, image[ring.unit], ops)


# ---------------------------------------------------------------------------
# collapse of the image submodule
# ---------------------------------------------------------------------------


def chow_collapse(model: OmegaImageModel) -> PresentedRing:
    """Quotient of the image submodule by its v-positive translates.

    Returns the resulting graded ring with basis the generator classes;
    additive orders and all products are certified by membership in the
    ambient module.  Only single-factor models are supported (products are
    handled at the level of tensor constructions).

    Row-splitting lemma.  Every generator is one term c*v^I*Y, as every
    element of the model is a `Term`, and multiplying by a v-monomial keeps
    Y, so every v-translate is one term too.  A degree of the image
    submodule is then spanned by columns with one nonzero each, and such a
    span is the direct sum of its rows: row v^J*Y of the v-positive
    translates is p^mu*Z_(p), mu the least v_p(c) over the generators
    c*v^I*Y with v^I a proper divisor of v^J (no row at all when there is
    none).  The generators have distinct terms (checked), so the class of
    c*v^J*Y has order p^(mu - v_p(c)), and is free when no v-positive
    translate reaches its term.  A product a*v^J*Y is a/c times the class
    carrying its term when v_p(c) <= v_p(a), zero when mu <= v_p(a) and no
    class carries it that way, and outside the image submodule otherwise.
    """
    if model.nfactors != 1:
        raise OmegaModelError("collapse implemented for single-factor models")
    p = model.p
    terms = {name: model.res_word((cls,)) for name, cls in model.image_generators()}  # (c, v, Y)
    carrier = {(v, y): name for name, (_, v, y) in terms.items()}
    if len(carrier) != len(terms):
        raise OmegaModelError("two image generators share a term")

    def translate_valuation(v: VKey, y: YKey) -> int | None:
        """Least v_p(c) of the v-positive translates reaching v*y, or None."""
        exps = dict(v)
        return min(
            (pvaluation(c, p) for c, w, yw in terms.values()
             if yw == y and w != v and all(exps.get(i, 0) >= e for i, e in w)),
            default=None,
        )

    # additive certification: the order of each class, read off its term
    degrees = {name: model.term_degree(term) for name, term in terms.items()}
    basis: list[BasisClass] = []
    for name in sorted(terms, key=degrees.get):
        c, v, y = terms[name]
        mu = translate_valuation(v, y)
        order = None if mu is None else max(mu - pvaluation(c, p), 0)  # None: free
        expected = None if name == "1" or name.startswith("c_0(") else 1
        if order != expected:
            raise OmegaModelError(
                f"class {name} in degree {degrees[name]} has order "
                + ", not ".join("infinite" if e is None else f"p^{e}" for e in (order, expected))
            )
        basis.append(BasisClass(name=name, degree=degrees[name], torsion_exp=order or 0))

    index = {b.name: k for k, b in enumerate(basis)}
    unit = index["1"]

    # every class but the unit is a generator; each column is read off the
    # class that carries the product's term
    ops: dict[int, Operator] = {g: {} for g in range(len(basis)) if g != unit}
    for g, x in itertools.product(ops, range(len(basis))):
        if (term := model.mul(terms[basis[g].name], terms[basis[x].name])) is None:
            continue
        a, v, y = term
        name = carrier.get((v, y))
        if name is not None and pvaluation(terms[name][0], p) <= pvaluation(a, p):
            ops[g][x] = (index[name], Fraction(a, terms[name][0]))
        elif (mu := translate_valuation(v, y)) is None or mu > pvaluation(a, p):
            raise OmegaModelError("element is not in the image submodule")
    ring = PresentedRing(p, tuple(basis), unit, ops)
    ring.audit()
    return ring


# ---------------------------------------------------------------------------
# torsion ideals and their powers
# ---------------------------------------------------------------------------


def torsion_ideal(ring: PresentedRing, res: GradedMap | None = None) -> tuple[str, ...]:
    """Names of the p-torsion basis classes generating the kernel ideal.

    When the restriction map from `ring.module()` to the split form is
    supplied, two facts are certified: every torsion class maps to zero (no
    nonzero column is a torsion class's), and the map is rationally injective
    on the free part (in each degree the nonzero columns have rank the number
    of free classes).
    """
    names = ring.torsion_names()
    if res is not None:
        free = Counter(b.degree for b in ring.basis if not b.torsion_exp)
        for d, cols in res.columns.items():
            for j in cols:
                name = res.source.names_at(d)[j]
                if ring.basis[ring.index_of(name)].torsion_exp:
                    raise OmegaModelError(f"torsion class {name} has nonzero restriction")
        for d, count in sorted(free.items()):
            if SpanSolver(ring.p, res.columns.get(d, {}).values()).rank != count:
                raise OmegaModelError(f"restriction not injective on free part, degree {d}")
    return names


def ideal_generators(ring: PresentedRing, names) -> tuple[str, ...]:
    """The classes S among the basis classes `names` that no generator
    operator hits from a class in `names` with a unit coefficient.  S
    generates the same ideal T as `names`.

    Proof.  Every generator g has positive degree (checked).  A class t in
    `names` but not in S is c^{-1} g*t' for a generator g, a class t' in
    `names` and a unit c, with deg t' = deg t - deg g < deg t.  By induction
    on degree t' lies in the ideal (S), hence so does t.  So T lies in (S),
    and (S) in T as S is part of `names`.  Hence T^s = 0 exactly when every
    s-fold product of classes in S vanishes (`ideal_power_witness`).
    """
    for g in ring.ops:
        if ring.basis[g].degree <= 0:
            raise OmegaModelError(f"generator {ring.basis[g].name} has degree <= 0")
    idx, hit = {ring.index_of(nm) for nm in names}, set()
    for op in ring.ops.values():
        for x in idx & op.keys():
            k, c = op[x]
            if (c if isinstance(c, int) else c.numerator) % ring.p:
                hit.add(k)
    return tuple(nm for nm in names if ring.index_of(nm) not in hit)


def ideal_power_witness(
    ring: PresentedRing, generators, s: int
) -> tuple[tuple[str, ...], tuple[tuple[str, int], ...], int] | None:
    """First nonzero s-fold product of ideal generators as (factor names,
    product vector by class name, degree), or None if T^s = 0.

    Products of s general ideal elements are ring-linear combinations of
    s-fold products of the generators, so exhausting those products is a
    complete zero-ness certificate.  The non-decreasing index tuples are
    walked depth first, in `combinations_with_replacement` order, and each
    prefix is multiplied once.  A zero prefix is not extended: the product is
    associative, so every extension of it is zero too.
    """
    if s < 1:
        raise OmegaModelError("power must be >= 1")
    idx = sorted(ring.index_of(g) for g in generators)

    def first(combo: tuple[int, ...], start: int, acc: dict[int, int]):
        """The first s-fold extension of combo, whose product is acc, with a
        nonzero product: (indices, product), or None."""
        if len(combo) == s:
            return combo, acc
        for pos in range(start, len(idx)):
            nxt = ring.multiply(acc, {idx[pos]: 1})
            if nxt and (found := first(combo + (idx[pos],), pos, nxt)):
                return found
        return None

    found = first((), 0, {ring.unit: 1})
    if found is None:
        return None
    combo, acc = found
    return (
        tuple(ring.basis[k].name for k in combo),
        tuple((ring.basis[k].name, c) for k, c in sorted(acc.items())),
        sum(ring.basis[k].degree for k in combo),
    )
