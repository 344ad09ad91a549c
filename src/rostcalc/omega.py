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

`OmegaImageModel` is the package's one ambient model and element format;
`kunneth.BarKmModel` is the same model read with the single variable v = v_m
for the (**) criterion.  Both build their degree slices with
`OmegaImageModel.v_translates`: the collapse over v_1, v_2, ..., the
criterion over v_m alone.

A `PresentedRing` is the operators L_g : x -> g*x of its generators g on an
explicit basis, certified by the commuting-operator criterion in `audit`;
every other product is read off words in the generators.  `chow_collapse`,
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
from functools import lru_cache

from .exact_linalg import SpanSolver, is_prime
from .graded import GradedFPModule, GradedMap, cyclic_summands
from .record import Frozen

VKey = tuple[tuple[int, int], ...]  # sorted ((index, exponent), ...)
YKey = tuple[int, ...]
Element = dict[tuple[VKey, YKey], int]


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

    Elements are dicts {(v-monomial, y-exponents): int} holding no zero
    coefficient; the y-degrees of the factors are computed once, here.
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

    # -- elements ----------------------------------------------------------

    @staticmethod
    def _add_term(out: dict, key, c: int) -> None:
        """out[key] += c, dropping the key when the sum is zero."""
        nc = out.get(key, 0) + c
        if nc:
            out[key] = nc
        else:
            out.pop(key, None)

    def add(self, a: Element, b: Element) -> Element:
        out = dict(a)
        for k, c in b.items():
            self._add_term(out, k, c)
        return out

    def scale(self, c: int, a: Element) -> Element:
        return {k: c * x for k, x in a.items()} if c else {}

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.scale(-1, b))

    def monomial(self, coeff: int, v: VKey, y: YKey) -> Element:
        if len(y) != self.nfactors:
            raise OmegaModelError("y-exponent tuple has wrong length")
        if coeff == 0 or any(e >= self.p for e in y):
            return {}
        return {(tuple(sorted(v)), tuple(y)): coeff}

    def mul(self, a: Element, b: Element) -> Element:
        out: Element = {}
        for (va, ya), ca in a.items():
            for (vb, yb), cb in b.items():
                y = tuple(x + z for x, z in zip(ya, yb))
                if any(e >= self.p for e in y):
                    continue  # y_t^p = 0
                self._add_term(out, (_vkey_mul(va, vb), y), ca * cb)
        return out

    @staticmethod
    def v_shift(vm: VKey, a: Element) -> Element:
        """The element vm * a for a v-monomial vm."""
        return {(_vkey_mul(vm, v), y): c for (v, y), c in a.items()}

    def term_degree(self, key: tuple[VKey, YKey]) -> int:
        v, y = key
        d = sum(j * yd for j, yd in zip(y, self.ydegs))
        return d - sum(e * (self.p**i - 1) for i, e in v)

    def element_degree(self, a: Element) -> int | None:
        """Common Chow degree of a homogeneous element (None for 0)."""
        degs = {self.term_degree(k) for k in a}
        if not a:
            return None
        if len(degs) != 1:
            raise OmegaModelError(f"element is not homogeneous: mixed degrees {sorted(degs)}")
        return degs.pop()

    def v_translates(self, gens, d: int, indices) -> list[tuple[VKey, int, Element]]:
        """The translates into degree d of the (degree, element) generators.

        One triple (v_I, k, v_I * g_k) for each generator g_k and each
        v-monomial v_I in the v_i, i in the ascending `indices`, of weight
        deg g_k - d: generators in order, v-monomials sorted.  The monomials
        are enumerated once per distinct generator degree.
        """
        monomials: dict[int, list[VKey]] = {}
        out = []
        for k, (deg, el) in enumerate(gens):
            if deg < d:
                continue
            if deg not in monomials:
                monomials[deg] = _v_monomials(deg - d, indices, self.p)
            out.extend((vm, k, self.v_shift(vm, el)) for vm in monomials[deg])
        return out

    # -- the image submodule ----------------------------------------------

    def image_generators(self) -> list[tuple[str, tuple[int, int] | None]]:
        """Named generators of a single-factor model: 1, then c_i(y^j) as
        (name, (i, j)) for j = 1..p-1 and i = 0..n-1."""
        (n,) = self.factor_ns
        return [("1", None)] + [(_c(i, j, "y"), (i, j)) for j in range(1, self.p) for i in range(n)]

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
            if cls is not None:
                acc = self.mul(acc, self.res_class(t, *cls))
        return acc

    def check_commutation_identity(self, r: int, s: int, j: int = 1, t: int = 0) -> bool:
        """v_s * res(c_r(Y)) == v_r * res(c_s(Y)), with v_0 = p."""

        def times_v(i: int, el: Element) -> Element:
            return self.scale(self.p, el) if i == 0 else self.v_shift(((i, 1),), el)

        lhs = times_v(s, self.res_class(t, r, j))
        rhs = times_v(r, self.res_class(t, s, j))
        return lhs == rhs


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
    """Canonical representative of a Z_(p) scalar modulo p^exp (exp=0: exact)."""
    if isinstance(c, int):
        return c % p**exp if exp else c
    c = Fraction(c)
    if c.denominator % p == 0:
        raise OmegaModelError("coefficient is not p-local")
    if exp == 0:
        return int(c) if c.denominator == 1 else c
    mod = p**exp
    return (c.numerator * pow(c.denominator, -1, mod)) % mod


def _canon_vector(vec: dict, basis, p: int) -> dict[int, int]:
    """The vector with canonical coefficients and no zero terms."""
    canon = {}
    for k, c in vec.items():
        c = _canon_coeff(c, basis[k].torsion_exp, p)
        if c:
            canon[k] = c
    return canon


Operator = dict[int, dict[int, int]]  # columns x -> the nonzero vector L(x)
_NONE: dict = {}  # the zero column, never written


def _accumulate(acc: dict, op: Operator, vec: dict, scale=1) -> dict:
    """acc += scale * op(vec), op given by its columns; not canonicalised."""
    for x, c in vec.items():
        for j, d in op.get(x, _NONE).items():
            acc[j] = acc.get(j, 0) + scale * c * d
    return acc


class PresentedRing(Frozen):
    """Graded commutative ring on an explicit basis, given by the operators
    of its generators: ops[g][x] is the vector g*x (zero columns omitted).

    The generators are the keys of `ops`.  Coefficients are made canonical
    on construction; `audit` certifies that the operators define a ring.
    Frozen, so a ring shared between callers keeps its fields; the caches
    of `words` and `operator` are deterministic.
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
        valid = set(range(n))
        for g, op in ops.items():
            if not 0 <= g < n:
                raise OmegaModelError(f"generator index {g} names no basis class")
            if g == self.unit:
                raise OmegaModelError("the unit cannot be a generator")
            for x, vec in op.items():
                if not (x in valid and vec.keys() <= valid):
                    raise OmegaModelError(f"column {x} of L_{names[g]} names no basis class")
            canon[g] = {x: v for x, u in op.items() if (v := _canon_vector(u, self.basis, self.p))}
        object.__setattr__(self, "ops", canon)

    def index_of(self, name: str) -> int:
        k = self._index.get(name)
        if k is None:
            raise OmegaModelError(f"no basis class named {name!r}")
        return k

    def multiply(self, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
        out: dict = {}
        for k, cb in b.items():
            _accumulate(out, self.operator(k), a, cb)
        return _canon_vector(out, self.basis, self.p)

    def operator(self, k: int) -> Operator:
        """L_k : x -> k*x.  For a generator this is ops[k]; for any other
        class it is derived from the word of k (`words`) and cached.  Only
        L_k is kept: the classes on its chain of words are passed through."""
        op = self.ops.get(k, self._derived.get(k))
        if op is None and k == self.unit:
            op = self._derived[k] = {x: {x: 1} for x in range(len(self.basis))}
        if op is not None:
            return op
        words, chain = self.words(), [k]
        j = words[k][2]
        while j not in self.ops and j not in self._derived and j != self.unit:
            chain.append(j)  # down the words from k to a class whose operator is known
            j = words[j][2]
        op = self.operator(j)
        for x in reversed(chain):  # back up, holding only the previous step L_j
            acc: dict[int, dict] = {}
            c, g, _ = words[x]  # L_x = c L_g L_j
            for y, vec in op.items():
                _accumulate(acc.setdefault(y, {}), self.ops[g], vec, c)
            op = {y: v for y, col in acc.items() if (v := _canon_vector(col, self.basis, self.p))}
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
        3. the L_g commute pairwise;
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
        words.  The work is |G|^2 operator products on nonzero columns, with
        no table of N^2 products.
        """
        names = [b.name for b in self.basis]
        deg = [b.degree for b in self.basis]
        exp = [b.torsion_exp for b in self.basis]
        for g, op in self.ops.items():
            for x, vec in op.items():
                for k, c in vec.items():
                    if deg[k] != deg[g] + deg[x]:
                        raise OmegaModelError(
                            f"{names[g]}*{names[x]} has a term {names[k]} of the wrong degree"
                        )
                    if exp[x] and _canon_coeff(self.p ** exp[x] * c, exp[k], self.p):
                        raise OmegaModelError(
                            f"{names[g]}*{names[x]} is not killed by the order of {names[x]}"
                        )
            if op.get(self.unit) != {g: 1}:
                raise OmegaModelError(f"L_{names[g]}(1) is not {names[g]}")
        gens = list(self.ops)
        for i, g in enumerate(gens):
            for h in gens[i + 1:]:
                Lg, Lh = self.ops[g], self.ops[h]
                for x in Lg.keys() | Lh.keys():
                    # L_g L_h x - L_h L_g x, canonicalised once: reduction mod p^e is additive
                    acc = _accumulate({}, Lg, Lh.get(x, _NONE))
                    _accumulate(acc, Lh, Lg.get(x, _NONE), -1)
                    if any(acc.values()) and _canon_vector(acc, self.basis, self.p):
                        raise OmegaModelError(
                            f"L_{names[g]} and L_{names[h]} do not commute on {names[x]}"
                        )
        self.words()

    def words(self) -> dict[int, tuple[int, int, int]]:
        """Every class k but the unit as a word (c, g, j), k = c*g*e_j with
        c a unit and e_j the unit or of lower degree: read off a generator
        column ops[g][j] that is a unit multiple of k alone.  Raises if some
        class has no such column; a hand-built ring lists that class as a
        generator."""
        if self._words is not None:
            return self._words
        p, ops, basis, deg = self.p, self.ops, self.basis, [b.degree for b in self.basis]
        words: dict[int, tuple[int, int, int]] = {}
        for g, op in ops.items():
            for j in op:
                ((k, c), *more) = op[j].items()
                if (not more and k not in words and (j == self.unit or deg[g] > 0)
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
                f"{i},{j}": {str(k): str(c) if isinstance(c, Fraction) else c for k, c in v.items()}
                for i in range(len(self.basis))
                for j, v in sorted(self.operator(i).items())
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
            i * nb + j: {k * nb + j: c for k, c in vec.items()}
            for i, vec in op.items()
            for j in range(nb)
        }
    for h, op in B.ops.items():
        ops[A.unit * nb + h] = {
            i * nb + j: {i * nb + k: c for k, c in vec.items()}
            for j, vec in op.items()
            for i in range(len(A.basis))
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
    multiplied by every generator g; g*a and g*b must both vanish or be
    single terms c*x and c*y with one c, and then x ~ y; anything else is an
    error.  Identified classes share degree, order and being killed, so the
    lowest index of each class not killed is a basis of ring/I, listed by
    (degree, name), and ring/I is the sum of Z_(p)/p^{e_r} over it.
    Certificate, with pi the projection to ring/I: pi(g*k) = 0 for every
    killed k, checked, and pi(g*x) = pi(g*r) for every identified x with
    survivor r, proved by the closure.  Every pair (a, b) that merges two
    classes is checked against every generator g: g*a and g*b are both zero,
    or single terms c*x and c*y with one c and x ~ y, so pi(g*a) = pi(g*b).
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
    is a single column of L'_g, and the quotient's lazy `words` finds it.
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
            va, vb = op.get(a, {}), op.get(b, {})
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
    basis = tuple(ring.basis[k] for k in survivors)

    def project(vec: dict) -> dict[int, int]:
        out: dict = {}
        for k, c in vec.items():
            if k in image:
                out[image[k]] = out.get(image[k], 0) + c
        return out  # raw sums, made canonical by PresentedRing

    ops = {}
    for g, op in ring.ops.items():
        for x in sorted(killed):
            if gx := _canon_vector(project(op.get(x, {})), basis, ring.p):
                raise OmegaModelError(
                    f"the killed classes span no ideal: {names[g]}*{names[x]} has a term "
                    f"{basis[min(gx)].name}"
                )
        if g in image:
            ops[image[g]] = {new[x]: project(vec) for x, vec in op.items() if x in new}
    return PresentedRing(ring.p, basis, image[ring.unit], ops)


# ---------------------------------------------------------------------------
# collapse of the image submodule
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _v_monomials(weight: int, indices, p: int) -> tuple[VKey, ...]:
    """All v-monomials in the v_i, i in the ascending `indices`, of exact
    weight sum e_i*(p^i-1), sorted.  Cached, as callers ask for the same
    weights many times; the recursion on the tail of `indices` shares it."""
    if not indices:
        return ((),) if weight == 0 else ()
    i, step = indices[0], p ** indices[0] - 1
    return tuple(sorted(
        (((i, e),) if e else ()) + vm
        for e in range(weight // step + 1)
        for vm in _v_monomials(weight - e * step, indices[1:], p)
    ))


def chow_collapse(model: OmegaImageModel) -> PresentedRing:
    """Quotient of the image submodule by its v-positive translates.

    Returns the resulting graded ring with basis the surviving generator
    classes; additive orders and all products are certified by membership
    computations in the ambient module.  Only single-factor models are
    supported (products are handled at the level of tensor constructions).

    A degree's slice (the generators' v-translates into it) is built only at
    the generator degrees, for the additive certificate, and at the degrees
    of the nonzero products; each is factored once, for both.
    """
    if model.nfactors != 1:
        raise OmegaModelError("collapse implemented for single-factor models")
    p = model.p
    top = (p - 1) * model.ydegs[0]
    vmax = 1
    while p ** (vmax + 1) - 1 <= top:
        vmax += 1

    gens = model.image_generators()  # (name, (i, j) or None)
    names = [name for name, _ in gens]
    gen_elements = {name: model.res_word((cls,)) for name, cls in gens}
    graded = [(model.element_degree(el), el) for el in gen_elements.values()]

    # per degree: the v-translates of the generators span the image submodule
    @lru_cache(maxsize=None)
    def slice_at(d: int) -> tuple | None:
        """(names, survivors, span) of the degree-d translates, or None."""
        translates = model.v_translates(graded, d, range(1, vmax + 1))
        return None if not translates else (
            [names[k] for _, k, _ in translates],
            [idx for idx, (vm, _, _) in enumerate(translates) if vm == ()],
            SpanSolver(p, [el for _, _, el in translates]),
        )

    # additive certification: in each degree the surviving classes form
    # independent cyclic summands with order read off the index pattern
    basis: list[BasisClass] = []
    for d in sorted({deg for deg, _ in graded}):
        sl_names, surv, span = slice_at(d)
        kern = span.kernel_vectors()
        restricted = ({pos: c for pos, i in enumerate(surv) if (c := vec.get(i))} for vec in kern)
        restricted = [vec for vec in restricted if vec]  # a zero vector spans nothing
        surv_names = [sl_names[i] for i in surv]
        orders = [0 if name == "1" or name.startswith("c_0(") else 1 for name in surv_names]
        # relation span must equal span{p * e_t : torsion t}
        for vec in restricted:
            for pos, c in vec.items():
                if orders[pos] == 0:
                    raise OmegaModelError(f"free class acquires a relation in degree {d}")
                if c % p != 0:
                    raise OmegaModelError(f"unexpected relation shape in degree {d}")
        relations = SpanSolver(p, restricted)
        for pos, exp in enumerate(orders):
            if exp and not relations.contains({pos: p}):
                raise OmegaModelError(
                    f"class {surv_names[pos]} is not p-torsion in degree {d}"
                )
        for name, exp in zip(surv_names, orders):
            basis.append(BasisClass(name=name, degree=d, torsion_exp=exp))

    index = {b.name: k for k, b in enumerate(basis)}
    unit = index["1"]

    # every class but the unit is a generator; one column per class each, read
    # off the surviving classes of the slice of its degree
    ops: dict[int, dict] = {g: {} for g in range(len(basis)) if g != unit}
    products: dict[int, list] = {}
    for g, x in itertools.product(ops, range(len(basis))):
        ops[g][x] = {}
        if el := model.mul(gen_elements[basis[g].name], gen_elements[basis[x].name]):
            products.setdefault(basis[g].degree + basis[x].degree, []).append((g, x, el))
    for d, prods in products.items():
        if (sl := slice_at(d)) is None:
            raise OmegaModelError(f"no image classes in degree {d}")
        sl_names, surv, span = sl
        for g, x, el in prods:
            if (sol := span.solve(el)) is None:
                raise OmegaModelError("element is not in the image submodule")
            ops[g][x] = {index[sl_names[i]]: sol[i] for i in surv}
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
    operator hits from a class in `names` as a single term with a unit
    coefficient.  S generates the same ideal T as `names`.

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
            ((k, c), *more) = op[x].items()
            if not more and (c if isinstance(c, int) else c.numerator) % ring.p:
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
