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
the commuting-operator criterion in `audit`; `multiply` reads every other
product off words in the generators, one term at a time.  `chow_collapse`,
`ring_tensor` and `ring_quotient` emit operators, not product tables; on a
`TensorParent`, the tensor left implicit, `ring_quotient` folds a word-ring
stage with no tensor ring built.  `chow_collapse` and the catalog rings are audited; the
tensors and quotients of certified rings are certified (`ring_quotient`),
so only the rings at the leaves of a build are audited.
"""

from __future__ import annotations

import itertools
from collections import Counter

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


def _canon_coeff(c: int, exp: int, p: int) -> int:
    """The canonical representative of the int c on a class of order p^exp:
    c mod p^exp, or c itself on a free class (exp = 0)."""
    return c % p**exp if exp else c


Operator = dict[int, tuple[int, int]]  # columns x -> the term (k, c) of L(x) = c*e_k; zero absent


class PresentedRing(Frozen):
    """Graded commutative ring on an explicit basis, given by the operators
    of its generators: ops[g][x] = (k, c) is the term g*x = c*e_k, and a
    zero column is absent.  One term is the only column format.

    The generators are the keys of `ops`, in order in `generators`.  A
    column must be a (class, coefficient) pair on the basis with an int
    coefficient, reduced mod p^e on a class of order p^e (`_canon_coeff`),
    and a unit on a free class must be 1 or -1.  `audit` certifies that the
    operators define a ring, and `multiply` is its one product of classes, a
    term times a class.  Frozen, and the caches of `words` and `row` are
    deterministic, so callers share rings.
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
        object.__setattr__(self, "_rows", None)
        if not 0 <= self.unit < n:
            raise OmegaModelError(f"unit index {self.unit} names no basis class")
        canon, valid = {}, range(n)
        mods = [p**b.torsion_exp if b.torsion_exp else 0 for b in basis]  # 0: free
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
                if type(c) is not int:
                    raise OmegaModelError(f"coefficient {c!r} of L_{names[g]} is not an int")
                if (mod := mods[k]) and not 0 <= c < mod:  # a canonical term is kept
                    term = k, (c := c % mod)
                elif not mod and c % p and c not in (1, -1):
                    raise OmegaModelError(f"L_{names[g]}: unit {c} on free {names[k]}, not 1 or -1")
                if c:
                    col[x] = term
        object.__setattr__(self, "ops", canon)
        object.__setattr__(self, "generators", tuple(canon))

    def index_of(self, name: str) -> int:
        k = self._index.get(name)
        if k is None:
            raise OmegaModelError(f"no basis class named {name!r}")
        return k

    def row(self, x: int) -> dict[int, tuple[int, int]]:
        """{g: (k, c)} for each nonzero g*x = c*e_k, from ops transposed once."""
        if self._rows is None:
            object.__setattr__(self, "_rows", rows := [{} for _ in self.basis])
            for g, op in self.ops.items():
                for y, term in op.items():
                    rows[y][g] = term
        return self._rows[x]

    def _apply(self, op: Operator, term, scale=1):
        """The canonical term of scale * op(c*e_x) for term = (x, c); None is
        zero, as argument and as result."""
        if term is None or (t := op.get(term[0])) is None:
            return None
        k, c = t
        c = _canon_coeff(scale * term[1] * c, self.basis[k].torsion_exp, self.p)
        return (k, c) if c else None

    def multiply(self, term: tuple[int, int] | None, k: int) -> tuple[int, int] | None:
        """The canonical term of e_k * (c*e_x) for a canonical term = (x, c);
        None is zero, as argument and as result.  A generator k is one
        column of ops[k].  Any other class walks down its words e_k =
        c'*g*e_j (`words`) to a generator or the unit, applying c'*L_g at
        each step, as e_k*t = e_j*(c'*g*t) in a certified ring.  The walk is
        a loop, not a recursion, and keeps nothing; the unit returns the
        term as it is."""
        while k not in self.ops and k != self.unit:
            c, g, k = self.words()[k]
            term = self._apply(self.ops[g], term, c)
        return self._apply(self.ops[k], term) if k in self.ops else term

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
        multiplication by g is L_g.  The word c*g*e_j of a basis class a
        gives P_a = c*T_g*P_j, so a*b = e_j*(c*g*b), which `multiply` reads
        down the words.  The work is |G|^2 operator products on nonzero
        columns, one term each, with no table of N^2 products.
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
        column ops[g][j] = (k, d) with d a unit, c its inverse mod p^e on a
        class of order p^e and d itself, 1 or -1, on a free class.  Raises
        if some class has no such column; a hand-built ring lists that class
        as a generator."""
        if self._words is not None:
            return self._words
        p, ops, basis, deg = self.p, self.ops, self.basis, [b.degree for b in self.basis]
        words: dict[int, tuple[int, int, int]] = {}
        for g, op in ops.items():
            for j, (k, c) in op.items():
                if k not in words and (j == self.unit or deg[g] > 0) and c % p:
                    words[k] = (pow(c, -1, p**e) if (e := basis[k].torsion_exp) else c, g, j)
        if rest := [k for k in range(len(basis)) if k != self.unit and k not in words]:
            d = min(deg[k] for k in rest)
            unspanned = ", ".join(basis[k].name for k in rest if deg[k] == d)
            raise OmegaModelError(
                f"generators do not span degree {d}: {unspanned}; make each a generator"
            )
        object.__setattr__(self, "_words", words)
        return words


def tensor_name(a: str, b: str) -> str:
    """The name of the class a (x) b, the unit "1" dropped."""
    return a if b == "1" else (b if a == "1" else f"{a}*{b}")


class TensorParent(Frozen):
    """The tensor product A (x) B of two certified rings, left implicit:
    `ring_quotient` reads it as a parent, `ring_tensor` writes it out.  The
    class a_i (x) b_j has index i * nb + j, name `tensor_name`, degree
    deg a_i + deg b_j and order p^min of the nonzero exponents; its
    generators g (x) 1, then 1 (x) h, act as L_g (x) I and I (x) L_h."""

    _fields = ("A", "B")

    def __init__(self, A: PresentedRing, B: PresentedRing):
        if A.p != B.p:
            raise OmegaModelError("prime mismatch")
        nb, ua, ub = len(B.basis), A.unit * len(B.basis), B.unit
        exp_a, exp_b = ([b.torsion_exp for b in R.basis] for R in (A, B))
        exp = [min(ea or eb, eb or ea) for ea in exp_a for eb in exp_b]  # the least nonzero
        basis = tuple(BasisClass(tensor_name(a.name, b.name), a.degree + b.degree, e)
                      for (a, b), e in zip(itertools.product(A.basis, B.basis), exp))
        vars(self).update(
            A=A, B=B, p=A.p, basis=basis, unit=ua + ub,
            generators=tuple(g * nb + ub for g in A.ops) + tuple(ua + h for h in B.ops),
            _index={b.name: k for k, b in enumerate(basis)},
            _lift=(A.row, B.row, exp, exp_a, exp_b, nb, ua, ub),
        )

    index_of = PresentedRing.index_of

    def row(self, x: int) -> dict[int, tuple[int, int]]:
        """The factors' rows at a_i and b_j, lifted; `_canon_coeff` reduces a
        coefficient where the order drops, as a p can land on a class of order p."""
        row_a, row_b, exp, exp_a, exp_b, nb, ua, ub = self._lift
        (i, j), p, out = divmod(x, nb), self.p, {}
        for g, (k, c) in row_a(i).items():
            if (e := exp[y := k * nb + j]) == exp_a[k] or (c := _canon_coeff(c, e, p)):
                out[g * nb + ub] = (y, c)
        for h, (k, c) in row_b(j).items():
            if (e := exp[y := i * nb + k]) == exp_b[k] or (c := _canon_coeff(c, e, p)):
                out[ua + h] = (y, c)
        return out


def ring_tensor(A: PresentedRing, B: PresentedRing) -> PresentedRing:
    """The tensor product ring A (x) B: `TensorParent(A, B)` written out."""
    T = TensorParent(A, B)
    ops: dict[int, Operator] = {g: {} for g in T.generators}
    for x in range(len(T.basis)):
        for g, term in T.row(x).items():
            ops[g][x] = term
    return PresentedRing(T.p, T.basis, T.unit, ops)


def ring_quotient(parent, killed_names=(), identified=()) -> PresentedRing:
    """The quotient of a certified parent by the span I of the named classes
    k and of the differences a - b of the identified pairs of named classes.

    Certified means audited (`PresentedRing.audit`), built from certified
    rings by `ring_tensor` or `ring_quotient`, or a `TensorParent` of
    certified rings, certified built or not: a commutative ring that the
    factors' generators span, as with generators of positive degree a word
    c*g*e_j of a gives the word c*(g (x) 1)*(e_j (x) b) of a (x) b, and a
    word of b one of 1 (x) b.  Any other parent is outside this contract.
    The quotient is certified by the lemma below, not audited again.  The
    parent is read through `basis`, `unit`, `index_of`, `generators` and
    `row(x)`, the nonzero terms g*x.

    Closure: in a union-find with path halving, each pair (a, b) that merges
    two classes is checked on their rows: for every generator g the terms
    g*a and g*b must both vanish or be c*x and c*y with one c, and then
    x ~ y; anything else is an error naming the first such g.  Identified
    classes share degree, order and being killed, so the lowest index of
    each class not killed is a basis of parent/I, listed by (degree, name),
    and parent/I is the sum of Z_(p)/p^{e_r} over it; only the survivors'
    columns are built.  Certificate, with pi the projection to parent/I:
    pi(g*k) = 0 for every killed k, checked, and pi(g*x) = pi(g*r) for every
    identified x with survivor r, as the checked pairs, each with pi(g*a) =
    pi(g*b), connect x to r.  So g*I lies in I, which suffices: the parent
    is certified, so words in the generators span it, and any a*i is a
    Z_(p)-combination of g_1(g_2(...(g_r i))), each in I.

    Lemma: the quotient satisfies the four properties of `audit`.  Its
    operators L'_g are pi L_g on the survivors, so pi L_g = L'_g pi, and
    L'_g is well defined on parent/I because L_g(I) lies in I.  1: a term of
    pi(g*x) is the image of a term of g*x, of degree deg g + deg x, and
    identified classes share their order, so p^{e_x} kills pi(g*x).  2:
    L'_g(1) = pi(g*1) = pi(g).  3: L'_g L'_h pi = pi L_g L_h = pi L_h L_g =
    L'_h L'_g pi, and pi is onto, so the L'_g commute.  4: a surviving
    class k has a parent word k = c*g*e_j; neither g nor j is killed, or k
    would lie in the ideal I, so L'_g pi(e_j) = pi(g*e_j) = c^{-1} pi(e_k)
    is a column of L'_g, and the quotient's lazy `words` finds it.
    """
    basis, gens, row, n = parent.basis, parent.generators, parent.row, len(parent.basis)
    killed = {parent.index_of(name) for name in killed_names}
    if parent.unit in killed:
        raise OmegaModelError("the unit cannot be killed")
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    pairs = [(parent.index_of(a), parent.index_of(b)) for a, b in identified]
    while pairs:
        a, b = pairs.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        A, B = basis[a], basis[b]
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
        ta, tb = row(a), row(b)
        if ta.keys() != tb.keys() or any(c != tb[g][1] for g, (_, c) in ta.items()):
            raise OmegaModelError(  # naming the first g whose terms differ, a zero one 0*e_a
                "identifying {0} with {1} needs {2}*{0} - {2}*{1} to be a difference of two equal "
                "single terms".format(A.name, B.name, basis[min((g for g in ta.keys() | tb.keys()
                    if ta.get(g, (a, 0))[1] != tb.get(g, (b, 0))[1]), key=gens.index)].name))
        pairs.extend((k, tb[g][0]) for g, (k, _) in ta.items())  # the classes of the two terms

    roots = [find(k) for k in range(n)]
    survivors = sorted({r for k, r in enumerate(roots) if k not in killed},
                       key=lambda k: (basis[k].degree, basis[k].name))
    new = {k: i for i, k in enumerate(survivors)}
    image = [None if k in killed else new[r] for k, r in enumerate(roots)]
    if bad := sorted((gens.index(g), x, basis[g].name, basis[x].name, basis[roots[k]].name)
                     for x in killed for g, (k, _) in row(x).items() if image[k] is not None):
        raise OmegaModelError("the killed classes span no ideal: {2}*{3} has a term {4}"
                              .format(*bad[0]))
    ops: dict[int, Operator] = {image[g]: {} for g in gens if image[g] is not None}
    for i, x in enumerate(survivors):
        for g, (k, c) in row(x).items():
            if (gi := image[g]) is not None and (ki := image[k]) is not None:
                ops[gi][i] = (ki, c)
    return PresentedRing(parent.p, tuple(basis[k] for k in survivors), image[parent.unit], ops)


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
    Each a and c is a power of p, so a/c is an int; checked.
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
        if name is not None and pvaluation(c := terms[name][0], p) <= pvaluation(a, p):
            if a % c:
                raise OmegaModelError(f"{basis[g].name}*{basis[x].name} is {a}/{c} times {name}")
            ops[g][x] = (index[name], a // c)
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
    idx = {ring.index_of(nm) for nm in names}
    hit = {op[x][0] for op in ring.ops.values() for x in idx & op.keys() if op[x][1] % ring.p}
    return tuple(nm for nm in names if ring.index_of(nm) not in hit)


def ideal_power_witness(
    ring: PresentedRing, generators, s: int
) -> tuple[tuple[str, ...], tuple[tuple[str, int], ...], int] | None:
    """First nonzero s-fold product of ideal generators as (factor names,
    ((class name, coefficient),), degree), or None if T^s = 0.

    Products of s general ideal elements are ring-linear combinations of
    s-fold products of the generators, so exhausting those products is a
    complete zero-ness certificate.  The non-decreasing index tuples are
    walked depth first, in `combinations_with_replacement` order, and each
    prefix is multiplied once.  A product of basis classes is one term
    (`PresentedRing.multiply`), so each prefix carries one.  A zero prefix
    is not extended: the product is associative, so every extension of it
    is zero too.
    """
    if s < 1:
        raise OmegaModelError("power must be >= 1")
    idx = sorted(ring.index_of(g) for g in generators)

    def first(combo: tuple[int, ...], start: int, acc: tuple[int, int]):
        """The first s-fold extension of combo, whose product is the term
        acc, with a nonzero product: (indices, product term), or None."""
        if len(combo) == s:
            return combo, acc
        for pos in range(start, len(idx)):
            nxt = ring.multiply(acc, idx[pos])
            if nxt and (found := first(combo + (idx[pos],), pos, nxt)):
                return found
        return None

    found = first((), 0, (ring.unit, 1))
    if found is None:
        return None
    combo, (x, c) = found
    return (
        tuple(ring.basis[k].name for k in combo),
        ((ring.basis[x].name, c),),
        sum(ring.basis[k].degree for k in combo),
    )
