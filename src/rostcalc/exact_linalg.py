"""Exact linear algebra over the p-local integers.

Everything here works with plain Python big integers; no floating point
anywhere.  A matrix over Z_(p) (integers localized at the prime p) is stored
with integer entries, and the prime-to-p part of any entry is treated as a
unit.  Smith normal form over Z_(p) therefore only has to track p-valuations.

The package works on sparse vectors, dicts from coordinate to nonzero
integer.  `PLocalMatrix` is the dense form of the public entry points
(`snf_p_local`, `membership`, `kernel_basis` and
`GradedFPModule.relation_matrix`), each of which converts it once.

Elimination over Z_(p) is one routine, `SpanSolver`'s row echelon form of
[M | I] on rows of nonzeros (`_echelon`), the row of [A | U] divided by its
prime-to-p content after every operation.  Its pivot valuations are the SNF
exponents (`SpanSolver.exponents`, behind the normal forms and the rank
checks); memberships, kernels and `snf_p_local` go on to integer
back-substitution on only the rows a target's nonzeros reach; the
reduced solution is unique, so the rows skipped change no integer.  A step
clears only the rows that hold its pivot column (a column index), and the
solvers of one positional matrix share one factorisation (`_factor`, an LRU
cache of 64), which none of them mutates.  Each factorisation answers many
targets, each in integers and audited exactly (M X = D B); `membership` is
its one-target form for a dense M.

The polynomial routines at the end (`snf_fp_poly` over F_p[v], `zp_poly_det`
over Z[v]) have no caller in the package: they remain as test oracles and
as targets of the per-layer tracer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .record import Frozen


class ExactLinalgError(ValueError):
    pass


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def pvaluation(x: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if x == 0:
        raise ExactLinalgError("valuation of zero is undefined")
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


# ---------------------------------------------------------------------------
# integer matrices over Z_(p)
# ---------------------------------------------------------------------------


class PLocalMatrix(Frozen):
    """An integer matrix regarded over Z_(p)."""

    _fields = ("p", "rows", "cols", "entries")

    def __init__(self, p: int, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        if not is_prime(self.p):
            raise ExactLinalgError(f"p={self.p} is not prime")
        if self.rows < 0 or self.cols < 0:
            raise ExactLinalgError("negative matrix dimensions")
        if len(self.entries) != self.rows:
            raise ExactLinalgError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ExactLinalgError("ragged matrix")

    @classmethod
    def from_rows(cls, p: int, rows, cols: int | None = None) -> "PLocalMatrix":
        rows = tuple(_integral_tuple(row) for row in rows)
        if cols is None:
            if not rows:
                raise ExactLinalgError("empty matrix needs an explicit column count")
            cols = len(rows[0])
        return cls(p=p, rows=len(rows), cols=cols, entries=rows)


def _integral(x) -> int:
    """x as an int; a non-integral entry is an error, never truncated."""
    if isinstance(x, int):
        return x
    f = Fraction(x)
    if f.denominator != 1:
        raise ExactLinalgError(f"matrix entry {x} is not an integer")
    return f.numerator


def _integral_tuple(xs) -> tuple[int, ...]:
    xs = tuple(xs)
    if type(sum(xs)) is int:  # an entry of any other number type would show in the sum
        return xs
    return tuple(map(_integral, xs))


def _prime_to_p_content(values, p: int) -> int:
    """gcd of the values with its p-part removed (0 when all values are 0)."""
    g = math.gcd(*values)
    while g and g % p == 0:
        g //= p
    return g


class SpanSolver:
    """The Z_(p)-span of a set of columns, factored once for many targets.

    A column is a dict from row name to integer; the rows are the sequence
    `coords`, by default the sorted nonzero coordinates (`of`: a dense
    matrix's 0, 1, ...).  It is stored once, as a sorted tuple of (row
    position, integer) pairs, and (p, rows, columns) keys `_factor`: every
    solver of one matrix shares its factorisation, never mutated (the cache
    keeps the 64 latest, whatever their size).

    The factorisation is U * M * P = R (`_echelon`): U invertible over Z_(p),
    P the column permutation `perm`.  R (the rows of U * M, each a dict from
    position in `perm` to nonzero entry) is upper echelon: R[i][i] for i <
    rank is a pivot of least valuation among the rows and columns from i on
    when it was chosen, so it divides the rest of row i over Z_(p); rows from
    `rank` on are zero.  `above[j]` lists the rows i < j with R[i][j] != 0:
    `back_solve` follows only these from a target's nonzeros, and as the
    reduced solution is unique, the rows it skips change no integer.

    A target, a dict from row name to integer, is answered in integers: c =
    U * B, the pivot test, `back_solve` and the exactness audit M X = D B.
    One with an entry outside `coords` is not in the span; any other gets the
    x of M built with its coordinates in rows.  A column with a nonzero entry
    outside `coords`, and a repeated coordinate, are refused.
    """

    def __init__(self, p: int, columns, coords=None):
        if not is_prime(p):
            raise ExactLinalgError(f"p={p} is not prime")
        columns = list(columns)  # read once: an iterator would be empty the second time
        if coords is None:
            coords = sorted({k for col in columns for k, c in col.items() if c})
        row = {k: i for i, k in enumerate(coords)}
        self.p, self.row = p, row
        if len(row) < len(coords):  # a repeated name keeps only its last row
            dup = next(k for i, k in enumerate(coords) if row[k] != i)
            raise ExactLinalgError(f"coordinate {dup!r} repeated in coords")
        try:
            self.columns = tuple(tuple(sorted([(row[k], _integral(c)) for k, c in col.items() if c]))
                                 for col in columns)
        except KeyError as exc:
            raise ExactLinalgError(f"column entry at {exc.args[0]!r}, outside coords") from None
        (self.R, self.ucols, self.perm, self.rank, self.above, self.pivot_pe,
         self._exponents) = _factor(p, len(row), self.columns)

    @classmethod
    def of(cls, M: PLocalMatrix) -> "SpanSolver":
        """The span of the columns of the dense M, its rows named 0, 1, ..."""
        cols = [{i: r[j] for i, r in enumerate(M.entries) if r[j]} for j in range(M.cols)]
        return cls(M.p, cols, range(M.rows))

    def exponents(self) -> tuple[int, ...]:
        """The SNF exponents of M over Z_(p), ascending; `rank` is their number.

        They are the valuations of the pivots R[i][i], read once per
        factorisation (`_factor`).  Each pivot had the least valuation among
        the rows and columns from i on, so it divides its row, and row i is
        final once chosen.  Column operations therefore clear row 0, then row
        1, and so on, each touching its own row only: the pivot column is zero
        below the pivot and, by then, above it.  So M is equivalent to
        diag(R[0][0], ..., R[rank-1][rank-1]) plus zeros, whose SNF exponents
        are the sorted valuations of the pivots.
        """
        return self._exponents

    def back_solve(self, c: dict[int, int]) -> tuple[dict[int, int], int]:
        """(Y, D): y = Y/D solves R[:rank, :rank] y = c for c a dict on the rows
        below rank; Y maps a position to its nonzero y_j.

        Integer back-substitution over one common denominator, kept reduced,
        visiting only the rows c reaches (Gilbert-Peierls): y_i != 0 needs c_i
        != 0 or R[i][j] != 0 for a reached j (`above[j]`).  A reached row whose
        partial sum is 0 is skipped too: its step would multiply D and Y by d =
        R[i][i] and divide by their gcd |d|.  Either way y = Y/D, reduced with
        D > 0, which is unique: the integers of the dense back-substitution.
        """
        R, above = self.R, self.above
        reach, todo = set(c), list(c)
        while todo:  # depth-first, through the rows above each reached one
            todo += (new := set(above.get(todo.pop(), ())) - reach)
            reach |= new
        Y: dict[int, int] = {}
        D = 1
        for i in sorted(reach, reverse=True):
            row = R[i]
            s = c.get(i, 0) * D - sum(a * t for j, t in Y.items() if (a := row.get(j)))
            if s:
                d = row[i]
                Y = {j: t * d for j, t in Y.items()}
                Y[i], D = s, D * d
                g = math.gcd(D, *Y.values())
                if g > 1:
                    D, Y = D // g, {j: t // g for j, t in Y.items()}
        if D < 0:
            D, Y = -D, {j: -t for j, t in Y.items()}
        return Y, D

    def lift(self, Y: dict[int, int], D: int) -> tuple[Fraction, dict[int, int]]:
        """(s, x): x = P (s * Y/D), a dict of nonzeros, integral of prime-to-p content 1."""
        g = _prime_to_p_content(Y.values(), self.p)
        return Fraction(D, g), {self.perm[pos]: t // g for pos, t in Y.items()}

    def kernel_vectors(self) -> list[dict[int, int]]:
        """A Z_(p)-basis of {x : Mx = 0}, one dict of nonzeros per non-pivot column."""
        out = []
        for j in range(self.rank, len(self.perm)):
            Y, D = self.back_solve({i: -self.R[i][j] for i in self.above.get(j, ())})
            Y[j] = D
            out.append(self.lift(Y, D)[1])
        return out

    def solve_int(self, target) -> tuple[list[int], int] | None:
        """(X, D) with M X = D B and D > 0 prime to p, or None off the span."""
        B = {self.row.get(k): _integral(v) for k, v in target.items() if v}
        if None in B:  # a coordinate outside the rows
            return None
        c: dict[int, int] = {}  # U * B, through the columns of U that B reads
        for i, v in B.items():
            for k, u in self.ucols[i].items():
                c[k] = c.get(k, 0) + u * v
        c = {k: t for k, t in c.items() if t}
        if any(k >= self.rank or t % self.pivot_pe[k] for k, t in c.items()):
            return None
        Y, D = self.back_solve(c)
        X = [0] * len(self.columns)
        MX: dict[int, int] = {}  # the exactness audit, on integers
        for pos, t in Y.items():
            j = self.perm[pos]
            X[j] = t
            for i, a in self.columns[j]:
                MX[i] = MX.get(i, 0) + a * t
        if {i: t for i, t in MX.items() if t} != {i: D * v for i, v in B.items()}:
            raise ExactLinalgError("exactness audit failed: M x != b for the back-solved x")
        return X, D

    def solve(self, target, den: int = 1) -> tuple[Fraction, ...] | None:
        """x with M x = target / den, or None when it is not in the span."""
        sol = self.solve_int(target)
        return None if sol is None else tuple(Fraction(t, sol[1] * den) for t in sol[0])

    def contains(self, target) -> bool:
        return self.solve_int(target) is not None


@lru_cache(maxsize=64)
def _factor(p: int, nr: int, columns: tuple) -> tuple:
    """(R, ucols, perm, rank, above, pivot_pe, exponents) of `SpanSolver` for
    the nr-row matrix of these columns over Z_(p): one per matrix, shared,
    never mutated."""
    R, ucols, perm, rank = _echelon(p, columns, nr)
    above: dict[int, list[int]] = {}
    for i, j in ((i, j) for i, row in enumerate(R) for j in row if j > i):
        above.setdefault(j, []).append(i)
    vals = [pvaluation(R[i][i], p) for i in range(rank)]
    return R, ucols, perm, rank, above, [p**v for v in vals], tuple(sorted(vals))


def _echelon(p: int, columns: tuple, nr: int):
    """Row elimination of [M | I] over Z_(p), to (R, U by its columns, perm,
    rank).  M has nr rows and the given columns, tuples of (row, entry)
    pairs; each row is a dict of its nonzeros, and `holders[j]` the rows
    from k on that hold column j, so a step reads only what it changes.
    Pivot rule: entry of minimal p-valuation, ties broken by lowest (row,
    position), a column's position being its place in `perm`.  Clearing an
    entry b with pivot a = u*p^alpha uses the integer row operation
        row_i <- u*row_i - (b / p^alpha)*row_k,
    which is invertible over Z_(p) because u is a unit.  After each one the
    row of [A | U] is divided by its prime-to-p content (a unit), which keeps
    the entries near the size of the minors they stand for.  That is the
    content of the U row alone: A = U * M, so it divides every entry of A's.
    """
    nc = len(columns)
    A: list[dict[int, int]] = [{} for _ in range(nr)]
    holders: list[set[int]] = [set() for _ in range(nc)]
    for j, col in enumerate(columns):
        for i, x in col:
            A[i][j] = x
            holders[j].add(i)
    U = [{i: 1} for i in range(nr)]
    perm, pos = list(range(nc)), list(range(nc))
    k = 0
    while k < min(nr, nc):
        best = (math.inf, 0, 0)  # (valuation, row, position) of the pivot
        for i in range(k, nr):
            if units := [pos[j] for j, x in A[i].items() if x % p]:
                best = (0, i, min(units))
                break
            if A[i] and (val := pvaluation(math.gcd(*A[i].values()), p)) < best[0]:
                pv = p ** (val + 1)
                best = (val, i, min(pos[j] for j, x in A[i].items() if x % pv))
        if best[0] == math.inf:
            break
        val, pi, pj = best
        for j in A[k].keys() ^ A[pi].keys():  # a column both rows hold keeps its holders
            holders[j] ^= {k, pi}
        A[k], A[pi], U[k], U[pi] = A[pi], A[k], U[pi], U[k]
        a, b = perm[k], perm[pj]
        perm[k], perm[pj], pos[a], pos[b] = b, a, pj, k
        pk, uk, pe = A[k], U[k], p**val
        ua, get, uget = pk[b] // pe, pk.get, uk.get
        for j in pk:
            holders[j].discard(k)
        for i in sorted(holders[b]):
            row, urow = A[i], U[i]
            f = row[b] // pe  # ua * row - f * pk, and so for U
            unew = {j: z for j, y in urow.items() if (z := ua * y - f * uget(j, 0))}
            for j in uk.keys() - urow.keys():
                unew[j] = -f * uk[j]
            if (g := _prime_to_p_content(unew.values(), p)) > 1:
                unew = {j: y // g for j, y in unew.items()}
            new = {j: z // g for j, y in row.items() if (z := ua * y - f * get(j, 0))}
            for j in pk.keys() - row.keys():  # fill-in
                new[j] = -f * pk[j] // g
                holders[j].add(i)
            for j in row.keys() - new.keys():  # cancellation, b among them
                holders[j].discard(i)
            A[i], U[i] = new, unew
        k += 1
    ucols: list[dict[int, int]] = [{} for _ in range(nr)]
    for i, row in enumerate(U):
        for t, x in row.items():
            ucols[t][i] = x
    return [{pos[j]: x for j, x in row.items()} for row in A[:k]], ucols, perm, k


class SNFResult(Frozen):
    """U * M * V is diagonal; diagonal entry i is an associate of p^exponents[i].

    U and V have integer entries and determinants prime to p, so both are
    invertible over Z_(p).  `exponents` is sorted ascending, which encodes the
    divisibility chain p^{e_1} | p^{e_2} | ...
    """

    _fields = ("p", "rows", "cols", "diag", "exponents", "U", "V")

    def __init__(
        self, p: int, rows: int, cols: int, diag: tuple[int, ...], exponents: tuple[int, ...],
        U: tuple[tuple[int, ...], ...], V: tuple[tuple[int, ...], ...],
    ):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)

    @property
    def rank(self) -> int:
        return len(self.diag)


def snf_p_local(M: PLocalMatrix) -> SNFResult:
    """Smith normal form over Z_(p) with both transforms.

    U is the row transform of the echelon form U * M * P = R, and V = P E
    with E upper triangular, found by back-substitution instead of column
    operations.  With B the pivot block of R, column i < rank of E is
    B^-1 e_i, so R E e_i = e_i, and column j >= rank is (-B^-1 R e_j) + e_j,
    so R E e_j = 0.  Each column is scaled to an integral vector of
    prime-to-p content 1; as each pivot divides its row over Z_(p), the
    scales are units, the diagonal entry i is an associate of the pivot,
    and V is invertible over Z_(p).  Callers that need only the exponents
    use `SpanSolver.exponents`.
    """
    ech = SpanSolver.of(M)
    p, nc = M.p, M.cols
    columns, diag = [], []
    for i in range(ech.rank):
        # R (s*y) = s e_i with s*y integral, so s is an integer
        scale, vec = ech.lift(*ech.back_solve({i: 1}))
        if scale.denominator != 1:
            raise ExactLinalgError("internal SNF inconsistency")
        columns.append(vec)
        diag.append(scale.numerator)
    columns.extend(ech.kernel_vectors())
    exponents = tuple(pvaluation(d, p) for d in diag)
    if list(exponents) != sorted(exponents):
        raise ExactLinalgError("SNF diagonal is not a divisibility chain")
    return SNFResult(
        p=p,
        rows=M.rows,
        cols=nc,
        diag=tuple(diag),
        exponents=exponents,
        U=tuple(tuple(col.get(i, 0) for col in ech.ucols) for i in range(M.rows)),
        V=tuple(tuple(col.get(i, 0) for col in columns) for i in range(nc)),
    )


def membership(M: PLocalMatrix, b) -> tuple[Fraction, ...] | None:
    """Solve M x = b over Z_(p); returns x (denominators prime to p) or None.

    b may contain ints or Fractions whose denominators are prime to p.
    """
    b = [x if type(x) is int else Fraction(x) for x in b]
    if any(x.denominator % M.p == 0 for x in b):
        raise ExactLinalgError("target vector is not p-local")
    if len(b) != M.rows:
        raise ExactLinalgError("length of b does not match row count")
    L = math.lcm(*(x.denominator for x in b))
    return SpanSolver.of(M).solve({i: int(x * L) for i, x in enumerate(b)}, L)


def kernel_basis(M: PLocalMatrix) -> list[tuple[int, ...]]:
    """Integer vectors spanning {x : Mx = 0} over Z_(p)."""
    kernel = SpanSolver.of(M).kernel_vectors()
    return [tuple(vec.get(j, 0) for j in range(M.cols)) for vec in kernel]


# ---------------------------------------------------------------------------
# polynomials over F_p (coefficient tuples, ascending powers of v)
# ---------------------------------------------------------------------------


def fp_trim(a, p: int) -> tuple[int, ...]:
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def fp_deg(a) -> int:
    return len(a) - 1  # -1 for the zero polynomial


def fp_add(a, b, p: int) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return fp_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)], p)


def fp_neg(a, p: int) -> tuple[int, ...]:
    return fp_trim([-c for c in a], p)

def fp_sub(a, b, p: int) -> tuple[int, ...]:
    return fp_add(a, fp_neg(b, p), p)


def fp_mul(a, b, p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return fp_trim(out, p)


def fp_divmod(a, b, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(fp_trim(a, p))
    b = fp_trim(b, p)
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        coeff = (a[-1] * inv) % p
        q[shift] = coeff
        for i in range(len(b)):
            a[shift + i] = (a[shift + i] - coeff * b[i]) % p
        while a and a[-1] == 0:
            a.pop()
    return fp_trim(q, p), fp_trim(a, p)


def fp_monic(a, p: int) -> tuple[int, ...]:
    a = fp_trim(a, p)
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return fp_trim([c * inv for c in a], p)


def fp_from_string(a: str, p: int) -> tuple[int, ...]:
    """Tiny parser for tests: '1', 'v', 'v^2', 'v^2+1', '2*v+1'."""
    coeffs: dict[int, int] = {}
    for term in a.replace("-", "+-").split("+"):
        term = term.strip()
        if not term:
            continue
        sign = 1
        if term.startswith("-"):
            sign = -1
            term = term[1:]
        if "v" not in term:
            coeffs[0] = coeffs.get(0, 0) + sign * int(term)
            continue
        mult, _, rest = term.partition("v")
        mult = mult.rstrip("*").strip()
        c = sign * (int(mult) if mult else 1)
        e = int(rest[1:]) if rest.startswith("^") else 1
        coeffs[e] = coeffs.get(e, 0) + c
    out = [0] * (max(coeffs) + 1 if coeffs else 0)
    for e, c in coeffs.items():
        out[e] = c
    return fp_trim(out, p)


class FpPolyMatrix(Frozen):
    """Matrix with entries in F_p[v]; `laurent` makes powers of v units."""

    _fields = ("p", "rows", "cols", "entries", "laurent")

    def __init__(
        self, p: int, rows: int, cols: int, entries: tuple[tuple[tuple[int, ...], ...], ...],
        laurent: bool = False,
    ):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "laurent", laurent)

    @classmethod
    def from_rows(cls, p: int, rows, cols: int | None = None, laurent: bool = False):
        conv = []
        for row in rows:
            conv.append(tuple(fp_trim(e, p) if not isinstance(e, str) else fp_from_string(e, p) for e in row))
        rows_t = tuple(conv)
        if cols is None:
            if not rows_t:
                raise ExactLinalgError("empty matrix needs an explicit column count")
            cols = len(rows_t[0])
        return cls(p=p, rows=len(rows_t), cols=cols, entries=rows_t, laurent=laurent)


def laurent_normalize(a, p: int) -> tuple[int, ...]:
    """Strip the v^k factor (a unit in F_p[v, v^-1]) and make monic."""
    a = fp_trim(a, p)
    if not a:
        return a
    k = 0
    while a[k] == 0:
        k += 1
    return fp_monic(a[k:], p)


def snf_fp_poly(M: FpPolyMatrix) -> tuple[tuple[int, ...], ...]:
    """Invariant-factor list over the Euclidean ring F_p[v].

    Returned divisors are monic and satisfy d_1 | d_2 | ...; in Laurent mode
    each divisor is additionally normalized by its v^k unit factor.
    """
    p = M.p
    A = [[e for e in row] for row in M.entries]
    nr, nc = M.rows, M.cols
    divisors = []
    k = 0
    while k < min(nr, nc):
        if not any(A[i][j] for i in range(k, nr) for j in range(k, nc)):
            break
        guard = 0
        while True:
            guard += 1
            if guard > 10000:
                raise ExactLinalgError("snf_fp_poly failed to terminate")
            # move a minimal-degree nonzero entry to the pivot slot
            pi, pj, bd = None, None, None
            for i in range(k, nr):
                for j in range(k, nc):
                    if A[i][j] and (bd is None or fp_deg(A[i][j]) < bd):
                        pi, pj, bd = i, j, fp_deg(A[i][j])
            A[k], A[pi] = A[pi], A[k]
            for row in A:
                row[k], row[pj] = row[pj], row[k]
            # reduce column and row by the pivot
            dirty = False
            for i in range(k + 1, nr):
                if A[i][k]:
                    q, r = fp_divmod(A[i][k], A[k][k], p)
                    for j in range(nc):
                        A[i][j] = fp_sub(A[i][j], fp_mul(q, A[k][j], p), p)
                    if r:
                        dirty = True
            for j in range(k + 1, nc):
                if A[k][j]:
                    q, r = fp_divmod(A[k][j], A[k][k], p)
                    for i in range(nr):
                        A[i][j] = fp_sub(A[i][j], fp_mul(q, A[i][k], p), p)
                    if r:
                        dirty = True
            if dirty:
                continue
            # pivot now divides its row and column exactly; check the rest
            offender = None
            for i in range(k + 1, nr):
                for j in range(k + 1, nc):
                    if A[i][j] and fp_divmod(A[i][j], A[k][k], p)[1]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(nc):
                A[k][j] = fp_add(A[k][j], A[offender][j], p)
        divisors.append(A[k][k])
        k += 1
    if M.laurent:
        out = [laurent_normalize(d, p) for d in divisors]
    else:
        out = [fp_monic(d, p) for d in divisors]
    # divisibility audit
    for a, b in zip(out, out[1:]):
        if fp_divmod(b, a, p)[1]:
            raise ExactLinalgError("invariant factors out of order")
    return tuple(out)


# ---------------------------------------------------------------------------
# polynomials with integer coefficients (for matrices over Z_(p)[v])
# ---------------------------------------------------------------------------


def zp_trim(a) -> tuple[int, ...]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def zp_add(a, b) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return zp_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def zp_sub(a, b) -> tuple[int, ...]:
    return zp_add(a, tuple(-c for c in b))


def zp_mul(a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return zp_trim(out)


def zp_poly_det(rows: list[list[tuple[int, ...]]]) -> tuple[int, ...]:
    """Determinant of a small square matrix over Z[v] (Laplace expansion)."""
    n = len(rows)
    if n == 0:
        return (1,)

    cache: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]] = {}

    def minor(rset: tuple[int, ...], cset: tuple[int, ...]) -> tuple[int, ...]:
        if not rset:
            return (1,)
        key = (rset, cset)
        if key in cache:
            return cache[key]
        i = rset[0]
        rest = rset[1:]
        acc: tuple[int, ...] = ()
        for idx, j in enumerate(cset):
            a = rows[i][j]
            if not a:
                continue
            sub = minor(rest, cset[:idx] + cset[idx + 1 :])
            term = zp_mul(a, sub)
            acc = zp_add(acc, term) if idx % 2 == 0 else zp_sub(acc, term)
        cache[key] = acc
        return acc

    return minor(tuple(range(n)), tuple(range(n)))
