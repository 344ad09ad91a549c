"""Exact linear algebra over the p-local integers and over F_p[v].

Everything here works with plain Python big integers; no floating point
anywhere.  A matrix over Z_(p) (integers localized at the prime p) is stored
with integer entries, and the prime-to-p part of any entry is treated as a
unit.  Smith normal form over Z_(p) therefore only has to track p-valuations,
which is what `snf_p_local` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


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


def unit_part(x: int, p: int) -> int:
    """x / p^{v_p(x)}; the part of x that is invertible in Z_(p)."""
    return x // p ** pvaluation(x, p)


# ---------------------------------------------------------------------------
# integer matrices over Z_(p)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PLocalMatrix:
    """An integer matrix regarded over Z_(p)."""

    p: int
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
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
        rows = tuple(tuple(_integral(x) for x in row) for row in rows)
        if cols is None:
            if not rows:
                raise ExactLinalgError("empty matrix needs an explicit column count")
            cols = len(rows[0])
        return cls(p=p, rows=len(rows), cols=cols, entries=rows)

    @classmethod
    def from_columns(cls, p: int, columns, rows: int) -> "PLocalMatrix":
        columns = [tuple(_integral(x) for x in col) for col in columns]
        for col in columns:
            if len(col) != rows:
                raise ExactLinalgError("column length mismatch")
        ents = tuple(tuple(col[i] for col in columns) for i in range(rows))
        return cls(p=p, rows=rows, cols=len(columns), entries=ents)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i][j] for i in range(self.rows))


def _integral(x) -> int:
    """x as an int; a non-integral entry is an error, never truncated."""
    if isinstance(x, int):
        return x
    f = Fraction(x)
    if f.denominator != 1:
        raise ExactLinalgError(f"matrix entry {x} is not an integer")
    return f.numerator


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_vec(m: list[list[int]], v) -> list:
    return [sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m))]


@dataclass(frozen=True)
class SNFResult:
    """U * M * V is diagonal; diagonal entry i is an associate of p^exponents[i].

    U and V have integer entries and determinants prime to p, so both are
    invertible over Z_(p).  `exponents` is sorted ascending, which encodes the
    divisibility chain p^{e_1} | p^{e_2} | ...
    """

    p: int
    rows: int
    cols: int
    diag: tuple[int, ...]
    exponents: tuple[int, ...]
    U: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.diag)

    def cokernel(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, torsion exponents) of coker(M : Z^cols -> Z^rows)."""
        free = self.rows - self.rank
        torsion = tuple(e for e in self.exponents if e >= 1)
        return free, torsion


def snf_p_local(M: PLocalMatrix) -> SNFResult:
    """Smith normal form over Z_(p).

    Pivot rule: entry of minimal p-valuation, ties broken by lowest (row, col).
    Clearing an entry b with pivot a = u*p^a uses the integer row operation
        row_i <- u*row_i - w*p^{beta-alpha}*row_k      (b = w*p^beta),
    which is invertible over Z_(p) because u is a unit.  Since the pivot has
    minimal valuation in the remaining submatrix, the exponents come out
    ascending and the divisibility chain holds automatically.
    """
    p = M.p
    nr, nc = M.rows, M.cols
    A = [list(row) for row in M.entries]
    U = _identity(nr)
    V = _identity(nc)
    diag: list[int] = []
    k = 0
    while k < min(nr, nc):
        pivot = None
        best = None
        for i in range(k, nr):
            for j in range(k, nc):
                if A[i][j]:
                    val = pvaluation(A[i][j], p)
                    if best is None or val < best:
                        best = val
                        pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != k:
            A[k], A[pi] = A[pi], A[k]
            U[k], U[pi] = U[pi], U[k]
        if pj != k:
            for row in A:
                row[k], row[pj] = row[pj], row[k]
            for row in V:
                row[k], row[pj] = row[pj], row[k]
        a = A[k][k]
        alpha = pvaluation(a, p)
        ua = a // p**alpha
        for i in range(k + 1, nr):
            b = A[i][k]
            if b:
                f = unit_part(b, p) * p ** (pvaluation(b, p) - alpha)
                for j in range(nc):
                    A[i][j] = ua * A[i][j] - f * A[k][j]
                for j in range(nr):
                    U[i][j] = ua * U[i][j] - f * U[k][j]
        for j in range(k + 1, nc):
            b = A[k][j]
            if b:
                f = unit_part(b, p) * p ** (pvaluation(b, p) - alpha)
                for i in range(nr):
                    A[i][j] = ua * A[i][j] - f * A[i][k]
                for i in range(nc):
                    V[i][j] = ua * V[i][j] - f * V[i][k]
        diag.append(A[k][k])
        k += 1
    exponents = tuple(pvaluation(d, p) for d in diag)
    if list(exponents) != sorted(exponents):
        raise ExactLinalgError("SNF diagonal is not a divisibility chain")
    return SNFResult(
        p=p,
        rows=nr,
        cols=nc,
        diag=tuple(diag),
        exponents=exponents,
        U=tuple(tuple(r) for r in U),
        V=tuple(tuple(r) for r in V),
    )


def membership(M: PLocalMatrix, b) -> tuple[Fraction, ...] | None:
    """Solve M x = b over Z_(p); returns x (denominators prime to p) or None.

    b may contain ints or Fractions whose denominators are prime to p.
    """
    p = M.p
    b = [Fraction(x) for x in b]
    for x in b:
        if x.denominator % p == 0:
            raise ExactLinalgError("target vector is not p-local")
    if len(b) != M.rows:
        raise ExactLinalgError("length of b does not match row count")
    snf = snf_p_local(M)
    c = _mat_vec([list(r) for r in snf.U], b)
    y = [Fraction(0)] * M.cols
    for i, d in enumerate(snf.diag):
        yi = c[i] / d
        if yi.denominator % p == 0:
            return None
        y[i] = yi
    for i in range(len(snf.diag), M.rows):
        if c[i] != 0:
            return None
    x = _mat_vec([list(r) for r in snf.V], y)
    # exactness audit
    for i in range(M.rows):
        if sum(Fraction(M.entries[i][j]) * x[j] for j in range(M.cols)) != b[i]:
            raise ExactLinalgError("internal SNF inconsistency")
    return tuple(x)


def sparse_matrix(p: int, columns, target=None) -> tuple[PLocalMatrix, list]:
    """The matrix whose columns are the sparse vectors `columns`.

    Each vector is a dict from coordinate to integer; the rows are the sorted
    union of the nonzero coordinates of the columns and of `target`, and are
    returned with the matrix.
    """
    coords = sorted({k for vec in (*columns, target or {}) for k, c in vec.items() if c})
    dense = [[vec.get(k, 0) for k in coords] for vec in columns]
    return PLocalMatrix.from_columns(p, dense, rows=len(coords)), coords


def solve_sparse(p: int, columns, target) -> tuple[Fraction, ...] | None:
    """Solve sum_j x_j columns[j] = target over Z_(p) on sparse vectors.

    Vectors are dicts from coordinate to integer, as in `sparse_matrix`.
    Returns `membership`'s x, or None when target is not in the span.
    """
    if not any(target.values()):
        return (Fraction(0),) * len(columns)
    if not columns:
        return None
    A, coords = sparse_matrix(p, columns, target)
    return membership(A, [target.get(k, 0) for k in coords])


def kernel_basis(M: PLocalMatrix) -> list[tuple[int, ...]]:
    """Integer vectors spanning {x : Mx = 0} over Z_(p)."""
    snf = snf_p_local(M)
    out = []
    for j in range(snf.rank, M.cols):
        out.append(tuple(snf.V[i][j] for i in range(M.cols)))
    return out


def det_int(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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


@dataclass(frozen=True)
class FpPolyMatrix:
    """Matrix with entries in F_p[v]; `laurent` makes powers of v units."""

    p: int
    rows: int
    cols: int
    entries: tuple[tuple[tuple[int, ...], ...], ...]
    laurent: bool = False

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


def zp_gauss_valuation(a, p: int) -> int:
    """min_i v_p(coeff_i): the p-valuation of a in Z_(p)[v] localized at (p)."""
    if not a:
        raise ExactLinalgError("valuation of zero is undefined")
    return min(pvaluation(c, p) for c in a if c)


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
