"""Elimination over the p-local integers, checked against minor-gcd oracles."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rostcalc.exact_linalg import (
    ExactLinalgError,
    FpPolyMatrix,
    PLocalMatrix,
    SpanSolver,
    fp_divmod,
    fp_from_string,
    fp_mul,
    is_prime,
    kernel_basis,
    laurent_normalize,
    membership,
    pvaluation,
    snf_fp_poly,
    snf_p_local,
    _factor,
)
from rostcalc.graded import DegreeComponent, GradedFPModule, normalize

PRIMES = (2, 3, 5)


def cokernel_of(res) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion exponents) of coker(M : Z^cols -> Z^rows), read off its SNF."""
    return res.rows - res.rank, tuple(e for e in res.exponents if e)


def unit_part(x: int, p: int) -> int:
    """x / p^{v_p(x)}; the part of x that is invertible in Z_(p)."""
    return x // p ** pvaluation(x, p)


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


def minor_valuations(rows, p):
    """Expected SNF valuations via gcds of k-by-k minors (the classical oracle)."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    vals = []
    prev = 0
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rset in itertools.combinations(range(nr), k):
            for cset in itertools.combinations(range(nc), k):
                sub = [[rows[i][j] for j in cset] for i in rset]
                g = math.gcd(g, det_int(sub))
        if g == 0:
            break
        v = pvaluation(g, p)
        vals.append(v - prev)
        prev = v
    return tuple(vals)


def random_matrix(rng, max_dim=5, lo=-9, hi=9):
    nr = rng.randint(1, max_dim)
    nc = rng.randint(1, max_dim)
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


def test_pvaluation_and_units():
    assert pvaluation(24, 2) == 3
    assert pvaluation(24, 3) == 1
    assert unit_part(24, 2) == 3
    assert unit_part(-8, 2) == -1
    with pytest.raises(ExactLinalgError):
        pvaluation(0, 2)


def test_is_prime_small():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_snf_known_example():
    M = PLocalMatrix.from_rows(2, [[2, 4], [6, 8]])
    res = snf_p_local(M)
    assert res.exponents == (1, 2)
    assert cokernel_of(res) == (0, (1, 2))


def test_snf_rectangular_and_zero():
    res = snf_p_local(PLocalMatrix.from_rows(3, [[0, 0], [0, 0], [0, 0]]))
    assert res.rank == 0
    assert cokernel_of(res) == (3, ())  # three generators, no relations
    res = snf_p_local(PLocalMatrix.from_rows(3, [[3, 0, 0]]))
    assert res.exponents == (1,)


def test_snf_units_are_invisible():
    # entries coprime to p act as units, so 7 is invertible 2-locally
    res = snf_p_local(PLocalMatrix.from_rows(2, [[7, 0], [0, 14]]))
    assert res.exponents == (0, 1)
    assert cokernel_of(res) == (0, (1,))


def test_snf_oracle_random_batch():
    rng = random.Random(20240823)
    checked = 0
    for _ in range(210):
        rows = random_matrix(rng)
        p = rng.choice(PRIMES)
        res = snf_p_local(PLocalMatrix.from_rows(p, rows))
        assert res.exponents == minor_valuations(rows, p), (rows, p)
        checked += 1
    assert checked >= 200


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
    st.sampled_from(PRIMES),
)
def test_snf_matches_minor_oracle(nr, nc, rng, p):
    rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
    res = snf_p_local(PLocalMatrix.from_rows(p, rows))
    assert res.exponents == minor_valuations(rows, p)


@given(st.randoms(use_true_random=False), st.sampled_from(PRIMES))
def test_snf_invariant_under_unimodular_rows(rng, p):
    rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    before = snf_p_local(PLocalMatrix.from_rows(p, rows)).exponents
    # an elementary row operation keeps the module presented by the columns
    i, k = rng.sample(range(3), 2)
    c = rng.randint(-4, 4)
    rows[i] = [a + c * b for a, b in zip(rows[i], rows[k])]
    after = snf_p_local(PLocalMatrix.from_rows(p, rows)).exponents
    assert before == after


def test_membership_exact_solution():
    M = PLocalMatrix.from_rows(3, [[3, 0], [0, 9]])
    sol = membership(M, [6, 9])
    assert sol is not None
    # verify the certificate reconstructs b
    for i in range(2):
        assert sum(Fraction(M.entries[i][j]) * sol[j] for j in range(2)) == [6, 9][i]


def test_membership_p_local_denominators_allowed():
    # 2 generates the same 3-local module as 1 does
    M = PLocalMatrix.from_rows(3, [[2]])
    sol = membership(M, [1])
    assert sol == (Fraction(1, 2),)


def test_membership_failure():
    M = PLocalMatrix.from_rows(3, [[3]])
    assert membership(M, [1]) is None
    assert membership(M, [3]) is not None


@given(st.randoms(use_true_random=False), st.sampled_from(PRIMES))
def test_membership_of_column_combinations(rng, p):
    rows = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
    M = PLocalMatrix.from_rows(p, rows)
    coeffs = [rng.randint(-3, 3) for _ in range(3)]
    b = [sum(rows[i][j] * coeffs[j] for j in range(3)) for i in range(3)]
    sol = membership(M, b)
    assert sol is not None
    for i in range(3):
        assert sum(Fraction(rows[i][j]) * sol[j] for j in range(3)) == b[i]


def test_matrix_entries_must_be_integral():
    # a p-local fraction is a unit multiple, not an entry to truncate
    with pytest.raises(ExactLinalgError, match="not an integer"):
        PLocalMatrix.from_rows(3, [[Fraction(1, 2), Fraction(5, 2)]])
    with pytest.raises(ExactLinalgError, match="not an integer"):
        PLocalMatrix.from_rows(3, [[1], [Fraction(7, 3)]])
    M = PLocalMatrix.from_rows(3, [[Fraction(4, 2), Fraction(-9, 3)]])
    assert M.entries == ((2, -3),)
    assert PLocalMatrix.from_rows(3, [[Fraction(6, 3)]]).entries == ((2,),)


@given(st.randoms(use_true_random=False), st.sampled_from(PRIMES))
def test_span_solve_reproduces_targets_in_the_span(rng, p):
    coords = [("y", k) for k in range(4)]
    cols = [{c: rng.randint(-6, 6) for c in rng.sample(coords, 2)} for _ in range(3)]
    coeffs = [rng.randint(-3, 3) for _ in cols]
    target = {c: sum(a * col.get(c, 0) for a, col in zip(coeffs, cols)) for c in coords}
    x = SpanSolver(p, cols).solve(target)
    assert x is not None
    assert all(xj.denominator % p for xj in x)
    for c in coords:
        assert sum(xj * col.get(c, 0) for xj, col in zip(x, cols)) == target[c]


def test_span_solve_edge_cases():
    cols = [{(0, 1): 3}, {(0, 1): 1, (2, 0): 1}]
    assert SpanSolver(3, cols).solve({(0, 1): 1}) is None  # out of span: needs 1/3
    assert SpanSolver(3, cols).solve({(0, 1): 6}) is not None
    assert SpanSolver(3, cols).solve({}) == (0, 0)
    assert SpanSolver(3, cols).solve({(2, 0): 0}) == (0, 0)
    assert SpanSolver(3, []).solve({}) == ()
    assert SpanSolver(3, []).solve({(0, 1): 1}) is None
    # a coordinate that no column has
    assert SpanSolver(3, cols).solve({(0, 1): 3, (5, 5): 1}) is None


def solve_the_old_way(p, cols, target):
    """`membership` on the matrix built for this one target: the rows are the
    sorted union of the nonzero coordinates of the columns and the target."""
    if not any(target.values()):
        return (Fraction(0),) * len(cols)
    if not cols:
        return None
    coords = sorted({k for vec in (*cols, target) for k, c in vec.items() if c})
    M = PLocalMatrix.from_rows(p, [[vec.get(k, 0) for vec in cols] for k in coords])
    return membership(M, [target.get(k, 0) for k in coords])


def in_span_by_invariants(p, cols, target) -> bool:
    """b is in the column span of M exactly when [M | b] has the cokernel of M
    (a surjection of isomorphic finitely generated modules is injective)."""
    coords = sorted({k for vec in (*cols, target) for k, c in vec.items() if c})
    if not coords:
        return True

    def cokernel(vectors):
        M = PLocalMatrix.from_rows(p, [[v.get(k, 0) for v in vectors] for k in coords],
                                   cols=len(vectors))
        exps = SpanSolver.of(M).exponents()
        return len(coords) - len(exps), tuple(e for e in exps if e)

    return cokernel(cols) == cokernel([*cols, target])


@pytest.mark.parametrize("p", PRIMES + (7,))
@pytest.mark.parametrize("seed", range(12))
def test_factored_span_answers_every_target_as_the_per_target_build(p, seed):
    rng = random.Random(f"span:{p}:{seed}")
    pool = [("y", k) for k in range(6)]
    entry = (1, -1, p, 2 * p, p * p)
    cols = [
        {c: rng.choice((*entry, rng.randint(-9, 9))) for c in rng.sample(pool, rng.randint(1, 3))}
        for _ in range(rng.randint(0, 5))
    ]

    def combination():
        coeffs = [rng.randint(-3, 3) for _ in cols]
        out = {}
        for a, col in zip(coeffs, cols):
            for c, x in col.items():
                out[c] = out.get(c, 0) + a * x
        return out

    targets = [{}, {pool[0]: 0}]
    for _ in range(6):
        comb = combination()
        targets.append(comb)
        targets.append({c: p * x for c, x in comb.items()})
        targets.append({**comb, ("z", 0): rng.choice((1, p))})  # outside every column
        targets.append({c: rng.randint(-4, 4) for c in rng.sample(pool, 2)})
    span = SpanSolver(p, cols)
    for target in targets:
        x = span.solve(target)
        assert x == solve_the_old_way(p, cols, target), target
        assert (x is not None) == span.contains(target) == in_span_by_invariants(p, cols, target)
        if x is not None:
            X, D = span.solve_int(target)
            assert x == tuple(Fraction(t, D) for t in X) and D % p
            for c in set(target) | {k for col in cols for k in col}:
                assert sum(xj * col.get(c, 0) for xj, col in zip(x, cols)) == target.get(c, 0)


def test_factored_dense_span_matches_membership():
    rng = random.Random("span:dense")
    for p in PRIMES:
        rows = [[rng.choice((0, 0, 1, -1, p, rng.randint(-9, 9))) for _ in range(4)]
                for _ in range(5)]
        M = PLocalMatrix.from_rows(p, rows)
        span = SpanSolver.of(M)
        for _ in range(20):
            b = [rng.randint(-5, 5) for _ in range(5)]
            if rng.random() < 0.5:
                coeffs = [rng.randint(-3, 3) for _ in range(4)]
                b = [sum(a * t for a, t in zip(row, coeffs)) for row in rows]
            assert span.solve(dict(enumerate(b))) == membership(M, b)


def test_columns_given_as_an_iterator_are_read_once():
    cols = [{0: 1}, {1: 3}, {0: 2, 2: 5}]
    listed, once = SpanSolver(3, cols), SpanSolver(3, iter(cols))
    assert once.columns == listed.columns and once.rank == listed.rank == 3
    for target in ({0: 1}, {1: 1}, {1: 3}, {0: 2, 1: 3, 2: 5}, {3: 1}, {}):
        assert once.solve(target) == listed.solve(target)
    assert SpanSolver(3, iter([{0: 1}, {1: 3}])).contains({0: 1})


def test_solvers_over_one_positional_matrix_share_one_factorisation():
    rename = {"x": ("u", 0), "y": ("u", 1), "z": ("u", 2), "w": "w"}  # the same sorted order
    cols = [{"x": 1, "y": 3}, {"y": 2, "z": 6}, {"x": 9, "z": 1}, {"y": 3}]
    targets = [{}, {"x": 1}, {"y": 3}, {"x": 1, "y": 5, "z": 7}, {"z": 3}, {"w": 1}]
    renamed, renamed_targets = ([{rename[k]: c for k, c in v.items()} for v in vs]
                                for vs in (cols, targets))
    _factor.cache_clear()
    first, second = SpanSolver(3, cols), SpanSolver(3, renamed)
    assert (_factor.cache_info().hits, _factor.cache_info().misses) == (1, 1)
    assert second.R is first.R and second.ucols is first.ucols and second.above is first.above
    answers = [first.solve_int(t) for t in targets] + [first.kernel_vectors()]
    assert answers[5] is None and None not in answers[:5]
    _factor.cache_clear()
    fresh = SpanSolver(3, renamed)
    assert fresh.R is not first.R
    assert (fresh.R, fresh.ucols, fresh.perm, fresh.rank, fresh.above, fresh.pivot_pe,
            fresh.exponents()) == (first.R, first.ucols, first.perm, first.rank, first.above,
                                   first.pivot_pe, first.exponents())
    # answering leaves the shared factorisation as a fresh build has it
    for span, asked in ((first, targets), (second, renamed_targets), (fresh, renamed_targets)):
        assert [span.solve_int(t) for t in asked] + [span.kernel_vectors()] == answers
    # a matrix that differs in one entry is factored anew
    assert SpanSolver(3, [*cols[:3], {"y": 6}]).R is not fresh.R
    assert (_factor.cache_info().hits, _factor.cache_info().misses) == (0, 2)
    # a degree's normal form and a solve against its dense relation matrix
    M = GradedFPModule(3, {4: DegreeComponent(3, [{0: 3, 1: 3}, {1: 9}])}, (4, 4))
    _factor.cache_clear()
    assert normalize(M).at(4) == (1, (1, 2))
    assert membership(M.relation_matrix(4), [3, 12, 0]) == (1, 1)
    assert (_factor.cache_info().hits, _factor.cache_info().misses) == (1, 1)


def test_a_column_entry_outside_the_coords_is_refused():
    with pytest.raises(ExactLinalgError, match="column entry at 5, outside coords"):
        SpanSolver(3, [{0: 1, 5: 2}], range(2))
    # a zero there is no entry; a target entry outside the coords is off the span
    span = SpanSolver(3, [{0: 1, 5: 0}], range(2))
    assert span.contains({0: 2}) and span.solve({5: 1}) is None


def test_a_repeated_coordinate_is_refused():
    with pytest.raises(ExactLinalgError, match="coordinate 0 repeated in coords"):
        SpanSolver(3, [{1: 1}], coords=[0, 0, 1])
    with pytest.raises(ExactLinalgError, match="coordinate 'a' repeated in coords"):
        SpanSolver(3, [{"a": 1}], coords=["a", "b", "a"])


def test_a_corrupted_back_solve_fails_the_exactness_audit(monkeypatch):
    back_solve = SpanSolver.back_solve

    def corrupted(self, c):
        Y, D = back_solve(self, c)  # Y: position -> nonzero entry
        return {**Y, 0: Y.get(0, 0) + 1}, D

    monkeypatch.setattr(SpanSolver, "back_solve", corrupted)
    M = PLocalMatrix.from_rows(3, [[1, 0], [0, 3]])
    with pytest.raises(ExactLinalgError, match=r"exactness audit failed: M x != b"):
        membership(M, [1, 3])
    with pytest.raises(ExactLinalgError, match=r"exactness audit failed: M x != b"):
        SpanSolver(3, [{"a": 1}, {"b": 3}]).contains({"a": 2})
    with pytest.raises(ExactLinalgError, match=r"exactness audit failed: M x != b"):
        SpanSolver(3, [{"a": 1}]).solve({})
    # a target off the span never reaches back_solve
    assert membership(M, [0, 1]) is None


class DenseOracle:
    """The dense transform path `SpanSolver` replaced, kept as its oracle:
    elimination of [M | I] on full rows, then back-substitution over every
    pivot row, with the same pivot rule and the same content divisions.
    `events` counts the steps where the sparse path must update its column
    index: a swap of two rows, an entry filled in and one cancelled (other
    than the one in the pivot column)."""

    def __init__(self, M: PLocalMatrix):
        p, nr, nc = M.p, M.rows, M.cols
        A = [list(row) for row in M.entries]
        U = [[int(i == j) for j in range(nr)] for i in range(nr)]
        perm, k, self.events = list(range(nc)), 0, Counter()
        while k < min(nr, nc):
            best = pivot = None
            for i in range(k, nr):
                for j in range(k, nc):
                    if x := A[i][j]:
                        val = pvaluation(x, p) if x % p == 0 else 0
                        if best is None or val < best:
                            best, pivot = val, (i, j)
                            if val == 0:
                                break
                if best == 0:
                    break
            if pivot is None:
                break
            pi, pj = pivot
            self.events["swap"] += pi != k
            A[k], A[pi], U[k], U[pi] = A[pi], A[k], U[pi], U[k]
            for row in A:
                row[k], row[pj] = row[pj], row[k]
            perm[k], perm[pj] = perm[pj], perm[k]
            pe = p**best
            ua = A[k][k] // pe
            for i in range(k + 1, nr):
                if b := A[i][k]:
                    both = [ua * x - b // pe * y for x, y in zip(A[i] + U[i], A[k] + U[k])]
                    g = math.gcd(*both)
                    while g and g % p == 0:
                        g //= p
                    both = [x // g for x in both]
                    for x, y in zip(A[i][k + 1 :], both[k + 1 : nc]):
                        self.events["fill-in"] += not x and bool(y)
                        self.events["cancel"] += bool(x) and not y
                    A[i], U[i] = both[:nc], both[nc:]
            k += 1
        self.M, self.R, self.U, self.perm, self.rank = M, A, U, perm, k

    def back_solve(self, c):
        R, r = self.R, self.rank
        Y, D = [0] * len(self.perm), 1
        for i in reversed(range(r)):
            d = R[i][i]
            Y[i] = c[i] * D - sum(a * t for a, t in zip(R[i][i + 1 : r], Y[i + 1 : r]))
            Y[i + 1 : r] = [t * d for t in Y[i + 1 : r]]
            D *= d
            g = math.gcd(D, *Y[i:r])
            D, Y[i:r] = D // g, [t // g for t in Y[i:r]]
        return ([-t for t in Y], -D) if D < 0 else (Y, D)

    def lift(self, Y, D):
        x = [0] * len(Y)
        for pos, col in enumerate(self.perm):
            x[col] = Y[pos]
        g = math.gcd(*x)
        while g % self.M.p == 0:
            g //= self.M.p
        return Fraction(D, g), [t // g for t in x]

    def kernel_vectors(self):
        out = []
        for j in range(self.rank, len(self.perm)):
            Y, D = self.back_solve([-row[j] for row in self.R])
            Y[j] = D
            out.append(tuple(self.lift(Y, D)[1]))
        return out

    def solve_int(self, b):
        c = [sum(u * v for u, v in zip(row, b)) for row in self.U]
        pes = [self.M.p ** pvaluation(self.R[i][i], self.M.p) for i in range(self.rank)]
        if any(c[self.rank :]) or any(t % pe for t, pe in zip(c, pes)):
            return None
        Y, D = self.back_solve(c)
        X = [0] * self.M.cols
        for j, t in zip(self.perm, Y):
            X[j] = t
        return X, D


def monomial_rows(rng, p, nr, nc):
    """One nonzero per column, in a random row: 1, p, p^2 or a unit other than 1."""
    unit = rng.choice([u for u in range(2, 3 * p) if u % p])
    rows = [[0] * nc for _ in range(nr)]
    for j in range(nc):
        rows[rng.randrange(nr)][j] = rng.choice((1, -1)) * rng.choice((1, p, p * p, unit))
    return rows


def index_rows(rng, p, nr, nc):
    """Rows that take the column index through its three updates.  Row 0 has
    no unit, so the first pivot row swaps in from below; the others are
    variants of one row with a unit, so clearing with it fills in the columns
    a row lacks and cancels most of those it shares."""
    lead = [rng.choice((0, 1, -1)) for _ in range(nc)]
    lead[rng.randrange(nc)] = 1
    rows = [[p * rng.choice((0, 1, 2)) for _ in range(nc)]]
    for _ in range(nr - 1):
        rows.append([x if rng.random() < 0.6 else rng.choice((0, 1, p)) for x in lead])
    return rows


def test_index_rows_swap_fill_in_and_cancel():
    for p in PRIMES:
        events = Counter()
        for seed in range(10):
            M = PLocalMatrix.from_rows(p, index_rows(random.Random(f"index:{p}:{seed}"), p, 5, 6))
            span, dense = SpanSolver.of(M), DenseOracle(M)
            assert (span.perm, span.rank) == (dense.perm, dense.rank)
            assert [[row.get(j, 0) for j in range(6)] for row in span.R] == dense.R[: dense.rank]
            events += dense.events
        assert events["swap"] and events["fill-in"] and events["cancel"], (p, events)


@given(
    st.integers(1, 7),
    st.integers(1, 9),
    st.sampled_from(("dense", "monomial", "index")),
    st.randoms(use_true_random=False),
    st.sampled_from(PRIMES),
)
def test_sparse_solver_matches_the_dense_oracle(nr, nc, kind, rng, p):
    # the same factorisation, and the same integers from every back-solve:
    # solutions, kernel vectors and the snf_p_local transforms
    if kind == "monomial":
        rows = monomial_rows(rng, p, nr, nc)
    elif kind == "index":
        rows = index_rows(rng, p, nr, nc)
    else:
        rows = [[rng.choice((0, 0, 1, -1, p, p * p, rng.randint(-20, 20))) for _ in range(nc)]
                for _ in range(nr)]
    M = PLocalMatrix.from_rows(p, rows, cols=nc)
    span, dense = SpanSolver.of(M), DenseOracle(M)
    assert (span.perm, span.rank) == (dense.perm, dense.rank)
    assert [[row.get(j, 0) for j in range(nc)] for row in span.R] == dense.R[: dense.rank]
    kernel = kernel_basis(M)
    assert kernel == dense.kernel_vectors()
    assert len(kernel) == nc - dense.rank
    for vec in kernel:
        assert all(sum(a * t for a, t in zip(row, vec)) == 0 for row in rows)
    res = snf_p_local(M)
    lifts = [dense.lift(*dense.back_solve([int(i == t) for t in range(nr)]))
             for i in range(dense.rank)]
    assert res.U == tuple(map(tuple, dense.U))
    assert res.diag == tuple(s.numerator for s, _ in lifts)
    assert res.V == tuple(zip(*[x for _, x in lifts], *dense.kernel_vectors()))
    targets = [[rng.randint(-3, 3) for _ in range(nr)] for _ in range(4)]
    for _ in range(4):
        coeffs = [rng.randint(-3, 3) for _ in range(nc)]
        targets.append([sum(a * t for a, t in zip(row, coeffs)) for row in rows])
    targets += [[p * t for t in b] for b in targets[4:]]
    for b in targets:
        sol = dense.solve_int(b)
        assert span.solve_int(dict(enumerate(b))) == sol
        assert span.solve(dict(enumerate(b))) == (
            None if sol is None else tuple(Fraction(t, sol[1]) for t in sol[0])
        )


def test_kernel_basis_annihilates():
    M = PLocalMatrix.from_rows(2, [[1, 2, 3], [2, 4, 6]])
    basis = kernel_basis(M)
    assert basis  # rank 1, so a 2-dimensional kernel
    for vec in basis:
        for i in range(2):
            assert sum(M.entries[i][j] * vec[j] for j in range(3)) == 0


def test_det_int():
    assert det_int([[2, 1], [1, 2]]) == 3
    assert det_int([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


# --- polynomial matrices over F_p -----------------------------------------


def test_fp_poly_parsing_and_arithmetic():
    a = fp_from_string("v^2+1", 2)
    assert a == (1, 0, 1)
    assert fp_mul(a, (1, 1), 2) == (1, 1, 1, 1)
    q, r = fp_divmod((1, 0, 1), (1, 1), 2)
    assert r == ()  # v^2+1 = (v+1)^2 over F_2
    assert q == (1, 1)
    _, r = fp_divmod((1, 0, 1), (1, 1), 3)
    assert r == (2,)  # irreducible over F_3, so a nonzero remainder


def test_fp_poly_snf_example():
    M = FpPolyMatrix.from_rows(2, [[(0, 1), (1,)], [(), (0, 1)]])
    assert snf_fp_poly(M) == ((1,), (0, 0, 1))  # diag(1, v^2)


def test_fp_poly_snf_diagonal_reorder():
    M = FpPolyMatrix.from_rows(3, [[(0, 0, 1), ()], [(), (0, 1)]])
    assert snf_fp_poly(M) == ((0, 1), (0, 0, 1))


def test_laurent_powers_of_v_are_units():
    assert laurent_normalize((0, 0, 1), 5) == (1,)
    M = FpPolyMatrix.from_rows(2, [[(0, 1)]], laurent=True)
    assert snf_fp_poly(M) == ((1,),)


# --- the two elimination paths at scale -------------------------------------


def planted_matrix(rng, p, n, exps):
    """M = L U D L' U' (n x n) with unit-triangular L, U, L', U' and
    D = diag(p^e for e in exps) padded with zeros: its SNF exponents over
    Z_(p) are `exps`.  Also returns L U, whose columns j >= len(exps) and
    columns j with exps[j] >= 1 are not in the p-local span of M."""

    def unit_triangular(lower):
        return [
            [1 if i == j else (rng.randint(-1, 1) if (i > j) == lower and i != j else 0)
             for j in range(n)]
            for i in range(n)
        ]

    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]

    D = [[p ** exps[i] if i == j and i < len(exps) else 0 for j in range(n)] for i in range(n)]
    P = mul(unit_triangular(True), unit_triangular(False))
    Q = mul(unit_triangular(True), unit_triangular(False))
    return mul(mul(P, D), Q), P


def assert_diagonalizes(rows, res):
    nr, nc = len(rows), len(rows[0])
    UM = [[sum(res.U[i][t] * rows[t][j] for t in range(nr)) for j in range(nc)] for i in range(nr)]
    for i in range(nr):
        for j in range(nc):
            want = res.diag[i] if i == j and i < res.rank else 0
            assert sum(UM[i][t] * res.V[t][j] for t in range(nc)) == want, (i, j)
    for d, e in zip(res.diag, res.exponents):
        assert pvaluation(d, res.p) == e


@pytest.mark.parametrize("p, n", [(2, 12), (3, 12), (5, 12), (3, 16)])
def test_planted_invariants_on_both_paths(p, n):
    rng = random.Random(f"planted:{p}:{n}")
    exps = sorted(rng.randint(0, 3) for _ in range(n - 2))
    rows, _ = planted_matrix(rng, p, n, exps)
    M = PLocalMatrix.from_rows(p, rows)
    assert SpanSolver.of(M).exponents() == tuple(exps)
    res = snf_p_local(M)
    assert res.exponents == tuple(exps)
    assert cokernel_of(res) == (2, tuple(e for e in exps if e))
    assert_diagonalizes(rows, res)
    for vec in kernel_basis(M):
        assert all(sum(r * x for r, x in zip(row, vec)) == 0 for row in rows)
    assert len(kernel_basis(M)) == 2


def test_planted_64_by_64_over_z3():
    rng = random.Random("planted:64")
    exps = sorted(rng.randint(0, 4) for _ in range(61))
    rows, P = planted_matrix(rng, 3, 64, exps)
    M = PLocalMatrix.from_rows(3, rows)
    assert SpanSolver.of(M).exponents() == tuple(exps)
    assert snf_p_local(M).exponents == tuple(exps)
    x = [rng.randint(-2, 2) for _ in range(64)]
    inside = [sum(a * t for a, t in zip(row, x)) for row in rows]
    sol = membership(M, inside)
    assert sol is not None and all(t.denominator % 3 for t in sol)
    assert all(sum(a * t for a, t in zip(row, sol)) == b for row, b in zip(rows, inside))
    unreached = next(j for j, e in enumerate(exps) if e >= 1)
    assert membership(M, [P[i][unreached] for i in range(64)]) is None


@pytest.mark.parametrize("p", PRIMES)
def test_membership_on_planted_16(p):
    rng = random.Random(f"member:{p}")
    exps = sorted(rng.randint(0, 3) for _ in range(15))
    rows, P = planted_matrix(rng, p, 16, exps)
    M = PLocalMatrix.from_rows(p, rows)
    x = [rng.randint(-3, 3) for _ in range(16)]
    inside = [sum(a * t for a, t in zip(row, x)) for row in rows]
    sol = membership(M, inside)
    assert sol is not None and all(t.denominator % p for t in sol)
    assert [sum(a * t for a, t in zip(row, sol)) for row in rows] == inside
    for j in range(16):
        target = [P[i][j] for i in range(16)]
        reached = j < len(exps) and exps[j] == 0
        assert (membership(M, target) is not None) == reached, j


def test_exponent_boundary_cases():
    M = PLocalMatrix.from_rows(3, [[1, 0], [0, 9]])
    assert SpanSolver.of(M).exponents() == (0, 2) == snf_p_local(M).exponents
    M = PLocalMatrix.from_rows(2, [[8]])
    assert SpanSolver.of(M).exponents() == (3,)
    # rank-deficient: a repeated row and a zero column
    rows = [[2, 4, 0], [2, 4, 0], [1, 3, 0]]
    M = PLocalMatrix.from_rows(2, rows)
    assert SpanSolver.of(M).exponents() == minor_valuations(rows, 2) == (0, 1)
    assert snf_p_local(M).rank == 2
    assert SpanSolver.of(PLocalMatrix.from_rows(5, [[0, 0], [0, 0]])).exponents() == ()
    assert SpanSolver.of(PLocalMatrix(p=5, rows=0, cols=3, entries=())).exponents() == ()


@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.randoms(use_true_random=False),
    st.sampled_from(PRIMES),
)
def test_exponents_path_matches_minor_oracle(nr, nc, rng, p):
    rows = [[rng.choice((0, 0, 1, -1, p, p * p, rng.randint(-30, 30))) for _ in range(nc)]
            for _ in range(nr)]
    M = PLocalMatrix.from_rows(p, rows)
    assert SpanSolver.of(M).exponents() == minor_valuations(rows, p)
    res = snf_p_local(M)
    assert res.exponents == minor_valuations(rows, p)
    assert_diagonalizes(rows, res)


@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=5),
    st.randoms(use_true_random=False),
    st.sampled_from(PRIMES),
)
def test_exponents_of_a_permuted_block_diagonal_matrix(shapes, rng, p):
    # blocks r x c: r x 0 and 0 x c blocks are zero rows and columns, 1 x 1
    # blocks are common, and random zeros split some blocks further
    entries = (0, 1, -1, p, -p, p * p, p**3, rng.randint(-20, 20))
    blocks = [[[rng.choice(entries) for _ in range(c)] for _ in range(r)] for r, c in shapes]
    nr, nc = sum(r for r, _ in shapes), sum(c for _, c in shapes)
    rows = [[0] * nc for _ in range(nr)]
    i0 = j0 = 0
    for (r, c), block in zip(shapes, blocks):
        for i, brow in enumerate(block):
            rows[i0 + i][j0 : j0 + c] = brow
        i0, j0 = i0 + r, j0 + c
    rperm, cperm = rng.sample(range(nr), nr), rng.sample(range(nc), nc)
    rows = [[rows[i][j] for j in cperm] for i in rperm]
    M = PLocalMatrix.from_rows(p, rows, cols=nc)
    T = PLocalMatrix.from_rows(p, [list(col) for col in zip(*rows)], cols=nr)
    union = tuple(sorted(e for block in blocks for e in minor_valuations(block, p)))
    assert SpanSolver.of(M).exponents() == union
    assert SpanSolver.of(T).exponents() == SpanSolver.of(M).exponents()


@given(
    st.lists(
        st.tuples(st.booleans(), st.lists(st.integers(0, 3), min_size=1, max_size=4)),
        min_size=1,
        max_size=4,
    ),
    st.integers(0, 2),
    st.integers(0, 2),
    st.randoms(use_true_random=False),
    st.sampled_from(PRIMES),
)
def test_exponents_of_one_row_and_one_column_blocks(lines, zero_rows, zero_cols, rng, p):
    # each block is one row (True) or one column (False) of entries u * p^v,
    # v as drawn and u a unit, beside zero rows and zero columns; its one
    # exponent is the least valuation, wherever in the block that entry sits
    units = [u for u in (1, -1, 2, -2, 3, 7) if u % p]
    blocks = []
    for is_row, vals in lines:
        line = [rng.choice(units) * p**v for v in vals]
        blocks.append([line] if is_row else [[x] for x in line])
    nr = sum(len(b) for b in blocks) + zero_rows
    nc = sum(len(b[0]) for b in blocks) + zero_cols
    rows = [[0] * nc for _ in range(nr)]
    i0 = j0 = 0
    for block in blocks:
        for i, brow in enumerate(block):
            rows[i0 + i][j0 : j0 + len(brow)] = brow
        i0, j0 = i0 + len(block), j0 + len(block[0])
    rperm, cperm = rng.sample(range(nr), nr), rng.sample(range(nc), nc)
    rows = [[rows[i][j] for j in cperm] for i in rperm]
    union = tuple(sorted(e for block in blocks for e in minor_valuations(block, p)))
    assert union == tuple(sorted(min(vals) for _, vals in lines))
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    assert SpanSolver(p, sparse).exponents() == union
    assert SpanSolver.of(PLocalMatrix.from_rows(p, rows, cols=nc)).exponents() == union
    T = [list(col) for col in zip(*rows)]
    assert SpanSolver.of(PLocalMatrix.from_rows(p, T, cols=nr)).exponents() == union
