"""Morava-side presentations: base change, localization, geometric filtration."""

import itertools
import random

import pytest

from rostcalc.catalog import bar_rost_ring, chow_rost_ring, km_rost
from rostcalc.exact_linalg import PLocalMatrix, SpanSolver, pvaluation, zp_poly_det, zp_trim
from rostcalc.graded import iso_equal, normalize
from rostcalc.km import (
    KmModuleError,
    KmPresentation,
    check_cor_3_5_second,
    gr_geometric,
    localize_v,
    slice_membership,
    to_chow,
    v_torsion_generators,
)


def km_quotient(M: KmPresentation, extra_rels) -> KmPresentation:
    return KmPresentation(p=M.p, m=M.m, gens=M.gens, rels=M.rels + tuple(extra_rels))


def rel_unit(M: KmPresentation, name: str, shift: int = 0, coeff: int = 1):
    """The relation coeff * v^shift * e_name, as its one term."""
    return (([nm for nm, _ in M.gens].index(name), coeff, shift),)


def test_homogeneity_enforced():
    with pytest.raises(KmModuleError):
        KmPresentation(p=2, m=1, gens=(("a", 0), ("b", 3)), rels=(((0, 1, 0), (1, 1, 0)),))
    # 1 + v on one generator spans two degrees; `localize_v` relies on
    # every entry being one term c * v^k
    with pytest.raises(KmModuleError, match="inhomogeneous"):
        KmPresentation(p=2, m=1, gens=(("a", 3),), rels=(((0, 1, 0), (0, 1, 1)),))


def test_malformed_terms_are_refused():
    gens = (("a", 0), ("b", 3))
    with pytest.raises(KmModuleError, match="names no generator"):
        KmPresentation(p=2, m=1, gens=gens, rels=(((2, 1, 0),),))
    with pytest.raises(KmModuleError, match="names no generator"):
        KmPresentation(p=2, m=1, gens=gens, rels=(((-1, 1, 0),),))
    with pytest.raises(KmModuleError, match="negative power of v"):
        KmPresentation(p=2, m=1, gens=gens, rels=(((0, 1, -1),),))
    with pytest.raises(KmModuleError, match="coefficient 0"):
        KmPresentation(p=2, m=1, gens=gens, rels=(((0, 0, 0),),))
    # two terms of one degree on one generator: `to_chow` and `graded_slice`
    # would keep only the last
    with pytest.raises(KmModuleError, match="named twice"):
        KmPresentation(p=2, m=1, gens=gens, rels=(((1, 2, 0), (1, 1, 0)),))


def test_non_prime_p_is_rejected():
    # at p = 4 the relation 4*a = 0 would be read as torsion of exponent 1
    for p in (4, 1):
        with pytest.raises(KmModuleError, match="must be prime"):
            KmPresentation(p=p, m=1, gens=(("a", 0), ("b", 3)), rels=(((0, 4, 0),),))


def test_rel_unit_shapes():
    M = KmPresentation(2, 1, (("a", 0), ("b", 2)), ())
    assert rel_unit(M, "b") == ((1, 1, 0),)
    assert rel_unit(M, "a", shift=2, coeff=3) == ((0, 3, 2),)


def test_to_chow_drops_v_multiples():
    # p*a = 0 survives v -> 0; v*b = 0 does not constrain the Chow side
    M = KmPresentation(2, 1, (("a", 2), ("b", 2)), ())
    M = km_quotient(M, [rel_unit(M, "a", coeff=2), rel_unit(M, "b", shift=1)])
    nf = normalize(to_chow(M))
    assert nf.at(2) == (1, (1,))
    # ... but b is v-torsion and the localization forgets it
    inv = localize_v(M)
    assert inv.aggregate() == (0, (1,))


def test_to_chow_matches_chow_ring_across_regimes():
    for p, n, m in [(2, 2, 1), (2, 3, 1), (2, 3, 2), (3, 2, 1), (2, 3, 5)]:
        km = km_rost(p, n, m)
        assert iso_equal(to_chow(km), chow_rost_ring(p, n).module()), (p, n, m)


def test_v_torsion_generators_frozen():
    assert v_torsion_generators(km_rost(2, 3, 1)) == ("c_2(y)",)
    assert v_torsion_generators(km_rost(2, 4, 2)) == ("c_1(y)", "c_3(y)")
    # m >= n: every relation is p-scalar, nothing is v-torsion
    assert v_torsion_generators(km_rost(2, 2, 2)) == ()


def windowed_v_torsion(M: KmPresentation) -> tuple[str, ...]:
    """The v^N search: below every generator and relation degree the slice
    in degree D is v times the slice in degree D + vdeg, so trying each N up
    to that floor decides whether v^N e_i is a relation for some N."""
    floor = min([d for _, d in M.gens] + [d for d in M.rel_degrees if d is not None])
    return tuple(
        name
        for i, (name, gdeg) in enumerate(M.gens)
        if any(
            slice_membership(M, {(i, N): 1}, gdeg - N * M.vdeg)
            for N in range(1, max(1, (gdeg - floor) // M.vdeg + 1) + 1)
        )
    )


def random_presentation(rng) -> KmPresentation:
    """A homogeneous presentation: each relation has one degree, and its
    term on a generator of degree g is c * v^k with g - k*vdeg that degree."""
    p, m = rng.choice((2, 3, 5)), rng.choice((1, 2))
    vdeg = p**m - 1
    gens = tuple(
        (f"g{i}", rng.randint(0, 3) * vdeg + rng.randint(0, min(vdeg - 1, 2)))
        for i in range(rng.randint(1, 5))
    )
    rels = []
    for _ in range(rng.randint(0, 5)):
        rdeg = rng.choice(gens)[1] - rng.randint(0, 2) * vdeg
        rel = []
        for i, (_, g) in enumerate(gens):
            k, r = divmod(g - rdeg, vdeg)
            c = rng.choice((0, 0, 1, -1, p, 2 * p, p * p, 3)) if g >= rdeg and r == 0 else 0
            if c:
                rel.append((i, c, k))
        rels.append(tuple(rel))
    return KmPresentation(p=p, m=m, gens=gens, rels=tuple(rels))


def test_v_torsion_at_v_1_matches_the_windowed_search():
    rng = random.Random(20261018)
    killed = 0
    for _ in range(300):
        M = random_presentation(rng)
        got = v_torsion_generators(M)
        assert got == windowed_v_torsion(M), M
        killed += len(got)
    assert killed > 50  # the comparison is not vacuous
    for p, n, m in KM_ROST_CASES:
        M = km_rost(p, n, m)
        assert v_torsion_generators(M) == windowed_v_torsion(M), (p, n, m)


def test_gr_geometric_frozen_table():
    nf = normalize(gr_geometric(km_rost(2, 3, 1)))
    assert nf.as_dict() == {0: (1, ()), 6: (0, (1,)), 7: (1, ())}


def test_localize_on_pure_p_torsion():
    M = KmPresentation(2, 1, (("g", 0),), ())
    M = km_quotient(M, [rel_unit(M, "g", coeff=2)])
    assert localize_v(M).as_dict() == {0: (0, (1,))}  # keyed by degree class mod vdeg = 1


def test_localize_kills_v_torsion():
    M = KmPresentation(3, 1, (("g", 4),), ())
    M = km_quotient(M, [rel_unit(M, "g", shift=1)])
    assert localize_v(M).aggregate() == (0, ())


def test_localize_km_rost_is_free_of_rank_p():
    for p, n, m in [(2, 3, 1), (3, 2, 1)]:
        assert localize_v(km_rost(p, n, m)).aggregate() == (p, ())


def test_amalgam_membership_in_slices():
    km = km_rost(2, 3, 1)
    names = [nm for nm, _ in km.gens]
    i0, i1 = names.index("c_0(y)"), names.index("c_1(y)")
    d = 6  # degree of c_1(y) and of v*c_0(y)
    assert slice_membership(km, {(i1, 0): 2, (i0, 1): -1}, d)
    assert not slice_membership(km, {(i1, 0): 2}, d)
    assert not slice_membership(km, {(i0, 1): 1}, d)


def test_slice_membership_scaling_invariance():
    # v-multiples of relations stay relations in lower slices
    km = km_rost(2, 3, 1)
    names = [nm for nm, _ in km.gens]
    i0, i1 = names.index("c_0(y)"), names.index("c_1(y)")
    assert slice_membership(km, {(i1, 1): 2, (i0, 2): -1}, 5)
    assert slice_membership(km, {(i1, 2): 2, (i0, 3): -1}, 4)


def test_second_display_comparison():
    for p, n, m in [(2, 3, 1), (3, 2, 1)]:
        left, right = check_cor_3_5_second(km_rost(p, n, m), bar_rost_ring(p, n).module())
        assert left == right, (p, n, m)


# --- class invariants at v = 1 against a minor-enumeration oracle -----------


def _components(matrix):
    """Row and column index sets of the connected blocks of the nonzero pattern."""
    nr, nc = len(matrix), len(matrix[0]) if matrix else 0
    seen, blocks = set(), []
    for start in range(nr):
        if start in seen or not any(matrix[start]):
            continue
        rows, cols, todo = {start}, set(), [start]
        seen.add(start)
        while todo:
            i = todo.pop()
            for j in range(nc):
                if matrix[i][j] and j not in cols:
                    cols.add(j)
                    for k in range(nr):
                        if matrix[k][j] and k not in seen:
                            seen.add(k)
                            rows.add(k)
                            todo.append(k)
        blocks.append((sorted(rows), sorted(cols)))
    return blocks


def gauss_valuation(a, p):
    """min_i v_p(coeff_i): the p-valuation of a in Z_(p)[v] localized at (p)."""
    return min(pvaluation(c, p) for c in a if c)


def minor_oracle(matrix, p):
    """SNF exponents over the DVR Z_(p)[v]_(p) from all k-minors (zp_poly_det).

    The k-th exponent is d_k - d_(k-1), d_k the least Gauss valuation of a
    nonzero k-minor.  A block-diagonal matrix is split into its blocks
    first, whose exponents together are those of the whole matrix.
    """
    out = []
    for rows, cols in _components(matrix):
        prev = 0
        for k in range(1, min(len(rows), len(cols)) + 1):
            vals = [
                gauss_valuation(det, p)
                for rset in itertools.combinations(rows, k)
                for cset in itertools.combinations(cols, k)
                if (det := zp_poly_det([[matrix[i][j] for j in cset] for i in rset]))
            ]
            if not vals:
                break
            out.append(min(vals) - prev)
            prev = min(vals)
    return tuple(sorted(out))


def random_homogeneous(rng, p):
    """Entries c * v^(g_i - r_j) for row degrees g_i and column degrees r_j."""
    g = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
    r = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
    return [
        [
            zp_trim([0] * (gi - rj) + [rng.choice((0, 0, 1, -1, p, 2 * p, p * p, 3))])
            if gi >= rj else ()
            for rj in r
        ]
        for gi in g
    ]


def test_snf_at_v_1_matches_minor_oracle_on_random_matrices():
    rng = random.Random(20261018)
    for _ in range(150):
        p = rng.choice((2, 3, 5))
        hom = random_homogeneous(rng, p)
        at_one = [[sum(a) for a in row] for row in hom]
        exps = SpanSolver.of(PLocalMatrix.from_rows(p, at_one)).exponents()
        assert exps == minor_oracle(hom, p), (hom, p)


def class_matrix(M: KmPresentation, cls: int):
    """The generators of degree class cls mod vdeg, and the class matrix over
    Z[v]: entry (r, j) the coefficient polynomial of the class's relation j
    on its generator r, c * v^k for a term (i, c, k) and 0 off the terms."""
    gen_idx = [i for i, (_, d) in enumerate(M.gens) if d % M.vdeg == cls]
    rels = [
        {i: zp_trim([0] * k + [c]) for i, c, k in rel}
        for rel, d in zip(M.rels, M.rel_degrees)
        if d is not None and d % M.vdeg == cls
    ]
    return gen_idx, [[rel.get(i, ()) for rel in rels] for i in gen_idx]


KM_ROST_CASES = sorted(
    {(2, n, m) for n in (2, 3, 4) for m in range(1, n)}  # the cor-3.5 grid
    | {(3, 2, 1), (5, 2, 1)}
    | {(7, 3, 1), (11, 3, 1), (3, 4, 1), (5, 4, 1)}  # the CLI build items
)


@pytest.mark.parametrize("p, n, m", KM_ROST_CASES)
def test_localize_v_classes_match_minor_oracle(p, n, m):
    M = km_rost(p, n, m)
    inv = localize_v(M)
    per_class = inv.as_dict()
    for cls in sorted({d % M.vdeg for _, d in M.gens}):
        gen_idx, matrix = class_matrix(M, cls)
        exps = minor_oracle(matrix, p)
        free = len(gen_idx) - len(exps)
        torsion = tuple(e for e in exps if e)
        assert per_class.get(cls, (0, ())) == (free, torsion), cls


def _rank_at(matrix, t):
    """Rank over Q of the class matrix with v = t."""
    rows = [[sum(c * t**k for k, c in enumerate(a)) for a in row] for row in matrix]
    return len(SpanSolver.of(PLocalMatrix.from_rows(2, rows, cols=len(matrix[0]))).exponents())


def test_km_rost_5_4_1_rank_cross_checked():
    # its `rostcalc build` output is a line of tests/data/pins.txt
    M = km_rost(5, 4, 1)
    inv = localize_v(M)
    assert inv.aggregate() == (5, ())
    gen_idx, matrix = class_matrix(M, 0)
    # rank over Q(v) is the largest rank over Q at integer values of v
    assert len(gen_idx) - inv.aggregate()[0] == max(_rank_at(matrix, t) for t in (1, 2, 3, 7)) == 12
