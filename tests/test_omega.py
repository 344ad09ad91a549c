"""The ambient-image model, presented rings, and torsion-ideal certificates."""

from fractions import Fraction
from functools import reduce

import pytest

from rostcalc.catalog import (
    build_chow_rost,
    build_pfister_neighbor_chow,
    chow_rost_ring,
    gr_m_rost_ring,
    restriction_map,
)
from rostcalc.graded import GradedMap, free_module
from rostcalc.omega import (
    BasisClass,
    DegreeRule,
    OmegaImageModel,
    OmegaModelError,
    PresentedRing,
    _canon_coeff,
    chow_collapse,
    ideal_power_witness,
    ring_quotient,
    ring_tensor,
    torsion_ideal,
)


def test_degree_rule_tables():
    assert DegreeRule(3, 2).y_degree == 4
    assert DegreeRule(2, 3).y_degree == 7
    assert DegreeRule(3, 2).c_degree(1) == 2
    assert DegreeRule(3, 2).c_degree(0, 2) == 8
    assert DegreeRule(2, 3).c_degree(2) == 4


def test_model_requires_a_prime():
    for p in (4, 1):
        with pytest.raises(OmegaModelError, match="must be prime"):
            OmegaImageModel(p=p, factor_ns=(3,))


def test_monomial_truncation():
    m = OmegaImageModel(p=3, factor_ns=(2,))
    y = m.monomial(1, (), (1,))
    y2 = m.mul(y, y)
    assert m.element_degree(y2) == 8
    assert m.mul(y2, y) == {}  # y^3 = 0 at p = 3


def test_res_classes():
    m = OmegaImageModel(p=3, factor_ns=(2,))
    assert m.res_class(0, 0, 1) == {((), (1,)): 3}  # c_0(y) goes to 3y
    assert m.res_class(0, 1, 2) == {(((1, 1),), (2,)): 1}  # c_1(y^2) to v_1 y^2
    with pytest.raises(OmegaModelError):
        m.res_class(0, 2, 1)  # no c_2 when n = 2


def test_image_coefficients_lie_in_the_ideal():
    for p, ns in [(2, (2,)), (3, (2,)), (2, (3, 3))]:
        assert OmegaImageModel(p=p, factor_ns=ns).image_coefficients_in_ideal()


def test_commutation_identity_holds():
    m = OmegaImageModel(p=2, factor_ns=(4,))
    for r in range(0, 4):
        for s in range(r + 1, 4):
            assert m.check_commutation_identity(r, s)


def test_commutation_identity_detects_wrong_pairing():
    # anti-vacuity: v_s res(c_r) must differ from v_r res(c_w) when w != s
    m = OmegaImageModel(p=2, factor_ns=(4,))
    v2 = m.monomial(1, ((2, 1),), (0,))
    v1 = m.monomial(1, ((1, 1),), (0,))
    lhs = m.mul(v2, m.res_class(0, 1, 1))
    wrong = m.mul(v1, m.res_class(0, 3, 1))
    assert lhs != wrong


def test_inhomogeneous_degree_raises():
    m = OmegaImageModel(p=2, factor_ns=(2,))
    mixed = m.add(m.monomial(1, (), (1,)), m.monomial(1, (), (0,)))
    with pytest.raises(OmegaModelError):
        m.element_degree(mixed)


def toy_ring():
    basis = (
        BasisClass("1", 0, 0),
        BasisClass("t", 2, 1),
        BasisClass("t2", 4, 1),
    )
    mult = {(1, 1): {2: 1}, (1, 2): {}, (2, 1): {}, (2, 2): {}}
    for k in range(3):  # the unit rows are part of the table, not implicit
        mult[(0, k)] = {k: 1}
        mult[(k, 0)] = {k: 1}
    return PresentedRing(p=2, basis=basis, unit=0, mult=mult, generators=(1,))


def test_presented_ring_multiply_and_power():
    R = toy_ring()
    R.audit()
    t = R.basis_vector("t")
    assert R.multiply(t, t) == {2: 1}
    assert R.power(t, 2) == {2: 1}
    assert R.power(t, 3) == {}
    # torsion coefficients are reduced mod p
    assert R.multiply({1: 2}, t) == {}


def test_audit_catches_broken_unit():
    basis = (BasisClass("1", 0, 0), BasisClass("x", 2, 0))
    bad = PresentedRing(
        p=2, basis=basis, unit=0, mult={(0, 1): {1: 2}, (1, 0): {1: 2}}, generators=(1,)
    )
    with pytest.raises(OmegaModelError):
        bad.audit()


def test_audit_catches_noncommutative_table():
    basis = (BasisClass("1", 0, 0), BasisClass("x", 2, 0), BasisClass("y", 2, 0))
    bad = PresentedRing(
        p=2,
        basis=basis,
        unit=0,
        mult={(1, 2): {1: 1}, (2, 1): {2: 1}},
        generators=(1, 2),
    )
    with pytest.raises(OmegaModelError):
        bad.audit()


def test_ring_tensor_torsion_exponents():
    R = chow_rost_ring(2, 2, var="y_1")
    S = chow_rost_ring(2, 2, var="y_2")
    T = ring_tensor(R, S)
    by_name = {b.name: b for b in T.basis}
    assert by_name["c_0(y_1)*c_0(y_2)"].torsion_exp == 0
    assert by_name["c_1(y_1)*c_1(y_2)"].torsion_exp == 1
    assert by_name["c_1(y_1)*c_0(y_2)"].torsion_exp == 1
    # the unit is absorbed rather than spelled as 1*1
    assert "1" in by_name and "1*1" not in by_name


def test_chow_collapse_reproduces_structure_constants():
    for p, n in [(3, 2), (2, 3)]:
        collapsed = chow_collapse(OmegaImageModel(p=p, factor_ns=(n,)))
        reference = chow_rost_ring(p, n)
        names = [b.name for b in reference.basis]
        assert [b.name for b in collapsed.basis] == names
        for a in names:
            for b in names:
                left = collapsed.multiply(
                    collapsed.basis_vector(a), collapsed.basis_vector(b)
                )
                right = reference.multiply(
                    reference.basis_vector(a), reference.basis_vector(b)
                )
                left_named = {collapsed.basis[k].name: c for k, c in left.items()}
                right_named = {reference.basis[k].name: c for k, c in right.items()}
                assert left_named == right_named, (a, b)


def test_torsion_ideal_names():
    obj = build_chow_rost(2, 3)
    names = torsion_ideal(obj.ring, restriction_map(obj))
    assert set(names) == {"c_1(y)", "c_2(y)"}


def test_torsion_ideal_rejects_nonvanishing_restriction():
    ring = toy_ring()
    tgt = free_module(2, [(0, "1"), (2, "u"), (4, "w")])
    bad_res = GradedMap(
        source=ring.module(),
        target=tgt,
        matrices={0: ((1,),), 2: ((1,),), 4: ((0,),)},
    )
    with pytest.raises(OmegaModelError):
        torsion_ideal(ring, bad_res)


def test_ideal_power_witness_finds_products():
    R = toy_ring()
    w = ideal_power_witness(R, ["t"], 2)
    assert w is not None
    assert w.factors == ("t", "t")
    assert w.vector == (("t2", 1),)
    assert w.degree == 4
    assert ideal_power_witness(R, ["t"], 3) is None


def test_rost_torsion_square_vanishes():
    obj = build_chow_rost(2, 3)
    names = torsion_ideal(obj.ring, restriction_map(obj))
    assert ideal_power_witness(obj.ring, names, 2) is None


def test_pfister_torsion_square_vanishes():
    obj = build_pfister_neighbor_chow(3)
    names = torsion_ideal(obj.ring, restriction_map(obj))
    assert names  # u_1, u_2 and their h-multiples
    assert ideal_power_witness(obj.ring, names, 2) is None


def truncated_polynomial_ring(p, top):
    """Z_(p)[a]/(a^top) on the basis a^0 .. a^(top-1), generated by a."""
    basis = tuple(BasisClass(f"a^{i}", 2 * i, 0) for i in range(top))
    mult = {(i, j): {i + j: 1} for i in range(top) for j in range(top) if i + j < top}
    return PresentedRing(p=p, basis=basis, unit=0, mult=mult, generators=(1,))


def test_audit_accepts_truncated_polynomial_ring():
    truncated_polynomial_ring(3, 35).audit()


def test_audit_catches_nonassociative_large_table():
    # 35^3 basis triples: a sampled audit missed this; (a^3 a^3) a != a^3 (a^3 a)
    bad = truncated_polynomial_ring(3, 35)
    bad.mult[(3, 3)] = {6: 2}
    with pytest.raises(OmegaModelError, match="associativity"):
        bad.audit()


def test_audit_catches_product_in_wrong_degree():
    basis = (BasisClass("1", 0, 0), BasisClass("x", 2, 0), BasisClass("y", 6, 0))
    mult = {(0, k): {k: 1} for k in range(3)} | {(k, 0): {k: 1} for k in range(3)}
    mult[(1, 1)] = {2: 1}
    bad = PresentedRing(p=2, basis=basis, unit=0, mult=mult, generators=(1, 2))
    with pytest.raises(OmegaModelError, match="wrong degree"):
        bad.audit()


def test_audit_catches_torsion_product_on_free_class():
    basis = (BasisClass("1", 0, 0), BasisClass("t", 2, 1), BasisClass("x", 4, 0))
    mult = {(0, k): {k: 1} for k in range(3)} | {(k, 0): {k: 1} for k in range(3)}
    mult[(1, 1)] = {2: 1}  # 2 * t^2 = (2t) t = 0, but 2x != 0
    bad = PresentedRing(p=2, basis=basis, unit=0, mult=mult, generators=(1, 2))
    with pytest.raises(OmegaModelError, match="not killed"):
        bad.audit()


def test_audit_catches_generators_that_do_not_span():
    basis = (BasisClass("1", 0, 0), BasisClass("x", 2, 0), BasisClass("y", 2, 0))
    mult = {(0, k): {k: 1} for k in range(3)} | {(k, 0): {k: 1} for k in range(3)}
    bad = PresentedRing(p=2, basis=basis, unit=0, mult=mult, generators=(1,))
    with pytest.raises(OmegaModelError, match="do not span"):
        bad.audit()
    # idempotents g = (1,1,0), h = (0,1,0) of Z_(2)^3: g*h = h, yet g alone
    # generates only span(1, g); a generator may not vouch for its own degree
    basis = (BasisClass("1", 0, 0), BasisClass("g", 0, 0), BasisClass("h", 0, 0))
    mult = {(0, k): {k: 1} for k in range(3)} | {(k, 0): {k: 1} for k in range(3)}
    mult |= {(1, 1): {1: 1}, (1, 2): {2: 1}, (2, 1): {2: 1}, (2, 2): {2: 1}}
    bad = PresentedRing(p=2, basis=basis, unit=0, mult=mult, generators=(1,))
    with pytest.raises(OmegaModelError, match="do not span"):
        bad.audit()
    PresentedRing(p=2, basis=basis, unit=0, mult=mult, generators=(1, 2)).audit()


def square_zero_pair_ring(xy_on_w):
    """Free classes x, y in degree 2 and u, w in degree 4 over Z_(3), with
    x^2 = u + w, xy = u + xy_on_w * w, y^2 = 0 and nothing in degree 6."""
    names = ("1", "x", "y", "u", "w")
    basis = tuple(BasisClass(nm, d, 0) for nm, d in zip(names, (0, 2, 2, 4, 4)))
    mult = {(0, k): {k: 1} for k in range(5)} | {(k, 0): {k: 1} for k in range(5)}
    mult[(1, 1)] = {3: 1, 4: 1}
    mult[(1, 2)] = mult[(2, 1)] = {3: 1, 4: xy_on_w}
    return PresentedRing(p=3, basis=basis, unit=0, mult=mult, generators=(1, 2))


def test_audit_generation_needs_a_unimodular_span():
    # no single product is a unit multiple of u or w; together they span
    square_zero_pair_ring(2).audit()
    # x^2 and xy span a sublattice of index 3 in degree 4
    with pytest.raises(OmegaModelError, match="do not span"):
        square_zero_pair_ring(4).audit()


def test_canon_coeff_integers_and_fractions():
    assert _canon_coeff(7, 2, 3) == 7
    assert _canon_coeff(-1, 1, 2) == 1
    assert _canon_coeff(-5, 0, 3) == -5
    assert _canon_coeff(Fraction(1, 2), 1, 3) == 2
    assert _canon_coeff(Fraction(-7, 5), 2, 3) == 4  # 5 * 4 = -7 mod 9
    whole = _canon_coeff(Fraction(6, 2), 0, 5)
    assert whole == 3 and type(whole) is int
    assert _canon_coeff(Fraction(1, 2), 0, 3) == Fraction(1, 2)
    with pytest.raises(OmegaModelError, match="not p-local"):
        _canon_coeff(Fraction(1, 3), 1, 3)


def test_ring_quotient_needs_an_ideal():
    ring = chow_rost_ring(3, 2)
    # c_0(y)^2 = 3 c_0(y^2), so the span of c_0(y) is no ideal
    with pytest.raises(OmegaModelError, match=r"c_0\(y\)\*c_0\(y\) has a term c_0\(y\^2\)"):
        ring_quotient(ring, ["c_0(y)"])
    with pytest.raises(OmegaModelError, match="unit"):
        ring_quotient(ring, ["1"])
    quotient = ring_quotient(ring, ["c_1(y)", "c_1(y^2)"])
    assert [b.name for b in quotient.basis] == ["1", "c_0(y)", "c_0(y^2)"]
    c0 = quotient.basis_vector("c_0(y)")
    assert quotient.multiply(c0, c0) == {quotient.index_of("c_0(y^2)"): 3}


def test_ring_quotient_identifies_only_classes_of_one_degree_and_order():
    with pytest.raises(OmegaModelError, match="degrees 2 and 6"):
        ring_quotient(chow_rost_ring(3, 2), identified=[("c_1(y)", "c_1(y^2)")])
    # c_0(y_2) is free, c_0(y_1)*c_2(y_2) has order 2, both in degree 7
    T = ring_tensor(chow_rost_ring(2, 2, var="y_1"), chow_rost_ring(2, 3, var="y_2"))
    with pytest.raises(OmegaModelError, match="torsion exponents 0 and 1"):
        ring_quotient(T, identified=[("c_0(y_2)", "c_0(y_1)*c_2(y_2)")])


@pytest.mark.parametrize(
    "pair",
    [
        # c_0(y_1)*c_0(y_1) = 3 c_0(y_1^2) but c_0(y_1)*c_0(y_2) has coefficient 1
        ("c_0(y_1)", "c_0(y_2)"),
        # c_0(y_2)*c_1(y_1) is a class, c_0(y_2)*c_1(y_2) = 0
        ("c_1(y_1)", "c_1(y_2)"),
    ],
)
def test_ring_quotient_closure_needs_equal_single_terms(pair):
    T = ring_tensor(gr_m_rost_ring(3, 2, 1, var="y_1"), gr_m_rost_ring(3, 2, 1, var="y_2"))
    with pytest.raises(OmegaModelError, match="difference of two equal single terms"):
        ring_quotient(T, identified=[pair])


def test_ring_quotient_closes_the_pairs_under_the_generators():
    T = reduce(ring_tensor, [gr_m_rost_ring(2, 2, 1, var=f"y_{t}") for t in (1, 2, 3)])
    # only two-factor pairs, as in the Kunneth ideal J
    pairs = [
        (f"c_1(y_{r})*c_0(y_{t})", f"c_0(y_{r})*c_1(y_{t})")
        for r, t in [(1, 2), (1, 3), (2, 3)]
    ]
    quotient = ring_quotient(T, identified=pairs)
    names = [b.name for b in quotient.basis]
    assert "c_1(y_1)*c_0(y_2)*c_0(y_3)" in names
    assert "c_0(y_1)*c_1(y_2)*c_0(y_3)" not in names
    assert "c_0(y_1)*c_0(y_2)*c_1(y_3)" not in names
    # one class lost per two-factor pair, two per three-factor torsion count
    assert len(names) == len(T.basis) - 3 - 2 - 2
    assert names == [b.name for b in sorted(quotient.basis, key=lambda b: (b.degree, b.name))]
    word = quotient.multiply(
        quotient.basis_vector("c_0(y_1)"), quotient.basis_vector("c_1(y_2)*c_0(y_3)")
    )
    assert word == quotient.basis_vector("c_1(y_1)*c_0(y_2)*c_0(y_3)")
