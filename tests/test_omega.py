"""The ambient-image model, presented rings, and torsion-ideal certificates."""

import hashlib
import itertools
import json
import re
from fractions import Fraction
from functools import partial, reduce
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from ring_oracle import product_table, ring_json, vector_product

from rostcalc import catalog
from rostcalc.catalog import (
    build_chow_rost,
    build_pfister_neighbor_chow,
    build_product_rost,
    chow_rost_ring,
    gr_m_rost_ring,
    pfister_neighbor_ring,
)
from rostcalc.graded import GradedMap, cyclic_summands, normalize
from rostcalc.kunneth import BarKmModel, kunneth_quotient_ring, versal_image
from rostcalc.graded import quotient as graded_quotient
from rostcalc.omega import (
    BasisClass,
    OmegaImageModel,
    OmegaModelError,
    PresentedRing,
    _canon_coeff,
    c_degree,
    chow_collapse,
    ideal_generators,
    ideal_power_witness,
    TensorParent,
    ring_quotient,
    ring_tensor,
    torsion_ideal,
    y_degree,
)


def test_degree_rule_tables():
    assert y_degree(3, 2) == 4
    assert y_degree(2, 3) == 7
    assert c_degree(3, 2, 1) == 2
    assert c_degree(3, 2, 0, 2) == 8
    assert c_degree(2, 3, 2) == 4


def test_model_requires_a_prime():
    for p in (4, 1):
        with pytest.raises(OmegaModelError, match="must be prime"):
            OmegaImageModel(p=p, factor_ns=(3,))


def test_monomial_truncation():
    m = OmegaImageModel(p=3, factor_ns=(2,))
    y = m.monomial(1, (), (1,))
    y2 = m.mul(y, y)
    assert y2 == (1, (), (2,))
    assert m.term_degree(y2) == 8
    assert m.term_degree(m.monomial(3, ((1, 2),), (2,))) == 4  # v_1 has degree -2
    assert m.mul(y2, y) is None  # y^3 = 0 at p = 3
    assert m.monomial(1, (), (3,)) is None and m.monomial(0, (), (1,)) is None


def test_res_classes():
    m = OmegaImageModel(p=3, factor_ns=(2,))
    assert m.res_class(0, 0, 1) == (3, (), (1,))  # c_0(y) goes to 3y
    assert m.res_class(0, 1, 2) == (1, ((1, 1),), (2,))  # c_1(y^2) to v_1 y^2
    with pytest.raises(OmegaModelError):
        m.res_class(0, 2, 1)  # no c_2 when n = 2


def image_coefficients_in_ideal(model: OmegaImageModel, elements) -> bool:
    """The positive-degree image elements have all coefficients in
    (p, v_1..v_{n-1})."""
    for coeff, v, _y in elements:
        if coeff % model.p == 0:
            continue
        if any(1 <= i <= max(model.factor_ns) - 1 and e > 0 for i, e in v):
            continue
        return False
    return True


def test_image_coefficients_lie_in_the_ideal():
    for p, ns in [(2, (2,)), (3, (2,))]:
        model = OmegaImageModel(p=p, factor_ns=ns)
        gens = [model.res_word((cls,)) for _, cls in model.image_generators() if cls]
        assert image_coefficients_in_ideal(model, gens)
    # the one multi-factor image the package builds, through the same res_word
    model = BarKmModel(2, (3, 3), 1)
    assert image_coefficients_in_ideal(model, versal_image(model))


def test_image_generators_are_the_single_factor_classes_in_order():
    model = OmegaImageModel(p=3, factor_ns=(2,))
    assert model.image_generators() == [
        ("1", None), ("c_0(y)", (0, 1)), ("c_1(y)", (1, 1)), ("c_0(y^2)", (0, 2)), ("c_1(y^2)", (1, 2)),
    ]
    with pytest.raises(ValueError):
        OmegaImageModel(p=3, factor_ns=(2, 2)).image_generators()


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


def toy_ring():
    basis = (
        BasisClass("1", 0, 0),
        BasisClass("t", 2, 1),
        BasisClass("t2", 4, 1),
    )
    # the one generator t: L_t(1) = t, L_t(t) = t2, L_t(t2) = 0
    return PresentedRing(p=2, basis=basis, unit=0, ops={1: {0: (1, 1), 1: (2, 1)}})


def test_presented_ring_multiply_and_power():
    R = toy_ring()
    R.audit()
    t = R.index_of("t")
    assert R.multiply((t, 1), t) == (2, 1)
    assert R.multiply(R.multiply((t, 1), t), t) is None
    # a non-generator class multiplies through its word t2 = t*t
    assert R.multiply((t, 1), 2) is None
    assert R.multiply((0, 1), 2) == (2, 1)
    # the unit returns the term; zero stays zero
    assert R.multiply((2, 1), 0) == (2, 1)
    assert R.multiply(None, t) is None
    # torsion coefficients are reduced mod p
    assert R.multiply((1, 2), t) is None


def test_audit_catches_broken_unit():
    basis = (BasisClass("1", 0, 0), BasisClass("x", 2, 0))
    bad = PresentedRing(p=2, basis=basis, unit=0, ops={1: {0: (1, 2)}})
    with pytest.raises(OmegaModelError, match=r"L_x\(1\) is not x"):
        bad.audit()


def test_audit_catches_noncommutative_table():
    # degree-0 classes with x*y = x but y*x = y: L_x L_y(1) = x, L_y L_x(1) = y
    basis = (BasisClass("1", 0, 0), BasisClass("x", 0, 0), BasisClass("y", 0, 0))
    ops = {1: {0: (1, 1), 2: (1, 1)}, 2: {0: (2, 1), 1: (2, 1)}}
    with pytest.raises(OmegaModelError, match="L_x and L_y do not commute on 1"):
        PresentedRing(p=2, basis=basis, unit=0, ops=ops).audit()


def test_ops_input_errors():
    basis = (BasisClass("1", 0, 0), BasisClass("x", 2, 0), BasisClass("t", 2, 1))
    pair = r"not a \(class, coefficient\) pair on the basis"
    cases = [
        ({0: {0: (0, 1)}}, "the unit cannot be a generator"),
        ({3: {0: (3, 1)}}, "generator index 3 names no basis class"),
        ({1: {0: (1, 1), 5: (1, 1)}}, rf"column 5 of L_x is \(1, 1\), {pair}"),
        ({1: {0: (1, 1), 1: (7, 1)}}, rf"column 1 of L_x is \(7, 1\), {pair}"),
        ({1: {0: (-1, 1)}}, rf"column 0 of L_x is \(-1, 1\), {pair}"),
        ({1: {-1: (1, 1)}}, rf"column -1 of L_x is \(1, 1\), {pair}"),
        # a coefficient is an int: a Fraction, even a whole one, is refused
        ({1: {0: (1, Fraction(1, 2))}}, r"coefficient Fraction\(1, 2\) of L_x is not an int"),
        ({2: {0: (2, Fraction(4, 1))}}, r"coefficient Fraction\(4, 1\) of L_t is not an int"),
        # an inexact coefficient is refused, not converted
        ({1: {0: (1, 0.1)}}, r"coefficient 0\.1 of L_x is not an int"),
        ({2: {0: (2, True)}}, "coefficient True of L_t is not an int"),
        # a one-entry dict of the old format, and other shapes that are no term
        ({1: {0: {1: 1}}}, rf"column 0 of L_x is \{{1: 1\}}, {pair}"),
        ({1: {0: 5}}, rf"column 0 of L_x is 5, {pair}"),
        ({1: {0: [1, 1]}}, rf"column 0 of L_x is \[1, 1\], {pair}"),
        ({1: {0: (1, 1, 0)}}, rf"column 0 of L_x is \(1, 1, 0\), {pair}"),
        ({1: {0: ([1], 1)}}, rf"column 0 of L_x is \(\[1\], 1\), {pair}"),
        ({1: 7}, "L_x is 7, not a dict of columns"),
    ]
    for ops, message in cases:
        with pytest.raises(OmegaModelError, match=message):
            PresentedRing(p=2, basis=basis, unit=0, ops=ops)
    with pytest.raises(OmegaModelError, match="unit index 3 names no basis class"):
        PresentedRing(p=2, basis=basis, unit=3, ops={})
    # a coefficient is reduced on a torsion class, a column that reduces to
    # zero is dropped, and a canonical term is kept as it is
    ops = {1: {0: (1, 1), 1: (2, 2), 2: (2, -3)}, 2: {0: (2, 1)}}
    ring = PresentedRing(p=2, basis=basis, unit=0, ops=ops)
    assert ring.ops == {1: {0: (1, 1), 2: (2, 1)}, 2: {0: (2, 1)}}
    assert ring.ops[1][0] is ops[1][0] and ring.ops[2][0] is ops[2][0]


def test_a_unit_on_a_free_class_is_plus_or_minus_one():
    # over Z_(3), L_x(1) = 2y with y free: 2 is a unit, and refused
    basis = (BasisClass("1", 0, 0), BasisClass("x", 2, 0), BasisClass("y", 2, 0))
    with pytest.raises(OmegaModelError, match="L_x: unit 2 on free y, not 1 or -1"):
        PresentedRing(p=3, basis=basis, unit=0, ops={1: {0: (2, 2)}})
    with pytest.raises(OmegaModelError, match="L_x: unit -4 on free y, not 1 or -1"):
        PresentedRing(p=3, basis=basis, unit=0, ops={1: {0: (2, -4)}})
    # -1 and the multiples of p are kept exactly, not reduced mod p
    ring = PresentedRing(p=3, basis=basis, unit=0, ops={1: {0: (2, -1), 1: (2, 6)}})
    assert ring.ops == {1: {0: (2, -1), 1: (2, 6)}}


def inverted_unit_ring():
    """Over Z_(5): x free in degree 2 and t of order 5 in degree 4, x^2 = 2t;
    the word of t is 3*x*x, as 3*2 = 1 mod 5."""
    basis = (BasisClass("1", 0, 0), BasisClass("x", 2, 0), BasisClass("t", 4, 1))
    return PresentedRing(p=5, basis=basis, unit=0, ops={1: {0: (1, 1), 1: (2, 2)}})


def test_a_unit_on_a_torsion_class_is_inverted_mod_its_order():
    ring = inverted_unit_ring()
    ring.audit()
    assert ring.words() == {1: (1, 1, 0), 2: (3, 1, 1)}
    assert ring.multiply((1, 1), 1) == (2, 2)
    assert ring.multiply((1, 3), 1) == (2, 1)
    # t*1 walks the word: 3*x*x = 3*2t = t
    assert ring.multiply((0, 1), 2) == (2, 1)


def test_audit_catches_two_noncommuting_generators():
    # Z_(3)[x, y]/(x, y)^3 with xy = x^2 on one side only: L_x(y) = x^2
    # while L_y(x) = xy, so L_x L_y(1) != L_y L_x(1)
    names = ("1", "x", "y", "x^2", "xy", "y^2")
    basis = tuple(BasisClass(nm, d, 0) for nm, d in zip(names, (0, 2, 2, 4, 4, 4)))
    ops = {
        1: {0: (1, 1), 1: (3, 1), 2: (4, 1)},
        2: {0: (2, 1), 1: (4, 1), 2: (5, 1)},
    }
    PresentedRing(p=3, basis=basis, unit=0, ops=ops).audit()
    ops[1][2] = (3, 1)
    with pytest.raises(OmegaModelError, match="L_x and L_y do not commute on 1"):
        PresentedRing(p=3, basis=basis, unit=0, ops=ops).audit()


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


def named_product(ring, a, b):
    """The product of the classes named a and b as (name, coefficient), or None."""
    t = ring.multiply((ring.index_of(a), 1), ring.index_of(b))
    return t and (ring.basis[t[0]].name, t[1])


def test_chow_collapse_reproduces_structure_constants():
    for p, n in itertools.product((2, 3, 5, 7), (2, 3, 4)):
        collapsed = chow_collapse(OmegaImageModel(p=p, factor_ns=(n,)))
        reference = chow_rost_ring(p, n)
        names = [b.name for b in reference.basis]
        assert [b.name for b in collapsed.basis] == names
        for a in names:
            for b in names:
                assert named_product(collapsed, a, b) == named_product(reference, a, b), (a, b)


def test_chow_collapse_refuses_a_class_of_the_wrong_order(monkeypatch):
    # one defect: c_1(y) restricts to p*v_1*y, which v_1 * res(c_0(y)) reaches
    res_class = OmegaImageModel.res_class

    def planted(self, t, i, j):
        c, v, y = res_class(self, t, i, j)
        return (self.p * c, v, y) if (i, j) == (1, 1) else (c, v, y)

    monkeypatch.setattr(OmegaImageModel, "res_class", planted)
    with pytest.raises(OmegaModelError, match=r"class c_1\(y\) in degree 2 has order p\^0, not p\^1"):
        chow_collapse(OmegaImageModel(p=3, factor_ns=(2,)))


def test_chow_collapse_refuses_a_product_outside_the_image(monkeypatch):
    # one defect: c_0(y)^2 = 9*y^2 becomes y^2, whose term c_0(y^2) = 3*y^2
    # carries with too high a valuation and no v-positive translate reaches
    mul = OmegaImageModel.mul

    def planted(self, a, b):
        out = mul(self, a, b)
        return (1, (), (2,)) if out == (9, (), (2,)) else out

    monkeypatch.setattr(OmegaImageModel, "mul", planted)
    with pytest.raises(OmegaModelError, match="not in the image submodule"):
        chow_collapse(OmegaImageModel(p=3, factor_ns=(2,)))


def test_chow_collapse_refuses_a_product_that_is_no_integer_multiple(monkeypatch):
    # one defect: c_1(y^2) restricts to 2*v_1*y^2, so c_1(y)*c_0(y) = 3*v_1*y^2
    # is 3/2 times it, p-local but no int
    res_class = OmegaImageModel.res_class

    def planted(self, t, i, j):
        c, v, y = res_class(self, t, i, j)
        return (2 * c, v, y) if (i, j) == (1, 2) else (c, v, y)

    monkeypatch.setattr(OmegaImageModel, "res_class", planted)
    with pytest.raises(OmegaModelError, match=r"c_1\(y\)\*c_0\(y\) is 3/2 times c_1\(y\^2\)"):
        chow_collapse(OmegaImageModel(p=3, factor_ns=(2,)))


def test_chow_collapse_refuses_two_generators_on_one_term(monkeypatch):
    # one defect: c_1(y) restricts to 9*y, on the term of res(c_0(y)) = 3*y
    res_class = OmegaImageModel.res_class

    def planted(self, t, i, j):
        return self.monomial(9, (), (1,)) if (i, j) == (1, 1) else res_class(self, t, i, j)

    monkeypatch.setattr(OmegaImageModel, "res_class", planted)
    with pytest.raises(OmegaModelError, match="two image generators share a term"):
        chow_collapse(OmegaImageModel(p=3, factor_ns=(2,)))


def test_torsion_ideal_names():
    obj = build_chow_rost(2, 3)
    names = torsion_ideal(obj.ring, obj.res)
    assert set(names) == {"c_1(y)", "c_2(y)"}


def test_torsion_ideal_rejects_nonvanishing_restriction():
    ring = toy_ring()
    tgt = cyclic_summands(2, [(0, 0, "1"), (2, 0, "u"), (4, 0, "w")])
    bad_res = GradedMap(
        source=ring.module(),
        target=tgt,
        columns={0: {0: {0: 1}}, 2: {0: {0: 1}}, 4: {}},
    )
    with pytest.raises(OmegaModelError):
        torsion_ideal(ring, bad_res)


def test_ideal_power_witness_finds_products():
    R = toy_ring()
    assert ideal_power_witness(R, ["t"], 2) == (("t", "t"), (("t2", 1),), 4)
    assert ideal_power_witness(R, ["t"], 3) is None


def test_rost_torsion_square_vanishes():
    obj = build_chow_rost(2, 3)
    names = torsion_ideal(obj.ring, obj.res)
    assert ideal_power_witness(obj.ring, names, 2) is None


def test_pfister_torsion_square_vanishes():
    obj = build_pfister_neighbor_chow(3)
    names = torsion_ideal(obj.ring, obj.res)
    assert names  # u_1, u_2 and their h-multiples
    assert ideal_power_witness(obj.ring, names, 2) is None


def truncated_polynomial_ring(p, top, generators=(1,)):
    """Z_(p)[a]/(a^top) on the basis a^0 .. a^(top-1), with the generators
    a^g for g in `generators`: L_{a^g}(a^i) = a^(g+i)."""
    basis = tuple(BasisClass(f"a^{i}", 2 * i, 0) for i in range(top))
    ops = {g: {i: (g + i, 1) for i in range(top - g)} for g in generators}
    return PresentedRing(p=p, basis=basis, unit=0, ops=ops)


def test_audit_accepts_truncated_polynomial_ring():
    ring = truncated_polynomial_ring(3, 35)
    ring.audit()
    # a^33 is a chain of 32 words down to the generator a; multiply walks it
    assert ring.multiply((17, 1), 17) == (34, 1)
    assert ring.multiply((1, 1), 33) == (34, 1)
    assert ring.multiply((2, 1), 33) is None
    truncated_polynomial_ring(3, 35, generators=(1, 3)).audit()


def operator_digest(op) -> str:
    # each term as the one-entry dict it was when the digests were recorded
    cols = {str(x): {str(k): str(c)} for x, (k, c) in sorted(op.items())}
    return hashlib.sha256(json.dumps(cols).encode()).hexdigest()


def test_operator_digests_hold_on_the_oracle_and_on_multiply():
    # the digests were recorded from the operator L_k of one class k, when
    # the ring still derived and kept it; h^61 is a chain of 60 words down to
    # the generator h.  The oracle's table and the terms of `multiply` by k
    # both give them
    pfister, words = pfister_neighbor_ring(5), kunneth_quotient_ring(2, 3, 1, 3)
    for ring, name, digest in [
        (pfister, "h^61", "1e4b479541d64f234270b842376f7be6a9a228d899b0aec88c00b7be00f12401"),
        (pfister, "u_1*h^29", "8966ca438760c817861ddc22db4ce47af0a6667b9d6a884c8310089aa5af66b6"),
        (pfister, "h^30", "c7390df6dee76816b94534a2e227345ffbb422e7af28252bac89accc555aeb99"),
        (words, "c_0(y_1)*c_0(y_2)*c_0(y_3)",
         "b077566b89db6f24bb94c9510293fa05c3dbdf173a2dfe42f9a410d002072a28"),
    ]:
        k = ring.index_of(name)
        by_term = {x: t for x in range(len(ring.basis)) if (t := ring.multiply((x, 1), k))}
        assert operator_digest(product_table(ring)[k]) == digest, name
        assert operator_digest(by_term) == digest, name


def test_audit_catches_nonassociative_large_table():
    # a sampled table audit missed (a^3 a^3) a != a^3 (a^3 a); as operators,
    # a wrong a^3*a^3 entry in the operator of the second generator a^3
    # breaks commutation
    good = truncated_polynomial_ring(3, 35, generators=(1, 3))
    ops = {g: dict(op) for g, op in good.ops.items()}
    ops[3][3] = (6, -1)
    bad = PresentedRing(p=3, basis=good.basis, unit=0, ops=ops)
    with pytest.raises(OmegaModelError, match="L_a\\^1 and L_a\\^3 do not commute on a\\^2"):
        bad.audit()


def test_audit_catches_product_in_wrong_degree():
    basis = (BasisClass("1", 0, 0), BasisClass("x", 2, 0), BasisClass("y", 6, 0))
    ops = {1: {0: (1, 1), 1: (2, 1)}, 2: {0: (2, 1)}}
    bad = PresentedRing(p=2, basis=basis, unit=0, ops=ops)
    with pytest.raises(OmegaModelError, match="wrong degree"):
        bad.audit()


def test_audit_catches_torsion_product_on_free_class():
    basis = (BasisClass("1", 0, 0), BasisClass("t", 2, 1), BasisClass("x", 4, 0))
    ops = {1: {0: (1, 1), 1: (2, 1)}, 2: {0: (2, 1)}}  # 2 * t^2 = (2t) t = 0, but 2x != 0
    bad = PresentedRing(p=2, basis=basis, unit=0, ops=ops)
    with pytest.raises(OmegaModelError, match="not killed"):
        bad.audit()


def test_audit_catches_generators_that_do_not_span():
    basis = (BasisClass("1", 0, 0), BasisClass("x", 2, 0), BasisClass("y", 2, 0))
    bad = PresentedRing(p=2, basis=basis, unit=0, ops={1: {0: (1, 1)}})
    with pytest.raises(OmegaModelError, match="do not span degree 2: y"):
        bad.audit()
    # idempotents g = (1,1,0), h = (0,1,0) of Z_(2)^3: g*h = h, yet g alone
    # generates only span(1, g); a generator may not vouch for its own degree
    basis = (BasisClass("1", 0, 0), BasisClass("g", 0, 0), BasisClass("h", 0, 0))
    L_g = {0: (1, 1), 1: (1, 1), 2: (2, 1)}
    L_h = {0: (2, 1), 1: (2, 1), 2: (2, 1)}
    bad = PresentedRing(p=2, basis=basis, unit=0, ops={1: L_g})
    with pytest.raises(OmegaModelError, match="do not span degree 0: h"):
        bad.audit()
    PresentedRing(p=2, basis=basis, unit=0, ops={1: L_g, 2: L_h}).audit()


def test_ideal_generators_need_generators_of_positive_degree():
    # the degree induction fails for an idempotent generator: g*h = h
    basis = (BasisClass("1", 0, 0), BasisClass("g", 0, 0), BasisClass("h", 0, 1))
    L_g = {0: (1, 1), 1: (1, 1), 2: (2, 1)}
    L_h = {0: (2, 1), 1: (2, 1), 2: (2, 1)}
    ring = PresentedRing(p=2, basis=basis, unit=0, ops={1: L_g, 2: L_h})
    with pytest.raises(OmegaModelError, match="generator g has degree <= 0"):
        ideal_generators(ring, ["h"])


def two_generator_ring(p, exp, gh, gk, hk):
    """Free g, h in degree 1 over Z_(p), k in degree 2 and t in degree 3 both
    of order p^exp, with g^2 = h^2 = k, g*h = gh*k, g*k = gk*t, h*k = hk*t."""
    names = ("1", "g", "h", "k", "t")
    basis = tuple(
        BasisClass(nm, d, e) for nm, d, e in zip(names, (0, 1, 1, 2, 3), (0, 0, 0, exp, exp))
    )
    L_g = {0: (1, 1), 1: (3, 1), 2: (3, gh), 3: (4, gk)}
    L_h = {0: (2, 1), 1: (3, gh), 2: (3, 1), 3: (4, hk)}
    return PresentedRing(p=p, basis=basis, unit=0, ops={1: L_g, 2: L_h})


@pytest.mark.parametrize("p, exp, gh, gk, hk", [(3, 1, 2, 2, 1), (2, 2, 3, 3, 1)])
def test_audit_commutes_modulo_the_order_of_the_target(p, exp, gh, gk, hk):
    # on the column g the two sides are gh*gk*t and hk*t, which differ by 3t
    # at p = 3 and by 8t at p = 2; t has order p^exp, so the operators commute
    ring = two_generator_ring(p, exp, gh, gk, hk)
    assert (gh * gk - hk) % p**exp == 0 and gh * gk != hk
    ring.audit()
    # a unit difference on the same column does not
    with pytest.raises(OmegaModelError, match="L_g and L_h do not commute on [gh]"):
        two_generator_ring(p, exp, gh, gk, hk + 1).audit()


def test_audit_compares_free_coefficients_exactly():
    # Z_(3)[x, y]/(x, y)^3 on the basis 1, x, y, x^2, w, y^2 with w = xy/3 a
    # generator, so that x*y = 3w: equal coefficients on both sides pass; 6
    # on one side fails, though it differs from 3 by 3, as w is free
    names = ("1", "x", "y", "x^2", "w", "y^2")
    basis = tuple(BasisClass(nm, d, 0) for nm, d in zip(names, (0, 2, 2, 4, 4, 4)))

    def ring(x_times_y):
        ops = {
            1: {0: (1, 1), 1: (3, 1), 2: (4, x_times_y)},
            2: {0: (2, 1), 1: (4, 3), 2: (5, 1)},
            4: {0: (4, 1)},
        }
        return PresentedRing(p=3, basis=basis, unit=0, ops=ops)

    good = ring(3)
    good.audit()
    assert good.multiply((good.index_of("x"), 1), good.index_of("y")) == (4, 3)
    with pytest.raises(OmegaModelError, match="L_x and L_y do not commute on 1"):
        ring(6).audit()


def square_zero_pair_ring(c):
    """Free classes x, y in degree 2 and u, w in degree 4 over Z_(3), with
    x^2 = c*u, xy = c*w, y^2 = 0 and nothing in degree 6."""
    names = ("1", "x", "y", "u", "w")
    basis = tuple(BasisClass(nm, d, 0) for nm, d in zip(names, (0, 2, 2, 4, 4)))
    ops = {1: {0: (1, 1), 1: (3, c), 2: (4, c)}, 2: {0: (2, 1), 1: (4, c)}}
    return PresentedRing(p=3, basis=basis, unit=0, ops=ops)


def test_audit_generation_needs_a_unimodular_span():
    # at c = 1 the products x^2 and xy are the words of u and w; at c = 3
    # they reach u and w only as 3u and 3w, a sublattice of index 9 in
    # degree 4, and a word is a unit times one column g*e_j, so u and w must
    # both be generators
    square_zero_pair_ring(1).audit()
    ring = square_zero_pair_ring(3)
    with pytest.raises(OmegaModelError, match="do not span degree 4: u, w"):
        ring.audit()
    ops = {**ring.ops, 3: {0: (3, 1)}, 4: {0: (4, 1)}}  # L_u(1) = u, L_w(1) = w
    ring = PresentedRing(ring.p, ring.basis, ring.unit, ops)
    ring.audit()
    for k, (c, g, j) in ring.words().items():  # g*e_j = c^-1 e_k
        t, d = ring.ops[g][j]
        assert (t, c * d) == (k, 1)
    x, u = ring.index_of("x"), ring.index_of("u")
    assert ring.multiply((x, 1), u) is None
    assert ring.multiply((x, 1), x) == (u, 3)


def test_canon_coeff_reduces_integers():
    assert _canon_coeff(7, 2, 3) == 7
    assert _canon_coeff(-1, 1, 2) == 1
    assert _canon_coeff(-5, 0, 3) == -5
    assert _canon_coeff(9, 2, 3) == 0
    assert _canon_coeff(-7, 2, 3) == 2


def test_ring_quotient_needs_an_ideal():
    ring = chow_rost_ring(3, 2)
    # c_0(y)^2 = 3 c_0(y^2), so the span of c_0(y) is no ideal
    with pytest.raises(OmegaModelError, match=r"c_0\(y\)\*c_0\(y\) has a term c_0\(y\^2\)"):
        ring_quotient(ring, ["c_0(y)"])
    with pytest.raises(OmegaModelError, match="unit"):
        ring_quotient(ring, ["1"])
    quotient = ring_quotient(ring, ["c_1(y)", "c_1(y^2)"])
    quotient.audit()
    assert [b.name for b in quotient.basis] == ["1", "c_0(y)", "c_0(y^2)"]
    c0 = quotient.index_of("c_0(y)")
    assert quotient.multiply((c0, 1), c0) == (quotient.index_of("c_0(y^2)"), 3)


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


def test_ring_quotient_rejects_a_non_ideal_of_a_tensor():
    # the tensor of two factors is certified, not audited; killing c_1(y_1)
    # alone is no ideal, as c_0(y_2) carries it to c_1(y_1)*c_0(y_2)
    T = ring_tensor(gr_m_rost_ring(3, 2, 1, var="y_1"), gr_m_rost_ring(3, 2, 1, var="y_2"))
    with pytest.raises(
        OmegaModelError,
        match=re.escape(
            "the killed classes span no ideal: c_0(y_2)*c_1(y_1) has a term c_1(y_1)*c_0(y_2)"
        ),
    ):
        ring_quotient(T, ["c_1(y_1)"])


def gr_m_factors():
    return gr_m_rost_ring(3, 2, 1, var="y_1"), gr_m_rost_ring(3, 2, 1, var="y_2")


def chow_factors():
    return chow_rost_ring(2, 2, var="y_1"), chow_rost_ring(2, 3, var="y_2")


def torsion_unit_factors():
    # F_3[t]/(t^2), whose unit has order 3, so every free class of the Chow
    # factor gets order 3 in the tensor: c_0(y)*c_0(y) = 3 c_0(y^2) vanishes
    basis = (BasisClass("1", 0, 1), BasisClass("t", 2, 1))
    ring = PresentedRing(3, basis, 0, {1: {0: (1, 1)}})
    ring.audit()
    return ring, chow_rost_ring(3, 2)


@pytest.mark.parametrize(
    "factors, killed, pairs, message",
    [
        (gr_m_factors, (), [("c_1(y_1)", "c_1(y_1^2)")], "degrees 2 and 6"),
        (chow_factors, (), [("c_0(y_2)", "c_0(y_1)*c_2(y_2)")], "torsion exponents 0 and 1"),
        (gr_m_factors, (), [("c_0(y_1)", "c_0(y_2)")], "difference of two equal single terms"),
        (gr_m_factors, (), [("c_1(y_1)", "c_1(y_2)")], "difference of two equal single terms"),
        (gr_m_factors, ["c_1(y_1)"], (), "the killed classes span no ideal"),
        (gr_m_factors, ["1"], (), "the unit cannot be killed"),
        (gr_m_factors, ["c_9(y_1)"], (), "no basis class named 'c_9\\(y_1\\)'"),
        (gr_m_factors, (), [("c_0(y_1)", "c_9(y_2)")], "no basis class named"),
    ],
)
def test_a_tensor_parent_fails_as_its_written_out_ring_does(factors, killed, pairs, message):
    # ring_quotient reads the lazy tensor and the built one alike, so each
    # error names the same classes and generator
    A, B = factors()
    raised = []
    for parent in (TensorParent(A, B), ring_tensor(A, B)):
        with pytest.raises(OmegaModelError, match=message) as err:
            ring_quotient(parent, killed, pairs)
        raised.append(str(err.value))
    assert raised[0] == raised[1]


@pytest.mark.parametrize("factors", [gr_m_factors, chow_factors, torsion_unit_factors])
def test_a_tensor_parent_with_no_pairs_gives_the_audited_tensor(factors):
    A, B = factors()
    T = TensorParent(A, B)
    for x, b in enumerate(T.basis):  # every row term canonical and nonzero
        for k, c in T.row(x).values():
            assert c and c == _canon_coeff(c, T.basis[k].torsion_exp, T.p), (b.name, k, c)
    ring = ring_quotient(T)
    ring.audit()
    built = ring_tensor(A, B)
    assert ring_json(ring) == ring_json(ring_quotient(built))
    assert sorted(ring.basis, key=lambda b: b.name) == sorted(built.basis, key=lambda b: b.name)


# tensors of certified factors, so certified, not audited: two factors at
# p=3, and three at p=2, where the closure links pairs across factors
SMALL_TENSORS = (
    ring_tensor(gr_m_rost_ring(3, 2, 1, var="y_1"), gr_m_rost_ring(3, 2, 1, var="y_2")),
    reduce(ring_tensor, [gr_m_rost_ring(2, 2, 1, var=f"y_{t}") for t in (1, 2, 3)]),
)


@st.composite
def quotient_data(draw):
    """A small tensor, killed classes and identified pairs: no cut or a
    degree cut, which is an ideal, plus a few random classes, and pairs of
    one degree and one order.  About a third of the draws span an ideal."""
    ring = draw(st.sampled_from(SMALL_TENSORS))
    basis = ring.basis
    cut = draw(st.none() | st.sampled_from(sorted({b.degree for b in basis})))
    killed = {b.name for b in basis if cut is not None and b.degree >= cut}
    killed |= draw(st.sets(st.sampled_from([b.name for b in basis[1:]]), max_size=1))
    shapes: dict = {}
    for b in basis:
        shapes.setdefault((b.degree, b.torsion_exp), []).append(b.name)
    same_shape = [pair for names in shapes.values() for pair in itertools.combinations(names, 2)]
    pairs = draw(st.lists(st.sampled_from(same_shape), max_size=3))
    return ring, sorted(killed), pairs


def ideal_quotient_form(ring: PresentedRing, killed, pairs):
    """Normal form of ring/J, J the ideal the killed classes and the pair
    differences generate, from the module relations w*k and w*(a - b) over
    every basis class w."""
    spans = [{ring.index_of(k): 1} for k in killed]
    spans += [{ring.index_of(a): 1, ring.index_of(b): -1} for a, b in pairs if a != b]
    module, rels, table = ring.module(), [], product_table(ring)
    for w, vec in itertools.product(range(len(ring.basis)), spans):
        if prod := vector_product(ring, table, {w: 1}, vec):
            d = ring.basis[min(prod)].degree
            rel = [0] * module.gens_at(d)
            for k, c in prod.items():
                rel[module.generator_index(ring.basis[k].name)[1]] = c
            rels.append((d, rel))
    return normalize(graded_quotient(module, rels))


@given(quotient_data())
def test_ring_quotient_returns_only_rings_that_pass_the_audit(data):
    # the lemma of ring_quotient: the closure certifies the identified
    # classes and the check the killed ones, so whatever it returns is a
    # ring, and additively it is the quotient by the ideal they generate
    ring, killed, pairs = data
    try:
        quotient = ring_quotient(ring, killed, pairs)
    except OmegaModelError:
        return
    quotient.audit()
    assert normalize(quotient.module()) == ideal_quotient_form(ring, killed, pairs)


def test_ring_quotient_closes_the_pairs_under_the_generators():
    T = reduce(ring_tensor, [gr_m_rost_ring(2, 2, 1, var=f"y_{t}") for t in (1, 2, 3)])
    # only two-factor pairs, as in the Kunneth ideal J
    pairs = [
        (f"c_1(y_{r})*c_0(y_{t})", f"c_0(y_{r})*c_1(y_{t})")
        for r, t in [(1, 2), (1, 3), (2, 3)]
    ]
    quotient = ring_quotient(T, identified=pairs)
    quotient.audit()
    names = [b.name for b in quotient.basis]
    assert "c_1(y_1)*c_0(y_2)*c_0(y_3)" in names
    assert "c_0(y_1)*c_1(y_2)*c_0(y_3)" not in names
    assert "c_0(y_1)*c_0(y_2)*c_1(y_3)" not in names
    # one class lost per two-factor pair, two per three-factor torsion count
    assert len(names) == len(T.basis) - 3 - 2 - 2
    assert names == [b.name for b in sorted(quotient.basis, key=lambda b: (b.degree, b.name))]
    word = quotient.multiply(
        (quotient.index_of("c_0(y_1)"), 1), quotient.index_of("c_1(y_2)*c_0(y_3)")
    )
    assert word == (quotient.index_of("c_1(y_1)*c_0(y_2)*c_0(y_3)"), 1)


DATA = Path(__file__).parent / "data"


def pinned_rings():
    """(label, builder) for every catalog ring pin, the tensor and collapse
    pins, and the word-ring pins of at most 500 classes."""
    for e in json.loads((DATA / "catalog_ring_sha256.json").read_text()):
        yield f"{e['ring']}{e['args']}", partial(getattr(catalog, e["ring"]), *e["args"])
    for e in json.loads((DATA / "kunneth_ring_sha256.json").read_text()):
        p, _, _, s = e["args"]
        if p**s + s * (p - 1) * p ** (s - 1) <= 500:  # its number of classes
            yield f"word_ring{e['args']}", partial(kunneth_quotient_ring, *e["args"])
    derived = {
        "product_rost.ring": lambda p, n: build_product_rost(p, n).ring,
        "product_rost.bar": lambda p, n: build_product_rost(p, n).bar,
        "chow_collapse": lambda p, n: chow_collapse(OmegaImageModel(p, (n,))),
    }
    for e in json.loads((DATA / "derived_ring_sha256.json").read_text()):
        yield f"{e['ring']}{e['args']}", partial(derived[e["ring"]], *e["args"])


HAND_BUILT = [
    ("toy", toy_ring),
    ("a^35", partial(truncated_polynomial_ring, 3, 35)),
    ("a^35 on a, a^3", partial(truncated_polynomial_ring, 3, 35, (1, 3))),
    ("inverted unit", inverted_unit_ring),
    ("two generators p=3", partial(two_generator_ring, 3, 1, 2, 2, 1)),
    ("two generators p=2", partial(two_generator_ring, 2, 2, 3, 3, 1)),
    ("unit of order 3", lambda: ring_tensor(*torsion_unit_factors())),
]
PRODUCT_CASES = [*pinned_rings(), *HAND_BUILT]


@pytest.mark.parametrize(
    "build", [b for _, b in PRODUCT_CASES], ids=[label for label, _ in PRODUCT_CASES]
)
def test_multiply_gives_the_oracle_product_of_every_pair(build):
    # the oracle derives each class's operator from the class below its word,
    # in degree order; `multiply` walks the words of one class per call
    ring = build()
    table = product_table(ring)
    for k, x in itertools.product(range(len(ring.basis)), repeat=2):
        assert ring.multiply((x, 1), k) == table[k].get(x), (ring.basis[x].name, ring.basis[k].name)
