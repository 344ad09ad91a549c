"""Product decompositions, the identification ideal, and the verifier suite."""

import hashlib
import itertools
import json
import math
from dataclasses import FrozenInstanceError
from functools import reduce
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rostcalc import catalog, kunneth
from rostcalc.catalog import (
    bar_rost_ring,
    build_excellent_quadric_chow,
    build_pfister_neighbor_chow,
    build_product_rost,
    catalog_build,
    chow_rost_ring,
    gr_m_rost_ring,
    pfister_neighbor_ring,
)
from rostcalc.exact_linalg import SpanSolver
from rostcalc.graded import (
    DegreeComponent,
    GradedFPModule,
    direct_sum,
    normalize,
    quotient,
    tensor_product,
)
from rostcalc.kunneth import (
    CLAIMS,
    BarKmModel,
    KunnethError,
    THEOREM_IDS,
    c_decomposition,
    default_grid,
    image_preset,
    j_ideal,
    j_res_vanishes,
    kunneth_map,
    kunneth_quotient_ring,
    mono_name,
    product_image,
    second_display_sides,
    star_star_check,
    star_star_holds,
    tilde_bar_module,
    verify_theorem,
    versal_image,
    word_slots,
)
from rostcalc.omega import (
    BasisClass,
    OmegaImageModel,
    OmegaModelError,
    PresentedRing,
    ideal_generators,
    ideal_power_witness,
    ring_quotient,
    ring_tensor,
)


# --- decomposition ---------------------------------------------------------


def test_c_decomposition_sizes():
    for p, n1, n2, m in [(2, 2, 2, 1), (3, 2, 2, 1), (2, 3, 3, 2)]:
        c0, c1, c2 = c_decomposition(p, n1, n2, m)
        sq = (p - 1) ** 2
        assert normalize(c0).aggregate() == (sq, ())
        assert normalize(c1).aggregate() == (0, (1,) * sq)
        assert normalize(c2).aggregate() == (0, (1,) * (2 * sq))


def test_c_decomposition_range_check():
    with pytest.raises(KunnethError, match="carry the class"):
        c_decomposition(2, 2, 2, 2)
    with pytest.raises(KunnethError):
        c_decomposition(2, 3, 2, 2)


def test_c_decomposition_total_is_the_tensor_square():
    total = normalize(reduce(direct_sum, c_decomposition(3, 2, 2, 1))).aggregate()
    assert total == (4, (1,) * 12)


# --- the ideal -------------------------------------------------------------


def test_j_ideal_counts():
    assert len(j_ideal(2, 1, 2)) == 1
    assert len(j_ideal(3, 1, 2)) == 4
    assert len(j_ideal(5, 1, 2)) == 16
    assert len(j_ideal(3, 2, 3)) == 12
    with pytest.raises(KunnethError):
        j_ideal(2, 1, 1)


def test_j_generator_names():
    g = j_ideal(3, 1, 2)[0]
    assert g.positive_name == "c_1(y_1)*c_0(y_2)"
    assert g.negative_name == "c_0(y_1)*c_1(y_2)"


def test_j_res_vanishes_everywhere():
    for p, m, s, n in [(2, 1, 2, 3), (3, 1, 2, 2), (2, 1, 3, 3)]:
        model = BarKmModel(p=p, m=m, factor_ns=(n,) * s)
        assert j_res_vanishes(j_ideal(p, m, s), model)


def test_j_shaped_difference_on_different_monomials_does_not_restrict_to_zero():
    # anti-vacuity: c_m(y_1) c_0(y_2^2) - c_0(y_1^2) c_m(y_2) moves the labels
    # and the monomial at once (y_1 y_2^2 against y_1^2 y_2), so it survives
    model = BarKmModel(p=3, m=1, factor_ns=(2, 2))
    first = model.res_word(((1, 1), (0, 2)))
    second = model.res_word(((0, 2), (1, 1)))
    assert first == (3, ((1, 1),), (1, 2))
    assert second == (3, ((1, 1),), (2, 1))  # the same term on another monomial


# --- (**) ------------------------------------------------------------------


def hand_versal_image(model):
    # the generators listed by hand: p^(|slots| - nv) v^nv Y for every Y with
    # support `slots` and every 0 <= nv <= |slots|
    gens = []
    s = model.nfactors
    for mask in range(1, 2**s):
        slots = [t for t in range(s) if mask >> t & 1]
        for exps in itertools.product(range(1, model.p), repeat=len(slots)):
            full = [0] * s
            for t, e in zip(slots, exps):
                full[t] = e
            for nv in range(0, len(slots) + 1):
                gens.append(model.vm_monomial(model.p ** (len(slots) - nv), full, nv))
    return gens


def test_versal_image_is_the_restriction_of_the_c0_cm_words():
    for p in (2, 3, 5):
        for s in (1, 2, 3):
            for n, m in [(2, 1), (3, 2)]:
                model = BarKmModel(p=p, m=m, factor_ns=(n,) * s)
                derived = versal_image(model)
                assert len(set(derived)) == len(derived), (p, s, n, m)  # deduplicated
                assert set(derived) == set(hand_versal_image(model))


def test_versal_image_blocks_both_multiples():
    model = BarKmModel(p=2, m=1, factor_ns=(3, 3))
    result = star_star_check(model, versal_image(model))
    assert star_star_holds(result)
    assert set(result) == {"y_1*y_2"}
    assert result["y_1*y_2"] == {"p": False, "v": False}


def test_product_image_breaks_the_criterion():
    model = BarKmModel(p=2, m=1, factor_ns=(3, 3))
    result = star_star_check(model, product_image(model))
    assert not star_star_holds(result)
    assert result["y_1*y_2"]["p"] and result["y_1*y_2"]["v"]


def test_image_preset_dispatch():
    model = BarKmModel(p=2, m=1, factor_ns=(2, 2))
    assert image_preset(model, "none") is None
    assert image_preset(model, "versal")
    with pytest.raises(KunnethError):
        image_preset(model, "wat")


def test_bar_element_form():
    model = BarKmModel(p=3, m=1, factor_ns=(2,))
    assert model.vm_monomial(2, (1,), 1) == (2, ((1, 1),), (1,))
    y_v = model.vm_monomial(1, (1,), 1)
    assert model.mul(y_v, model.vm_monomial(5, (1,), 2)) == (5, ((1, 3),), (2,))  # v-powers add
    assert model.mul(y_v, model.vm_monomial(1, (2,), 0)) is None  # y^3 = 0 at p = 3
    assert model.vm_monomial(0, (1,), 1) is None  # zero is None
    assert model.vm_monomial(1, (3,), 0) is None


def test_span_membership_sees_v_shifts():
    model = BarKmModel(p=2, m=1, factor_ns=(2,))
    index = model.term_index([model.vm_monomial(2, (1,), 0)])  # 2*y
    assert model.span_contains(index, model.vm_monomial(2, (1,), 1))  # 2vy = v * (2y)
    assert not model.span_contains(index, model.vm_monomial(1, (1,), 0))


@pytest.mark.parametrize("p, n, m", [(2, 2, 1), (3, 2, 1), (5, 2, 1), (3, 3, 2), (2, 4, 3)])
def test_star_star_check_matches_one_span_contains_per_target(p, n, m):
    # one term index answers as an index per target would
    model = BarKmModel(p=p, factor_ns=(n, n), m=m)
    for image in (versal_image(model), product_image(model)):
        expected = {
            mono_name(exps): {
                "p": model.span_contains(model.term_index(image), model.vm_monomial(p, exps, 0)),
                "v": model.span_contains(model.term_index(image), model.vm_monomial(1, exps, 1)),
            }
            for exps in itertools.product(range(1, p), repeat=2)
        }
        assert star_star_check(model, image) == expected


def _v_monomials(weight, indices, p):
    # every v-monomial in the v_i, i in indices, of exact weight sum e_i*(p^i - 1)
    if not indices:
        return [()] if weight == 0 else []
    i, step = indices[0], p ** indices[0] - 1
    return [
        (((i, e),) if e else ()) + vm
        for e in range(weight // step + 1)
        for vm in _v_monomials(weight - e * step, indices[1:], p)
    ]


def _column(term):
    # a term (c, v, Y) as a sparse column {(v, Y): c}
    c, v, y = term
    return {(v, y): c}


def _full_degree_span(model, image, target, spans=None):
    # the oracle: one span over every v_m-translate of every generator into the
    # degree of target, each translate a dict column of its own, factored by
    # SpanSolver once per degree into `spans`
    d, spans = model.term_degree(target), {} if spans is None else spans
    if d not in spans:
        one = (0,) * model.nfactors
        cols = [
            _column(model.mul(model.monomial(1, vm, one), g))
            for g in image
            if model.term_degree(g) >= d
            for vm in _v_monomials(model.term_degree(g) - d, (model.m,), model.p)
        ]
        spans[d] = SpanSolver(model.p, cols)
    return spans[d].contains(_column(target))


def _term_image(model):
    # hand-written one-term generators at p = 3, n = 2 (y has degree 4, v = v_1
    # degree -2, v_2 degree -8): rows that share Y at different v-exponents,
    # p-power coefficients, and a v_2 key that no v_1-translate changes
    v2 = lambda c, y: model.monomial(c, ((2, 1),), y)
    return [
        model.vm_monomial(3, (1, 1), 0),  # 3*y1*y2
        model.vm_monomial(9, (1, 1), 0),  # 9*y1*y2, a second generator on the same row
        model.vm_monomial(1, (2, 1), 1),  # v*y1^2*y2
        model.vm_monomial(9, (1, 2), 2),  # 9*v^2*y1*y2^2
        model.vm_monomial(1, (2, 2), 0),  # y1^2*y2^2
        model.vm_monomial(3, (0, 1), 3),  # 3*v^3*y2
        model.vm_monomial(27, (1, 0), 0),  # 27*y1
        v2(1, (1, 2)),  # v_2*y1*y2^2
    ]


def test_term_rule_star_star_check_matches_the_full_degree_span():
    model = BarKmModel(p=3, factor_ns=(2, 2), m=1)
    image = _term_image(model)
    expected = {
        mono_name(exps): {
            kind: _full_degree_span(model, image, model.vm_monomial(c, exps, k))
            for kind, c, k in (("p", 3, 0), ("v", 1, 1))
        }
        for exps in itertools.product((1, 2), repeat=2)
    }
    assert star_star_check(model, image) == expected
    # 3*y1*y2 is a generator (9*y1*y2 on its row does not hide it) but
    # v*y1*y2 = v*(3*y1*y2)/3 is not integral;
    # v*y1^2*y2 is a generator but no v-exponent below 1 reaches 3*y1^2*y2;
    # 9*v^2*y1*y2^2 reaches neither, and y1^2*y2^2 reaches both
    assert expected == {
        "y_1*y_2": {"p": True, "v": False},
        "y_1*y_2^2": {"p": False, "v": False},
        "y_1^2*y_2": {"p": False, "v": True},
        "y_1^2*y_2^2": {"p": True, "v": True},
    }


def test_term_rule_span_contains_matches_the_full_degree_span():
    model = BarKmModel(p=3, factor_ns=(2, 2), m=1)
    image = _term_image(model)
    index = model.term_index(image)
    v1v2 = lambda c, y: model.monomial(c, ((1, 1), (2, 1)), y)
    cases = [
        # two rows of degree 8: 3*y1*y2 is in, y1*y2 with a unit coefficient
        # is not, and v^2*y1^2*y2 is v * (v*y1^2*y2)
        (model.vm_monomial(3, (1, 1), 0), True),
        (model.vm_monomial(1, (1, 1), 0), False),
        (model.vm_monomial(1, (2, 1), 2), True),
        (model.vm_monomial(1, (2, 0), 0), False),  # a Y no generator touches
        (model.vm_monomial(3, (0, 1), 4), True),  # v * (3*v^3*y2)
        (model.vm_monomial(1, (0, 1), 4), False),  # v_p(1) < v_p(3)
        (model.vm_monomial(3, (0, 1), 2), False),  # no v-exponent below 2 on y2
        (model.vm_monomial(9, (1, 2), 3), True),
        (model.vm_monomial(3, (1, 2), 3), False),
        (v1v2(1, (1, 2)), True),  # v_1 * v_2*y1*y2^2
        (model.vm_monomial(1, (1, 2), 5), False),  # v_1^5 has the degree of v_2*v_1 but not its key
        (model.vm_monomial(54, (1, 0), 0), True),  # 2 * 27*y1
        (None, True),  # zero
    ]
    for target, hit in cases:
        assert model.span_contains(index, target) is hit, target
        if target is not None:
            assert _full_degree_span(model, image, target) is hit, target


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_term_rule_matches_the_full_degree_span_on_every_preset(p):
    for s, (n, m) in itertools.product((1, 2, 3), [(2, 1), (3, 2)]):
        model = BarKmModel(p=p, factor_ns=(n,) * s, m=m)
        for image in (versal_image(model), product_image(model)):
            spans = {}
            expected = {
                mono_name(exps): {
                    kind: _full_degree_span(model, image, model.vm_monomial(c, exps, k), spans)
                    for kind, c, k in (("p", p, 0), ("v", 1, 1))
                }
                for exps in itertools.product(range(1, p), repeat=s)
            }
            assert star_star_check(model, image) == expected, (p, s, n, m)


@st.composite
def _one_term_generators(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.sampled_from([1, 2]))
    model = BarKmModel(p=p, factor_ns=(3, 3), m=m)

    def term():
        c = draw(st.integers(1, p - 1)) * p ** draw(st.integers(0, 3)) * draw(st.sampled_from([1, -1]))
        v = {m: draw(st.integers(0, 3)), 3 - m: draw(st.integers(0, 1)), 3: draw(st.integers(0, 1))}
        y = tuple(draw(st.integers(0, p - 1)) for _ in range(2))
        return model.monomial(c, tuple((i, e) for i, e in sorted(v.items()) if e), y)

    return model, [term() for _ in range(draw(st.integers(0, 8)))], [term() for _ in range(6)]


@given(_one_term_generators())
def test_term_rule_matches_the_full_degree_span_on_random_generators(case):
    # keys with v_i other than v_m, p-power coefficients and repeated rows
    model, image, targets = case
    index = model.term_index(image)
    for target in targets:
        assert model.span_contains(index, target) is _full_degree_span(model, image, target), target


@pytest.mark.parametrize("params", [{"p": 3}, {"p": 5}, {"p": 3, "n": 3, "m": 2}])
def test_cor_4_2_refutes_when_one_p_multiple_is_in_the_image(monkeypatch, params):
    # one-entry defect: the versal image gains p * y_1 * y_2
    def planted(model):
        return [*versal_image(model), model.vm_monomial(model.p, (1, 1), 0)]

    monkeypatch.setattr(kunneth, "versal_image", planted)
    r = verify_theorem("cor-4.2", params)
    assert r.verdict == "refuted"
    assert r.left["y_1*y_2"] == {"p": True, "v": False}
    assert sum(hit["p"] or hit["v"] for hit in r.left.values()) == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cor_3_6_refutes_against_the_wrong_chow_ring(monkeypatch, p):
    # one defect: the right side gets the n=3 Chow ring in place of n=2
    monkeypatch.setattr(kunneth, "chow_rost_ring", lambda p, n, var="y": chow_rost_ring(p, 3, var))
    r = verify_theorem("cor-3.6", {"p": p})
    assert r.verdict == "refuted"
    assert r.left["v_torsion"] == []  # the v-torsion side alone still holds
    assert any(note.startswith("degree ") for note in r.notes)


@pytest.mark.parametrize("params", [{"p": 3}, {"p": 5}, {"p": 3, "n": 3, "m": 2}])
def test_remark_4_2_negative_refutes_on_the_versal_image(monkeypatch, params):
    # the negative control must fail where the criterion (**) holds
    monkeypatch.setattr(kunneth, "product_image", versal_image)
    r = verify_theorem("remark-4.2-negative", params)
    assert r.verdict == "refuted"
    assert star_star_holds(r.right["star_star"])
    assert r.left["kernel_classes"]  # the kernel side alone still holds


def test_malformed_image_generator_raises():
    # an image generator is a term (c, v, Y); the old dict format, a zero
    # coefficient and a bare key are refused, each named
    model = BarKmModel(p=2, m=1, factor_ns=(2, 2))
    for bad in ({((), (1, 1)): 2}, (0, (), (1, 1)), ((), (1, 1))):
        with pytest.raises(OmegaModelError, match="is not a term") as exc:
            star_star_check(model, [*versal_image(model), bad])
        assert repr(bad) in str(exc.value)
        with pytest.raises(OmegaModelError, match="is not a term"):
            model.term_index([bad])


def test_bar_model_rejects_objects_without_c_m():
    for p, ns, m in [(3, (2, 2), 0), (3, (2, 2), 5), (2, (2, 2), 4), (2, (3, 2), 2)]:
        with pytest.raises(KunnethError, match="carry the class c_m"):
            BarKmModel(p=p, m=m, factor_ns=ns)
    with pytest.raises(OmegaModelError, match="n must be >= 2"):
        BarKmModel(p=2, m=1, factor_ns=(1, 1))
    with pytest.raises(OmegaModelError, match="must be prime"):
        BarKmModel(p=4, m=1, factor_ns=(2, 2))


# --- the tilde module and the word slots ----------------------------------


def test_tilde_quotient_keeps_full_support_only():
    full = build_product_rost(2, 2).bar.module()
    assert normalize(full).aggregate() == (4, ())
    assert normalize(tilde_bar_module(2, (2, 2))).aggregate() == (1, ())


def test_word_slot_aggregates():
    p, s = 3, 2
    slots = word_slots(kunneth_quotient_ring(p, 2, 1, s), s)
    for k in range(0, s):
        assert slots[k] == (0, (1,) * (p - 1) ** s), k
    assert slots[s] == ((p - 1) ** s, ())


def test_second_display_sides_agree():
    left, right = second_display_sides(2, 3, 3, 1)
    assert left == right
    assert left["slot_4"] == {"free": 1, "torsion": []}


# --- the quotient ring and power witnesses --------------------------------


# `ring_quotient` certifies each stage of the word ring by its closure and
# audits none of them; the tests below run the full audit on the results.


def test_kunneth_quotient_ring_audits():
    for p, n, m, s in [(2, 2, 1, 2), (3, 2, 1, 2), (2, 3, 1, 3)]:
        ring = kunneth_quotient_ring(p, n, m, s)
        ring.audit()
        assert "1" in [b.name for b in ring.basis]


@pytest.mark.parametrize(
    "p, n, m, s",
    [
        # the grid's (p, s)
        (2, 2, 1, 2), (2, 2, 1, 3), (3, 2, 1, 2), (3, 2, 1, 3),
        # off the grid: more factors, a larger p, c_m with m = 2, and the
        # 15,625 classes of cor-1.3 at p=5 s=5
        (2, 2, 1, 5), (3, 2, 1, 4), (5, 2, 1, 2), (5, 2, 1, 3), (7, 2, 1, 2),
        (2, 3, 2, 3), (3, 3, 1, 3), (5, 2, 1, 5),
    ],
)
def test_word_ring_size_matches_its_formula(p, n, m, s):
    # a class of gr_m(R')^{(x) s}/J is a set of k factors, a power y_t^j
    # with 0 < j < p on each, and its number of c_m labels, 0..k, as J moves
    # the labels between factors: sum_k C(s,k) (p-1)^k (k+1) classes, which
    # is p^s + s(p-1)p^(s-1); a class is free exactly when it has no c_m label
    size = sum(math.comb(s, k) * (p - 1) ** k * (k + 1) for k in range(s + 1))
    assert size == p**s + s * (p - 1) * p ** (s - 1)
    ring = kunneth_quotient_ring(p, n, m, s)
    assert len(ring.basis) == size
    for b in ring.basis:
        assert b.torsion_exp == (1 if f"c_{m}(" in b.name else 0), b.name
    assert sum(not b.torsion_exp for b in ring.basis) == p**s


def grid_rost_triples():
    """Every (p, n, m) of a Rost factor that a verify-all report reads."""
    triples = set()
    for _, params in default_grid():
        if "p" in params:
            ns = (params["n1"], params["n2"]) if "n1" in params else (params.get("n", 2),)
            triples.update((params["p"], n, params.get("m", 1)) for n in ns)
    return sorted(triples)


@pytest.mark.parametrize("p, n, m", grid_rost_triples())
def test_gr_m_rost_ring_audits(p, n, m):
    gr_m_rost_ring(p, n, m).audit()


PINNED_RINGS = json.loads((Path(__file__).parent / "data" / "kunneth_ring_sha256.json").read_text())


@pytest.mark.parametrize("entry", PINNED_RINGS, ids=lambda e: str(e["args"]))
def test_kunneth_quotient_ring_is_pinned(entry):
    # sha256 of the sorted-key JSON of each ring (p, n, m, s), recorded from
    # the hand-written word table that gr_m(R')^{(x) s}/J replaced; the two
    # five-factor rings from the one-shot quotient of the full tensor, before
    # the build folded in one factor at a time; (5,2,1,4) and (3,2,1,6) while
    # every quotient was still re-audited from scratch
    ring = kunneth_quotient_ring(*entry["args"])
    ring.audit()
    digest = hashlib.sha256(json.dumps(ring.to_json(), sort_keys=True).encode()).hexdigest()
    assert digest == entry["sha256"]


@pytest.mark.parametrize(
    "p, ns", [(2, (2, 2, 2, 2)), (3, (2, 2, 2)), (3, (2, 3)), (2, (3, 2, 4)), (5, (2, 2))]
)
def test_folded_word_ring_is_the_quotient_of_the_full_tensor(p, ns):
    # (A/I) (x) B = (A (x) B)/(I (x) B): folding J in factor by factor gives
    # the ring of the one-shot quotient, names and basis order included
    factors = [gr_m_rost_ring(p, n, 1, var=f"y_{t}") for t, n in enumerate(ns, 1)]
    pairs = [(g.positive_name, g.negative_name) for g in j_ideal(p, 1, len(ns))]
    full = ring_quotient(reduce(ring_tensor, factors), identified=pairs)
    folded = kunneth._word_ring(p, ns, 1)
    full.audit()
    folded.audit()
    assert folded.to_json() == full.to_json()


@pytest.mark.parametrize("p, ns", [(3, (2, 2, 2)), (2, (2, 2, 2, 2)), (2, (3, 2, 4))])
def test_every_fold_stage_passes_the_audit(monkeypatch, p, ns):
    # the build certifies each stage Q_t by ring_quotient's lemma and audits
    # none; audit every stage, not only the last
    stages = []

    def recorded(*args, **kwargs):
        stages.append(ring_quotient(*args, **kwargs))
        return stages[-1]

    monkeypatch.setattr(kunneth, "ring_quotient", recorded)
    assert kunneth._word_ring(p, ns, 1) is stages[-1]
    assert len(stages) == len(ns) - 1
    for stage in stages:
        stage.audit()


def test_word_rings_are_built_once_and_frozen():
    ring = kunneth._word_ring(3, (2, 2), 1)
    assert kunneth._word_ring(3, (2, 2), 1) is ring
    assert kunneth_quotient_ring(3, 2, 1, 2) is ring
    with pytest.raises(FrozenInstanceError):
        ring.ops = {}


def test_word_ring_cache_is_bounded():
    # a sweep of parameters keeps at most 8 rings alive
    keys = {(p, ns, 1) for p in (2, 3, 5) for ns in ((2,), (3,), (2, 2))}
    assert len(keys) == 9
    for key in sorted(keys):
        kunneth._word_ring(*key)
    assert kunneth._word_ring.cache_info().currsize == 8


def test_word_ring_cache_holds_every_grid_ring():
    # the bound evicts nothing on a verify-all pass: every miss is still
    # cached at the end, so every repeat was a hit
    for id_, params in default_grid():
        verify_theorem(id_, params)
    info = kunneth._word_ring.cache_info()
    assert info.hits > 0
    assert info.misses == info.currsize <= info.maxsize


def drop_one_j_generator(monkeypatch, k):
    # one-entry defect: J loses its generator k
    def planted(p, m, s):
        gens = list(j_ideal(p, m, s))
        del gens[k]
        return tuple(gens)

    monkeypatch.setattr(kunneth, "j_ideal", planted)
    kunneth._word_ring.cache_clear()  # rings built from the intact J


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize(
    "id_, params",
    [
        ("thm-6.9", {"p": 2, "s": 2}),
        ("thm-6.9", {"p": 3, "s": 2}),
        ("cor-6.10", {"p": 2, "s": 2}),
        ("thm-1.1", {"p": 3}),
        ("lemma-4.1", {"p": 3}),
    ],
)
def test_word_ring_claims_refute_when_j_loses_a_generator(monkeypatch, id_, params, k):
    assert verify_theorem(id_, params).verdict == "verified"
    drop_one_j_generator(monkeypatch, k)
    assert verify_theorem(id_, params).verdict == "refuted"


def test_cor_1_3_survives_a_smaller_j(monkeypatch):
    # J only identifies basis classes, so a smaller J keeps every product of
    # torsion generators on distinct factors nonzero: cor-1.3 stays verified
    drop_one_j_generator(monkeypatch, 0)
    assert verify_theorem("cor-1.3", {"p": 3, "s": 2}).verdict == "verified"


def raise_torsion_orders(monkeypatch):
    # defect: every torsion class of each gr_m factor gets order p^2; the
    # factor is still a ring, audited here since the build certifies only
    # from audited factors
    def planted(p, n, m, var="y"):
        ring = gr_m_rost_ring(p, n, m, var)
        basis = tuple(BasisClass(b.name, b.degree, b.torsion_exp + 1) if b.torsion_exp else b
                      for b in ring.basis)
        planted_ring = PresentedRing(ring.p, basis, ring.unit, ring.ops)
        planted_ring.audit()
        return planted_ring

    monkeypatch.setattr(kunneth, "gr_m_rost_ring", planted)


@pytest.mark.parametrize("s", [2, 3])
def test_cor_1_3_refutes_a_witness_of_order_p_squared(monkeypatch, s):
    raise_torsion_orders(monkeypatch)
    r = verify_theorem("cor-1.3", {"p": 2, "s": s})
    assert r.verdict == "refuted"
    assert r.left["witness_product"] == [f"c_1(y_{t})" for t in range(1, s + 1)]


def test_cor_1_3_rejects_order_p_squared_torsion_at_odd_p(monkeypatch):
    # at p = 3 the p * c_0 products survive, and J spans no ideal
    raise_torsion_orders(monkeypatch)
    with pytest.raises(OmegaModelError, match="difference of two equal single terms"):
        verify_theorem("cor-1.3", {"p": 3, "s": 2})


def test_kunneth_quotient_ring_identifies_mixed_words():
    # c_1(y_2) * c_0(y_1) lands on the canonical mixed word, whose name puts
    # the torsion label on the first factor
    ring = kunneth_quotient_ring(3, 2, 1, 2)
    a = {ring.index_of("c_1(y_2)"): 1}
    b = {ring.index_of("c_0(y_1)"): 1}
    assert ring.multiply(a, b) == {ring.index_of("c_1(y_1)*c_0(y_2)"): 1}
    # free-by-free overlap picks up the coefficient p
    c0 = {ring.index_of("c_0(y_1)"): 1}
    assert ring.multiply(c0, c0) == {ring.index_of("c_0(y_1^2)"): 3}


def test_kunneth_quotient_ring_torsion_powers():
    ring = kunneth_quotient_ring(2, 3, 1, 3)
    w = ideal_power_witness(ring, ["c_1(y_1)", "c_1(y_2)", "c_1(y_3)"], 3)
    assert w is not None
    assert w[1] == (("c_1(y_1)*c_1(y_2)*c_1(y_3)", 1),)
    by_name = {b.name: b for b in ring.basis}
    assert by_name["c_1(y_1)*c_1(y_2)*c_1(y_3)"].torsion_exp == 1


def brute_force_power(ring, generators, s):
    """The first nonzero s-fold product in combinations_with_replacement
    order, each one multiplied up from the unit."""
    for combo in itertools.combinations_with_replacement(
        sorted(ring.index_of(g) for g in generators), s
    ):
        acc = {ring.unit: 1}
        for k in combo:
            acc = ring.multiply(acc, {k: 1})
        if acc:
            names = [ring.basis[k].name for k in combo]
            return [names, [[ring.basis[k].name, c] for k, c in sorted(acc.items())]]
    return None


def power_cases():
    kq = kunneth_quotient_ring(3, 2, 1, 3)
    tgens = [f"c_1(y_{t}{j})" for t in (1, 2, 3) for j in ("", "^2")]
    yield kq, tgens, (1, 2, 3)
    pf = pfister_neighbor_ring(4)
    yield pf, pf.torsion_names(), (1, 2)
    # a free class among the generators: products exist, behind zero prefixes
    yield pf, ["h^9", *pf.torsion_names()], (1, 2, 3)


def test_ideal_power_witness_is_the_first_nonzero_product():
    for ring, gens, powers in power_cases():
        for s in powers:
            w = ideal_power_witness(ring, gens, s)
            got = None if w is None else [list(w[0]), [list(t) for t in w[1]]]
            assert got == brute_force_power(ring, gens, s), (gens[:2], s)


def torsion_square_rings():
    for params in CLAIMS["thm-5.5-torsion-square"].grid:
        yield build_pfister_neighbor_chow(params["n"]).ring, (2,)
    for params in CLAIMS["thm-5.7-torsion-square"].grid:
        yield build_excellent_quadric_chow(params["n"], params["d"], tuple(params["di"])).ring, (2,)
    for p in (2, 3, 5):
        yield chow_rost_ring(p, 3), (2,)
    # T^2 and T^3 are nonzero here, T^4 is zero
    yield kunneth_quotient_ring(3, 2, 1, 3), (2, 3, 4)


def test_ideal_generators_decide_the_torsion_powers_as_the_additive_basis_does():
    for ring, powers in torsion_square_rings():
        tnames = ring.torsion_names()
        gens = ideal_generators(ring, tnames)
        assert set(gens) <= set(tnames)
        for s in powers:
            by_gens = ideal_power_witness(ring, gens, s) is None
            assert by_gens == (brute_force_power(ring, tnames, s) is None), (tnames[:2], s)
    # the Pfister neighbour's torsion ideal is generated by u_1 .. u_{n-1}
    for params in CLAIMS["thm-5.5-torsion-square"].grid:
        ring = build_pfister_neighbor_chow(params["n"]).ring
        gens = ideal_generators(ring, ring.torsion_names())
        assert sorted(gens) == [f"u_{i}" for i in range(1, params["n"])]


def planted_torsion_square(monkeypatch, ring):
    """thm-5.5-torsion-square read on `ring` in place of the Pfister neighbour,
    with no restriction map to certify."""
    ring.audit()
    obj = SimpleNamespace(ring=ring, res=None, notes=[])
    monkeypatch.setattr(kunneth, "build_pfister_neighbor_chow", lambda n: obj)
    return verify_theorem("thm-5.5-torsion-square", {"n": 2})


def test_torsion_square_witness_comes_from_the_ordered_search(monkeypatch):
    # Z_(2)[h, u]/(h^2, u^3, 2u), basis listed out of degree order so that
    # the ordered search over T meets hu*u = hu^2 before u*u = u^2; S = {u}
    names = ("1", "h", "hu", "u", "u^2", "hu^2")
    basis = tuple(
        BasisClass(nm, d, e) for nm, d, e in zip(names, (0, 1, 2, 1, 2, 3), (0, 0, 1, 1, 1, 1))
    )
    L_h = {0: (1, 1), 3: (2, 1), 4: (5, 1)}
    L_u = {0: (3, 1), 1: (2, 1), 2: (5, 1), 3: (4, 1)}
    ring = PresentedRing(p=2, basis=basis, unit=0, ops={1: L_h, 3: L_u})
    tnames = ring.torsion_names()
    assert ideal_generators(ring, tnames) == ("u",)
    assert ideal_power_witness(ring, ["u"], 2)[0] == ("u", "u")
    report = planted_torsion_square(monkeypatch, ring)
    assert report.verdict == "refuted"
    assert report.left["torsion_generators"] == list(tnames)
    assert [report.witnesses, report.left["witness"]] == [["hu*u"], [["hu^2", 1]]]
    assert brute_force_power(ring, tnames, 2) == [["hu", "u"], [["hu^2", 1]]]


def test_a_class_hit_only_by_a_multiple_of_p_stays_a_generator(monkeypatch):
    # over Z_(2): u and w of order 4, h*u = 2w, u^2 = uw = 0 and w^2 = z.  w is
    # hit only as 2w, so it stays in S, and T^2 = 0 is refuted by w*w alone;
    # dropping w would leave S = {u} with u*u = 0
    names = ("1", "h", "u", "w", "z")
    basis = tuple(
        BasisClass(nm, d, e) for nm, d, e in zip(names, (0, 1, 1, 2, 4), (0, 0, 2, 2, 1))
    )
    ops = {1: {0: (1, 1), 2: (3, 2)}, 2: {0: (2, 1), 1: (3, 2)}, 3: {0: (3, 1), 3: (4, 1)}}
    ring = PresentedRing(p=2, basis=basis, unit=0, ops=ops)
    assert ideal_generators(ring, ring.torsion_names()) == ("u", "w")
    assert ideal_power_witness(ring, ["u"], 2) is None
    report = planted_torsion_square(monkeypatch, ring)
    assert report.verdict == "refuted"
    assert report.witnesses == ["w*w"]
    assert brute_force_power(ring, ring.torsion_names(), 2) == [["w", "w"], [["z", 1]]]


# --- the comparison map ----------------------------------------------------


def test_class_is_nonzero_reads_the_relations_of_its_degree():
    M = GradedFPModule(
        p=3,
        components={
            0: DegreeComponent(gens=2, relations=((1, 0),), names=("killed", "kept")),
            2: DegreeComponent(gens=1, names=("free",)),  # no relations at all
            4: DegreeComponent(gens=1, relations=((3,),), names=("torsion",)),
        },
        window=(0, 4),
    )

    def nonzero(name):  # off the relation span of its degree, as remark-4.2-negative reads it
        d, i = M.generator_index(name)
        comp = M.components[d]
        return not SpanSolver(M.p, comp.relations, range(comp.gens)).contains({i: 1})

    assert not nonzero("killed")
    assert nonzero("kept")
    assert nonzero("free")
    assert nonzero("torsion")


def test_kunneth_map_has_the_stated_kernel():
    target = catalog_build("product_rost", {"p": 2, "n": 2})
    f = kunneth_map(chow_rost_ring(2, 2, var="y_1"), 2, target)
    assert f.well_defined()
    d, i = f.source.generator_index("1*c_1(y_2)")
    assert i not in f.columns.get(d, {})  # maps to zero
    kernel = verify_theorem("remark-4.2-negative", {"p": 2}).left["kernel_classes"]
    assert "1*c_1(y_2)" in kernel
    # the first-factor torsion class survives
    d, i = f.source.generator_index("c_1(y_1)*1")
    assert f.columns[d][i]


# --- verifier verdicts -----------------------------------------------------


def test_thm_1_1_frozen_table_p2():
    r = verify_theorem("thm-1.1", {"p": 2})
    assert r.verdict == "verified"
    assert r.left["degrees"] == {
        "0": {"free": 1, "torsion": []},
        "2": {"free": 0, "torsion": [1, 1]},
        "3": {"free": 2, "torsion": []},
        "4": {"free": 0, "torsion": [1]},
        "5": {"free": 0, "torsion": [1]},
        "6": {"free": 1, "torsion": []},
    }


def test_thm_1_1_frozen_table_p3():
    r = verify_theorem("thm-1.1", {"p": 3})
    assert r.verdict == "verified"
    assert r.left["degrees"] == {
        "0": {"free": 1, "torsion": []},
        "2": {"free": 0, "torsion": [1, 1]},
        "4": {"free": 2, "torsion": [1]},
        "6": {"free": 0, "torsion": [1, 1, 1]},
        "8": {"free": 3, "torsion": [1, 1]},
        "10": {"free": 0, "torsion": [1, 1]},
        "12": {"free": 2, "torsion": [1]},
        "14": {"free": 0, "torsion": [1]},
        "16": {"free": 1, "torsion": []},
    }


def test_thm_1_1_rejects_large_primes():
    with pytest.raises(KunnethError):
        verify_theorem("thm-1.1", {"p": 7})


def test_lemma_4_1_slot_shapes():
    r = verify_theorem("lemma-4.1", {"p": 3, "n1": 2, "n2": 2, "m": 1})
    assert r.verdict == "verified"
    assert r.left["slot_1"] == {"free": 0, "torsion": [1, 1, 1, 1]}
    assert r.left["slot_2"] == {"free": 0, "torsion": [1, 1, 1, 1]}
    assert r.left["slot_3"] == {"free": 4, "torsion": []}


def test_thm_6_9_slots():
    r = verify_theorem("thm-6.9", {"p": 2, "s": 3, "n": 3, "m": 1})
    assert r.verdict == "verified"
    for slot in ("slot_1", "slot_2", "slot_3"):
        assert r.left[slot] == {"free": 0, "torsion": [1]}
    assert r.left["slot_4"] == {"free": 1, "torsion": []}


def test_remark_4_2_negative_is_not_vacuous():
    r = verify_theorem("remark-4.2-negative", {"p": 2})
    assert r.verdict == "verified"
    assert "1*c_1(y_2)" in r.witnesses


def test_cor_1_3_reports_the_full_torsion_word():
    r = verify_theorem("cor-1.3", {"p": 3, "s": 3, "n": 2, "m": 1})
    assert r.verdict == "verified"
    assert r.witnesses == ["c_1(y_1)*c_1(y_2)*c_1(y_3)"]


def test_lemma_7_2_image_presets():
    assert verify_theorem("lemma-7.2", {"n": 2, "m": 1}).verdict == "verified"
    assert (
        verify_theorem("lemma-7.2", {"n": 2, "m": 1, "image": "none"}).verdict
        == "not-certifiable"
    )
    assert (
        verify_theorem("lemma-7.2", {"n": 2, "m": 1, "image": "product"}).verdict
        == "refuted"
    )


def test_cor_7_3_refutes_on_the_product_image():
    # the product image of three factors misses a monomial the criterion needs
    r = verify_theorem("cor-7.3", {"s": 3, "image": "product"})
    assert r.verdict == "refuted"
    assert r.params["n"] == 3  # n follows s when it is not given
    assert any(hit["p"] or hit["v"] for hit in r.left.values())


@pytest.mark.parametrize("params", [{"p": 2, "n": 3, "m": 1}, {"p": 3, "n": 3, "m": 2}])
def test_cor_3_5_refutes_when_the_right_side_keeps_the_torsion(monkeypatch, params):
    # one defect: gr_m is read as the whole Chow ring, the quotient not taken
    monkeypatch.setattr(
        kunneth, "gr_m_rost_ring", lambda p, n, m, var="y": chow_rost_ring(p, n, var)
    )
    r = verify_theorem("cor-3.5", params)
    assert r.verdict == "refuted"
    assert any(note.startswith("degree ") for note in r.notes)
    assert r.left["second_display"] == r.right["second_display"]  # that side still holds


@pytest.mark.parametrize("p", [2, 3])
def test_cor_3_5_refutes_when_the_split_form_loses_a_class(monkeypatch, p):
    # one defect: the split form of the second display drops its top class y^{p-1}
    def bar_without_top(p, n, var="y"):
        bar = bar_rost_ring(p, n, var)
        return ring_quotient(bar, [bar.basis[-1].name])

    monkeypatch.setattr(kunneth, "bar_rost_ring", bar_without_top)
    r = verify_theorem("cor-3.5", {"p": p, "n": 2, "m": 1})
    assert r.verdict == "refuted"
    assert r.left["graded"] == r.right["graded"]  # the first display still holds
    assert r.left["second_display"]["slot_2"] == {"free": p - 1, "torsion": []}
    assert r.right["second_display"]["slot_2"] == {"free": p - 2, "torsion": []}


class _DroppedV1(OmegaImageModel):
    """The ambient model with one defect: c_1(y^j) restricts to y^j, not v_1 y^j."""

    def res_class(self, t, i, j):
        if i != 1:
            return super().res_class(t, i, j)
        return self.monomial(1, (), tuple(j if tt == t else 0 for tt in range(self.nfactors)))


@pytest.mark.parametrize(
    "params, failures",
    [({"p": 2, "n": 3}, [[0, 1, 1], [1, 2, 1]]), ({"p": 3, "n": 2}, [[0, 1, 1], [0, 1, 2]])],
)
def test_lemma_3_2_refutes_when_a_restriction_loses_its_v(monkeypatch, params, failures):
    monkeypatch.setattr(kunneth, "OmegaImageModel", _DroppedV1)
    r = verify_theorem("lemma-3.2", params)
    assert r.verdict == "refuted"
    assert r.left["failures"] == failures  # exactly the identities that involve c_1


def test_thm_5_7_refutes_when_a_torsion_class_squares_to_nonzero(monkeypatch):
    # one defect: the excellent quadric's ring gains c_1(d)^2 = c_1(d) h^2, which
    # the restriction map (it kills all torsion) still accepts
    sorted_ring = catalog._sorted_ring

    def planted(p, classes, generators, rules):
        if "c_1(d)" in generators:
            rules = {**rules, ("c_1(d)", "c_1(d)"): ("c_1(d)*h^2", 1)}
        return sorted_ring(p, classes, generators, rules)

    monkeypatch.setattr(catalog, "_sorted_ring", planted)
    r = verify_theorem("thm-5.7-torsion-square", {"n": 2, "d": 5, "di": [3]})
    assert r.verdict == "refuted"
    assert r.witnesses == ["c_1(d)*c_1(d)"]
    assert r.left["witness"] == [["c_1(d)*h^2", 1]]


def test_cor_3_5_skips_second_display_above_range():
    r = verify_theorem("cor-3.5", {"p": 2, "n": 2, "m": 5})
    assert r.verdict == "verified"
    assert any("skipped" in note for note in r.notes)


def test_normalized_relation_surfaces_in_reports():
    # the 2*u_m relation normalization travels with the filtration ring
    r = verify_theorem("lemma-7.2", {"n": 2, "m": 1})
    assert any("2*u_m" in note for note in r.notes)
    r = verify_theorem("thm-5.5-torsion-square", {"n": 2})
    assert any("restriction map certified" in note for note in r.notes)


def test_unknown_theorem_id():
    with pytest.raises(KunnethError, match="unknown theorem id"):
        verify_theorem("thm-0.0")


@pytest.mark.parametrize(
    "id_, params, message",
    [
        # a bool was read as an int, and named a class c_True(y_1)
        ("thm-6.9", {"p": 2, "s": 2, "n": 2, "m": True}, "thm-6.9: --m must be an int, not True"),
        ("thm-5.5-torsion-square", {"n": 2.0}, "--n must be an int, not 2.0"),
        ("cor-1.3", {"s": 2.0}, "--s must be an int, not 2.0"),
        ("lemma-7.2", {"n": 2, "image": 1}, "--image must be a str, not 1"),
        ("thm-5.7-torsion-square", {"n": 2, "di": 2}, "--di must be a list of ints, not 2"),
        ("thm-5.7-torsion-square", {"n": 2, "d": None, "di": [2]}, "--d must be an int, not None"),
    ],
)
def test_a_parameter_of_the_wrong_type_is_refused(id_, params, message):
    with pytest.raises(KunnethError) as exc:
        verify_theorem(id_, params)
    assert str(exc.value).endswith(message)


def test_a_parameter_of_the_right_type_is_accepted():
    # the cutoffs d_i may be a tuple as well as a list
    for di in ([2], (2,)):
        assert verify_theorem("thm-5.7-torsion-square", {"n": 2, "di": di}).verdict == "verified"


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 52
    assert all(id_ in THEOREM_IDS for id_, _ in grid)
    assert grid[0] == ("thm-1.1", {"p": 2})


def test_every_claim_has_a_grid_in_table_order():
    assert THEOREM_IDS == tuple(CLAIMS)
    assert all(claim.grid for claim in CLAIMS.values())
    # every grid parameter is one its verifier reads
    assert all(set(params) <= set(claim.params) for claim in CLAIMS.values()
               for params in claim.grid)
    ids = [id_ for id_, _ in default_grid()]
    assert list(dict.fromkeys(ids)) == list(CLAIMS)
    # callers get copies: changing one leaves the table alone
    default_grid()[-1][1]["di"].append(99)
    assert default_grid()[-1][1]["di"] == [4, 2]


DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
GRID = json.loads((GOLDEN / "grid.json").read_text())["outputs"]
FRONTIER = json.loads((GOLDEN / "frontier.json").read_text())["outputs"]


def test_grid_reports_match_recorded_bytes():
    # the recorded benchmark answers pin every grid and frontier report byte for byte
    recorded = dict(GRID)
    assert len(recorded) == len(default_grid())
    assert {f"{id_} {json.dumps(params, sort_keys=True)}" for id_, params in default_grid()} == set(
        recorded
    )
    assert len(FRONTIER) == 5
    recorded.update(FRONTIER)
    for key, expected in recorded.items():
        id_, params = key.split(" ", 1)
        report = verify_theorem(id_, json.loads(params))
        text = json.dumps(report.to_json(), sort_keys=True, indent=2)
        assert text == expected, key


def pinned(name):
    # a `rostcalc verify` pin of tests/data/pins.txt, without the newline
    # the command prints after the report
    return (DATA / name).read_text().removesuffix("\n")


OFF_GRID = json.loads((DATA / "offgrid_reports.json").read_text())
# keys whose bytes are stored once, by another pin, and read from it there
OFF_GRID_PINNED = {
    'cor-1.3 {"m": 1, "n": 2, "p": 7, "s": 4}': pinned("verify_cor-1.3_p7_s4.json"),
    'cor-3.5 {"m": 2, "n": 3, "p": 3}': pinned("verify_cor-3.5_p3_n3_m2.json"),
    'cor-4.2 {"m": 1, "n": 2, "p": 11}': FRONTIER['cor-4.2 {"p": 11}'],
    'cor-4.2 {"m": 1, "n": 2, "p": 17}': pinned("verify_cor-4.2_p17.json"),
}


@pytest.mark.parametrize("key", sorted(OFF_GRID | OFF_GRID_PINNED))
def test_off_grid_reports_match_recorded_bytes(key):
    # lemma-4.1 with n1 != n2 and thm-6.9 past the grid, recorded before their
    # left sides moved onto the Kunneth word ring; cor-4.2 and
    # remark-4.2-negative at p=13 and at m=2 (the v_m-degree path), recorded
    # before star_star_check moved onto one factored span per degree;
    # thm-5.5-torsion-square at n=5 and n=7 and thm-5.7-torsion-square at
    # n=3 and n=4, recorded before T^2 = 0 was decided from ideal generators;
    # cor-1.3 at p=5 s=4, recorded while every quotient was still re-audited
    # from scratch, and at p=3 s=7, recorded while ring_quotient still
    # projected every identified class; cor-3.5 at (p, n, m) = (3, 3, 1),
    # (5, 3, 2), (7, 2, 1) and (2, 5, 3), which run the second display, and
    # at (3, 2, 2), where m >= n skips it, recorded while the split side was
    # still read off two localized free presentations.  Each output is stored
    # once, so the entries with the bytes of another pin are gone from the
    # map: lemma-4.1 at p=3, cor-1.3 at p=3 s=6, p=7 s=4 and p=5 s=5, cor-3.5
    # at (3, 3, 2), and cor-4.2 and remark-4.2-negative at p=17 are lines of
    # tests/data/pins.txt, and the last two at p=11 are frontier reports.
    # Four of them are still checked here, against that one stored copy
    id_, params = key.split(" ", 1)
    report = verify_theorem(id_, json.loads(params))
    expected = OFF_GRID[key] if key in OFF_GRID else OFF_GRID_PINNED[key]
    assert json.dumps(report.to_json(), sort_keys=True, indent=2) == expected


# each default keyed by its input params: {"grid": key} names the report of
# perfbench/golden/grid.json it resolves to, whose bytes it must print, and
# {"error": message} the error it raises; the one default off the grid,
# cor-7.3 with n = 2 at s = 2, is stored as its report
DEFAULTS = json.loads((DATA / "default_reports.json").read_text())
# the defaults that depend on another parameter, stored once as lines of
# tests/data/pins.txt
DEFAULTS_PINNED = {
    'cor-7.3 {"s": 3}': pinned("verify_cor-7.3_s3.json"),
    'thm-5.7-torsion-square {"di": [4, 2], "n": 3}': pinned(
        "verify_thm-5.7-torsion-square_n3_di4-2.json"
    ),
}


@pytest.mark.parametrize("key", sorted(DEFAULTS | DEFAULTS_PINNED))
def test_default_parameters_resolve_as_recorded(key):
    # every claim with no parameters, and lemma-7.2 given n only, keyed by
    # the input params; thm-5.7-torsion-square has no default cutoffs d_i.
    # The defaults that depend on another parameter (cor-7.3's n on s,
    # thm-5.7-torsion-square's d on n) are read off the two lines of
    # tests/data/pins.txt that store them, `verify cor-7.3 --s 3` and
    # `verify thm-5.7-torsion-square --n 3 --di 4,2`
    id_, params = key.split(" ", 1)
    expected = DEFAULTS[key] if key in DEFAULTS else DEFAULTS_PINNED[key]
    if isinstance(expected, dict) and "grid" in expected:
        expected = GRID[expected["grid"]]
    if isinstance(expected, dict):
        with pytest.raises(ValueError) as exc:
            verify_theorem(id_, json.loads(params))
        assert str(exc.value) == expected["error"]
        return
    report = verify_theorem(id_, json.loads(params))
    assert json.dumps(report.to_json(), sort_keys=True, indent=2) == expected


def test_left_right_tensor_path_equals_report():
    # independent recomputation of the thm-1.1 left side: the tensor module
    # modulo the J differences, written as module relations
    from rostcalc.catalog import gr_m_rost_ring

    g1 = gr_m_rost_ring(3, 2, 1, var="y_1").module()
    g2 = gr_m_rost_ring(3, 2, 1, var="y_2").module()
    T = tensor_product(g1, g2)
    rels = []
    for g in j_ideal(3, 1, 2):
        (d, i), (d2, j) = T.generator_index(g.positive_name), T.generator_index(g.negative_name)
        assert d == d2
        vec = [0] * T.gens_at(d)
        vec[i], vec[j] = 1, -1
        rels.append((d, vec))
    M = quotient(T, rels)
    r = verify_theorem("thm-1.1", {"p": 3})
    assert normalize(M).to_json()["degrees"] == r.left["degrees"]
