"""Product decompositions, the identification ideal, and the verifier suite."""

import hashlib
import itertools
import json
from dataclasses import FrozenInstanceError, replace
from functools import reduce
from pathlib import Path
from types import SimpleNamespace

import pytest

from rostcalc import catalog, kunneth
from rostcalc.catalog import (
    build_excellent_quadric_chow,
    build_pfister_neighbor_chow,
    build_product_rost,
    catalog_build,
    chow_rost_ring,
    gr_m_rost_ring,
    pfister_neighbor_ring,
)
from rostcalc.exact_linalg import SpanSolver, sparse_matrix
from rostcalc.graded import DegreeComponent, GradedFPModule, normalize, quotient, tensor_product
from rostcalc.km import free_km
from rostcalc.kunneth import (
    CLAIMS,
    BarKmModel,
    KunnethError,
    KunnethIdeal,
    THEOREM_IDS,
    c_decomposition,
    class_is_nonzero,
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
        dec = c_decomposition(p, n1, n2, m)
        sq = (p - 1) ** 2
        assert normalize(dec.c0).aggregate() == (sq, ())
        assert normalize(dec.c1).aggregate() == (0, (1,) * sq)
        assert normalize(dec.c2).aggregate() == (0, (1,) * (2 * sq))


def test_c_decomposition_range_check():
    with pytest.raises(KunnethError, match="carry the class"):
        c_decomposition(2, 2, 2, 2)
    with pytest.raises(KunnethError):
        c_decomposition(2, 3, 2, 2)


def test_c_decomposition_total_is_the_tensor_square():
    dec = c_decomposition(3, 2, 2, 1)
    total = normalize(dec.total()).aggregate()
    assert total == (4, (1,) * 12)


# --- the ideal -------------------------------------------------------------


def test_j_ideal_counts():
    assert j_ideal(2, 1, 2).count == 1
    assert j_ideal(3, 1, 2).count == 4
    assert j_ideal(5, 1, 2).count == 16
    assert j_ideal(3, 2, 3).count == 12
    with pytest.raises(KunnethError):
        j_ideal(2, 1, 1)


def test_j_generator_names():
    g = j_ideal(3, 1, 2).generators[0]
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
    assert model.sub(first, second) == {
        (((1, 1),), (1, 2)): 3,
        (((1, 1),), (2, 1)): -3,
    }


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
                as_set = {tuple(sorted(g.items())) for g in derived}
                assert len(as_set) == len(derived), (p, s, n, m)  # deduplicated
                assert as_set == {tuple(sorted(g.items())) for g in hand_versal_image(model)}


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
    assert model.vm_monomial(2, (1,), 1) == {(((1, 1),), (1,)): 2}
    y_v = model.vm_monomial(1, (1,), 1)
    assert model.mul(y_v, model.vm_monomial(5, (1,), 2)) == {(((1, 3),), (2,)): 5}  # v-powers add
    assert model.mul(y_v, model.vm_monomial(1, (2,), 0)) == {}  # y^3 = 0 at p = 3
    assert model.sub(y_v, y_v) == {}


def test_span_membership_sees_v_shifts():
    model = BarKmModel(p=2, m=1, factor_ns=(2,))
    g = model.vm_monomial(2, (1,), 0)  # 2*y
    gens = [(model.element_degree(g), g)]
    assert model.span_contains(gens, model.vm_monomial(2, (1,), 1))  # 2vy = v * (2y)
    assert not model.span_contains(gens, model.vm_monomial(1, (1,), 0))


@pytest.mark.parametrize("p, n, m", [(2, 2, 1), (3, 2, 1), (5, 2, 1), (3, 3, 2), (2, 4, 3)])
def test_star_star_check_matches_one_span_contains_per_target(p, n, m):
    # one factored span per degree answers as the per-target span would
    model = BarKmModel(p=p, factor_ns=(n, n), m=m)
    for image in (versal_image(model), product_image(model)):
        gens = [(model.element_degree(g), g) for g in image]
        expected = {
            mono_name(exps): {
                "p": model.span_contains(gens, model.vm_monomial(p, exps, 0)),
                "v": model.span_contains(gens, model.vm_monomial(1, exps, 1)),
            }
            for exps in itertools.product(range(1, p), repeat=2)
        }
        assert star_star_check(model, image) == expected


def _linked_image(model):
    # hand-written homogeneous generators at p = 3, n = 2 (y has degree 4, v
    # degree -2) whose terms link y-exponent tuples: g1, g2, g7, g8, g9 form
    # one block, g3 is a block alone, and g5 joins the blocks of g4 and g6
    def el(*terms):
        return reduce(model.add, [model.vm_monomial(c, y, k) for c, y, k in terms])

    image = [
        el((1, (1, 1), 0), (3, (2, 1), 2)),  # g1
        el((1, (2, 0), 0), (1, (2, 2), 4)),  # g3
        el((3, (0, 1), 0)),  # g4
        el((1, (1, 0), 0)),  # g6
        el((1, (2, 1), 2), (3, (1, 2), 2)),  # g2
        el((1, (1, 0), 0), (3, (0, 1), 0)),  # g5
        el((1, (1, 2), 2)),  # g7
        el((1, (2, 1), 0), (3, (1, 2), 0)),  # g8
        el((9, (1, 2), 0)),  # g9
    ]
    return image, [(model.element_degree(g), g) for g in image]


def _full_degree_span(model, gens, target):
    # the oracle: one span over every v-translate of every generator
    d = model.element_degree(target)
    cols = [el for _, _, el in model.v_translates(gens, d, (model.m,))]
    return SpanSolver(*sparse_matrix(model.p, cols)).contains(target)


def test_y_blocks_link_generators_through_shared_y_exponents():
    model = BarKmModel(p=3, factor_ns=(2, 2), m=1)
    _, gens = _linked_image(model)
    blocks = model.y_blocks(gens)
    assert {tuple(sorted(b)) for b in blocks.values()} == {(0, 4, 6, 7, 8), (1,), (2, 3, 5)}
    assert blocks[(2, 0)] == blocks[(2, 2)] == [1]


def test_block_split_star_star_check_matches_the_full_degree_span():
    model = BarKmModel(p=3, factor_ns=(2, 2), m=1)
    image, gens = _linked_image(model)
    expected = {
        mono_name(exps): {
            kind: _full_degree_span(model, gens, model.vm_monomial(c, exps, k))
            for kind, c, k in (("p", 3, 0), ("v", 1, 1))
        }
        for exps in itertools.product((1, 2), repeat=2)
    }
    assert star_star_check(model, image) == expected
    # 3*y1^2*y2 = 3*g8 - g9, v*y1*y2 = v*(g1 - 3*g2 + 9*g7), and
    # v*y1^2*y2 = v*g8 - v*g9/3 is not integral
    assert expected["y_1^2*y_2"] == {"p": True, "v": False}
    assert expected["y_1*y_2"] == {"p": True, "v": True}


def test_block_split_span_contains_matches_the_full_degree_span():
    model = BarKmModel(p=3, factor_ns=(2, 2), m=1)
    image, gens = _linked_image(model)
    y1y2, y1_sq = model.vm_monomial(1, (1, 1), 0), model.vm_monomial(1, (2, 0), 0)
    cases = [
        (model.add(y1y2, image[1]), True),  # straddles two blocks, both parts in
        (model.add(y1y2, y1_sq), False),  # straddles two blocks, y1^2 is not in
        (model.vm_monomial(1, (0, 2), 0), False),  # a Y no generator touches
        (model.add(y1y2, model.vm_monomial(1, (0, 2), 0)), False),
        (model.vm_monomial(1, (1, 0), 1), True),  # v*y1 = v*g6
        (model.vm_monomial(1, (0, 1), 1), False),  # v*y2 = v*(g5 - g6)/3
        ({}, True),
    ]
    for target, hit in cases:
        assert model.span_contains(gens, target) is hit, target
        if target:
            assert _full_degree_span(model, gens, target) is hit, target


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
    model = BarKmModel(p=2, m=1, factor_ns=(2, 2))
    mixed = model.add(model.vm_monomial(1, (1, 0), 0), model.vm_monomial(1, (1, 1), 0))
    with pytest.raises(OmegaModelError, match="mixed degrees"):
        star_star_check(model, [mixed])


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
        assert slots[f"slot_{k + 1}"] == {"free": 0, "torsion": [1] * (p - 1) ** s}, k
    assert slots[f"slot_{s + 1}"] == {"free": (p - 1) ** s, "torsion": []}


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
    pairs = [(g.positive_name, g.negative_name) for g in j_ideal(p, 1, len(ns)).generators]
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
        gens = list(j_ideal(p, m, s).generators)
        del gens[k]
        return KunnethIdeal(p, m, s, tuple(gens))

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
        basis = tuple(replace(b, torsion_exp=b.torsion_exp + 1) if b.torsion_exp else b
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
    a = ring.basis_vector("c_1(y_2)")
    b = ring.basis_vector("c_0(y_1)")
    assert ring.multiply(a, b) == ring.basis_vector("c_1(y_1)*c_0(y_2)")
    # free-by-free overlap picks up the coefficient p
    c0 = ring.basis_vector("c_0(y_1)")
    assert ring.multiply(c0, c0) == {
        k: 3 * c for k, c in ring.basis_vector("c_0(y_1^2)").items()
    }


def test_kunneth_quotient_ring_torsion_powers():
    ring = kunneth_quotient_ring(2, 3, 1, 3)
    w = ideal_power_witness(ring, ["c_1(y_1)", "c_1(y_2)", "c_1(y_3)"], 3)
    assert w is not None
    assert w.vector == (("c_1(y_1)*c_1(y_2)*c_1(y_3)", 1),)
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
            got = None if w is None else [list(w.factors), [list(t) for t in w.vector]]
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
    L_h = {0: {1: 1}, 3: {2: 1}, 4: {5: 1}}
    L_u = {0: {3: 1}, 1: {2: 1}, 2: {5: 1}, 3: {4: 1}}
    ring = PresentedRing(p=2, basis=basis, unit=0, ops={1: L_h, 3: L_u})
    tnames = ring.torsion_names()
    assert ideal_generators(ring, tnames) == ("u",)
    assert ideal_power_witness(ring, ["u"], 2).factors == ("u", "u")
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
    ops = {1: {0: {1: 1}, 2: {3: 2}}, 2: {0: {2: 1}, 1: {3: 2}}, 3: {0: {3: 1}, 3: {4: 1}}}
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
    assert not class_is_nonzero(M, "killed")
    assert class_is_nonzero(M, "kept")
    assert class_is_nonzero(M, "free")
    assert class_is_nonzero(M, "torsion")


def test_kunneth_map_has_the_stated_kernel():
    target = catalog_build("product_rost", {"p": 2, "n": 2})
    f = kunneth_map(chow_rost_ring(2, 2, var="y_1"), 2, target)
    assert f.well_defined()
    d, i = f.source.generator_index("1*c_1(y_2)")
    vec = [0] * f.source.gens_at(d)
    vec[i] = 1
    assert not any(f.apply(d, vec))
    assert class_is_nonzero(f.source, "1*c_1(y_2)")
    # the first-factor torsion class survives
    d, i = f.source.generator_index("c_1(y_1)*1")
    vec = [0] * f.source.gens_at(d)
    vec[i] = 1
    assert any(f.apply(d, vec))


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
    monkeypatch.setattr(kunneth, "free_km", lambda p, m, gens: free_km(p, m, gens[:-1]))
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
            rules = {**rules, ("c_1(d)", "c_1(d)"): (("c_1(d)*h^2", 1),)}
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


def test_grid_reports_match_recorded_bytes():
    # the recorded benchmark answers pin every grid and frontier report byte for byte
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
    recorded = json.loads((golden / "grid.json").read_text())["outputs"]
    assert len(recorded) == len(default_grid())
    assert {f"{id_} {json.dumps(params, sort_keys=True)}" for id_, params in default_grid()} == set(
        recorded
    )
    frontier = json.loads((golden / "frontier.json").read_text())["outputs"]
    assert len(frontier) == 5
    recorded.update(frontier)
    for key, expected in recorded.items():
        id_, params = key.split(" ", 1)
        report = verify_theorem(id_, json.loads(params))
        text = json.dumps(report.to_json(), sort_keys=True, indent=2)
        assert text == expected, key


OFF_GRID = json.loads((Path(__file__).parent / "data" / "offgrid_reports.json").read_text())


@pytest.mark.parametrize("key", sorted(OFF_GRID))
def test_off_grid_reports_match_recorded_bytes(key):
    # lemma-4.1 with n1 != n2 and thm-6.9 past the grid, recorded before their
    # left sides moved onto the Kunneth word ring; cor-4.2 and
    # remark-4.2-negative at p=13 and at m=2 (the v_m-degree path), recorded
    # before star_star_check moved onto one factored span per degree;
    # thm-5.5-torsion-square at n=5 and n=7 and thm-5.7-torsion-square at
    # n=3 and n=4, recorded before T^2 = 0 was decided from ideal generators;
    # cor-1.3 at p=5 s=4, p=3 s=6 and p=7 s=4, recorded while every quotient
    # was still re-audited from scratch; cor-4.2 and remark-4.2-negative at
    # p=11 and p=17, recorded while (**) still factored one span per degree;
    # cor-1.3 at p=5 s=5 and p=3 s=7, recorded while ring_quotient still
    # projected every identified class
    id_, params = key.split(" ", 1)
    report = verify_theorem(id_, json.loads(params))
    assert json.dumps(report.to_json(), sort_keys=True, indent=2) == OFF_GRID[key]


DEFAULTS = json.loads((Path(__file__).parent / "data" / "default_reports.json").read_text())


@pytest.mark.parametrize("key", sorted(DEFAULTS))
def test_default_parameters_resolve_as_recorded(key):
    # every claim with no parameters, and the defaults that depend on another
    # parameter (cor-7.3's n on s, thm-5.7-torsion-square's d on n), keyed by
    # the input params; thm-5.7-torsion-square has no default cutoffs d_i
    id_, params = key.split(" ", 1)
    expected = DEFAULTS[key]
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
    for g in j_ideal(3, 1, 2).generators:
        (d, i), (d2, j) = T.generator_index(g.positive_name), T.generator_index(g.negative_name)
        assert d == d2
        vec = [0] * T.gens_at(d)
        vec[i], vec[j] = 1, -1
        rels.append((d, vec))
    M = quotient(T, rels)
    r = verify_theorem("thm-1.1", {"p": 3})
    assert normalize(M).to_json()["degrees"] == r.left["degrees"]
