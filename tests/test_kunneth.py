"""Product decompositions, the identification ideal, and the verifier suite."""

import hashlib
import json
from pathlib import Path

import pytest

from rostcalc.catalog import catalog_build
from rostcalc.graded import iso_equal, normalize, tensor_product
from rostcalc.kunneth import (
    CLAIMS,
    BarKmModel,
    KunnethError,
    THEOREM_IDS,
    bar_tensor_module,
    c_decomposition,
    class_is_nonzero,
    default_grid,
    image_preset,
    j_ideal,
    j_quotient,
    j_res_vanishes,
    kunneth_map,
    kunneth_quotient_ring,
    product_image,
    second_display_sides,
    star_star_check,
    star_star_holds,
    tilde_bar_module,
    tilde_quotient,
    verify_theorem,
    versal_image,
    word_slot_module,
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
        model = BarKmModel(p=p, m=m, ydegs=((p**n - 1) // (p - 1),) * s)
        assert j_res_vanishes(j_ideal(p, m, s), model)


# --- (**) ------------------------------------------------------------------


def test_versal_image_blocks_both_multiples():
    model = BarKmModel(p=2, m=1, ydegs=(7, 7))
    result = star_star_check(model, versal_image(model))
    assert star_star_holds(result)
    assert set(result) == {"y_1*y_2"}
    assert result["y_1*y_2"] == {"p": False, "v": False}


def test_product_image_breaks_the_criterion():
    model = BarKmModel(p=2, m=1, ydegs=(7, 7))
    result = star_star_check(model, product_image(model))
    assert not star_star_holds(result)
    assert result["y_1*y_2"]["p"] and result["y_1*y_2"]["v"]


def test_image_preset_dispatch():
    model = BarKmModel(p=2, m=1, ydegs=(3, 3))
    assert image_preset(model, "none") is None
    assert image_preset(model, "versal")
    with pytest.raises(KunnethError):
        image_preset(model, "wat")


def test_span_membership_sees_v_shifts():
    model = BarKmModel(p=2, m=1, ydegs=(3,))
    g = model.monomial(2, (1,), 0)  # 2*y
    assert model.span_contains([g], model.monomial(2, (1,), 1))  # 2vy = v * (2y)
    assert not model.span_contains([g], model.monomial(1, (1,), 0))


def test_malformed_image_generator_raises():
    model = BarKmModel(p=2, m=1, ydegs=(3, 3))
    mixed = model.add(model.monomial(1, (1, 0), 0), model.monomial(1, (1, 1), 0))
    with pytest.raises(KunnethError, match="mixed degrees"):
        star_star_check(model, [mixed])


# --- tilde quotients and word slots ---------------------------------------


def test_tilde_quotient_keeps_full_support_only():
    full = bar_tensor_module(2, (2, 2))
    tilde = tilde_quotient(full, 2)
    assert normalize(full).aggregate() == (4, ())
    assert normalize(tilde).aggregate() == (1, ())


def test_tilde_quotient_needs_names():
    from rostcalc.graded import DegreeComponent, GradedFPModule

    anon = GradedFPModule(
        p=2, components={2: DegreeComponent(gens=1)}, window=(0, 2)
    )
    with pytest.raises(KunnethError, match="unindexed"):
        tilde_quotient(anon, 2)


def test_word_slot_aggregates():
    p, s = 3, 2
    ns = (2,) * s
    for k in range(0, s):
        nf = normalize(word_slot_module(p, ns, 1, k))
        assert nf.aggregate() == (0, (1,) * (p - 1) ** s), k
    nf = normalize(word_slot_module(p, ns, 1, s))
    assert nf.aggregate() == ((p - 1) ** s, ())


def test_second_display_sides_agree():
    left, right = second_display_sides(2, 3, 3, 1)
    assert left == right
    assert left["slot_4"] == {"free": 1, "torsion": []}


# --- the quotient ring and power witnesses --------------------------------


def test_kunneth_quotient_ring_audits():
    for p, n, m, s in [(2, 2, 1, 2), (3, 2, 1, 2), (2, 3, 1, 3)]:
        ring = kunneth_quotient_ring(p, n, m, s)
        names = [b.name for b in ring.basis]
        assert "1" in names


PINNED_RINGS = json.loads((Path(__file__).parent / "data" / "kunneth_ring_sha256.json").read_text())


@pytest.mark.parametrize("entry", PINNED_RINGS, ids=lambda e: str(e["args"]))
def test_kunneth_quotient_ring_is_pinned(entry):
    # sha256 of the sorted-key JSON of each ring (p, n, m, s), recorded from
    # the hand-written word table that gr_m(R')^{(x) s}/J replaced
    ring = kunneth_quotient_ring(*entry["args"])
    digest = hashlib.sha256(json.dumps(ring.to_json(), sort_keys=True).encode()).hexdigest()
    assert digest == entry["sha256"]


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
    from rostcalc.omega import ideal_power_witness

    ring = kunneth_quotient_ring(2, 3, 1, 3)
    w = ideal_power_witness(ring, ["c_1(y_1)", "c_1(y_2)", "c_1(y_3)"], 3)
    assert w is not None
    assert w.vector == (("c_1(y_1)*c_1(y_2)*c_1(y_3)", 1),)
    by_name = {b.name: b for b in ring.basis}
    assert by_name["c_1(y_1)*c_1(y_2)*c_1(y_3)"].torsion_exp == 1


# --- the comparison map ----------------------------------------------------


def test_kunneth_map_has_the_stated_kernel():
    target = catalog_build("product_rost", {"p": 2, "n": 2})
    f = kunneth_map(2, 2, target)
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
    # the recorded benchmark answers pin every grid report byte for byte
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "grid.json"
    recorded = json.loads(golden.read_text())["outputs"]
    assert len(recorded) == len(default_grid())
    for id_, params in default_grid():
        text = json.dumps(verify_theorem(id_, params).to_json(), sort_keys=True, indent=2)
        assert text == recorded[f"{id_} {json.dumps(params, sort_keys=True)}"], (id_, params)


def test_left_right_tensor_path_equals_report():
    # independent recomputation of the thm-1.1 left side
    from rostcalc.catalog import gr_m_rost_ring

    g1 = gr_m_rost_ring(3, 2, 1, var="y_1").module()
    g2 = gr_m_rost_ring(3, 2, 1, var="y_2").module()
    M = j_quotient(tensor_product(g1, g2), j_ideal(3, 1, 2))
    r = verify_theorem("thm-1.1", {"p": 3})
    assert normalize(M).to_json()["degrees"] == r.left["degrees"]
