"""Acceptance gate: one test per criterion, exact values, hard time bounds.

Each test is a single pass/fail line under pytest -v.  Tolerances are exact
everywhere; the only inequalities are the wall-clock budgets.
"""

import random
import time

from test_exact_linalg import minor_valuations, random_matrix
from test_graded import brute_force_slots

from rostcalc.catalog import catalog_build, chow_rost_ring, km_rost
from rostcalc.exact_linalg import PLocalMatrix, snf_p_local
from rostcalc.graded import cyclic_summands, gr_ps, iso_equal
from rostcalc.km import to_chow
from rostcalc.kunneth import (
    BarKmModel,
    kunneth_map,
    product_image,
    star_star_check,
    star_star_holds,
    verify_theorem,
)
from rostcalc.omega import chow_collapse, ideal_power_witness, torsion_ideal


def test_criterion_1_kunneth_identification_small_primes():
    for p in (2, 3, 5):
        t0 = time.monotonic()
        report = verify_theorem("thm-1.1", {"p": p})
        elapsed = time.monotonic() - t0
        assert report.verdict == "verified", (p, report.notes)
        assert report.left["degrees"] == report.right["degrees"], p
        assert elapsed < 10.0, (p, elapsed)


def test_criterion_2_two_factor_filtration_slots():
    for p, n1, n2, m in [(2, 2, 2, 1), (2, 3, 3, 1), (2, 3, 3, 2), (3, 2, 2, 1), (5, 2, 2, 1)]:
        report = verify_theorem("lemma-4.1", {"p": p, "n1": n1, "n2": n2, "m": m})
        assert report.verdict == "verified", (p, n1, n2, m)
        sq = (p - 1) ** 2
        expected_torsion = {"free": 0, "torsion": [1] * sq}
        assert report.left["slot_1"] == expected_torsion, (p, n1, n2, m)
        assert report.left["slot_2"] == expected_torsion, (p, n1, n2, m)
        assert report.left["slot_3"] == {"free": sq, "torsion": []}, (p, n1, n2, m)


def test_criterion_3_three_factor_tower():
    t0 = time.monotonic()
    report = verify_theorem("thm-6.9", {"p": 2, "s": 3, "n": 3, "m": 1})
    assert report.verdict == "verified", report.notes
    for slot in ("slot_1", "slot_2", "slot_3"):
        assert report.left[slot] == {"free": 0, "torsion": [1]}
    assert report.left["slot_4"] == {"free": 1, "torsion": []}
    follow = verify_theorem("cor-7.3", {"s": 3, "n": 3, "m": 1, "image": "versal"})
    assert follow.verdict == "verified", follow.notes
    assert time.monotonic() - t0 < 30.0


def test_criterion_4_geometric_filtration_matches_quotient():
    for n in (2, 3, 4):
        for m in range(1, n):
            report = verify_theorem("cor-3.5", {"p": 2, "n": n, "m": m})
            assert report.verdict == "verified", (n, m, report.notes)
    for p in (2, 3, 5):
        report = verify_theorem("cor-3.6", {"p": p})
        assert report.verdict == "verified", (p, report.notes)


def test_criterion_5_torsion_powers():
    for n in (2, 3, 4):
        report = verify_theorem("thm-5.5-torsion-square", {"n": n})
        assert report.verdict == "verified", n
        # same fact re-derived from the primitives: the certified torsion
        # ideal admits no nonzero 2-fold product
        obj = catalog_build("pfister_neighbor_chow", {"n": n})
        tors = torsion_ideal(obj.ring, obj.res)
        assert ideal_power_witness(obj.ring, tors, 2) is None, n
    for n, d, di in [(2, 3, (2,)), (2, 5, (3,)), (3, 7, (4, 2))]:
        report = verify_theorem("thm-5.7-torsion-square", {"n": n, "d": d, "di": list(di)})
        assert report.verdict == "verified", (n, d, di)
    for p, s in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        report = verify_theorem("cor-1.3", {"p": p, "s": s, "n": 3, "m": 1})
        assert report.verdict == "verified", (p, s)
        expected = "*".join(f"c_1(y_{t + 1})" for t in range(s))
        assert report.witnesses == [expected], (p, s)
        assert report.right == {"order": p}, (p, s)


def test_criterion_6_noninjectivity_with_antivacuity():
    for p in (2, 3, 5):
        report = verify_theorem("remark-4.2-negative", {"p": p})
        assert report.verdict == "verified", (p, report.notes)
        assert report.witnesses, p
    # the two halves, re-established directly against the artifacts
    f = kunneth_map(chow_rost_ring(2, 2, var="y_1"), 2)
    d, i = f.source.generator_index("1*c_1(y_2)")
    assert i not in f.columns.get(d, {})  # maps to zero
    kernel = verify_theorem("remark-4.2-negative", {"p": 2}).left["kernel_classes"]
    assert "1*c_1(y_2)" in kernel
    model = BarKmModel(p=2, m=1, factor_ns=(2, 2))
    assert not star_star_holds(star_star_check(model, product_image(model)))


def test_criterion_7_oracles():
    rng = random.Random(97)
    checked = 0
    for _ in range(200):
        rows = random_matrix(rng, max_dim=5, lo=-9, hi=9)
        for p in (2, 3, 5):
            res = snf_p_local(PLocalMatrix.from_rows(p, rows))
            assert res.exponents == minor_valuations(rows, p), (rows, p)
        checked += 1
    assert checked >= 200
    for p in (2, 3):
        for exponents in [(1,), (4,), (2, 3), (1, 1, 4), (3, 3)]:
            for s in (1, 2, 3):
                A = cyclic_summands(
                    p, [(i + 1, e, f"t{i}") for i, e in enumerate(exponents)]
                )
                filt = gr_ps(A, s)
                ranks, tail = brute_force_slots(p, exponents, s)
                for k in range(1, s + 1):
                    fr, tors = filt[k]
                    assert (fr, tors) == (0, (1,) * ranks[k - 1]), (p, exponents, s, k)
                assert filt[s + 1] == (0, tail), (p, exponents, s)


def test_criterion_8_construction_paths_agree():
    for p, n in [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2)]:
        chow = catalog_build("chow_rost", {"p": p, "n": n}).module()
        ambient = catalog_build("omega_image_rost", {"p": p, "n": n})
        assert iso_equal(chow_collapse(ambient.omega).module(), chow), (p, n)
        for m in list(range(1, n)) + [n]:
            assert iso_equal(to_chow(km_rost(p, n, m)), chow), (p, n, m)
    for p, n in [(2, 3), (2, 4), (3, 2)]:
        report = verify_theorem("lemma-3.2", {"p": p, "n": n})
        assert report.verdict == "verified", (p, n)
