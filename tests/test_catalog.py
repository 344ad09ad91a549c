"""Catalog entries against hand-expanded degree tables."""

import itertools
import json
from pathlib import Path

import pytest
from ring_oracle import ring_sha256

from rostcalc import catalog
from rostcalc.catalog import (
    CATALOG_IDS,
    RING_IDS,
    CatalogError,
    catalog_build,
)
from rostcalc.graded import (
    GradedModuleError,
    cyclic_summands,
    iso_equal,
    normalize,
    tensor_product,
)
from rostcalc.kunneth import verify_theorem
from rostcalc.omega import OmegaImageModel, chow_collapse


def table(obj):
    return normalize(obj.module()).as_dict()


def test_chow_rost_tables():
    assert table(catalog_build("chow_rost", {"p": 2, "n": 2})) == {
        0: (1, ()),
        2: (0, (1,)),
        3: (1, ()),
    }
    assert table(catalog_build("chow_rost", {"p": 3, "n": 2})) == {
        0: (1, ()),
        2: (0, (1,)),
        4: (1, ()),
        6: (0, (1,)),
        8: (1, ()),
    }
    assert table(catalog_build("chow_rost", {"p": 2, "n": 3})) == {
        0: (1, ()),
        4: (0, (1,)),
        6: (0, (1,)),
        7: (1, ()),
    }


def test_bar_rost_is_truncated_polynomial():
    assert table(catalog_build("bar_rost", {"p": 3, "n": 2})) == {
        0: (1, ()),
        4: (1, ()),
        8: (1, ()),
    }


def test_chow_rost_structure_constants():
    ring = catalog_build("chow_rost", {"p": 3, "n": 2}).ring
    c0, c1 = ring.index_of("c_0(y)"), ring.index_of("c_1(y)")
    assert ring.multiply((c0, 1), c0) == (ring.index_of("c_0(y^2)"), 3)
    assert ring.multiply((c0, 1), c1) is None
    assert ring.multiply((c1, 1), c1) is None


def test_omega_image_collapse_matches_chow():
    for p, n in itertools.product((2, 3, 5, 7, 11, 13), range(2, 9)):
        obj = catalog_build("omega_image_rost", {"p": p, "n": n})
        chow = catalog_build("chow_rost", {"p": p, "n": n})
        assert iso_equal(chow_collapse(obj.omega).module(), chow.module()), (p, n)


def test_km_rost_has_amalgamated_relation():
    km = catalog_build("km_rost", {"p": 2, "n": 3, "m": 1}).km
    assert km is not None
    # one relation mixes p on c_m with -v on c_0: terms (generator, c, power of v)
    mixed = [rel for rel in km.rels if {k for _, _, k in rel} == {0, 1}]
    assert mixed


def test_gr_m_rost_tables():
    assert table(catalog_build("gr_m_rost", {"p": 2, "n": 3, "m": 1})) == {
        0: (1, ()),
        6: (0, (1,)),
        7: (1, ()),
    }
    # m >= n keeps every class
    full = table(catalog_build("gr_m_rost", {"p": 2, "n": 3, "m": 3}))
    assert full == table(catalog_build("chow_rost", {"p": 2, "n": 3}))


def test_product_rost_is_a_tensor_module():
    obj = catalog_build("product_rost", {"p": 2, "n": 2})
    chow = catalog_build("chow_rost", {"p": 2, "n": 2})
    bar = catalog_build("bar_rost", {"p": 2, "n": 2})
    expected = tensor_product(chow.module(), bar.module())
    assert iso_equal(obj.module(), expected)
    assert obj.res is not None


def test_pfister_neighbor_tables():
    assert table(catalog_build("pfister_neighbor_chow", {"p": 2, "n": 2})) == {
        0: (1, ()),
        1: (1, ()),
        2: (1, (1,)),
        3: (1, (1,)),
        4: (1, (1,)),
        5: (1, ()),
    }
    t3 = table(catalog_build("pfister_neighbor_chow", {"p": 2, "n": 3}))
    assert all(t3[d][0] == 1 for d in range(0, 14))
    assert t3[4][1] == (1,) and t3[5][1] == (1,)
    assert all(t3[d][1] == (1, 1) for d in range(6, 11))
    assert t3[11][1] == (1,) and t3[12][1] == (1,)
    assert t3[13] == (1, ())


def test_gr_m_pfister_keeps_only_one_torsion_family():
    t = table(catalog_build("gr_m_pfister", {"p": 2, "n": 3, "m": 1}))
    assert sum(len(tors) for _, tors in t.values()) == 7  # u_1 h^k, k <= 6
    assert all(t[d][1] == (1,) for d in range(6, 13))
    obj = catalog_build("gr_m_pfister", {"p": 2, "n": 3, "m": 1})
    assert obj.notes  # carries the relation-normalization remark


def test_excellent_quadric_table():
    t = table(catalog_build("excellent_quadric_chow", {"p": 2, "n": 3, "d": 7, "di": (4, 2)}))
    assert all(t[d][0] == 1 for d in range(0, 8))
    assert all(t[d][1] == (1,) for d in range(4, 10))
    assert t[8][0] == 0 and t[9][0] == 0


def test_restriction_maps_exist_and_check_out():
    for id_, params in [
        ("chow_rost", {"p": 3, "n": 2}),
        ("pfister_neighbor_chow", {"p": 2, "n": 2}),
        ("excellent_quadric_chow", {"p": 2, "n": 2, "d": 3, "di": (2,)}),
    ]:
        obj = catalog_build(id_, params)
        assert obj.res is not None and obj.res.well_defined()


def test_parameter_validation():
    with pytest.raises(CatalogError, match="requires parameter"):
        catalog_build("chow_rost", {"n": 2})
    with pytest.raises(CatalogError):
        catalog_build("chow_rost", {"p": 4, "n": 2})
    with pytest.raises(CatalogError):
        catalog_build("chow_rost", {"p": 2, "n": 1})
    with pytest.raises(CatalogError):
        catalog_build("pfister_neighbor_chow", {"p": 3, "n": 2})
    with pytest.raises(CatalogError):
        catalog_build("nonsense", {"p": 2})
    # a parameter the entry does not read is refused, not ignored
    with pytest.raises(CatalogError, match="does not read --m; it reads --p, --n"):
        catalog_build("chow_rost", {"p": 3, "n": 2, "m": 5})
    with pytest.raises(CatalogError, match="does not read --d"):
        catalog_build("gr_m_pfister", {"n": 3, "m": 1, "d": 7})


@pytest.mark.parametrize(
    "id_, params, message",
    [
        ("chow_rost", {"p": 3.0, "n": 2}, "chow_rost: --p must be an int, not 3.0"),
        # a float that builds was recorded as the float
        ("gr_m_rost", {"p": 3, "n": 2, "m": 1.0}, "gr_m_rost: --m must be an int, not 1.0"),
        ("gr_m_rost", {"p": 3, "n": 2, "m": True}, "gr_m_rost: --m must be an int, not True"),
        ("excellent_quadric_chow", {"n": 2, "di": "2"},
         "excellent_quadric_chow: --di must be a list of ints, not '2'"),
        # the entries of d_i are tested by the ring that reads them, bools too
        ("excellent_quadric_chow", {"n": 2, "d": 3, "di": [True]}, "cutoffs d_i=[True] must be integers"),
    ],
)
def test_a_parameter_of_the_wrong_type_is_refused(id_, params, message):
    with pytest.raises(CatalogError) as exc:
        catalog_build(id_, params)
    assert str(exc.value) == message


def test_excellent_quadric_parameter_constraints():
    with pytest.raises(CatalogError):  # even dimension
        catalog_build("excellent_quadric_chow", {"p": 2, "n": 2, "d": 4, "di": (2,)})
    with pytest.raises(CatalogError):  # d out of the range for n
        catalog_build("excellent_quadric_chow", {"p": 2, "n": 2, "d": 9, "di": (2,)})
    with pytest.raises(CatalogError):  # wrong number of d_i
        catalog_build("excellent_quadric_chow", {"p": 2, "n": 3, "d": 7, "di": (4,)})
    with pytest.raises(CatalogError):  # not nonincreasing
        catalog_build("excellent_quadric_chow", {"p": 2, "n": 3, "d": 7, "di": (2, 4)})


def test_a_cutoff_that_is_not_an_integer_is_refused():
    # int() truncated 2.9 to 2: the report named cutoff 2.9 and judged cutoff 2
    for di in ([2.9], [2.0], ["2"]):
        with pytest.raises(CatalogError, match=r"cutoffs d_i=\[.*\] must be integers"):
            catalog_build("excellent_quadric_chow", {"p": 2, "n": 2, "d": 3, "di": di})
    with pytest.raises(CatalogError, match="must be integers"):
        verify_theorem("thm-5.7-torsion-square", {"n": 2, "d": 3, "di": [2.9]})


def test_every_catalog_id_is_buildable():
    samples = {
        "chow_rost": {"p": 2, "n": 2},
        "bar_rost": {"p": 2, "n": 2},
        "omega_image_rost": {"p": 2, "n": 2},
        "km_rost": {"p": 2, "n": 2, "m": 1},
        "gr_m_rost": {"p": 2, "n": 2, "m": 1},
        "product_rost": {"p": 2, "n": 2},
        "pfister_neighbor_chow": {"p": 2, "n": 2},
        "gr_m_pfister": {"p": 2, "n": 2, "m": 1},
        "excellent_quadric_chow": {"p": 2, "n": 2, "d": 3, "di": (2,)},
    }
    assert set(samples) == set(CATALOG_IDS)
    for id_, params in samples.items():
        obj = catalog_build(id_, params)
        assert obj.id == id_
        # the ring verbs' choices are exactly the entries that carry a ring
        assert (obj.ring is not None) == (id_ in RING_IDS)


PINNED = json.loads((Path(__file__).parent / "data" / "catalog_ring_sha256.json").read_text())


@pytest.mark.parametrize("entry", PINNED, ids=lambda e: f"{e['ring']}{e['args']}")
def test_ring_tables_are_pinned(entry):
    # sha256 of the sorted-key JSON of each ring, recorded from the
    # hand-written product tables the quotient and tower builders replaced
    ring = getattr(catalog, entry["ring"])(*entry["args"])
    assert ring_sha256(ring) == entry["sha256"]


DERIVED = {
    "product_rost.ring": lambda p, n: catalog.build_product_rost(p, n).ring,
    "product_rost.bar": lambda p, n: catalog.build_product_rost(p, n).bar,
    "chow_collapse": lambda p, n: chow_collapse(OmegaImageModel(p, (n,))),
}
PINNED_DERIVED = json.loads((Path(__file__).parent / "data" / "derived_ring_sha256.json").read_text())


@pytest.mark.parametrize("entry", PINNED_DERIVED, ids=lambda e: f"{e['ring']}{e['args']}")
def test_derived_ring_tables_are_pinned(entry):
    # sha256 of the sorted-key JSON of the tensor and collapse rings,
    # recorded from the product tables of the full-table representation
    assert ring_sha256(DERIVED[entry["ring"]](*entry["args"])) == entry["sha256"]


@pytest.mark.parametrize("entry", PINNED + PINNED_DERIVED, ids=lambda e: f"{e['ring']}{e['args']}")
def test_ring_module_normal_form_is_read_off_the_basis(entry):
    # the module of a ring is the sum of Z/p^e over its basis classes: per
    # degree, the free classes count and the torsion orders are the exponents
    build = DERIVED.get(entry["ring"]) or getattr(catalog, entry["ring"])
    ring = build(*entry["args"])
    expected: dict[int, tuple[int, list[int]]] = {}
    for b in ring.basis:
        free, torsion = expected.setdefault(b.degree, (0, []))
        if b.torsion_exp:
            torsion.append(b.torsion_exp)
        else:
            expected[b.degree] = (free + 1, torsion)
    expected = {d: (fr, tuple(sorted(t))) for d, (fr, t) in expected.items()}
    assert normalize(ring.module()).as_dict() == expected


def test_map_from_rules_rejects_bad_rules():
    src = cyclic_summands(2, [(0, 0, "1"), (2, 1, "t"), (2, 0, "x")])
    tgt = cyclic_summands(2, [(0, 0, "1"), (2, 0, "u"), (4, 0, "w")])
    f = catalog.map_from_rules(src, tgt, {"1": (("1", 1),), "x": (("u", 2), ("u", -1))})
    assert f.columns == {0: {0: {0: 1}}, 2: {1: {0: 1}}}  # "t" has no rule: zero
    with pytest.raises(GradedModuleError, match="no generator named 'y'"):
        catalog.map_from_rules(src, tgt, {"1": (("1", 1),), "y": ()})
    with pytest.raises(CatalogError, match="does not preserve degree"):
        catalog.map_from_rules(src, tgt, {"x": (("w", 1),)})
    # the torsion class t cannot go to the free class u
    with pytest.raises(CatalogError, match="not well defined"):
        catalog.map_from_rules(src, tgt, {"t": (("u", 1),)})
