"""Catalog entries against hand-expanded degree tables."""

import hashlib
import json
from pathlib import Path

import pytest

from rostcalc import catalog
from rostcalc.catalog import (
    CATALOG_IDS,
    RING_IDS,
    CatalogError,
    catalog_build,
    restriction_map,
)
from rostcalc.graded import iso_equal, normalize, tensor_product
from rostcalc.omega import chow_collapse


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
    c0 = ring.basis_vector("c_0(y)")
    c1 = ring.basis_vector("c_1(y)")
    named = lambda vec: {ring.basis[k].name: c for k, c in vec.items()}
    assert named(ring.multiply(c0, c0)) == {"c_0(y^2)": 3}
    assert ring.multiply(c0, c1) == {}
    assert ring.multiply(c1, c1) == {}


def test_omega_image_collapse_matches_chow():
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        obj = catalog_build("omega_image_rost", {"p": p, "n": n})
        chow = catalog_build("chow_rost", {"p": p, "n": n})
        assert iso_equal(chow_collapse(obj.omega).module(), chow.module()), (p, n)


def test_km_rost_has_amalgamated_relation():
    km = catalog_build("km_rost", {"p": 2, "n": 3, "m": 1}).km
    assert km is not None
    # one relation vector mixes p on c_m with -v on c_0
    mixed = [
        rel
        for rel in km.rels
        if any(len(poly) == 1 for poly in rel) and any(len(poly) == 2 for poly in rel)
    ]
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
        res = restriction_map(obj)
        assert res.well_defined()


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


def test_excellent_quadric_parameter_constraints():
    with pytest.raises(CatalogError):  # even dimension
        catalog_build("excellent_quadric_chow", {"p": 2, "n": 2, "d": 4, "di": (2,)})
    with pytest.raises(CatalogError):  # d out of the range for n
        catalog_build("excellent_quadric_chow", {"p": 2, "n": 2, "d": 9, "di": (2,)})
    with pytest.raises(CatalogError):  # wrong number of d_i
        catalog_build("excellent_quadric_chow", {"p": 2, "n": 3, "d": 7, "di": (4,)})
    with pytest.raises(CatalogError):  # not nonincreasing
        catalog_build("excellent_quadric_chow", {"p": 2, "n": 3, "d": 7, "di": (2, 4)})


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
    digest = hashlib.sha256(json.dumps(ring.to_json(), sort_keys=True).encode()).hexdigest()
    assert digest == entry["sha256"]
