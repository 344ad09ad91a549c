"""Graded modules, normal forms, and the p-power filtration.

The filtration tests check gr_ps against literal element counting in finite
abelian p-groups, so the slot formula is never trusted on its own word.
"""

import itertools
from collections import Counter, defaultdict
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_exact_linalg import planted_matrix

from rostcalc.exact_linalg import ExactLinalgError, PLocalMatrix, membership
from rostcalc.graded import (
    DegreeComponent,
    GradedFPModule,
    GradedMap,
    GradedModuleError,
    NormalForm,
    cyclic_summands,
    direct_sum,
    gr_ps,
    iso_equal,
    kill_generator,
    normalize,
    quotient,
    tensor_normal_form,
    tensor_product,
    zero_module,
)


def test_normalize_mixed_component():
    # two generators with a single relation p^2 * a = 0
    M = cyclic_summands(2, [(3, 2, "a"), (3, 0, "b")])
    nf = normalize(M)
    assert nf.at(3) == (1, (2,))
    assert nf.aggregate() == (1, (2,))


def test_normalize_drops_collapsed_degrees():
    M = cyclic_summands(3, [(1, 0, "x")])
    N = quotient(M, [(1, (1,))])
    assert not normalize(N).degrees


def test_iso_equal_reports_differences():
    A = cyclic_summands(2, [(2, 1, "u")])
    B = cyclic_summands(2, [(2, 2, "u")])
    res = iso_equal(A, B)
    assert not res
    assert "degree 2" in res.diffs[0]
    assert iso_equal(A, A)


def test_direct_sum_adds_invariants():
    A = cyclic_summands(3, [(0, 0, "1"), (2, 1, "t")])
    B = cyclic_summands(3, [(2, 0, "u")])
    nf = normalize(direct_sum(A, B))
    assert nf.at(0) == (1, ())
    assert nf.at(2) == (1, (1,))


def test_tensor_of_cyclics():
    # Z/p^a (x) Z/p^b = Z/p^min(a,b), placed in the sum of the degrees
    for a, b in [(1, 1), (1, 2), (3, 2)]:
        A = cyclic_summands(2, [(2, a, "x")])
        B = cyclic_summands(2, [(4, b, "y")])
        nf = normalize(tensor_product(A, B))
        assert nf.as_dict() == {6: (0, (min(a, b),))}


summand_lists = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=5)


@given(summand_lists, summand_lists, st.sampled_from((2, 3, 5)))
def test_tensor_of_cyclic_summands_matches_the_closed_form(left, right, p):
    # Z/p^a (x) Z/p^b = Z/p^min(a,b) and Z (x) X = X, summand by summand
    A = cyclic_summands(p, [(d, e, f"a{i}") for i, (d, e) in enumerate(left)])
    B = cyclic_summands(p, [(d, e, f"b{i}") for i, (d, e) in enumerate(right)])
    expected: dict[int, tuple[int, list[int]]] = {}
    for (da, ea), (db, eb) in itertools.product(left, right):
        free, torsion = expected.get(da + db, (0, []))
        orders = [e for e in (ea, eb) if e]
        if orders:
            torsion.append(min(orders))
        expected[da + db] = (free + (not orders), torsion)
    expected = {d: (fr, tuple(sorted(t))) for d, (fr, t) in expected.items()}
    assert normalize(tensor_product(A, B)).as_dict() == expected
    assert tensor_normal_form(A, B).as_dict() == expected


@st.composite
def presentations(draw, p: int, degrees=None) -> dict[int, tuple[int, list, tuple[int, ...]]]:
    """Per degree (generators, dense relation columns, planted exponents):
    diag(p^e) (exponents 0-4, e = 0 a killed generator) beside 0-2 free
    generators, conjugated by unit-triangular products so the relation
    matrix is not diagonal; degrees may be empty, the module zero.  The
    degrees are drawn unless given."""
    raw = {}
    if degrees is None:
        degrees = draw(st.lists(st.integers(0, 6), unique=True, max_size=3))
    for d in degrees:
        exps = draw(st.lists(st.integers(0, 4), max_size=3))
        n = len(exps) + draw(st.integers(0, 2))
        M, _ = planted_matrix(draw(st.randoms(use_true_random=False)), p, n, exps)
        raw[d] = (n, list(zip(*M)), tuple(exps))
    return raw


def module_of(p: int, raw, sparse: bool = False) -> GradedFPModule:
    """The module of `presentations`, its columns given densely or as dicts."""
    components = {
        d: DegreeComponent(n, [{i: x for i, x in enumerate(c) if x} if sparse else c for c in cols])
        for d, (n, cols, _) in raw.items()
    }
    return GradedFPModule(p=p, components=components, window=(0, 6))


def presented_modules(p: int):
    return presentations(p).map(lambda raw: module_of(p, raw))


@given(st.sampled_from((2, 3, 5)).flatmap(lambda p: st.tuples(st.just(p), presentations(p))))
def test_dense_and_sparse_columns_give_the_same_module(args):
    p, raw = args
    dense, sparse = module_of(p, raw), module_of(p, raw, sparse=True)
    planted = {
        d: (n - len(exps), tuple(sorted(e for e in exps if e)))
        for d, (n, _, exps) in raw.items()
    }
    assert normalize(dense) == normalize(sparse) == NormalForm.from_dict(p, planted)
    for d, (n, cols, _) in raw.items():
        rows = [[col[i] for col in cols] for i in range(n)]
        expected = PLocalMatrix.from_rows(p, rows, cols=len(cols))
        assert dense.relation_matrix(d) == sparse.relation_matrix(d) == expected


@st.composite
def dense_maps(draw, p: int):
    """(source, target, matrices): a random dense map between two modules of
    `presentations` in the same degrees; many are not well defined."""
    src = draw(presentations(p))
    tgt = draw(presentations(p, list(src)))
    entries = st.sampled_from((0, 0, 1, -1, 2, p**4))
    matrices = {}
    for d, (ns, _, _) in src.items():
        matrices[d] = [[draw(entries) for _ in range(ns)] for _ in range(tgt[d][0])]
    return module_of(p, src), module_of(p, tgt), matrices


@given(st.sampled_from((2, 3, 5)).flatmap(dense_maps))
def test_sparse_map_well_defined_matches_the_dense_oracle(args):
    source, target, matrices = args
    columns = {
        d: {j: {i: row[j] for i, row in enumerate(m) if row[j]} for j in range(source.gens_at(d))}
        for d, m in matrices.items()
    }
    f = GradedMap(source=source, target=target, columns=columns)
    assert f.columns == {d: {j: col for j, col in cols.items() if col} for d, cols in columns.items()}
    oracle = True  # every relation's image in the target's dense relation span
    for d, m in matrices.items():
        R = source.relation_matrix(d)
        for rel in zip(*R.entries):
            image = [sum(a * x for a, x in zip(row, rel)) for row in m]
            if any(image) and membership(target.relation_matrix(d), image) is None:
                oracle = False
    assert bool(f.well_defined()) == oracle


@given(st.sampled_from((2, 3, 5)).flatmap(lambda p: st.tuples(presented_modules(p), presented_modules(p))))
def test_tensor_normal_form_matches_the_product_presentation(pair):
    A, B = pair
    assert tensor_normal_form(A, B) == normalize(tensor_product(A, B))


def test_tensor_normal_form_rejects_a_prime_mismatch():
    with pytest.raises(GradedModuleError, match="prime mismatch"):
        tensor_normal_form(zero_module(2), zero_module(3))


def test_normalize_rejects_a_non_integral_relation():
    M = GradedFPModule(p=3, components={2: DegreeComponent(2, ((0, Fraction(1, 2)),))}, window=(2, 2))
    with pytest.raises(ExactLinalgError, match="not an integer"):
        normalize(M)


def test_tensor_names_record_both_factors():
    A = cyclic_summands(2, [(0, 0, "1"), (3, 0, "x")])
    B = cyclic_summands(2, [(2, 1, "y")])
    T = tensor_product(A, B)
    assert T.names_at(2) == ("1*y",)
    assert T.names_at(5) == ("x*y",)


def test_tensor_with_unit_preserves_invariants():
    unit = cyclic_summands(3, [(0, 0, "1")])
    M = cyclic_summands(3, [(0, 0, "1"), (2, 1, "c"), (5, 0, "z")])
    assert normalize(tensor_product(unit, M)).as_dict() == normalize(M).as_dict()


def test_tensor_is_symmetric_on_invariants():
    A = cyclic_summands(2, [(0, 0, "1"), (2, 1, "a")])
    B = cyclic_summands(2, [(0, 0, "1"), (3, 2, "b")])
    left = normalize(tensor_product(A, B)).as_dict()
    right = normalize(tensor_product(B, A)).as_dict()
    assert left == right


def test_quotient_validation():
    M = cyclic_summands(2, [(1, 0, "x")])
    with pytest.raises(GradedModuleError):
        quotient(M, [(9, (1,))])
    with pytest.raises(GradedModuleError):
        quotient(M, [(1, (1, 0))])


def test_kill_generator():
    M = cyclic_summands(2, [(2, 0, "x"), (2, 1, "t")])
    nf = normalize(kill_generator(M, "t"))
    assert nf.as_dict() == {2: (1, ())}
    with pytest.raises(GradedModuleError):
        kill_generator(M, "missing")


def test_generator_index_finds_every_name():
    M = cyclic_summands(3, [(0, 0, "1"), (2, 1, "a"), (2, 0, "b"), (4, 2, "c")])
    for d in M.degrees():
        for i, name in enumerate(M.names_at(d)):
            assert M.generator_index(name) == (d, i)
    with pytest.raises(GradedModuleError, match="no generator named 'd'"):
        M.generator_index("d")


def test_gr_ps_frozen_example():
    # A+ = Z (+) Z/p^2 in degree 1; slots 1,2 have rank 2, the tail keeps Z
    A = cyclic_summands(2, [(0, 0, "1"), (1, 0, "x"), (1, 2, "t")])
    filt = gr_ps(A, 2)
    assert filt[0] == (1, ())
    assert filt[1] == (0, (1, 1))
    assert filt[2] == (0, (1, 1))
    assert filt[3] == (1, ())


def test_gr_ps_rejects_negative_degrees():
    A = cyclic_summands(2, [(-1, 0, "x")])
    with pytest.raises(GradedModuleError):
        gr_ps(A, 1)


def brute_force_slots(p, exponents, s):
    """Slot invariants of the p-power filtration on G = prod Z/p^e, by counting.

    Returns (ranks of p^{k-1}G/p^kG for k=1..s, invariant exponents of p^sG).
    """
    G = list(itertools.product(*[range(p**e) for e in exponents]))

    def scale(k):
        return {tuple((p**k * g) % p**e for g, e in zip(el, exponents)) for el in G}

    def logp(n):
        v = 0
        while n > 1:
            n //= p
            v += 1
        return v

    layers = [scale(k) for k in range(s + 1)]
    ranks = [logp(len(layers[k - 1]) // len(layers[k])) for k in range(1, s + 1)]
    tail = layers[s]
    # Ulm-style counting inside p^s G: c_j = log_p #{g : p^j g = 0}, and the
    # number of invariant factors of exponent >= j is c_j - c_{j-1}
    counts = []
    j = 0
    while True:
        c = sum(
            1
            for el in tail
            if all((p**j * g) % p**e == 0 for g, e in zip(el, exponents))
        )
        counts.append(logp(c))
        if c == len(tail):
            break
        j += 1
    ge = [counts[j] - counts[j - 1] for j in range(1, len(counts))]
    exact = []
    for j in range(1, len(ge) + 1):
        exact.extend([j] * (ge[j - 1] - (ge[j] if j < len(ge) else 0)))
    return tuple(ranks), tuple(sorted(exact))


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(lambda e: sum(e) <= 6),
    st.integers(1, 3),
    st.sampled_from((2, 3)),
)
def test_gr_ps_matches_element_counting(exponents, s, p):
    A = cyclic_summands(p, [(i + 1, e, f"t{i}") for i, e in enumerate(exponents)])
    filt = gr_ps(A, s)
    ranks, tail = brute_force_slots(p, exponents, s)
    for k in range(1, s + 1):
        fr, tors = filt[k]
        assert fr == 0
        assert len(tors) == ranks[k - 1]
        assert all(e == 1 for e in tors)
    fr, tors = filt[s + 1]
    assert fr == 0
    assert tors == tail


def test_graded_map_well_defined_projection():
    src = cyclic_summands(2, [(1, 1, "t")])
    tgt = cyclic_summands(2, [(1, 1, "u")])
    f = GradedMap(source=src, target=tgt, columns={1: {0: {0: 1}}})
    assert f.well_defined()


def test_graded_map_rejects_torsion_to_free():
    src = cyclic_summands(2, [(1, 1, "t")])
    tgt = cyclic_summands(2, [(1, 0, "u")])
    f = GradedMap(source=src, target=tgt, columns={1: {0: {0: 1}}})
    res = f.well_defined()
    assert not res
    assert "degree 1" in res.diffs[0]


def test_graded_map_keeps_nonzero_columns_in_range():
    src = cyclic_summands(2, [(2, 0, "a"), (2, 0, "b")])
    tgt = cyclic_summands(2, [(2, 0, "u")])
    f = GradedMap(source=src, target=tgt, columns={2: {0: {0: 1}, 1: {0: 0}}})
    assert f.columns == {2: {0: {0: 1}}}
    assert GradedMap(source=src, target=tgt).columns == {}  # the zero map
    with pytest.raises(GradedModuleError, match="map column out of range in degree 2"):
        GradedMap(source=src, target=tgt, columns={2: {2: {0: 1}}})
    with pytest.raises(GradedModuleError, match="column position out of range"):
        GradedMap(source=src, target=tgt, columns={2: {0: {1: 1}}})


def test_mapping_columns_are_read_by_key():
    # a dict subclass or other mapping is a sparse column, never a sequence of its keys
    comp = DegreeComponent(1, [defaultdict(int, {0: 3})])
    assert comp.relations == ({0: 3},)
    assert normalize(GradedFPModule(p=3, components={0: comp}, window=(0, 0))).at(0) == (0, (1,))
    assert DegreeComponent(2, [Counter({1: 3, 0: 0})]).relations == ({1: 3},)
    assert DegreeComponent(2, [MappingProxyType({1: 9})]).relations == ({1: 9},)
    src = cyclic_summands(3, [(2, 0, "a"), (2, 0, "b")])
    tgt = cyclic_summands(3, [(2, 0, "u"), (2, 0, "v")])
    cols = {0: defaultdict(int, {1: 2}), 1: Counter({0: 1, 1: 0})}
    f = GradedMap(source=src, target=tgt, columns={2: cols})
    assert f.columns == {2: {0: {1: 2}, 1: {0: 1}}}


def test_component_validation():
    with pytest.raises(GradedModuleError):
        DegreeComponent(gens=1, relations=((1, 0),), names=("x",))
    with pytest.raises(GradedModuleError):
        GradedFPModule(
            p=4, components={}, window=(0, 0)
        )


def test_zero_module_is_zero():
    assert not normalize(zero_module(7)).degrees
