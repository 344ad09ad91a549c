"""Package-wide rules.  The hand-written record classes keep what dataclasses
gave them: constructor signatures, fresh default containers, frozenness, and
value equality and hashing over the constructor's fields.  Every function and
class has a caller outside the tests, and every exported name resolves."""

import ast
import importlib
import re
from dataclasses import FrozenInstanceError
from pathlib import Path
from types import FunctionType

import pytest

import rostcalc
from rostcalc import catalog, exact_linalg, graded, km, kunneth, omega, report
from rostcalc.catalog import chow_rost_ring
from rostcalc.exact_linalg import FpPolyMatrix, PLocalMatrix, SNFResult
from rostcalc.graded import (
    DegreeComponent,
    GradedFPModule,
    GradedMap,
    GradedModuleError,
    IsoResult,
    NormalForm,
    cyclic_summands,
    normalize,
)
from rostcalc.km import KmPresentation
from rostcalc.kunneth import BarKmModel, JGenerator
from rostcalc.omega import BasisClass, OmegaImageModel, PresentedRing
from rostcalc.record import Frozen, Record
from rostcalc.report import TheoremReport

MODULES = (exact_linalg, graded, km, omega, kunneth, catalog, report)


def records() -> list[type]:
    return [
        cls
        for mod in MODULES
        for cls in vars(mod).values()
        if isinstance(cls, type) and issubclass(cls, Record) and cls.__module__ == mod.__name__
    ]


FROZEN = {
    PLocalMatrix: lambda: PLocalMatrix(3, 1, 1, ((1,),)),
    SNFResult: lambda: SNFResult(3, 1, 1, (1,), (0,), ((1,),), ((1,),)),
    FpPolyMatrix: lambda: FpPolyMatrix.from_rows(3, [[(1, 1)]]),
    DegreeComponent: lambda: DegreeComponent(2, [(3, 0)]),
    NormalForm: lambda: NormalForm(3, ((1, (0, (1,))),)),
    IsoResult: lambda: IsoResult(True, ()),
    KmPresentation: lambda: KmPresentation(3, 1, (("a", 0),), ()),
    OmegaImageModel: lambda: OmegaImageModel(3, (2,)),
    BasisClass: lambda: BasisClass("1", 0, 0),
    # the uncached builder: chow_rost_ring returns one shared ring per process
    PresentedRing: lambda: catalog._chow_rost_ring.__wrapped__(3, 2, "y"),
    JGenerator: lambda: JGenerator(1, 2, 1, 1, 1),
    BarKmModel: lambda: BarKmModel(3, (2, 2), 1),
}


def test_the_package_has_16_records_and_these_12_are_frozen():
    classes = records()
    assert len(classes) == 16
    assert {cls for cls in classes if issubclass(cls, Frozen)} == set(FROZEN)


@pytest.mark.parametrize("cls", records(), ids=lambda cls: cls.__name__)
def test_fields_are_the_constructor_arguments_in_order(cls):
    code = cls.__init__.__code__
    params = code.co_varnames[1 : code.co_argcount]
    assert params == cls._fields


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_records_refuse_assignment_and_deletion(cls):
    obj = FROZEN[cls]()
    name = cls._fields[0]
    value = getattr(obj, name)
    with pytest.raises(FrozenInstanceError):
        setattr(obj, name, value)
    with pytest.raises(FrozenInstanceError):
        delattr(obj, name)
    with pytest.raises(FrozenInstanceError):
        obj.extra = 1
    assert getattr(obj, name) is value


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_records_compare_by_value(cls):
    a, b = FROZEN[cls](), FROZEN[cls]()
    assert a == b and not a != b and a is not b


def test_hash_is_that_of_the_field_tuple():
    # as a frozen dataclass's, so sets and dicts of records keep their order
    b = BasisClass("c_1(y)", 3, 1)
    assert hash(b) == hash(("c_1(y)", 3, 1))
    assert hash(NormalForm(3, ())) == hash(NormalForm(3, ())) == hash((3, ()))
    assert len({JGenerator(1, 2, 1, 1, 1), JGenerator(1, 2, 1, 1, 1)}) == 1


def test_records_of_different_classes_differ():
    assert OmegaImageModel(3, (2, 2)) != BarKmModel(3, (2, 2), 1)
    assert BasisClass("1", 0, 0) != ("1", 0, 0)
    assert BasisClass("1", 0, 0) != BasisClass("1", 0, 1)


def test_derived_fields_stay_out_of_equality():
    kp = KmPresentation(3, 1, (("a", 0),), (((0, 3, 0),),))
    assert "rel_degrees" not in KmPresentation._fields and kp.rel_degrees == (0,)
    assert OmegaImageModel(3, (2, 3)).ydegs == (4, 13)
    ring = chow_rost_ring(3, 2)
    copy = PresentedRing(ring.p, ring.basis, ring.unit, ring.ops)
    ring.words()  # fills a cache of one ring only
    assert ring == copy
    assert not {"_index", "_words", "_derived"} & set(PresentedRing._fields)


def test_mutable_records_are_unhashable_and_assignable():
    M = cyclic_summands(3, [(1, 1, "x")])
    for obj in (M, GradedMap(M, M), TheoremReport("t", {}, "verified"),
                catalog.build_chow_rost(3, 2)):
        with pytest.raises(TypeError):
            hash(obj)
    M.window = (0, 2)
    assert M.window == (0, 2)


def test_repr_names_the_fields():
    assert repr(BasisClass("1", 0, 0)) == "BasisClass(name='1', degree=0, torsion_exp=0)"
    assert "_words" not in repr(chow_rost_ring(3, 2))


def test_planted_modules_build_from_dense_columns():
    comp = DegreeComponent(2, [(3, 0), (0, 9)])
    assert comp.relations == ({0: 3}, {1: 9}) and comp.names is None
    M = GradedFPModule(p=3, components={4: comp}, window=(0, 4))
    assert normalize(M).at(4) == (0, (1, 2))
    with pytest.raises(GradedModuleError):
        DegreeComponent(2, [(1, 0)], ("x",))


def test_default_containers_are_fresh():
    a, b = TheoremReport("t", {}, "verified"), TheoremReport("t", {}, "verified")
    a.left["k"] = 1
    a.notes.append("note")
    assert (b.left, b.right, b.witnesses, b.notes) == ({}, {}, [], [])
    assert a.right is not b.right and a.witnesses is not b.witnesses
    M = cyclic_summands(3, [(1, 0, "x")])
    f, g = GradedMap(M, M), GradedMap(M, M)
    f.columns[1] = {0: {0: 1}}
    assert g.columns == {}



def test_bar_km_model_validates_after_its_parent():
    with pytest.raises(omega.OmegaModelError):
        BarKmModel(4, (2,), 5)
    with pytest.raises(kunneth.KunnethError):
        BarKmModel(3, (2,), 2)
    assert BarKmModel(3, (2, 3), 1).ydegs == (4, 13)


ROOT = Path(__file__).resolve().parents[1]


def names_used(path: Path, words_in_strings: bool) -> set[str]:
    """The names path reads, attributes and imports among them, and with
    words_in_strings also the words of its string constants."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif words_in_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(re.findall(r"\w+", node.value))
    return used


def test_every_function_and_class_is_named_outside_the_tests():
    """A function, class or method of the package (dunders aside) is named
    somewhere other than its own definition: in another part of the package
    (not `__init__.py`), in `scripts/`, or in `perfbench/`, where the words of
    string constants count too, so that the tracer's `TARGETS` keep theirs.
    The scan matches by name alone, so a method that shares its name with a
    used one passes: `PresentedRing.to_json` does, through the reports'
    `to_json`."""
    package = sorted((ROOT / "src" / "rostcalc").glob("*.py"))
    used = set()
    for path in [*package, *sorted((ROOT / "scripts").glob("*.py"))]:
        if path.name != "__init__.py":
            used |= names_used(path, words_in_strings=False)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= names_used(path, words_in_strings=True)
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in package
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]
    assert not unused, "named only by their own definition: " + ", ".join(unused)


def test_every_exported_name_resolves():
    missing = [name for name in rostcalc.__all__ if not hasattr(rostcalc, name)]
    assert not missing, missing


def traced_targets() -> dict:
    """`perfbench/layers.TARGETS`, read from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    (value,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"
    ]
    return ast.literal_eval(value)


def test_every_traced_name_is_a_plain_function():
    """The tracer wraps each `TARGETS` name and its grid coverage pass finds
    the original by its `__code__`, which an `lru_cache` wrapper lacks: a
    cache goes on a private builder that the traced name calls, as
    `chow_rost_ring` calls `_chow_rost_ring`."""
    targets = traced_targets()
    assert targets["catalog"] and targets["omega"]
    wrapped = []
    for layer, names in targets.items():
        for name in names:
            obj = importlib.import_module(f"rostcalc.{layer}")
            for attr in name.split("."):
                obj = getattr(obj, attr)
            if not isinstance(obj, FunctionType):
                wrapped.append(f"{layer}.{name}")
    assert not wrapped, "traced names that are not plain functions: " + ", ".join(wrapped)
