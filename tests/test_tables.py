"""The table rule: every stored structure table is normalized and owned.

Each constructor drops explicit zero coefficients and empty entries in
place and keeps the caller's dict.  That is what lets code holding a
basis key read its entry instead of applying the table to a basis
vector, so the second half checks that an entry equals the table
applied to its key on every sample.
"""

import pytest

from koszulcat.barcobar import bar_construction
from koszulcat.coalgebra import CoalgebraMorphism, PointedCoalgebra
from koszulcat.convmc import MCElement
from koszulcat.dgcat import DgCategory, DgFunctor
from koszulcat.field import GF, QQ
from koszulcat.quiver import GradedQuiver
from koszulcat.samples import CATEGORY_LIBRARY, COALGEBRA_LIBRARY

FIELDS = [QQ, GF(3)]

E, X = ("*", "*", 0, "e"), ("*", "*", 0, "x")
A, B, M = ("*", "*", -1, "a"), ("*", "*", -1, "b"), ("*", "*", -2, "m")


def _dual_numbers_quiver():
    return GradedQuiver(("*",), {("*", "*", 0): ("e", "x")})


def _coalgebra_quiver():
    return GradedQuiver(("*",), {("*", "*", -1): ("a", "b"),
                                 ("*", "*", -2): ("m",)})


@pytest.mark.parametrize("F", FIELDS, ids=["q", "f3"])
def test_category_and_functor_tables_are_normalized_and_kept(F):
    one, zero = F.one, F.zero
    unit = {"*": {E: one, X: zero}}
    comp = {(E, E): {E: one}, (E, X): {X: one, E: zero}, (X, E): {X: one},
            (X, X): {}}
    diff = {X: {X: zero}}
    curvature = {"*": {X: zero}}
    cat = DgCategory(F, _dual_numbers_quiver(), unit, comp, diff, curvature)
    assert cat.unit is unit and unit == {"*": {E: one}}
    assert cat.comp is comp and comp == {
        (E, E): {E: one}, (E, X): {X: one}, (X, E): {X: one}}
    assert cat.diff is diff and diff == {}
    assert cat.curvature is curvature and curvature == {}

    action = {E: {E: one, X: zero}, X: {X: one}, ("*", "*", 0, "y"): {}}
    fun = DgFunctor(cat, cat, {"*": "*"}, action)
    assert fun.action is action and action == {E: {E: one}, X: {X: one}}


@pytest.mark.parametrize("F", FIELDS, ids=["q", "f3"])
def test_coalgebra_morphism_and_mc_tables_are_normalized_and_kept(F):
    one, zero = F.one, F.zero
    comult = {M: {(A, B): one, (B, A): zero}, A: {(A, A): zero}}
    diff = {A: {B: zero}, B: {}}
    curv = {M: zero}
    coa = PointedCoalgebra(F, ("*",), _coalgebra_quiver(), comult, diff, curv)
    assert coa.comult is comult and comult == {M: {(A, B): one}}
    assert coa.diff is diff and diff == {}
    assert coa.curv is curv and curv == {}

    action = {A: {A: one}, B: {B: one, A: zero}, M: {M: one}, ("x",): {}}
    twist = {A: zero, B: one}
    mor = CoalgebraMorphism(coa, coa, {"*": "*"}, action, twist)
    assert mor.action is action
    assert action == {A: {A: one}, B: {B: one}, M: {M: one}}
    assert mor.twist is twist and twist == {B: one}

    xi = {A: {E: one, X: zero}, B: {X: zero}, M: {}}
    m = MCElement({"*": "*"}, xi)
    assert m.xi is xi and xi == {A: {E: one}}


def _categories():
    for F in FIELDS:
        for name, make in sorted(CATEGORY_LIBRARY.items()):
            yield f"{name}:{F}", make(F)


def _coalgebras():
    for F in FIELDS:
        for name, make in sorted(COALGEBRA_LIBRARY.items()):
            yield f"{name}:{F}", make(F)
        for name in ("trunc_poly3", "odd_pair_diff"):
            yield f"bar:{name}:{F}", bar_construction(
                CATEGORY_LIBRARY[name](F), 3)


CATEGORIES = list(_categories())
COALGEBRAS = list(_coalgebras())


@pytest.mark.parametrize("name,cat", CATEGORIES,
                         ids=[n for n, _ in CATEGORIES])
def test_category_entry_is_table_on_its_key(name, cat):
    one = cat.field.one
    keys = list(cat.quiver.keys())
    for k in keys:
        assert cat.apply_d({k: one}) == cat.diff.get(k, {})
        for f in keys:
            assert (cat.compose({k: one}, {f: one})
                    == cat.comp.get((k, f), {}))


@pytest.mark.parametrize("name,coa", COALGEBRAS,
                         ids=[n for n, _ in COALGEBRAS])
def test_coalgebra_entry_is_table_on_its_key(name, coa):
    F = coa.field
    for k in coa.reduced.keys():
        assert coa.apply_d({k: F.one}) == coa.diff.get(k, {})
        assert coa.reduced_comult({k: F.one}) == coa.comult.get(k, {})
        assert coa.curvature_value({k: F.one}) == coa.curv.get(k, F.zero)
