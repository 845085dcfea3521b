"""Dg category layer: axioms, free/tensor/opposite, functors, hom homology.

The validator is the oracle here, so half the suite feeds it deliberately
broken structures.  Sign-sensitive constructions (tensor of two odd
generators, opposite of a curved category) run over F_3 and Q, where a
wrong sign cannot hide.
"""

import random
import re

import pytest

from koszulcat.dgcat import (
    DgCategory,
    DgFunctor,
    compose_functors,
    empty_category,
    free_category,
    identity_functor,
    opposite,
    tensor_dg,
    zero_category,
)
from koszulcat.field import GF, QQ
from koszulcat.quiver import GradedQuiver
from koszulcat.randgen import random_dg_category
from koszulcat.samples import (
    CATEGORY_LIBRARY,
    a2_category,
    category_by_names,
    contractible_arrow,
    curved_nilpotent,
    dual_numbers,
    exterior_line,
    k_category,
    polynomial_differential,
    truncated_polynomial,
)

FIELDS = [QQ, GF(2), GF(3), GF(5)]


# -- library samples all validate -------------------------------------------


@pytest.mark.parametrize("name", sorted(CATEGORY_LIBRARY))
@pytest.mark.parametrize("field", FIELDS, ids=["q", "f2", "f3", "f5"])
def test_library_validates(name, field):
    c = CATEGORY_LIBRARY[name](field)
    assert c.validate() == []


def test_curved_sample_is_curved():
    assert curved_nilpotent(QQ).is_curved()
    assert not dual_numbers(QQ).is_curved()


def test_sentinels_validate():
    assert empty_category(QQ).validate() == []
    assert zero_category(QQ).validate() == []
    assert zero_category(QQ).quiver.objects == ("*",)


# -- validator catches corruption -------------------------------------------


def test_zero_unit_rejected_in_nonzero_category():
    q = GradedQuiver(("x",), {("x", "x", 0): ("e",)})
    c = DgCategory(QQ, q, {"x": {}}, {})
    assert any("unit" in m and "zero" in m for m in c.validate())


def test_validator_catches_broken_unit_law():
    c = dual_numbers(QQ)
    del c.comp[(("*", "*", 0, "e"), ("*", "*", 0, "x"))]
    assert any("1 o" in m for m in c.validate())


def test_validator_catches_broken_associativity():
    F = QQ
    # x.x = x breaks associativity against x.x = 0 ... actually make
    # a genuinely non-associative table: u.u = w, u.w = u, w.u = 0
    mult = {("e", n): {n: 1} for n in ["e", "u", "w"]}
    mult.update({(n, "e"): {n: 1} for n in ["u", "w"]})
    mult[("u", "u")] = {"w": 1}
    mult[("u", "w")] = {"u": 1}
    mult[("w", "u")] = {}
    mult[("w", "w")] = {}
    c = category_by_names(F, {"e": 0, "u": 0, "w": 0}, mult)
    assert any("associativity" in m for m in c.validate())


def test_validator_catches_leibniz_failure():
    # with x o y = y and d(x) = y: d(x o x) = 0, but dx o x + x o dx = y
    c = polynomial_differential(QQ)
    key_x = ("*", "*", 0, "x")
    key_y = ("*", "*", 1, "y")
    c.comp[(key_x, key_y)] = {key_y: QQ.one}
    assert f"Leibniz fails on ({key_x}, {key_x})" in c.validate()


def test_validator_catches_leibniz_failure_without_stored_composite():
    # free on a, b: 0 -> 1 and c: 1 -> 2 with d(a) = b, minus c o a:
    # d(c o a) = 0, but dc o a + c o da = c o b != 0
    gen = GradedQuiver(("0", "1", "2"), {
        ("0", "1", -1): ("a",), ("0", "1", 0): ("b",), ("1", "2", 0): ("c",)})
    d_gen = {("0", "1", -1, "a"): {("0", "1", 0, ("b",)): QQ.one}}
    cat = free_category(QQ, gen, d_gen)
    a, c = ("0", "1", -1, ("a",)), ("1", "2", 0, ("c",))
    del cat.comp[(c, a)]
    assert cat.validate() == [f"Leibniz fails on ({c}, {a})"]


def test_validator_catches_unclosed_unit_and_curvature():
    c = curved_nilpotent(QQ)
    key_u = ("*", "*", 1, "u")
    key_w = ("*", "*", 2, "w")
    c.diff[key_w] = {("*", "*", 3, "zz"): QQ.one}  # also a slot violation
    msgs = c.validate()
    assert any("leaves its slot" in m for m in msgs)


def test_validator_catches_wrong_curvature_bracket():
    c = curved_nilpotent(QQ)
    # claim extra curvature on a category whose d^2 is zero in a way
    # that breaks d^2 = [h, -]: make h non-central by u.w = u
    key_u = ("*", "*", 1, "u")
    key_w = ("*", "*", 2, "w")
    c.comp[(key_w, key_u)] = {("*", "*", 3, "u"): QQ.one}
    msgs = c.validate()
    assert msgs  # slot violation and/or d^2 bracket failure


def test_validator_catches_noncomposable_entry():
    c = a2_category(QQ)
    a = ("0", "1", 0, "a")
    c.comp[(a, a)] = {a: QQ.one}
    assert f"composition on unknown key {(a, a)!r}" in c.validate()


def test_validator_catches_d_square():
    q = GradedQuiver(("x",), {("x", "x", 0): ("e", "a"), ("x", "x", 1): ("b",)})
    e = ("x", "x", 0, "e")
    a = ("x", "x", 0, "a")
    b = ("x", "x", 1, "b")
    comp = {
        (e, e): {e: QQ.one}, (e, a): {a: QQ.one}, (a, e): {a: QQ.one},
        (e, b): {b: QQ.one}, (b, e): {b: QQ.one},
        (a, a): {}, (a, b): {}, (b, a): {}, (b, b): {},
    }
    # d(a) = b, d(b) = b: d^2(a) = b != 0
    c = DgCategory(
        QQ, q, {"x": {e: QQ.one}}, comp, diff={a: {b: QQ.one}, b: {b: QQ.one}}
    )
    assert any("d^2" in m or "Leibniz" in m for m in c.validate())


# -- free categories ---------------------------------------------------------


def test_free_category_on_a3_quiver():
    gen = GradedQuiver(
        ("x", "y", "z"), {("x", "y", 0): ("a",), ("y", "z", 0): ("b",)}
    )
    c = free_category(QQ, gen)
    assert c.validate() == []
    # units, a, b, ba
    assert c.quiver.total_dim() == 6
    a = ("x", "y", 0, ("a",))
    b = ("y", "z", 0, ("b",))
    ba = c.compose(c.basis_vec(b), c.basis_vec(a))
    assert ba == {("x", "z", 0, ("a", "b")): QQ.one}


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "f3"])
def test_free_category_with_differential(field):
    gen = GradedQuiver(
        ("x", "y"), {("x", "y", 0): ("f",), ("x", "y", -1): ("s",)}
    )
    d_gen = {("x", "y", -1, "s"): {("x", "y", 0, ("f",)): field.coerce(-1)}}
    c = free_category(field, gen, d_gen)
    assert c.validate() == []
    s = ("x", "y", -1, ("s",))
    assert c.apply_d(c.basis_vec(s)) == {("x", "y", 0, ("f",)): field.coerce(-1)}


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "f3"])
def test_free_category_leibniz_sign(field):
    # two odd generators composed; d of the word picks up the sign of
    # the letters applied later
    gen = GradedQuiver(
        ("x", "y", "z"),
        {
            ("x", "y", 1): ("a",),
            ("x", "y", 2): ("da",),
            ("y", "z", 1): ("b",),
        },
    )
    d_gen = {("x", "y", 1, "a"): {("x", "y", 2, ("da",)): field.one}}
    c = free_category(field, gen, d_gen)
    assert c.validate() == []
    word = ("x", "z", 2, ("a", "b"))
    # d(b o a) = db o a + (-1)^{|b|} b o da = -(da, b)
    assert c.apply_d(c.basis_vec(word)) == {
        ("x", "z", 3, ("da", "b")): field.coerce(-1)
    }


def test_free_category_rejects_loops_and_cycles():
    with pytest.raises(ValueError):
        free_category(QQ, GradedQuiver(("x",), {("x", "x", 0): ("a",)}))
    cyc = GradedQuiver(
        ("x", "y"), {("x", "y", 0): ("a",), ("y", "x", 0): ("b",)}
    )
    with pytest.raises(ValueError):
        free_category(QQ, cyc)
    dup = GradedQuiver(
        ("x", "y"), {("x", "y", 0): ("a",), ("x", "y", 1): ("a",)}
    )
    with pytest.raises(ValueError):
        free_category(QQ, dup)
    # a d_gen value that is no word: b then a do not compose
    gen = GradedQuiver(
        ("x", "y", "z"), {("x", "y", 0): ("a",), ("y", "z", 1): ("b",)}
    )
    with pytest.raises(ValueError, match="word basis"):
        free_category(QQ, gen, {("x", "y", 0, "a"): {
            ("x", "z", 1, ("b", "a")): QQ.one}})


def test_free_category_rejects_d_gen_off_the_generators():
    gen = GradedQuiver(
        ("x", "y"), {("x", "y", 0): ("f",), ("x", "y", -1): ("s",)}
    )
    word_f = ("x", "y", 0, ("f",))
    # an entry on a key that is no generator: a wrong degree, a new name
    for key in [("x", "y", 0, "s"), ("x", "y", -1, "q")]:
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            free_category(QQ, gen, {key: {word_f: QQ.one}})
    # a value naming a generator that does not exist
    with pytest.raises(ValueError, match="word basis"):
        free_category(QQ, gen, {("x", "y", -1, "s"): {
            ("x", "y", 0, ("q",)): QQ.one}})


def test_free_category_rejects_d_gen_words_on_other_objects():
    # d(s) names the word g: x -> z, but s runs x -> y; a value is read by
    # its names, and a word on other objects is outside the basis
    gen = GradedQuiver(("x", "y", "z"), {
        ("x", "y", -1): ("s",), ("x", "z", 0): ("g",), ("y", "z", 0): ("t",)})
    with pytest.raises(ValueError, match="word basis"):
        free_category(QQ, gen, {("x", "y", -1, "s"): {
            ("x", "y", 0, ("g",)): QQ.one}})
    # so is the unit, for a generator between two objects
    with pytest.raises(ValueError, match="word basis"):
        free_category(QQ, gen, {("x", "y", -1, "s"): {
            ("x", "x", 0, ()): QQ.one}})


# -- tensor and opposite -----------------------------------------------------


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "f3"])
def test_tensor_of_two_odd_lines_validates(field):
    t = tensor_dg(exterior_line(field), exterior_line(field))
    assert t.validate() == []
    assert t.quiver.total_dim() == 4
    # (x (x) 1) o (1 (x) x) vs (1 (x) x) o (x (x) 1): Koszul sign -1
    ob = ("*", "*")
    k_x1 = (ob, ob, 1, ((1, "x"), (0, "e")))
    k_1x = (ob, ob, 1, ((0, "e"), (1, "x")))
    v1 = t.compose(t.basis_vec(k_x1), t.basis_vec(k_1x))
    v2 = t.compose(t.basis_vec(k_1x), t.basis_vec(k_x1))
    assert v1
    f = field
    assert v1 == {k: f.neg(c) for k, c in v2.items()}


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "f3"])
def test_tensor_with_differential_validates(field):
    t = tensor_dg(contractible_arrow(field), exterior_line(field))
    assert t.validate() == []
    t2 = tensor_dg(polynomial_differential(field), polynomial_differential(field))
    assert t2.validate() == []


def test_tensor_curved_curvature_additive():
    t = tensor_dg(curved_nilpotent(QQ), curved_nilpotent(QQ))
    assert t.validate() == []
    ob = ("*", "*")
    h = t.curvature_vec(ob)
    assert len(h) == 2  # w (x) e + e (x) w


@pytest.mark.parametrize("name", sorted(CATEGORY_LIBRARY))
def test_opposite_validates_and_involutes(name):
    c = CATEGORY_LIBRARY[name](GF(3))
    oc = opposite(c)
    assert oc.validate() == []
    back = opposite(oc)
    assert back.comp == c.comp
    assert back.diff == c.diff
    assert back.unit == c.unit
    assert back.curvature == c.curvature


def test_opposite_flips_slots():
    c = a2_category(QQ)
    oc = opposite(c)
    assert oc.quiver.dim("1", "0", 0) == 1
    assert oc.quiver.dim("0", "1", 0) == 0


# -- hom complexes -----------------------------------------------------------


def test_hom_homology_contractible():
    c = contractible_arrow(QQ)
    assert c.hom_homology("0", "1", -2, 2) == {n: 0 for n in range(-2, 3)}


def test_hom_homology_poly_diff():
    c = polynomial_differential(QQ)
    h = c.hom_homology("*", "*", -1, 2)
    assert h == {-1: 0, 0: 1, 1: 0, 2: 0}


def test_hom_complex_refuses_curved():
    c = curved_nilpotent(QQ)
    # End(*) of a curved category with central curvature still has d^2=0,
    # so this one builds; force a failure with a doctored d
    key_e = ("*", "*", 0, "e")
    key_u = ("*", "*", 1, "u")
    key_w = ("*", "*", 2, "w")
    c.diff[key_e] = {key_u: QQ.one}
    c.diff[key_u] = {key_w: QQ.one}
    with pytest.raises(ValueError):
        c.hom_complex("*", "*", -1, 3)


# -- functors ----------------------------------------------------------------


def test_identity_and_inclusion_functors():
    c = dual_numbers(QQ)
    assert identity_functor(c).validate() == []
    k = k_category(QQ)
    inc = DgFunctor(
        k, c, {"*": "*"}, {("*", "*", 0, "e"): {("*", "*", 0, "e"): QQ.one}}
    )
    assert inc.validate() == []
    # projection killing x
    proj = DgFunctor(
        c, k, {"*": "*"}, {("*", "*", 0, "e"): {("*", "*", 0, "e"): QQ.one}}
    )
    assert proj.validate() == []


def test_functor_catches_non_multiplicative():
    c = dual_numbers(QQ)
    k = k_category(QQ)
    bad = DgFunctor(
        c,
        k,
        {"*": "*"},
        {
            ("*", "*", 0, "e"): {("*", "*", 0, "e"): QQ.one},
            ("*", "*", 0, "x"): {("*", "*", 0, "e"): QQ.one},
        },
    )
    assert any("composition" in m for m in bad.validate())


def test_functor_catches_wrong_differential():
    c = contractible_arrow(QQ)
    # endofunctor dropping d: keep objects and f, send s to 0
    act = {k: {k: QQ.one} for k in c.quiver.keys()}
    act[("0", "1", -1, "s")] = {}
    f = DgFunctor(c, c, {"0": "0", "1": "1"}, act)
    assert any("differential" in m for m in f.validate())


def test_compose_functors():
    c = dual_numbers(QQ)
    i = identity_functor(c)
    assert compose_functors(i, i).validate() == []


# -- random suite ------------------------------------------------------------


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=["f2", "f3"])
def test_random_categories_validate(field):
    curved_seen = 0
    for seed in range(60):
        c = random_dg_category(field, seed)
        assert c.quiver.total_dim() <= 4
        problems = c.validate()
        assert problems == [], (seed, problems)
        curved_seen += c.is_curved()
    assert curved_seen >= 3


def test_random_categories_deterministic():
    a = random_dg_category(GF(3), 17)
    b = random_dg_category(GF(3), 17)
    assert a.quiver == b.quiver and a.comp == b.comp and a.diff == b.diff


def test_random_uncurved_flag():
    for seed in range(30):
        c = random_dg_category(GF(2), seed, allow_curved=False)
        assert not c.is_curved()


def test_hom_complex_refuses_an_unknown_object():
    d = dual_numbers(GF(3))
    for x, y in (("zz", "zz"), ("*", "zz"), ("zz", "*")):
        with pytest.raises(ValueError, match="not an object"):
            d.hom_homology(x, y, 0, 2)
    assert d.hom_homology("*", "*", 0, 0) == {0: 2}
