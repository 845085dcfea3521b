"""Convolution, Maurer-Cartan, internal hom, counit, comparison, interchange.

The hand oracles here pin the structure tables, not just global validity:
{pt, D} and MC*(pt, D) must reproduce D's tables verbatim under a key
relabeling, {C, k} must transpose the reduced comultiplication, and the
Maurer-Cartan counts over small finite fields are worked out by hand
(one forced solution for the curvature row against a contracted unit,
|F| free solutions for a closed degree -1 primitive, none over a rigid
target).  The adjunction tests insist the three hom sets agree element
by element through the transports, not merely in cardinality.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from koszulcat.barcobar import Splitting, bar_construction, cobar_construction
from koszulcat.coalgebra import (
    FinalCoalgebra,
    PointedCoalgebra,
    cotensor_coalgebra,
    point_coalgebra,
    tensor_coalgebras,
    zero_coalgebra,
)
from koszulcat.convmc import (
    MCElement,
    adjunction_functor_from_mc,
    adjunction_mc_from_functor,
    convolution_category,
    counit_data,
    enumerate_coalgebra_morphisms,
    enumerate_dg_functors,
    ez_compare,
    ez_data,
    ez_generator_problems,
    interchange_problems,
    internal_hom,
    mc_category,
    mc_check,
    mc_enumerate,
    mc_from_morphism,
    morphism_from_mc,
    universal_cochain,
)
from koszulcat.dgcat import empty_category, zero_category
from koszulcat.field import GF, QQ, vec_bump
from koszulcat.quiver import GradedQuiver, lkey, pair_key
from koszulcat.randgen import random_coalgebra, random_dg_category
from koszulcat.samples import CATEGORY_LIBRARY, COALGEBRA_LIBRARY
from test_mc_solver import oracle_mc_enumerate

F2, F3 = GF(2), GF(3)


def _table_match(cat, d, key_map):
    """cat restricted along key_map must copy d's structure tables."""
    for g in d.quiver.keys():
        gv = {key_map(g): d.field.one}
        want = {key_map(k): c for k, c in d.apply_d(d.basis_vec(g)).items()}
        assert cat.apply_d(gv) == want, f"differential differs at {g}"
        for f in d.quiver.keys():
            if f[1] != g[0]:
                continue
            fv = {key_map(f): d.field.one}
            want = {
                key_map(k): c
                for k, c in d.compose(d.basis_vec(g), d.basis_vec(f)).items()
            }
            assert cat.compose(gv, fv) == want, f"composition differs at {g, f}"


def _mor_print(m):
    act = tuple(sorted(
        ((k, tuple(sorted(v.items(), key=repr))) for k, v in m.action.items()),
        key=repr))
    tw = tuple(sorted(m.twist.items(), key=repr)) if m.twist else ()
    return (tuple(sorted(m.object_map.items(), key=repr)), act, tw)


# -- convolution against the unit coalgebra and the unit category -----------


@pytest.mark.parametrize("name", ["a2", "exterior_line", "curved_nilpotent"])
@pytest.mark.parametrize("field", [QQ, F3], ids=["q", "f3"])
def test_convolution_from_point_copies_target(name, field):
    d = CATEGORY_LIBRARY[name](field)
    cat = convolution_category(point_coalgebra(field), d).to_dg_category()
    assert cat.validate() == []
    assert cat.quiver.total_dim() == d.quiver.total_dim()

    def key_map(dk):
        return ((dk[0],), (dk[1],), dk[2], ("o", "pt", dk))

    _table_match(cat, d, key_map)
    for x in d.quiver.objects:
        assert cat.unit_vec((x,)) == {
            key_map(k): c for k, c in d.unit_vec(x).items()
        }
        assert cat.curvature_vec((x,)) == {
            key_map(k): c for k, c in d.curvature_vec(x).items()
        }


def test_convolution_to_unit_transposes_comultiplication():
    """{C, k} carries the dual of the reduced comultiplication: the only
    product of row duals is b* . a* = m* along the single splitting of m."""
    c = COALGEBRA_LIBRARY["dag"](QQ)
    cat = convolution_category(c, CATEGORY_LIBRARY["k"](QQ)).to_dg_category()
    assert cat.validate() == []
    fk = cat.quiver.objects[0]
    e = ("*", "*", 0, "e")

    def dual(name):
        row = next(k for k in c.reduced.keys() if k[3] == name)
        return (fk, fk, 0, ("r", row, e))

    prod = cat.compose(cat.basis_vec(dual("b")), cat.basis_vec(dual("a")))
    assert prod == {dual("m"): QQ.one}
    assert cat.compose(cat.basis_vec(dual("a")), cat.basis_vec(dual("b"))) == {}
    for name in ("a", "b", "m"):
        assert cat.compose(cat.basis_vec(dual(name)),
                           cat.basis_vec(dual(name))) == {}


# -- validators -------------------------------------------------------------

_PAIRS = [
    ("primitive_pair", "a2"),
    ("dag", "exterior_line"),
    ("w", "curved_nilpotent"),
    ("curved_chain", "contractible_endo"),
    ("cancel", "dual_numbers"),
    ("neg_primitive", "poly_diff"),
]


@pytest.mark.parametrize("cname,dname", _PAIRS)
@pytest.mark.parametrize("field", [QQ, F2, F3], ids=["q", "f2", "f3"])
def test_counital_convolution_validates(cname, dname, field):
    conv = convolution_category(COALGEBRA_LIBRARY[cname](field),
                                CATEGORY_LIBRARY[dname](field))
    assert conv.validate() == []


@pytest.mark.parametrize("cname,dname", _PAIRS)
@pytest.mark.parametrize("field", [QQ, F2, F3], ids=["q", "f2", "f3"])
def test_reduced_convolution_validates(cname, dname, field):
    conv = convolution_category(COALGEBRA_LIBRARY[cname](field),
                                CATEGORY_LIBRARY[dname](field), reduced=True)
    assert conv.validate() == []


def test_reduced_convolution_has_no_units():
    conv = convolution_category(COALGEBRA_LIBRARY["neg_primitive"](F2),
                                CATEGORY_LIBRARY["contractible_endo"](F2),
                                reduced=True)
    with pytest.raises(ValueError):
        conv.unit_vec(conv.object_maps[0])
    with pytest.raises(ValueError):
        conv.to_dg_category()
    # ... and no degree-0 cochain acts as a two-sided unit either
    from test_validators import conv_star
    fk = conv.object_maps[0]
    keys = conv.hom_keys(fk, fk)
    zero_deg = [k for k in keys if k[2] == 0]
    assert zero_deg  # the search space is not vacuous
    for bits in range(1 << len(zero_deg)):
        u = {k: F2.one for i, k in enumerate(zero_deg) if bits >> i & 1}
        assert not all(
            conv_star(conv, u, {k: F2.one}) == {k: F2.one}
            and conv_star(conv, {k: F2.one}, u) == {k: F2.one} for k in keys)


def test_convolution_field_mismatch_rejected():
    with pytest.raises(ValueError):
        convolution_category(COALGEBRA_LIBRARY["dag"](F2),
                             CATEGORY_LIBRARY["a2"](F3))


def test_object_map_cap_and_explicit_maps():
    c = COALGEBRA_LIBRARY["dag"](F2)
    d = CATEGORY_LIBRARY["a2"](F2)
    with pytest.raises(ValueError, match="max_objects="):
        convolution_category(c, d, max_objects=7)
    conv = convolution_category(
        c, d, object_maps=[("0", "0", "0"), {"x": "0", "y": "0", "z": "1"}])
    assert conv.object_maps == [("0", "0", "0"), ("0", "0", "1")]
    with pytest.raises(ValueError):
        convolution_category(c, d, object_maps=[("0", "0")])
    with pytest.raises(ValueError):
        convolution_category(c, d, object_maps=[("0", "0", "2")])


def _mod3(table):
    """``table`` reduced mod 3 entrywise, zeros and empty vectors dropped."""
    out = {}
    for k, vec in table.items():
        v = {kk: F3.coerce(c) for kk, c in vec.items()
             if not F3.is_zero(F3.coerce(c))}
        if v:
            out[k] = v
    return out


@pytest.mark.parametrize("reduced", [False, True], ids=["counital", "reduced"])
def test_convolution_over_q_reduces_to_convolution_over_f3(reduced):
    # the samples have integral tables, so reducing the rational
    # materialization mod 3 entrywise must give the one over GF(3)
    pairs = [(cname, dname) for cname in sorted(COALGEBRA_LIBRARY)
             for dname in sorted(CATEGORY_LIBRARY)
             if not COALGEBRA_LIBRARY[cname](F3).is_curved()
             and not CATEGORY_LIBRARY[dname](F3).is_curved()]
    assert len(pairs) >= 40
    for cname, dname in pairs:
        tables = []
        for field in (QQ, F3):
            conv = convolution_category(COALGEBRA_LIBRARY[cname](field),
                                        CATEGORY_LIBRARY[dname](field),
                                        reduced=reduced)
            tables.append(conv.tables([(fk, fk) for fk in conv.object_maps]))
        (qq, qu, qc, qd, qh, _), (fq, fu, fc, fd, fh, _) = tables
        case = (cname, dname)
        assert list(qq.slots.items()) == list(fq.slots.items()), case
        assert list(qc) == list(fc), case
        assert _mod3(qc) == fc and _mod3(qd) == fd, case
        assert _mod3(qu) == _mod3(fu) and _mod3(qh) == _mod3(fh), case


# -- the Maurer-Cartan equation ---------------------------------------------


def test_zero_candidate_solves_iff_uncurved():
    d = CATEGORY_LIBRARY["contractible_endo"](F2)
    ok, residual = mc_check(COALGEBRA_LIBRARY["neg_primitive"](F2), d,
                            MCElement({"*": "*"}, {}))
    assert ok and residual == {}
    # the curvature row feeds  eta o f o h  straight into the residual
    w = COALGEBRA_LIBRARY["w"](F2)
    ok, residual = mc_check(w, d, MCElement({"*": "*"}, {}))
    wrow = next(iter(w.reduced.keys()))
    assert not ok
    assert residual == {wrow: d.unit_vec("*")}


def test_mc_check_allows_curved_target():
    ok, residual = mc_check(COALGEBRA_LIBRARY["neg_primitive"](F2),
                            CATEGORY_LIBRARY["curved_nilpotent"](F2),
                            MCElement({"*": "*"}, {}))
    assert ok and residual == {}


def test_malformed_candidates_raise():
    c = COALGEBRA_LIBRARY["neg_primitive"](F2)
    d = CATEGORY_LIBRARY["contractible_endo"](F2)
    row = next(iter(c.reduced.keys()))
    e, y = ("*", "*", 0, "e"), ("*", "*", -1, "y")
    with pytest.raises(ValueError):
        mc_check(c, d, MCElement({}, {}))
    with pytest.raises(ValueError):
        mc_check(c, d, MCElement({"*": "*"}, {row: {y: F2.one}}))
    with pytest.raises(ValueError):
        mc_check(c, d, MCElement({"*": "*"},
                                 {("*", "*", 5, "no"): {e: F2.one}}))
    with pytest.raises(ValueError):
        mc_check(c, d, MCElement({"*": "*"},
                                 {row: {("*", "*", 0, "no"): F2.one}}))


@pytest.mark.parametrize("field,size", [(F2, 2), (F3, 3)], ids=["f2", "f3"])
def test_hand_counted_solution_sets(field, size):
    """d(xi w) + h(w) eta = 0 forces xi(w) = -y against a contracted unit;
    a closed degree -1 primitive is unconstrained; a rigid target leaves
    the curvature row unbalanced."""
    ce = CATEGORY_LIBRARY["contractible_endo"](field)
    w = COALGEBRA_LIBRARY["w"](field)
    found = mc_enumerate(w, ce)
    assert len(found) == 1
    wrow = next(iter(w.reduced.keys()))
    assert found[0].xi == {wrow: {("*", "*", -1, "y"): field.neg(field.one)}}
    assert len(mc_enumerate(COALGEBRA_LIBRARY["neg_primitive"](field),
                            ce)) == size
    assert mc_enumerate(w, CATEGORY_LIBRARY["k"](field)) == []


def test_enumeration_guards():
    d = CATEGORY_LIBRARY["contractible_endo"](QQ)
    with pytest.raises(ValueError):
        mc_enumerate(COALGEBRA_LIBRARY["neg_primitive"](QQ), d)
    assert len(mc_enumerate(point_coalgebra(QQ), d)) == 1
    with pytest.raises(ValueError, match="budget="):
        mc_enumerate(COALGEBRA_LIBRARY["neg_primitive"](F2),
                     CATEGORY_LIBRARY["contractible_endo"](F2), budget=1)


def test_repeated_object_map_is_searched_once():
    # three solutions over the one object map, so a second search of the
    # same map would overdraw a budget of 3
    c = COALGEBRA_LIBRARY["neg_primitive"](F3)
    d = CATEGORY_LIBRARY["contractible_endo"](F3)
    once = mc_enumerate(c, d, object_maps=[("*",)])
    twice = mc_enumerate(c, d, object_maps=[("*",), {"*": "*"}], budget=3)
    assert len(once) == 3
    assert [m.canonical() for m in twice] == [m.canonical() for m in once]


def test_malformed_object_maps_are_refused():
    """A short map, a long one and a stray object are refused by name,
    also where no coordinate would read the missing value."""
    ab = PointedCoalgebra(F3, ("a", "b"), GradedQuiver(("a", "b"), {}), {})
    d = CATEGORY_LIBRARY["a2"](F3)
    for om, name in ((("0",), "'b'"), (("0", "1", "0"), r"\('a', 'b'\)"),
                     ({"a": "0", "b": "1", "zz": "0"}, "'zz'")):
        with pytest.raises(ValueError, match=name):
            mc_enumerate(ab, d, object_maps=[om])
    with pytest.raises(ValueError, match="'y'"):
        mc_enumerate(COALGEBRA_LIBRARY["dag"](F3), d, object_maps=[("0",)])
    assert len(mc_enumerate(ab, d, object_maps=[("0", "1")])) == 1


# -- search on a tensor -------------------------------------------------------


@pytest.mark.parametrize("cname,pname,dname", [
    ("w", "neg_primitive", "contractible_endo"),
    ("neg_primitive", "neg_primitive", "contractible_endo"),
    ("w", "w", "k"),
])
def test_tensor_enumeration_matches_direct(cname, pname, dname):
    c = COALGEBRA_LIBRARY[cname](F2)
    cp = COALGEBRA_LIBRARY[pname](F2)
    d = CATEGORY_LIBRARY[dname](F2)
    t = tensor_coalgebras(c, cp)
    found = mc_enumerate(t, d, budget=1 << 22)
    assert ([m.canonical() for m in found]
            == [m.canonical() for m in oracle_mc_enumerate(t, d)])
    if (cname, dname) == ("w", "contractible_endo"):
        assert len(found) == 2


# -- the Maurer-Cartan category ---------------------------------------------


@pytest.mark.parametrize("name", ["a2", "exterior_line", "contractible_arrow"])
def test_mc_category_from_point_copies_target(name):
    """Over the unit coalgebra every object map is Maurer-Cartan with
    xi = 0, so MC*(pt, D) is D with objects renamed."""
    d = CATEGORY_LIBRARY[name](QQ)
    mcc = mc_category(point_coalgebra(QQ), d)
    cat = mcc.category
    assert cat.validate() == []
    index = {m.object_map["pt"]: i for i, m in enumerate(mcc.elements)}
    assert len(index) == len(d.quiver.objects)

    def key_map(dk):
        return (("mc", index[dk[0]]), ("mc", index[dk[1]]), dk[2],
                ("o", "pt", dk))

    _table_match(cat, d, key_map)
    for x in d.quiver.objects:
        assert cat.unit_vec(("mc", index[x])) == {
            key_map(k): c for k, c in d.unit_vec(x).items()
        }


@pytest.mark.parametrize("cname", ["neg_primitive", "w"])
@pytest.mark.parametrize("field", [F2, F3], ids=["f2", "f3"])
def test_twisted_differential_squares_to_zero(cname, field):
    mcc = mc_category(COALGEBRA_LIBRARY[cname](field),
                      CATEGORY_LIBRARY["contractible_endo"](field))
    assert mcc.elements
    assert any(m.xi for m in mcc.elements)  # nonzero twists are in play
    assert mcc.category.validate() == []


def test_mc_category_over_zero_target():
    mcc = mc_category(COALGEBRA_LIBRARY["dag"](F2), zero_category(F2))
    assert len(mcc.elements) == 1
    assert mcc.category.quiver.total_dim() == 0
    assert mcc.category.validate() == []


def test_mc_category_guards():
    with pytest.raises(ValueError):
        mc_category(COALGEBRA_LIBRARY["neg_primitive"](F2),
                    CATEGORY_LIBRARY["curved_nilpotent"](F2))
    c = COALGEBRA_LIBRARY["w"](F2)
    d = CATEGORY_LIBRARY["contractible_endo"](F2)
    with pytest.raises(ValueError):
        mc_category(c, d, elements=[MCElement({"*": "*"}, {})])
    good = mc_enumerate(c, d)
    assert mc_category(c, d, elements=good).category.validate() == []


# -- the adjunction triple --------------------------------------------------


@pytest.mark.parametrize("cname", ["dag", "primitive_pair"])
@pytest.mark.parametrize("field", [QQ, F3], ids=["q", "f3"])
def test_universal_cochain_is_maurer_cartan(cname, field):
    c = COALGEBRA_LIBRARY[cname](field)
    cobar, m = universal_cochain(c)
    ok, residual = mc_check(c, cobar.category, m)
    assert ok, residual


@pytest.mark.parametrize("field", [QQ, F2, F3], ids=["q", "f2", "f3"])
def test_universal_cochain_functor_is_identity(field):
    c = COALGEBRA_LIBRARY["primitive_pair"](field)
    _, m = universal_cochain(c)
    cob = cobar_construction(c, length_cap=4)
    fun = adjunction_functor_from_mc(cob, cob.category, m)
    assert fun.object_map == {x: x for x in cob.category.quiver.objects}
    for k in cob.category.quiver.keys():
        assert fun.action.get(k) == {k: field.one}
    assert adjunction_mc_from_functor(fun, c) == m


@pytest.mark.parametrize("dname,count", [
    ("a2", 8), ("exterior_line", 8), ("dual_numbers", 1)])
def test_three_hom_sets_agree(dname, count):
    c = COALGEBRA_LIBRARY["dag"](F2)
    d = CATEGORY_LIBRARY[dname](F2)
    sp = Splitting(d)
    bar = bar_construction(d, 3, splitting=sp)
    cob = cobar_construction(c, length_cap=3)
    assert cob.exact
    els = mc_enumerate(c, d, budget=1 << 22)
    mors = enumerate_coalgebra_morphisms(c, bar, weight_cap=3, budget=1 << 22)
    funs = enumerate_dg_functors(cob, d, budget=1 << 22)
    assert len(els) == len(mors) == len(funs) == count
    prints = set()
    for f in funs:
        assert f.validate() == []
        prints.add((tuple(sorted(f.object_map.items())), tuple(sorted(
            ((k, tuple(sorted(v.items(), key=repr)))
             for k, v in f.action.items()), key=repr))))
    assert len(prints) == count  # enumerated functors are pairwise distinct
    seen = {_mor_print(m) for m in mors}
    for m in els:
        mor = morphism_from_mc(m, c, bar, sp)
        assert mor.validate() == []
        assert _mor_print(mor) in seen
        assert mc_from_morphism(mor, sp) == m
        fun = adjunction_functor_from_mc(cob, d, m)
        assert fun.validate() == []
        assert adjunction_mc_from_functor(fun, c) == m


def test_morphism_transport_refuses_small_bar():
    """An element whose image needs a two-letter bar word must be refused
    by a weight-1 bar instead of silently truncated."""
    c = COALGEBRA_LIBRARY["dag"](F2)
    d = CATEGORY_LIBRARY["exterior_line"](F2)
    sp = Splitting(d)
    rows = {k[3]: k for k in c.reduced.keys()}
    x = ("*", "*", 1, "x")
    m = MCElement({o: "*" for o in c.objects},
                  {rows["a"]: {x: F2.one}, rows["b"]: {x: F2.one}})
    ok, _ = mc_check(c, d, m)
    assert ok  # x o x = 0 settles the m-row
    with pytest.raises(ValueError):
        morphism_from_mc(m, c, bar_construction(d, 1, splitting=sp), sp)
    mor = morphism_from_mc(m, c, bar_construction(d, 2, splitting=sp), sp)
    assert mor.validate() == []
    assert mor.action[rows["m"]]  # the two-letter word really is hit


def test_functor_enumeration_refuses_truncation():
    cob = cobar_construction(COALGEBRA_LIBRARY["primitive_pair"](F2),
                             length_cap=3)
    assert not cob.exact
    with pytest.raises(ValueError):
        enumerate_dg_functors(cob, CATEGORY_LIBRARY["a2"](F2))


def test_morphism_enumeration_refuses_small_cap():
    c = COALGEBRA_LIBRARY["dag"](F2)
    bar = bar_construction(CATEGORY_LIBRARY["a2"](F2), 1)
    with pytest.raises(ValueError):
        enumerate_coalgebra_morphisms(c, bar, weight_cap=1)


# -- the internal hom -------------------------------------------------------


def test_internal_hom_sentinels():
    c = COALGEBRA_LIBRARY["dag"](F2)
    d = CATEGORY_LIBRARY["a2"](F2)
    assert isinstance(internal_hom(c, FinalCoalgebra(F2), 3), FinalCoalgebra)
    assert isinstance(internal_hom(zero_coalgebra(F2), d, 3), FinalCoalgebra)
    out = internal_hom(c, empty_category(F2), 3)
    assert out.objects == () and out.reduced.total_dim() == 0
    assert isinstance(internal_hom(FinalCoalgebra(F2), zero_category(F2), 3),
                      FinalCoalgebra)
    out = internal_hom(FinalCoalgebra(F2), d, 3)
    assert isinstance(out, PointedCoalgebra) and out.objects == ()


def test_internal_hom_from_point_is_bar():
    d = CATEGORY_LIBRARY["a2"](F2)
    got = internal_hom(point_coalgebra(F2), d, 3)
    want = bar_construction(d, 3)
    assert len(got.objects) == len(want.objects)
    assert sorted(k[2] for k in got.reduced.keys()) == \
        sorted(k[2] for k in want.reduced.keys())


@pytest.mark.parametrize("cname,pname,count", [
    ("w", "neg_primitive", 2),
    ("neg_primitive", "neg_primitive", 4),
    ("w", "w", 1),
])
def test_tensor_hom_cardinalities(cname, pname, count):
    c = COALGEBRA_LIBRARY[cname](F2)
    cp = COALGEBRA_LIBRARY[pname](F2)
    d = CATEGORY_LIBRARY["contractible_endo"](F2)
    bar = bar_construction(d, 3)
    t = tensor_coalgebras(c, cp)
    left = enumerate_coalgebra_morphisms(t, bar, weight_cap=3, budget=1 << 22)
    uh = internal_hom(cp, d, 3)
    right = enumerate_coalgebra_morphisms(c, uh, weight_cap=3, budget=1 << 22)
    assert len(left) == len(right) == count


# -- the counit -------------------------------------------------------------


def test_counit_of_unit_category():
    cd = counit_data(CATEGORY_LIBRARY["k"](QQ), 4)
    assert cd.bar.reduced.total_dim() == 0
    assert cd.cobar.category.quiver.total_dim() == 1
    assert cd.functor.validate() == []


def test_counit_a2_window_is_exact():
    cd = counit_data(CATEGORY_LIBRARY["a2"](QQ), 4, length_cap=4)
    assert cd.cobar.exact
    assert cd.functor.validate() == []
    src = cd.cobar.category
    for x in src.quiver.objects:
        for y in src.quiver.objects:
            dims = src.hom_homology(x, y, -2, 1)
            want = 0 if (x, y) == ("1", "0") else 1
            assert [dims.get(n, 0) for n in range(-2, 2)] == [0, 0, want, 0]


@pytest.mark.parametrize("cap", [1, 2, 3, 4])
def test_counit_dual_numbers_window_stable(cap):
    """Every weight sector above one is acyclic, so the window [-1, 1]
    reads (0, 2, 0) at any cap, and weight capping keeps the comparison
    an honest functor at every resolution depth."""
    cd = counit_data(CATEGORY_LIBRARY["dual_numbers"](F3), cap)
    assert cd.functor.validate() == []
    src = cd.cobar.category
    x = src.quiver.objects[0]
    dims = src.hom_homology(x, x, -1, 1)
    assert [dims.get(n, 0) for n in (-1, 0, 1)] == [0, 2, 0]


@pytest.mark.parametrize("name,failing,valid", [
    ("trunc_poly3", (1,), 2),
    ("odd_poly5", (2, 3), 4),
    ("group_like", (1, 2, 3), None),
])
@pytest.mark.parametrize("field", [QQ, F3], ids=["q", "f3"])
def test_counit_is_a_functor_once_long_products_vanish(name, failing, valid,
                                                       field):
    """A functor exactly when products of more than cap arrows vanish.

    Every failing pair has no stored composite (it was dropped at the
    cap) and two live images, whose product in D is nonzero.
    """
    d = CATEGORY_LIBRARY[name](field)
    for cap in failing:
        fn = counit_data(d, cap).functor
        dropped = {f"composition not preserved on ({g}, {f})"
                   for g in fn.action for f in fn.action
                   if f[1] == g[0] and (g, f) not in fn.source.comp}
        msgs = fn.validate()
        assert msgs and set(msgs) <= dropped, (cap, msgs)
    if valid is not None:
        assert counit_data(d, valid).functor.validate() == []


def test_counit_shortcut_validates():
    assert counit_data(CATEGORY_LIBRARY["a2"](F2), 3).functor.validate() == []


# -- the box-product comparison ---------------------------------------------


@pytest.mark.parametrize("cname,pname", [
    ("dag", "primitive_pair"),
    ("dag", "dag"),
    ("w", "neg_primitive"),
    ("primitive_pair", "primitive_pair"),
])
@pytest.mark.parametrize("field", [QQ, F2, F3], ids=["q", "f2", "f3"])
def test_comparison_on_generators(cname, pname, field):
    ez = ez_data(COALGEBRA_LIBRARY[cname](field),
                 COALGEBRA_LIBRARY[pname](field), length_cap=3)
    assert ez_generator_problems(ez) == []


def test_comparison_on_generators_sees_broken_shuffles():
    # the shuffle checks look their words up by key; a wrong key would skip
    # them, so clearing the images of two-letter words must be reported
    ez = ez_data(COALGEBRA_LIBRARY["dag"](F3),
                 COALGEBRA_LIBRARY["primitive_pair"](F3), length_cap=3)
    for k in ez.functor.action:
        if len(k[3]) == 2:
            ez.functor.action[k] = {}
    problems = ez_generator_problems(ez)
    assert any(p.startswith("r-then-l shuffle off") for p in problems)
    assert any(p.startswith("l-then-r shuffle off") for p in problems)


def test_comparison_on_generators_sees_missing_shuffle_word():
    # both letters are stored and length cap 3 keeps two-letter words, so
    # a shuffle word absent from the cobar is reported, not skipped
    ez = ez_data(COALGEBRA_LIBRARY["dag"](F3),
                 COALGEBRA_LIBRARY["primitive_pair"](F3), length_cap=3)
    quiver = ez.source.category.quiver
    slot = next((x, y, n) for (x, y, n), names in quiver.slots.items()
                if any(len(w) == 2 and w[0][3][0][0] == "G"
                       and w[1][3][1][0] == "G" for w in names))
    quiver.slots[slot] = ()
    problems = ez_generator_problems(ez)
    assert problems
    assert all(p.startswith("shuffle word missing at") for p in problems)


def test_comparison_against_point_is_functor():
    ez = ez_data(COALGEBRA_LIBRARY["dag"](QQ), point_coalgebra(QQ),
                 length_cap=3)
    assert ez_generator_problems(ez) == []
    assert ez.functor.validate() == []
    assert ez.functor.action


@pytest.mark.parametrize("cname,pname", [
    ("dag", "dag"),
    ("dag", "primitive_pair"),
])
def test_window_homology_agrees(cname, pname):
    r = ez_compare(COALGEBRA_LIBRARY[cname](F2), COALGEBRA_LIBRARY[pname](F2),
                   (-1, 2))
    assert r.equal
    assert r.pairs


def test_comparison_graded_mode_for_curved_pair():
    with pytest.raises(ValueError):
        ez_compare(COALGEBRA_LIBRARY["w"](F2), COALGEBRA_LIBRARY["w"](F2),
                   (-3, 0))
    r = ez_compare(COALGEBRA_LIBRARY["w"](F2), COALGEBRA_LIBRARY["w"](F2),
                   (-3, 0), mode="graded")
    assert r.mode == "graded" and r.equal


def test_comparison_refuses_uncertifiable_windows():
    with pytest.raises(ValueError):
        ez_compare(COALGEBRA_LIBRARY["neg_primitive"](F2),
                   point_coalgebra(F2), (-2, 0))
    with pytest.raises(ValueError):
        ez_compare(COALGEBRA_LIBRARY["dag"](F2), COALGEBRA_LIBRARY["w"](F2),
                   (-1, 1), mode="graded")
    with pytest.raises(ValueError):
        ez_compare(COALGEBRA_LIBRARY["dag"](F2), COALGEBRA_LIBRARY["dag"](F2),
                   (-1, 1), mode="sideways")


# -- hom-tensor interchange -------------------------------------------------


@pytest.mark.parametrize("cname,pname,dname", [
    ("w", "neg_primitive", "a2"),
    ("curved_chain", "w", "exterior_line"),
    ("neg_primitive", "neg_primitive", "dual_numbers"),
])
@pytest.mark.parametrize("field", [QQ, F2, F3], ids=["q", "f2", "f3"])
def test_interchange_counital(cname, pname, dname, field):
    assert interchange_problems(COALGEBRA_LIBRARY[cname](field),
                                COALGEBRA_LIBRARY[pname](field),
                                CATEGORY_LIBRARY[dname](field)) == []


@pytest.mark.parametrize("field", [QQ, F2, F3], ids=["q", "f2", "f3"])
def test_interchange_curved_target(field):
    assert interchange_problems(
        COALGEBRA_LIBRARY["w"](field),
        COALGEBRA_LIBRARY["neg_primitive"](field),
        CATEGORY_LIBRARY["curved_nilpotent"](field)) == []


@pytest.mark.parametrize("cname,pname,dname", [
    ("curved_chain", "neg_primitive", "a2"),
    ("w", "dag", "k"),
])
@pytest.mark.parametrize("field", [QQ, F2, F3], ids=["q", "f2", "f3"])
def test_interchange_reduced_outer(cname, pname, dname, field):
    assert interchange_problems(COALGEBRA_LIBRARY[cname](field),
                                COALGEBRA_LIBRARY[pname](field),
                                CATEGORY_LIBRARY[dname](field),
                                reduced_outer=True) == []


def test_interchange_object_cap():
    # 2^9 object maps of the tensor of two three-object coalgebras into a2
    with pytest.raises(ValueError, match="max_objects="):
        interchange_problems(COALGEBRA_LIBRARY["dag"](F2),
                             COALGEBRA_LIBRARY["dag"](F2),
                             CATEGORY_LIBRARY["a2"](F2))


def oracle_kernel_tensor(c, cp):
    """Counit kernel of ``c`` tensored with all of ``cp``, built row by row:
    (reduced keys, comultiplication, differential, curvature).  Only the
    reduced coproduct of ``c`` enters, so no row has a grouplike C leg."""
    F = c.field
    keys, comult, diff, curv = set(), {}, {}, {}
    for a in c.reduced.keys():
        red_a = c.comult.get(a, {})
        # grouplike right leg: cofactors stay in the same column
        for y in cp.objects:
            k = lkey(a, y)
            keys.add(k)
            terms = {}
            for (a1, a2), al in red_a.items():
                vec_bump(F, terms, (lkey(a1, y), lkey(a2, y)), al)
            dv = {}
            for a2, coeff in c.diff.get(a, {}).items():
                vec_bump(F, dv, lkey(a2, y), coeff)
            comult[k], diff[k] = terms, dv
            if a in c.curv:
                curv[k] = c.curv[a]
        sgn_a = F.coerce(-1) if a[2] % 2 else F.one
        for b in cp.reduced.keys():
            k = pair_key(a, b)
            keys.add(k)
            terms = {}
            # a1 (x) a2 against the full coproduct of b; Koszul sign
            # (-1)^{|a2||b-left|} from moving a2 past the left cofactor
            for (a1, a2), al in red_a.items():
                vec_bump(F, terms, (lkey(a1, b[0]), pair_key(a2, b)), al)
                s = F.coerce(-1) if (a2[2] * b[2]) % 2 else F.one
                vec_bump(F, terms, (pair_key(a1, b), lkey(a2, b[1])),
                         F.mul(al, s))
                for (b1, b2), bl in cp.comult.get(b, {}).items():
                    s = F.coerce(-1) if (a2[2] * b1[2]) % 2 else F.one
                    vec_bump(F, terms, (pair_key(a1, b1), pair_key(a2, b2)),
                             F.mul(F.mul(al, bl), s))
            dv = {}
            for a2, coeff in c.diff.get(a, {}).items():
                vec_bump(F, dv, pair_key(a2, b), coeff)
            for b2, coeff in cp.diff.get(b, {}).items():
                vec_bump(F, dv, pair_key(a, b2), F.mul(sgn_a, coeff))
            comult[k], diff[k] = terms, dv
            # h_C (x) eps' kills the non-grouplike right leg; the reduced
            # left leg has no counit, so h' never contributes
    return (keys, {k: v for k, v in comult.items() if v},
            {k: v for k, v in diff.items() if v}, curv)


def _kernel_tensor_pairs():
    for field in (QQ, F2, F3):
        for cname in sorted(COALGEBRA_LIBRARY):
            for pname in sorted(COALGEBRA_LIBRARY):
                yield (COALGEBRA_LIBRARY[cname](field),
                       COALGEBRA_LIBRARY[pname](field))
        for seed in range(40):
            yield (random_coalgebra(field, seed, max_dim=3),
                   random_coalgebra(field, seed + 1000, max_dim=3))


def test_kernel_tensor_is_a_restriction_of_the_tensor():
    """The rows of C (x) C' whose C leg is not grouplike carry the kernel
    tensor: same rows, d and curvature, and the same comultiplication once
    the cofactors with a grouplike C leg are dropped."""
    def kept(row):
        return row[3][0][0] != "G"

    for c, cp in _kernel_tensor_pairs():
        t = tensor_coalgebras(c, cp)
        rows = {k for k in t.reduced.keys() if kept(k)}
        comult = {k: {(a, b): lam for (a, b), lam in t.comult[k].items()
                      if kept(a) and kept(b)}
                  for k in rows if k in t.comult}
        got = (rows, {k: v for k, v in comult.items() if v},
               {k: t.diff[k] for k in rows if k in t.diff},
               {k: t.curv[k] for k in rows if k in t.curv})
        assert got == oracle_kernel_tensor(c, cp)


# -- randomized properties --------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_random_convolutions_validate(seed):
    c = random_coalgebra(F2, seed, max_dim=3)
    d = random_dg_category(F2, seed + 1, max_dim=3)
    assert convolution_category(c, d, max_objects=256).validate() == []
    assert convolution_category(c, d, reduced=True,
                                max_objects=256).validate() == []


def _random_path_coalgebra(field, rng):
    """Deconcatenation coalgebra over u -> v -> w: conilpotent with an
    acyclic letter graph, so its cobar is finite and exact."""
    slots = {}
    for i, (x, y) in enumerate((("u", "v"), ("v", "w"))):
        slots[(x, y, rng.choice([-1, 0, 1]))] = (f"g{i}",)
    gen = GradedQuiver(("u", "v", "w"), slots)
    return cotensor_coalgebra(field, gen, max_weight=2)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_random_three_way_counts(seed):
    rng = random.Random(f"threeway:{seed}")
    c = _random_path_coalgebra(F2, rng)
    d = random_dg_category(F2, rng.randrange(1 << 30), max_dim=3,
                           allow_curved=False)
    cob = cobar_construction(c, length_cap=3)
    assert cob.exact
    bar = bar_construction(d, 2)
    els = mc_enumerate(c, d, budget=1 << 22)
    mors = enumerate_coalgebra_morphisms(c, bar, weight_cap=2, budget=1 << 22)
    funs = enumerate_dg_functors(cob, d, budget=1 << 22)
    assert len(els) == len(mors) == len(funs)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_random_interchange(seed):
    rng = random.Random(f"interchange:{seed}")
    c = random_coalgebra(F2, rng.randrange(1 << 30), max_dim=2)
    cp = random_coalgebra(F2, rng.randrange(1 << 30), max_dim=2)
    d = random_dg_category(F2, rng.randrange(1 << 30), max_dim=2,
                           allow_curved=False)
    assume(len(d.quiver.objects) **
           (len(c.objects) * len(cp.objects)) <= 32)
    assert interchange_problems(c, cp, d, max_objects=64) == []
