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
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from koszulcat import convmc
from koszulcat.barcobar import Splitting, bar_construction, cobar_construction
from koszulcat.coalgebra import (
    FinalCoalgebra,
    PointedCoalgebra,
    associated_graded,
    cotensor_coalgebra,
    identity_morphism,
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
from koszulcat.samples import (CATEGORY_LIBRARY, COALGEBRA_LIBRARY,
                               coalgebra_by_names)
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


def _mixed_mc_check():
    c = COALGEBRA_LIBRARY["neg_primitive"](F3)
    m = mc_enumerate(c, CATEGORY_LIBRARY["trunc_poly3"](F3))[0]
    return mc_check(c, CATEGORY_LIBRARY["trunc_poly3"](GF(5)), m)


@pytest.mark.parametrize("build", [
    lambda: tensor_coalgebras(COALGEBRA_LIBRARY["primitive_pair"](F3),
                              COALGEBRA_LIBRARY["dag"](QQ)),
    lambda: mc_enumerate(COALGEBRA_LIBRARY["neg_primitive"](F3),
                         CATEGORY_LIBRARY["trunc_poly3"](GF(5))),
    lambda: enumerate_coalgebra_morphisms(
        COALGEBRA_LIBRARY["neg_primitive"](F3),
        bar_construction(CATEGORY_LIBRARY["trunc_poly3"](GF(5)), 2), 2),
    lambda: enumerate_dg_functors(
        cobar_construction(COALGEBRA_LIBRARY["dag"](F3), length_cap=3),
        CATEGORY_LIBRARY["a2"](GF(5))),
    _mixed_mc_check,
], ids=["tensor", "mc_enumerate", "morphisms", "functors", "mc_check"])
def test_entry_points_refuse_mixed_fields(build):
    """Two fields in one call are refused, not mixed: mixed, these give a
    tensor labelled f3 that validates, 27 elements, 27 morphisms and 8
    functors."""
    with pytest.raises(ValueError, match="needs one field"):
        build()


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
            tables.append(conv.tables([(fk, fk, {})
                                       for fk in conv.object_maps]))
        (qq, qu, qc, qd, qh, _), (fq, fu, fc, fd, fh, _) = tables
        case = (cname, dname)
        assert list(qq.slots.items()) == list(fq.slots.items()), case
        assert list(qc) == list(fc), case
        assert _mod3(qc) == fc and _mod3(qd) == fd, case
        assert _mod3(qu) == _mod3(fu) and _mod3(qh) == _mod3(fh), case


def _integral_mc_elements():
    """(coalgebra name, category name, object map, xi over Z): the GF(3)
    solutions whose lift to {-1, 0, 1} still solves the equation over Q,
    on every sample pair with a nonzero one."""
    out = []
    for cname in sorted(COALGEBRA_LIBRARY):
        for dname in sorted(CATEGORY_LIBRARY):
            c, d = COALGEBRA_LIBRARY[cname](QQ), CATEGORY_LIBRARY[dname](QQ)
            if d.is_curved():
                continue
            for m in mc_enumerate(COALGEBRA_LIBRARY[cname](F3),
                                  CATEGORY_LIBRARY[dname](F3)):
                xi = {ck: {dk: x if x < 2 else -1 for dk, x in v.items()}
                      for ck, v in m.xi.items()}
                if xi and mc_check(c, d, MCElement(m.object_map, xi))[0]:
                    out.append((cname, dname, m.object_map, xi))
    return out


def test_transports_over_q_reduce_to_transports_over_f3():
    """Each transport of an integral element, computed over Q and reduced
    mod 3, is the same transport computed over GF(3)."""
    cases = _integral_mc_elements()
    assert len({(cn, dn) for cn, dn, _, _ in cases}) >= 10
    for cname, dname, om, xi in cases:
        got = []
        for field in (QQ, F3):
            c, d = COALGEBRA_LIBRARY[cname](field), CATEGORY_LIBRARY[dname](field)
            m = MCElement(om, {ck: {dk: field.coerce(x) for dk, x in v.items()}
                               for ck, v in xi.items()})
            fun = adjunction_functor_from_mc(
                cobar_construction(c, length_cap=3), d, m)
            mor = morphism_from_mc(m, c, bar_construction(d, 3))
            # over GF(3) the reduction only drops empty entries
            got.append((fun.object_map, _mod3(fun.action),
                        _mod3(adjunction_mc_from_functor(fun, c).xi),
                        mor.object_map, _mod3(mor.action),
                        _mod3({0: mor.twist}),
                        _mod3(mc_from_morphism(mor).xi)))
        assert got[0] == got[1], (cname, dname, om)


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


@pytest.mark.parametrize("case", ["degree", "row", "target"])
def test_malformed_candidates_name_their_row(case):
    """Each malformed value of ``test_malformed_candidates_raise`` is
    refused by a message that names its row: one off its degree, one on
    a key that is no reduced row, and one on an arrow D lacks."""
    c = COALGEBRA_LIBRARY["neg_primitive"](F2)
    d = CATEGORY_LIBRARY["contractible_endo"](F2)
    row = next(iter(c.reduced.keys()))
    e, y = ("*", "*", 0, "e"), ("*", "*", -1, "y")
    xi = {"degree": {row: {y: F2.one}},
          "row": {("*", "*", 5, "no"): {e: F2.one}},
          "target": {row: {("*", "*", 0, "no"): F2.one}}}[case]
    (bad,) = xi
    with pytest.raises(ValueError, match="not a degree-1 cochain: .*"
                       + re.escape(str(bad))):
        mc_check(c, d, MCElement({"*": "*"}, xi))


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
    bar = bar_construction(d, 3)
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
        mor = morphism_from_mc(m, c, bar)
        assert mor.validate() == []
        assert _mor_print(mor) in seen
        assert mc_from_morphism(mor) == m
        fun = adjunction_functor_from_mc(cob, d, m)
        assert fun.validate() == []
        assert adjunction_mc_from_functor(fun, c) == m


def test_transport_round_trip_with_multi_key_units():
    """In {dag, k} each unit is a sum of several basis keys, so the twist
    and the letter part of a value come from one split of the whole slot."""
    c = COALGEBRA_LIBRARY["neg_primitive"](F3)
    d = convolution_category(COALGEBRA_LIBRARY["dag"](F3),
                             CATEGORY_LIBRARY["k"](F3)).to_dg_category()
    bar = bar_construction(d, 3)
    els = mc_enumerate(c, d)
    mors = {_mor_print(m) for m in enumerate_coalgebra_morphisms(c, bar, weight_cap=3)}
    assert len(els) == len(mors) == 729
    for m in els:
        mor = morphism_from_mc(m, c, bar)
        assert mor.validate() == []
        assert _mor_print(mor) in mors
        assert mc_from_morphism(mor) == m


def test_internal_hom_with_multi_key_units_validates():
    c = COALGEBRA_LIBRARY["dag"](F3)
    assert internal_hom(c, CATEGORY_LIBRARY["contractible_endo"](F3), 2).validate() == []


def test_morphism_transport_refuses_small_bar():
    """An element whose image needs a two-letter bar word must be refused
    by a weight-1 bar instead of silently truncated."""
    c = COALGEBRA_LIBRARY["dag"](F2)
    d = CATEGORY_LIBRARY["exterior_line"](F2)
    rows = {k[3]: k for k in c.reduced.keys()}
    x = ("*", "*", 1, "x")
    m = MCElement({o: "*" for o in c.objects},
                  {rows["a"]: {x: F2.one}, rows["b"]: {x: F2.one}})
    ok, _ = mc_check(c, d, m)
    assert ok  # x o x = 0 settles the m-row
    with pytest.raises(ValueError):
        morphism_from_mc(m, c, bar_construction(d, 1))
    mor = morphism_from_mc(m, c, bar_construction(d, 2))
    assert mor.validate() == []
    assert mor.action[rows["m"]]  # the two-letter word really is hit


def test_morphism_transport_accepts_cancelled_words():
    """A two-letter word whose terms cancel in the image needs no room in
    the bar: rDelta(c) = a (x) b - b (x) a with a, b both sent to x."""
    F3 = GF(3)
    quiver = GradedQuiver(("*",), {("*", "*", 0): ("a", "b", "c")})
    a, b, c_ = (("*", "*", 0, n) for n in "abc")
    c = PointedCoalgebra(F3, ("*",), quiver,
                         {c_: {(a, b): F3.one, (b, a): F3.coerce(-1)}})
    assert c.validate() == []
    d = CATEGORY_LIBRARY["exterior_line"](F3)
    x = ("*", "*", 1, "x")
    m = MCElement({"*": "*"}, {a: {x: F3.one}, b: {x: F3.one}})
    assert mc_check(c, d, m)[0]
    short = morphism_from_mc(m, c, bar_construction(d, 1))
    assert short.validate() == []
    assert c_ not in short.action
    assert short.action == morphism_from_mc(
        m, c, bar_construction(d, 2)).action


def test_transports_refuse_a_target_that_is_not_a_bar():
    """Both transports read a map into BD through the splitting BD was
    built on, so a coalgebra that records none is refused."""
    c = COALGEBRA_LIBRARY["dag"](F3)
    m = mc_enumerate(c, CATEGORY_LIBRARY["a2"](F3))[0]
    with pytest.raises(ValueError, match="pass a bar_construction"):
        morphism_from_mc(m, c, c)
    with pytest.raises(ValueError, match="pass a bar_construction"):
        mc_from_morphism(identity_morphism(c))


def test_functor_enumeration_refuses_truncation():
    cob = cobar_construction(COALGEBRA_LIBRARY["primitive_pair"](F2),
                             length_cap=3)
    assert not cob.exact
    with pytest.raises(ValueError):
        enumerate_dg_functors(cob, CATEGORY_LIBRARY["a2"](F2))


@pytest.mark.parametrize("tensor, cap, target, n_mc", [
    (False, dict(length_cap=0), "dual_numbers", 9),
    (False, dict(weight_cap=0), "dual_numbers", 9),
    (False, dict(length_cap=0), "trunc_poly3", 27),
    (False, dict(weight_cap=0), "trunc_poly3", 27),
    # tensor keys weigh 2 each, so a weight cap of 1 keeps none
    (True, dict(weight_cap=1), "dual_numbers", 81),
], ids=["len0-dual", "wt0-dual", "len0-trunc3", "wt0-trunc3", "tensor-wt1"])
def test_cobar_without_its_letters_is_not_exact(tensor, cap, target, n_mc):
    """A cap that drops letters loses cobar generators, so functors out
    of what is left do not count MC elements: the one functor that kills
    everything is all that remains.  The cobar says it is not exact, and
    the functor search refuses it."""
    c = COALGEBRA_LIBRARY["neg_primitive"](F3)
    if tensor:
        c = tensor_coalgebras(c, c)
    d = CATEGORY_LIBRARY[target](F3)
    assert len(mc_enumerate(c, d)) == n_mc
    cob = cobar_construction(c, **cap)
    assert all(k[3] == () for k in cob.category.quiver.keys())
    assert not cob.exact and cob.comp_truncated
    with pytest.raises(ValueError, match="exact"):
        enumerate_dg_functors(cob, d)


@pytest.mark.parametrize("tensor, cap, n_mc", [
    (False, dict(length_cap=0), 9),
    (True, dict(weight_cap=1), 81),
], ids=["len0", "tensor-wt1"])
def test_bare_cobar_without_its_letters_is_refused(tensor, cap, n_mc):
    """The bare cobar category skips the exactness check, so the search
    refuses one that lacks a generator, naming it, instead of counting
    the one functor that kills everything."""
    c = COALGEBRA_LIBRARY["neg_primitive"](F3)
    if tensor:
        c = tensor_coalgebras(c, c)
    d = CATEGORY_LIBRARY["dual_numbers"](F3)
    assert len(mc_enumerate(c, d)) == n_mc
    row = next(iter(c.reduced.keys()))
    letter = (row[0], row[1], row[2] + 1, (row,))
    with pytest.raises(ValueError, match=re.escape(repr(letter))
                       + ".*raise its length or weight cap"):
        enumerate_dg_functors(cobar_construction(c, **cap).category, d)


def test_morphism_enumeration_refuses_small_cap():
    c = COALGEBRA_LIBRARY["dag"](F2)
    bar = bar_construction(CATEGORY_LIBRARY["a2"](F2), 1)
    with pytest.raises(ValueError):
        enumerate_coalgebra_morphisms(c, bar, weight_cap=1)


def test_morphism_enumeration_takes_a_complete_bar_uncapped():
    """B(a2) has no word of two letters, so it is complete at any cap and
    its longest word caps nothing: dag's three-part chains land on words
    that vanish, and the default chain limit lets them through."""
    c = COALGEBRA_LIBRARY["dag"](F3)
    d = CATEGORY_LIBRARY["a2"](F3)
    bar = bar_construction(d, 3)
    assert max(len(k[3]) for k in bar.reduced.keys()) == 1
    got = enumerate_coalgebra_morphisms(c, bar)
    assert len(got) == len(mc_enumerate(c, d)) == 8
    assert ([_mor_print(m) for m in got] == [
        _mor_print(m) for m in enumerate_coalgebra_morphisms(
            c, bar, weight_cap=3)])


def test_morphisms_into_a_bar_at_cap_zero_are_twists():
    """A bar at weight cap 0 has no word, not even a letter of its
    splitting, so a morphism into it is a twist alone: one per MC element
    of (C, D) with no letter part."""
    for cn, dn in [("cancel", "exterior_line"), ("cancel", "odd_pair_diff"),
                   ("neg_primitive", "a2"), ("dag", "a2")]:
        c, d = COALGEBRA_LIBRARY[cn](F3), CATEGORY_LIBRARY[dn](F3)
        bar = bar_construction(d, 0)
        mors = enumerate_coalgebra_morphisms(c, bar)
        assert mors and all(not any(m.action.values()) for m in mors)
        split = bar.splitting.split
        assert len(mors) == sum(
            all(not split(v)[1] for v in m.xi.values())
            for m in mc_enumerate(c, d))


def test_morphism_enumeration_default_cap_on_the_sweep():
    """On the mc_search sweep corpus (bars at cap 2) the default chain
    limit finds the morphisms that ``weight_cap=2`` finds, in order."""
    F = GF(3)
    for s in range(120):
        rng = random.Random(f"mc_search:{s}")
        c = _random_path_coalgebra(F, rng)
        d = random_dg_category(F, rng.randrange(1 << 30), max_dim=3,
                               allow_curved=False)
        bar = bar_construction(d, 2)
        got = enumerate_coalgebra_morphisms(c, bar, budget=1 << 22)
        want = enumerate_coalgebra_morphisms(c, bar, weight_cap=2,
                                             budget=1 << 22)
        assert [_mor_print(m) for m in got] == [_mor_print(m) for m in want], s


def test_functors_out_of_the_zero_category():
    """The cobar of the final coalgebra is the zero category, whose object
    has a zero unit: F(1) = 1 lets it go only to an object with zero unit.
    The empty category (the cobar of the zero coalgebra) has the one empty
    functor into anything."""
    zero_src = cobar_construction(FinalCoalgebra(F3), length_cap=2)
    assert enumerate_dg_functors(zero_src, CATEGORY_LIBRARY["a2"](F3)) == []
    funs = enumerate_dg_functors(zero_src, zero_category(F3))
    assert [f.object_map for f in funs] == [{"*": "*"}]
    assert funs[0].validate() == []
    empty_src = cobar_construction(zero_coalgebra(F3), length_cap=2)
    for d in (CATEGORY_LIBRARY["a2"](F3), zero_category(F3),
              empty_category(F3)):
        funs = enumerate_dg_functors(empty_src, d)
        assert [(f.object_map, f.action) for f in funs] == [({}, {})]


def test_morphism_enumeration_refuses_the_final_coalgebra():
    """A CoalgebraMorphism cannot target the formal final coalgebra, the
    bar of the zero category; the bar of the empty category takes no
    morphism from a coalgebra with objects and one from the empty one.  A
    bare zero coalgebra records no splitting, so it is refused."""
    c = COALGEBRA_LIBRARY["dag"](F3)
    for target in (FinalCoalgebra(F3), bar_construction(zero_category(F3), 2)):
        with pytest.raises(ValueError, match="cannot target the final"):
            enumerate_coalgebra_morphisms(c, target)
    empty_bar = bar_construction(empty_category(F3), 2)
    assert enumerate_coalgebra_morphisms(c, empty_bar) == []
    mors = enumerate_coalgebra_morphisms(zero_coalgebra(F3), empty_bar)
    assert len(mors) == 1 and mors[0].validate() == []
    for src in (c, zero_coalgebra(F3)):
        with pytest.raises(ValueError, match="pass a bar_construction"):
            enumerate_coalgebra_morphisms(src, zero_coalgebra(F3))


def test_counit_of_the_empty_category():
    """The bar of the empty category is the zero coalgebra, which records
    its (empty) splitting, so the counit reads it like any other bar."""
    cd = counit_data(empty_category(F3), 2)
    assert cd.bar.objects == () and cd.bar.splitting.letters == []
    assert cd.mc == MCElement({}, {})
    assert cd.functor.validate() == []


def test_counit_of_the_zero_category_is_refused():
    """The bar of the zero category is the formal final coalgebra, which
    has no identity morphism for the counit to read."""
    with pytest.raises(ValueError, match="zero category's bar is the final "
                       "coalgebra.*nonzero units"):
        counit_data(zero_category(F3), 2)


def test_bar_and_cobar_record_their_inputs():
    """Functors are solved on the coalgebra a cobar records, morphisms on
    the category of the splitting a bar records; a category or coalgebra
    without that record is refused."""
    c = COALGEBRA_LIBRARY["dag"](F3)
    d = CATEGORY_LIBRARY["a2"](F3)
    with pytest.raises(ValueError, match="pass a cobar_construction"):
        enumerate_dg_functors(d, d)
    with pytest.raises(ValueError, match="pass a bar_construction"):
        enumerate_coalgebra_morphisms(c, c)
    sp = Splitting(d)
    assert bar_construction(d, 2, splitting=sp).splitting is sp
    assert cobar_construction(c, length_cap=2).category.coalgebra is c


# -- the internal hom -------------------------------------------------------


def test_internal_hom_sentinels():
    c = COALGEBRA_LIBRARY["dag"](F2)
    d = CATEGORY_LIBRARY["a2"](F2)
    assert isinstance(internal_hom(c, zero_category(F2), 3), FinalCoalgebra)
    assert isinstance(internal_hom(zero_coalgebra(F2), d, 3), FinalCoalgebra)
    out = internal_hom(c, empty_category(F2), 3)
    assert out.objects == () and out.reduced.total_dim() == 0
    assert isinstance(internal_hom(FinalCoalgebra(F2), zero_category(F2), 3),
                      FinalCoalgebra)
    out = internal_hom(FinalCoalgebra(F2), d, 3)
    assert isinstance(out, PointedCoalgebra) and out.objects == ()


@pytest.mark.parametrize("target", ["final", "coalgebra"])
def test_internal_hom_refuses_a_target_that_is_no_category(target):
    """The target is the dg category D of uHom(C, BD); the final target
    is spelled zero_category(F)."""
    c = COALGEBRA_LIBRARY["dag"](F3)
    d = (FinalCoalgebra(F3) if target == "final"
         else COALGEBRA_LIBRARY["dag"](F3))
    with pytest.raises(ValueError, match=r"zero_category\(F\)"):
        internal_hom(c, d, 2)


@pytest.mark.parametrize("cname, count", [
    ("neg_primitive", 3), ("curved_chain", 0), ("dag", 1)])
def test_point_coalgebra_is_no_terminal_object(cname, count):
    """k[pt] = B(k) takes one morphism per MC element of C in k, which
    may be several or none; only the formal FinalCoalgebra is terminal."""
    c = COALGEBRA_LIBRARY[cname](F3)
    k = CATEGORY_LIBRARY["k"](F3)
    bk = bar_construction(k, 2)
    assert bk.reduced.total_dim() == 0 and len(bk.objects) == 1
    assert len(mc_enumerate(c, k)) == count
    assert len(enumerate_coalgebra_morphisms(c, bk)) == count


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


# -- Hochschild cohomology through the bar ----------------------------------


def _hochschild(d, cap: int, top: int):
    """dim HH^n(D) for n = 0..top, read as the homology of the hom complex
    of the one object of MC*(BD, D) whose element is the identity of BD
    (the Hochschild cochains of D), the bar taken at weight ``cap``."""
    bar = bar_construction(d, cap)
    m = mc_from_morphism(identity_morphism(bar))
    cat = mc_category(bar, d, elements=[m]).category
    (x,) = cat.quiver.objects
    h = cat.hom_homology(x, x, 0, top)
    return [h.get(n, 0) for n in range(top + 1)]


@pytest.mark.parametrize("name, p, want", [
    # k[x]/x^2: HH^0 = A, then k in each degree, A again in characteristic 2
    ("dual_numbers", 0, [2, 1, 1, 1, 1]),
    ("dual_numbers", 2, [2, 2, 2, 2, 2]),
    ("dual_numbers", 3, [2, 1, 1, 1, 1]),
    # k[x]/x^3: k^2 in each positive degree, A again in characteristic 3
    ("trunc_poly3", 0, [3, 2, 2, 2, 2]),
    ("trunc_poly3", 2, [3, 2, 2, 2, 2]),
    ("trunc_poly3", 3, [3, 3, 3, 3, 3]),
    # k[Z/2]: semisimple unless 2 = 0, where it is k[x]/x^2
    ("group_like", 0, [2, 0, 0, 0, 0]),
    ("group_like", 2, [2, 2, 2, 2, 2]),
    ("group_like", 3, [2, 0, 0, 0, 0]),
    # the A2 quiver: a tree, so only its centre k
    ("a2", 0, [1, 0, 0, 0, 0]),
    ("a2", 2, [1, 0, 0, 0, 0]),
    ("a2", 3, [1, 0, 0, 0, 0]),
])
def test_hochschild_closed_forms_through_the_bar(name, p, want):
    """Degrees 0-4 from the bar at weight 5 (degree 5 itself, at the cap,
    is not exact there)."""
    F = QQ if p == 0 else GF(p)
    assert _hochschild(CATEGORY_LIBRARY[name](F), 5, 4) == want


def test_hochschild_window_of_trunc_poly3_at_cap_9():
    assert _hochschild(CATEGORY_LIBRARY["trunc_poly3"](QQ), 9, 8) == \
        [3] + [2] * 8


# -- the counit -------------------------------------------------------------


def test_counit_of_unit_category():
    cd = counit_data(CATEGORY_LIBRARY["k"](QQ), 4)
    assert cd.bar.reduced.total_dim() == 0
    assert cd.cobar.category.quiver.total_dim() == 1
    assert cd.functor.validate() == []


def test_counit_a2_window_is_exact():
    cd = counit_data(CATEGORY_LIBRARY["a2"](QQ), 4)
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


def test_broken_one_letter_image_is_reported_and_refused(monkeypatch):
    # a comparison functor with one one-letter image cleared: the generator
    # check reports it, and the window comparison refuses to run on it
    real = convmc.ez_data

    def broken(*args, **kwargs):
        ez = real(*args, **kwargs)
        word = min((k for k in ez.functor.action if len(k[3]) == 1), key=repr)
        ez.functor.action[word] = {}
        return ez

    c = COALGEBRA_LIBRARY["dag"](F2)
    cp = COALGEBRA_LIBRARY["primitive_pair"](F2)
    problems = ez_generator_problems(broken(c, cp, length_cap=3))
    assert problems == ["one-letter image off at (('G', 'x'), (1, 's'))"]
    monkeypatch.setattr(convmc, "ez_data", broken)
    with pytest.raises(ValueError, match="comparison functor is off: "
                       "one-letter image off"):
        ez_compare(c, cp, (-1, 2))


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
    w = COALGEBRA_LIBRARY["w"](F2)
    with pytest.raises(ValueError, match="pass the associated graded"):
        ez_compare(w, w, (-3, 0))
    gw = associated_graded(w)
    assert ez_compare(gw, gw, (-3, 0)).equal


# graded reports (cap, window homology per object pair of C) pinned from the
# generator-column coradical filtration; the second factor is one-object,
# so an object pair is ((x, "*"), (y, "*")), and pairs not listed are 0
EZ_GRADED = {
    ("w", "w", (-3, 0)): (4, {("*", "*"): (4, 3, 2, 1)}),
    ("w", "w", (-1, 2)): (2, {("*", "*"): (2, 1, 0, 0)}),
    ("cancel", "cancel", (-3, 0)): (1, {("*", "*"): (0, 0, 0, 1)}),
    ("cancel", "cancel", (-1, 2)): (3, {("*", "*"): (0, 1, 2, 3)}),
    ("dag", "cancel", (-3, 0)): (1, {("x", "x"): (0, 0, 0, 1),
                                     ("y", "y"): (0, 0, 0, 1),
                                     ("z", "z"): (0, 0, 0, 1)}),
    ("dag", "cancel", (-1, 2)): (3, {("x", "x"): (0, 1, 1, 1),
                                    ("x", "y"): (0, 0, 1, 1),
                                    ("y", "y"): (0, 1, 1, 1),
                                    ("y", "z"): (0, 0, 1, 1),
                                    ("z", "z"): (0, 1, 1, 1)}),
    ("primitive_pair", "cancel", (-3, 0)): (1, {("*", "*"): (0, 0, 0, 1)}),
    ("primitive_pair", "cancel", (-1, 2)): (3, {("*", "*"): (0, 1, 1, 1)}),
}


@pytest.mark.parametrize("field", [F2, F3], ids=["f2", "f3"])
@pytest.mark.parametrize("cname,pname,window", sorted(EZ_GRADED))
def test_graded_comparison_reports_pinned(field, cname, pname, window):
    c = COALGEBRA_LIBRARY[cname](field)
    r = ez_compare(associated_graded(c),
                   associated_graded(COALGEBRA_LIBRARY[pname](field)), window)
    cap, dims = EZ_GRADED[(cname, pname, window)]
    zero = (0,) * (window[1] - window[0] + 1)
    want = [((x, "*"), (y, "*"), dims.get((x, y), zero),
             dims.get((x, y), zero), True)
            for x in c.objects for y in c.objects]
    assert (r.window, r.cap, r.equal) == (window, cap, True)
    assert r.pairs == want


@pytest.mark.parametrize("c,cp,window", [
    (COALGEBRA_LIBRARY["dag"](QQ), COALGEBRA_LIBRARY["primitive_pair"](QQ),
     (-1, -1)),
    (coalgebra_by_names(QQ, {"p": -2, "q": -3}),
     coalgebra_by_names(QQ, {"p": -3, "q": -4}), (1, 2)),
], ids=["positive", "negative"])
def test_comparison_at_certified_cap_zero(c, cp, window):
    """Every cobar letter lies beyond the window, so the certified cap is
    0 and the cobars hold no letter: no one-letter image is asked for,
    and both sides read zero homology."""
    r = ez_compare(c, cp, window)
    zero = (0,) * (window[1] - window[0] + 1)
    assert (r.cap, r.equal) == (0, True)
    assert r.pairs and all(p[2] == p[3] == zero for p in r.pairs)


def test_comparison_refuses_an_empty_window():
    with pytest.raises(ValueError, match="window .* is empty"):
        ez_compare(COALGEBRA_LIBRARY["dag"](QQ),
                   COALGEBRA_LIBRARY["primitive_pair"](QQ), (3, -1))


def test_comparison_refuses_uncertifiable_windows():
    with pytest.raises(ValueError):
        ez_compare(COALGEBRA_LIBRARY["neg_primitive"](F2),
                   point_coalgebra(F2), (-2, 0))
    with pytest.raises(ValueError):
        ez_compare(associated_graded(COALGEBRA_LIBRARY["dag"](F2)),
                   associated_graded(COALGEBRA_LIBRARY["w"](F2)), (-1, 1))


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


def without(t, objects, gone):
    """``t`` on ``objects`` with the reduced keys ``gone`` and every table
    term on them dropped."""
    slots = {}
    for k in t.reduced.keys():
        if k not in gone:
            slots.setdefault(k[:3], []).append(k[3])
    comult = {k: {p: c for p, c in v.items() if not gone & set(p)}
              for k, v in t.comult.items() if k not in gone}
    diff = {k: {j: c for j, c in v.items() if j not in gone}
            for k, v in t.diff.items() if k not in gone}
    curv = {k: c for k, c in t.curv.items() if k not in gone}
    return PointedCoalgebra(t.field, objects, GradedQuiver(objects, slots),
                            comult, diff=diff, curv=curv)


@pytest.mark.parametrize("table,message", [
    ("comult", "products differ at "),
    ("diff", "differentials differ at "),
    ("key", "hom bases differ at "),
    ("object", "object maps do not correspond"),
])
def test_interchange_sees_a_broken_tensor(monkeypatch, table, message):
    # one coefficient of the tensor's rDelta or d negated: the left side's
    # products or differentials no longer match the curried right side; a
    # reduced key dropped: its hom bases lose rows; an object and its keys
    # dropped: its object maps lose a coordinate
    c, cp = COALGEBRA_LIBRARY["dag"](F3), COALGEBRA_LIBRARY["primitive_pair"](F3)
    d = CATEGORY_LIBRARY["a2"](F3)
    assert interchange_problems(c, cp, d) == []
    real = convmc.tensor_coalgebras

    def broken(a, b):
        t = real(a, b)
        if table == "key":
            return without(t, t.objects, {min(t.reduced.keys(), key=repr)})
        if table == "object":
            x = t.objects[-1]
            return without(t, t.objects[:-1],
                           {k for k in t.reduced.keys() if x in k[:2]})
        entry = min(getattr(t, table).items(), key=lambda kv: repr(kv[0]))[1]
        k = min(entry, key=repr)
        entry[k] = F3.neg(entry[k])
        return t

    monkeypatch.setattr(convmc, "tensor_coalgebras", broken)
    problems = interchange_problems(c, cp, d)
    assert problems and all(p.startswith(message) for p in problems)


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
