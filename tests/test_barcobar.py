"""Bar and cobar: exactness, signs, sentinels, splittings, length bounds.

The cobar sign tests at length/weight 4 are load-bearing: the quadratic
term must carry the sign of the SECOND cofactor (and the internal term a
degree-dependent sign) for d^2 = 0 under the composition-order Leibniz
rule used by DgCategory.  The classical first-cofactor signs pass every
check up to length 3 and over F2, then leave a coefficient-2 residue on
words like x|x|x|x — which is exactly what test_dsquare_depth_four pins.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulcat.barcobar import (
    CobarResult,
    Splitting,
    bar_construction,
    cobar_construction,
    cobar_length_bound,
)
from koszulcat.coalgebra import FinalCoalgebra, zero_coalgebra
from koszulcat.dgcat import empty_category, zero_category
from koszulcat.field import GF, QQ
from koszulcat.randgen import random_coalgebra, random_dg_category
from koszulcat.samples import (
    CATEGORY_LIBRARY,
    COALGEBRA_LIBRARY,
    _one_object_coalgebra,
    a2_category,
    contractible_endo,
    dual_numbers,
    group_like,
)

F2, F3 = GF(2), GF(3)


# -- bar: validity across the library ---------------------------------------


@pytest.mark.parametrize("name", sorted(CATEGORY_LIBRARY))
@pytest.mark.parametrize("field", [QQ, F3], ids=["q", "f3"])
def test_bar_validates(name, field):
    cat = CATEGORY_LIBRARY[name](field)
    if cat.is_curved():
        with pytest.raises(ValueError):
            bar_construction(cat, 3)
        return
    bc = bar_construction(cat, 3)
    if isinstance(bc, FinalCoalgebra):
        return
    assert bc.validate() == []


@pytest.mark.parametrize(
    "name",
    [
        "trunc_poly3",
        "poly_diff",
        "group_like",
        "contractible_endo",
        # these three mix letter parities and unit leakage on purpose; a
        # wrong internal/merge sign pairing passes everything above and
        # fails here
        "odd_poly5",
        "odd_pair_diff",
        "contractible_pair",
    ],
)
def test_bar_validates_deep(name):
    # weight 4+ is where mismatched word signs would first fail to cancel
    bc = bar_construction(CATEGORY_LIBRARY[name](F3), 5)
    assert bc.validate() == []
    bc = bar_construction(CATEGORY_LIBRARY[name](QQ), 4)
    assert bc.validate() == []


def test_bar_weight_cap_is_exact_per_weight():
    # the weight-3 bar is literally the weight <= 3 part of the weight-5 bar
    cat = CATEGORY_LIBRARY["trunc_poly3"](QQ)
    small, big = bar_construction(cat, 3), bar_construction(cat, 5)
    keys = set(small.reduced.keys())
    assert keys == {k for k in big.reduced.keys() if len(k[3]) <= 3}
    for k in keys:
        assert small.diff.get(k) == big.diff.get(k)
        assert small.comult.get(k) == big.comult.get(k)
        assert small.curv.get(k) == big.curv.get(k)


@pytest.mark.parametrize(
    "name", [n for n in sorted(CATEGORY_LIBRARY)
             if not CATEGORY_LIBRARY[n](QQ).is_curved()])
def test_bar_over_q_reduces_to_bar_over_f3(name):
    # the samples have integral tables, so reducing the rational bar mod 3
    # entrywise must give the bar over GF(3)
    bq = bar_construction(CATEGORY_LIBRARY[name](QQ), 3)
    b3 = bar_construction(CATEGORY_LIBRARY[name](F3), 3)

    def mod3(vec):
        return {k: F3.coerce(c) for k, c in vec.items()
                if not F3.is_zero(F3.coerce(c))}

    assert bq.reduced.slots == b3.reduced.slots
    assert list(bq.comult) == list(b3.comult)
    assert all(list(bq.comult[k]) == list(b3.comult[k]) for k in bq.comult)
    reduced_diff = {k: mod3(v) for k, v in bq.diff.items()}
    assert {k: v for k, v in reduced_diff.items() if v} == b3.diff
    assert mod3(bq.curv) == b3.curv


@pytest.mark.parametrize(
    "name", [n for n in sorted(COALGEBRA_LIBRARY)
             if not COALGEBRA_LIBRARY[n](QQ).is_curved()])
def test_cobar_over_q_reduces_to_cobar_over_f3(name):
    # the samples have integral tables, so reducing the rational cobar mod
    # 3 entrywise must give the cobar over GF(3)
    cq = cobar_construction(COALGEBRA_LIBRARY[name](QQ), length_cap=3).category
    c3 = cobar_construction(COALGEBRA_LIBRARY[name](F3), length_cap=3).category

    def mod3(table):
        out = {}
        for k, vec in table.items():
            v = {kk: F3.coerce(c) for kk, c in vec.items()
                 if not F3.is_zero(F3.coerce(c))}
            if v:
                out[k] = v
        return out

    assert cq.quiver.slots == c3.quiver.slots
    assert list(cq.comp) == list(c3.comp)
    assert mod3(cq.comp) == c3.comp
    assert mod3(cq.diff) == c3.diff


# -- bar: sentinels and input checking --------------------------------------


def test_bar_sentinels():
    b = bar_construction(empty_category(QQ), 3)
    assert not b.objects and b.validate() == []
    assert bar_construction(zero_category(QQ), 3) == FinalCoalgebra(QQ)


def test_bar_rejects_curved_and_unitless():
    with pytest.raises(ValueError):
        bar_construction(CATEGORY_LIBRARY["curved_nilpotent"](QQ), 3)


# -- bar: curvature placement -----------------------------------------------


def test_bar_rejects_negative_cap():
    with pytest.raises(ValueError, match="weight_cap="):
        bar_construction(a2_category(QQ), -1)


def test_bar_curvature_group_like():
    # t.t = e: the unit part of the weight-2 merge is the only curvature,
    # and it enters with a minus sign (forced by d^2 = coaction)
    bc = bar_construction(group_like(QQ), 3)
    assert bc.is_curved()
    assert {k[3]: v for k, v in bc.curv.items()} == {
        (("*", "*", 0, "t"), ("*", "*", 0, "t")): QQ.neg(QQ.one)
    }


def test_bar_curvature_contractible_endo():
    # d(y) = e: the unit part of d at weight 1, with a plus sign
    bc = bar_construction(contractible_endo(QQ), 3)
    assert {k[3]: v for k, v in bc.curv.items()} == {
        (("*", "*", -1, "y"),): QQ.one
    }


def test_bar_augmented_is_uncurved():
    # d and composition preserve the span of x, so nothing hits the unit
    for name in ["dual_numbers", "a2", "k", "exterior_line"]:
        bc = bar_construction(CATEGORY_LIBRARY[name](QQ), 3)
        assert not bc.is_curved(), name


# -- cobar: exact materializations ------------------------------------------


def test_cobar_dag_exact():
    res = cobar_construction(COALGEBRA_LIBRARY["dag"](QQ), length_cap=4)
    assert res.exact and not res.comp_truncated
    assert res.category.validate() == []
    dims = {}
    for k in res.category.quiver.keys():
        s = (k[0], k[1], k[2])
        dims[s] = dims.get(s, 0) + 1
    assert dims == {
        ("x", "x", 0): 1, ("y", "y", 0): 1, ("z", "z", 0): 1,
        ("x", "y", 1): 1, ("y", "z", 1): 1, ("x", "z", 1): 1,
        ("x", "z", 2): 1,
    }
    # rDelta(m) = a (x) b becomes d(m~) = +(a~|b~)
    (mk,) = [k for k in res.category.quiver.keys()
             if len(k[3]) == 1 and k[3][0][3] == "m"]
    (dv,) = res.category.apply_d({mk: QQ.one}).items()
    assert tuple(x[3] for x in dv[0][3]) == ("a", "b") and dv[1] == QQ.one


def _cobar_comp_cases():
    for name in ["dag", "curved_chain", "w"]:
        for cap in (2, 3, 4):
            yield pytest.param(
                lambda name=name, cap=cap: cobar_construction(
                    COALGEBRA_LIBRARY[name](QQ), length_cap=cap),
                id=f"{name}-len{cap}")
    for cap in (3, 4, 5):
        yield pytest.param(
            lambda cap=cap: cobar_construction(
                bar_construction(dual_numbers(F3), cap), weight_cap=cap),
            id=f"bar_dual-wt{cap}")


@pytest.mark.parametrize("build", list(_cobar_comp_cases()))
def test_cobar_composition_is_concatenation(build):
    # validate() cannot see a split missing everywhere at once (both sides
    # of associativity read 0), so pin the table itself: composition is
    # concatenation of stored words, and every split of every stored word
    # is an entry
    res = build()
    cat = res.category
    one = cat.field.one
    by_name = {k[3]: k for k in cat.quiver.keys() if k[3]}

    def key(w, x):
        return by_name[w] if w else (x, x, 0, ())

    for (g, f), img in cat.comp.items():
        assert f[1] == g[0]
        assert img == {key(f[3] + g[3], f[0]): one}
    splits = sum(len(w) + 1 for w in by_name)
    assert len(cat.comp) == splits + len(cat.quiver.objects)
    # a composite is dropped exactly when a stored word has a composable
    # stored letter it cannot absorb
    letters = [w[0] for w in by_name if len(w) == 1]
    dropped = any(w + (a,) not in by_name
                  for w in by_name for a in letters if a[0] == w[-1][1])
    assert res.comp_truncated == dropped


def test_cobar_curved_chain_generator_values():
    # pins all three terms of the generator differential at once:
    # d(c~) = +e~ + (u~|w~),  d(e~) = +u~,  d(w~) = -unit
    res = cobar_construction(COALGEBRA_LIBRARY["curved_chain"](QQ), length_cap=4)
    cat = res.category

    def dword(*names):
        (k,) = [k for k in cat.quiver.keys()
                if tuple(x[3] for x in k[3]) == names]
        return {tuple(x[3] for x in kk[3]): v
                for kk, v in cat.apply_d({k: QQ.one}).items()}

    assert dword("c") == {("e",): QQ.one, ("u", "w"): QQ.one}
    assert dword("e") == {("u",): QQ.one}
    assert dword("w") == {(): QQ.neg(QQ.one)}
    assert dword("u") == {}
    assert res.d_squared_problems() == []


def test_cobar_w_is_polynomial_with_unit_differential():
    # one letter of shifted degree -1; d(xi) = -1, d(xi^2) = 0, d(xi^3) = -xi^2
    res = cobar_construction(COALGEBRA_LIBRARY["w"](QQ), length_cap=4)
    cat = res.category
    by_len = {len(k[3]): k for k in cat.quiver.keys()}
    assert cat.apply_d({by_len[1]: QQ.one}) == {by_len[0]: QQ.neg(QQ.one)}
    assert cat.apply_d({by_len[2]: QQ.one}) == {}
    assert cat.apply_d({by_len[3]: QQ.one}) == {by_len[2]: QQ.neg(QQ.one)}


def test_cobar_neg_primitive_dims():
    # degree-0 letter: polynomial endomorphisms, no differential, never exact
    res = cobar_construction(COALGEBRA_LIBRARY["neg_primitive"](QQ), length_cap=3)
    assert not res.exact
    assert all(k == ("*", "*", 0) for k in
               {(k[0], k[1], k[2]) for k in res.category.quiver.keys()})
    assert sum(1 for _ in res.category.quiver.keys()) == 4
    assert res.category.diff == {}


def test_cobar_needs_a_cap():
    with pytest.raises(ValueError):
        cobar_construction(COALGEBRA_LIBRARY["w"](QQ))


def test_cobar_rejects_negative_caps():
    coa = COALGEBRA_LIBRARY["w"](QQ)
    with pytest.raises(ValueError, match="length_cap="):
        cobar_construction(coa, length_cap=-1)
    with pytest.raises(ValueError, match="weight_cap="):
        cobar_construction(coa, weight_cap=-1)


def test_cobar_sentinels():
    res = cobar_construction(FinalCoalgebra(QQ))
    assert res.category.quiver.total_dim() == 0
    assert list(res.category.quiver.objects) == ["*"]
    res = cobar_construction(zero_coalgebra(QQ))
    assert not res.category.quiver.objects


def test_bar_cobar_sentinel_round_trip():
    # B(zero category) = * and Omega(*) = zero category again
    z = zero_category(QQ)
    star = bar_construction(z, 3)
    back = cobar_construction(star).category
    assert back.quiver.total_dim() == 0
    assert back.validate() == []


# -- cobar: d^2 = 0 in the guaranteed region --------------------------------


@pytest.mark.parametrize("name", sorted(COALGEBRA_LIBRARY))
@pytest.mark.parametrize("field", [QQ, F3], ids=["q", "f3"])
def test_cobar_dsquare_region(name, field):
    res = cobar_construction(COALGEBRA_LIBRARY[name](field), length_cap=5)
    assert res.d_squared_problems() == []
    if res.trunc_min_len is not None:
        assert res.trunc_min_len >= 2  # length-1 differentials always fit


@pytest.mark.parametrize("field", [QQ, F3], ids=["q", "f3"])
def test_dsquare_depth_four(field):
    # the parity trap: four letters of shifted degree 0 whose splits chain
    # three deep; first-cofactor quadratic signs leave 2(s1 s1 s2 - s2 s1 s1)
    bd = bar_construction(dual_numbers(field), 4)
    res = cobar_construction(bd, weight_cap=4)
    assert res.trunc_min_len is None  # weight caps never truncate d here
    assert res.d_squared_problems() == []


def test_weight_cap_keeps_differential_complete():
    bd = bar_construction(dual_numbers(F3), 5)
    res = cobar_construction(bd, weight_cap=5)
    assert res.trunc_min_len is None and res.comp_truncated
    assert res.d_squared_problems() == []


# -- cobar of bar: homology recovers the category ---------------------------


@pytest.mark.parametrize("cap", [2, 3, 4])
def test_cobar_bar_dual_numbers_homology(cap):
    bd = bar_construction(dual_numbers(F3), cap)
    res = cobar_construction(bd, weight_cap=cap)
    assert res.category.hom_homology("*", "*", -2, 1) == {
        -2: 0, -1: 0, 0: 2, 1: 0
    }


def test_cobar_bar_point_and_a2_homology():
    res = cobar_construction(bar_construction(CATEGORY_LIBRARY["k"](QQ), 4),
                             weight_cap=4)
    (obj,) = {k[0] for k in res.category.quiver.keys()}
    assert res.category.hom_homology(obj, obj, -2, 1) == {
        -2: 0, -1: 0, 0: 1, 1: 0
    }
    res = cobar_construction(bar_construction(a2_category(QQ), 4), weight_cap=4)
    assert res.exact
    assert res.category.hom_homology("0", "1", -2, 1) == {
        -2: 0, -1: 0, 0: 1, 1: 0
    }
    # no words run against the arrow, and an empty hom complex reports no
    # degrees at all rather than a window of zeros
    assert res.category.hom_homology("1", "0", -2, 1) == {}


# -- splittings --------------------------------------------------------------


def test_custom_splitting_still_validates_and_agrees():
    dual = dual_numbers(F3)
    cvec = {("*", "*", 0, "x"): F3.one, ("*", "*", 0, "e"): F3.one}
    spl = Splitting(dual, complement={"*": [cvec]})
    bd = bar_construction(dual, 4, splitting=spl)
    assert bd.validate() == []
    res = cobar_construction(bd, weight_cap=4)
    assert res.d_squared_problems() == []
    assert res.category.hom_homology("*", "*", -2, 1) == {
        -2: 0, -1: 0, 0: 2, 1: 0
    }


def test_splitting_rejects_degenerate_complement():
    dual = dual_numbers(QQ)
    unit_again = {("*", "*", 0, "e"): QQ.one}
    with pytest.raises(ValueError):
        Splitting(dual, complement={"*": [unit_again]})


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_random_splitting_invariance(seed):
    # any unit complement gives a valid bar with the same cobar homology
    rng = random.Random(seed)
    field = rng.choice([QQ, F3, GF(5)])
    cat = CATEGORY_LIBRARY[rng.choice(["dual_numbers", "trunc_poly3"])](field)
    slot = sorted(cat.quiver.slot("*", "*", 0))
    n = len(slot)
    # complement vectors = non-unit basis plus a random multiple of the unit
    vecs = []
    for a in slot:
        if a == "e":
            continue
        v = {("*", "*", 0, a): field.one}
        c = field.random(rng)
        if not field.is_zero(c):
            v[("*", "*", 0, "e")] = c
        vecs.append(v)
    spl = Splitting(cat, complement={"*": vecs})
    bd = bar_construction(cat, 3, splitting=spl)
    assert bd.validate() == []
    res = cobar_construction(bd, weight_cap=3)
    assert res.d_squared_problems() == []
    ref = cobar_construction(bar_construction(cat, 3), weight_cap=3)
    assert (res.category.hom_homology("*", "*", -1, 1)
            == ref.category.hom_homology("*", "*", -1, 1))


# -- random suites -----------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_random_bar_validates(seed):
    rng = random.Random(seed)
    field = rng.choice([QQ, F2, F3])
    cat = random_dg_category(field, seed, max_dim=4, allow_curved=False)
    bc = bar_construction(cat, 3)
    if not isinstance(bc, FinalCoalgebra):
        assert bc.validate() == []


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_random_cobar_dsquare(seed):
    rng = random.Random(seed)
    field = rng.choice([QQ, F2, F3])
    coa = random_coalgebra(field, seed, max_dim=4)
    res = cobar_construction(coa, length_cap=4)
    assert res.d_squared_problems(5) == []


def test_determinism():
    a = cobar_construction(bar_construction(dual_numbers(F3), 3), weight_cap=3)
    b = cobar_construction(bar_construction(dual_numbers(F3), 3), weight_cap=3)
    assert list(a.category.quiver.keys()) == list(b.category.quiver.keys())
    assert a.category.diff == b.category.diff
    assert a.category.comp == b.category.comp


# -- length bounds for degree windows ---------------------------------------


def test_length_bound_dag():
    # acyclic letter graph: bound = longest path, independent of the window
    c = COALGEBRA_LIBRARY["dag"](QQ)
    assert cobar_length_bound(c, -3, 1) == 2
    assert cobar_length_bound(c, 0, 5) == 2


def test_length_bound_negative_cycles():
    # single letter of shifted degree -1: length n words sit in degree -n
    c = COALGEBRA_LIBRARY["w"](QQ)
    assert cobar_length_bound(c, -3, 1) == 3
    assert cobar_length_bound(c, 0, 5) == 0


def test_length_bound_positive_cycles():
    c = COALGEBRA_LIBRARY["primitive_pair"](QQ)  # letters in degrees 1, 2
    assert cobar_length_bound(c, -3, 1) == 0
    assert cobar_length_bound(c, 0, 5) == 2


def test_length_bound_refuses_zero_cycles():
    assert cobar_length_bound(COALGEBRA_LIBRARY["neg_primitive"](QQ), -3, 1) is None
    assert cobar_length_bound(COALGEBRA_LIBRARY["curved_chain"](QQ), -3, 1) is None


def test_length_bound_sentinels():
    assert cobar_length_bound(FinalCoalgebra(QQ), -5, 5) == 0
    assert cobar_length_bound(zero_coalgebra(QQ), -5, 5) == 0


def test_length_bound_is_sound():
    # every materialized word inside the window respects the bound
    for name in ["dag", "w", "primitive_pair", "cancel"]:
        c = COALGEBRA_LIBRARY[name](QQ)
        lo, hi = -3, 2
        bound = cobar_length_bound(c, lo, hi)
        assert bound is not None
        res = cobar_construction(c, length_cap=bound + 3)
        for k in res.category.quiver.keys():
            if lo <= k[2] <= hi and len(k[3]) > bound:
                raise AssertionError(f"{name}: word {k} beats the bound {bound}")
